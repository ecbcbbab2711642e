/* Union-find labels of a block of given open masks (mask_labels), whether
 * each indexed trial joins two terminal sets (indexed_hits), a search for the
 * origin's reach that draws only the edges it examines (keyed_reach), and
 * each keyed trial's crossing bottleneck by a sweep that sorts only the edges
 * whose words lie in the band of the call's earlier bottlenecks
 * (keyed_bottlenecks): the four exports.  Only indexed_hits draws the
 * indexed Philox stream.
 *
 * Built and loaded by kernel.py, which checks every array a call reads.  A
 * block holds `rows` trials of one window with `n` vertices and `n_edges`
 * edges.  mask_labels clusters each trial with a union-find forest that
 * lives in its own row of `labels`: the root of a component is always its
 * smallest vertex index (unions hang the larger root under the smaller, path
 * halving only moves pointers down), so the final label of a vertex is that
 * index plus `row * n`, unique across the block.
 *
 * mask_labels first lists a trial's open edges in the caller's scratch array
 * `listed` (one slot per edge; an index is always written and the count
 * advances only when the edge is open, so the listing loop has no
 * data-dependent branch), then unites the endpoints of the listed edges.
 * The bottleneck sweep lists a trial's edges in the same way, by where their
 * words lie against the band.  indexed_hits keeps no labels: it runs 64
 * trials to a machine word, one bit (lane) each, drawing their open edges as
 * bit planes and searching from the left terminals over the window's
 * incidence lists, in all 64 lanes at once, until every lane has hit.  Both
 * searches build those lists at entry, in the caller's scratch.
 */
#include <stdint.h>

static inline uint64_t mix64(uint64_t z)
{
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Trial t's stamp and an edge's 53-bit word (its uniform is word * 2^-53)
 * on the keyed stream of rng.py: a function of (key, seed, t) alone. */
static inline uint64_t keyed_stamp(uint64_t seed, int64_t t)
{
    return mix64(seed ^ mix64((uint64_t)t + 1));
}

static inline uint64_t keyed_word(uint64_t key, uint64_t stamp)
{
    return mix64(key ^ stamp) >> 11;
}

/* One Philox4x64 round (Salmon et al., SC 2011) on (a, b, c, d) under key
 * (k0, k1), followed by the Weyl bump of the key. */
#define PHILOX_ROUND                                                        \
    do {                                                                    \
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * a; \
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * c; \
        uint64_t hi0 = (uint64_t)(p0 >> 64), hi1 = (uint64_t)(p1 >> 64);    \
        a = hi1 ^ b ^ k0;                                                   \
        b = (uint64_t)p1;                                                   \
        c = hi0 ^ d ^ k1;                                                   \
        d = (uint64_t)p0;                                                   \
        k0 += 0x9E3779B97F4A7C15ULL;                                        \
        k1 += 0xBB67AE8584CAA73BULL;                                        \
    } while (0)

/* Philox4x64-10 of the 256-bit counter (lo, hi, 0, 0) under key (seed, 0):
 * the four words numpy's Philox(key=seed) emits for that counter. */
static inline void philox4x64_10(uint64_t lo, uint64_t hi, uint64_t seed, uint64_t word[4])
{
    uint64_t a = lo, b = hi, c = 0, d = 0, k0 = seed, k1 = 0;
    PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND;
    PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND; PHILOX_ROUND;
    word[0] = a;
    word[1] = b;
    word[2] = c;
    word[3] = d;
}

static inline int32_t find(int32_t *parent, int32_t x)
{
    while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    return x;
}

static inline void unite(int32_t *parent, int32_t a, int32_t b)
{
    a = find(parent, a);
    b = find(parent, b);
    if (a < b)
        parent[b] = a;
    else if (b < a)
        parent[a] = b;
}

/* Labels each row of a block of open masks.  parent[i] <= i holds for every
 * vertex, so in increasing order each parent already carries its root's
 * final label when it is read. */
void mask_labels(int64_t rows, int32_t n, int64_t n_edges, const int32_t *edges_u,
                 const int32_t *edges_v, int32_t *listed, const uint8_t *open, int32_t *labels)
{
    for (int64_t row = 0; row < rows; row++) {
        const uint8_t *is_open = open + row * n_edges;
        int32_t *parent = labels + row * n;
        const int32_t offset = (int32_t)(row * n);
        int64_t count = 0;
        for (int64_t e = 0; e < n_edges; e++) {
            listed[count] = (int32_t)e;
            count += is_open[e];
        }
        for (int32_t i = 0; i < n; i++)
            parent[i] = i;
        for (int64_t i = 0; i < count; i++)
            unite(parent, edges_u[listed[i]], edges_v[listed[i]]);
        for (int32_t i = 0; i < n; i++)
            parent[i] = parent[i] == i ? i + offset : parent[parent[i]];
    }
}

/* Unites the components of u and v, the smaller root taking the other
 * (itself, if they are one), and returns whether the united component holds
 * a left and a right terminal: reached[r] holds the side bits of root r's
 * members. */
static inline int joins(int32_t *parent, uint8_t *reached, int32_t u, int32_t v)
{
    int32_t a = find(parent, u), b = find(parent, v);
    int32_t root = a < b ? a : b;
    parent[a] = parent[b] = root;
    reached[root] = reached[a] | reached[b];
    return reached[root] == 3;
}

/* Makes every vertex its own root, carrying its side bits. */
static inline void reset_sides(int32_t n, const uint8_t *sides, int32_t *parent, uint8_t *reached)
{
    for (int32_t v = 0; v < n; v++) {
        parent[v] = v;
        reached[v] = sides[v];
    }
}

/* Whether some vertex is both a left and a right terminal: then every trial
 * joins the sets, with no edge open. */
static int shared_terminal(int32_t n, const uint8_t *sides)
{
    int joined = 0;
    for (int32_t v = 0; v < n; v++)
        joined |= sides[v] == 3;
    return joined;
}

/* ceil(p * 2^53) for p in [0, 1], rng.open_thresholds of one edge: p * 2^53
 * is exact, and so is its integer part, which is at most 2^53. */
static inline uint64_t open_threshold(double p)
{
    double scaled = p * 9007199254740992.0;
    uint64_t whole = (uint64_t)scaled;
    return whole + ((double)whole < scaled);
}

/* Fills the incidence lists of a window's `n` vertices: the edges at vertex
 * v are incident[offsets[v] .. offsets[v + 1] - 1], in increasing edge
 * order.  `offsets` holds n + 1 zeros on entry and `incident` has two slots
 * per edge.  A counting sort: it allocates nothing. */
static void incidence(int32_t n, int64_t n_edges, const int32_t *edges_u, const int32_t *edges_v,
                      int32_t *offsets, int32_t *incident)
{
    for (int64_t e = 0; e < n_edges; e++) {
        offsets[edges_u[e] + 1]++;
        offsets[edges_v[e] + 1]++;
    }
    for (int32_t v = 0; v < n; v++)
        offsets[v + 1] += offsets[v];
    /* offsets[v] walks through v's slots, ending at the start of v + 1's. */
    for (int64_t e = 0; e < n_edges; e++) {
        incident[offsets[edges_u[e]]++] = (int32_t)e;
        incident[offsets[edges_v[e]]++] = (int32_t)e;
    }
    for (int32_t v = n; v > 0; v--)
        offsets[v] = offsets[v - 1];
    offsets[0] = 0;
}

/* planes[e] = the lanes 0 .. lanes - 1 whose indexed trial t = first + lane
 * opens edge e: word e % 4 of Philox4x64-10 block t * ceil(n_edges / 4) + 1 +
 * e / 4 under key (seed, 0), shifted right by 11, is below thresholds[e] =
 * ceil(probs[e] * 2^53), as numpy's uniforms open edges with u < p.  Each
 * Philox block is drawn for every lane in turn, and its four words are
 * compared as they come, so no word is stored and the four plane words stay
 * in registers; a block's slots past the last edge compare against 0. */
static void indexed_planes(uint64_t seed, int64_t first, int lanes, int64_t n_edges, const uint64_t *thresholds,
                           uint64_t *planes)
{
    const uint64_t blocks = (uint64_t)(n_edges + 3) / 4;
    for (int64_t e = 0; e < n_edges; e += 4) {
        const int64_t width = n_edges - e < 4 ? n_edges - e : 4;
        uint64_t below[4] = {0, 0, 0, 0}, plane[4] = {0, 0, 0, 0};
        for (int64_t w = 0; w < width; w++)
            below[w] = thresholds[e + w];
        unsigned __int128 block = (unsigned __int128)(uint64_t)first * blocks + 1 + (uint64_t)e / 4;
        for (int lane = 0; lane < lanes; lane++, block += blocks) {
            uint64_t word[4];
            philox4x64_10((uint64_t)block, (uint64_t)(block >> 64), seed, word);
            for (int w = 0; w < 4; w++)
                plane[w] |= (uint64_t)((word[w] >> 11) < below[w]) << lane;
        }
        for (int64_t w = 0; w < width; w++)
            planes[e + w] = plane[w];
    }
}

/* hits[row] = whether indexed trial start + row joins the left terminals
 * (bit 1 of sides[v]) to the right ones (bit 2).  The trials go 64 to a
 * machine word, one bit (lane) each, the multi-spin coding of lattice Monte
 * Carlo (Zorn, Herrmann and Rebbi, Comput. Phys. Commun. 23, 1981):
 * planes[e] holds the lanes that open edge e, and reach[v] the lanes in
 * which v joins a left terminal.  A frontier search from the left terminals
 * over the incidence lists (offsets, incident), built at entry, moves the
 * lanes that newly reached x, pending[x], across each edge e to its other
 * end y, adding pending[x] & planes[e] & ~reach[y] to reach[y]; y is queued
 * (a ring of n slots: a vertex is queued at most once, while its pending
 * word is nonzero) only when its word grows.  So every lane crosses every
 * edge at most once.  Lanes that have hit spread no further, and a group's
 * search stops once every lane has hit; the vertices are reset once per
 * group.  thresholds[e] is rng.open_thresholds of edge e's probability.
 * `offsets` (n + 1 zeros), `incident`, `planes`, `reach`, `pending` and
 * `queue` are scratch.  A call writes only its scratch and hits, so calls on
 * disjoint ranges, each with its own scratch, may run at once. */
void indexed_hits(int64_t rows, int32_t n, int64_t n_edges, const int32_t *edges_u, const int32_t *edges_v,
                  const uint64_t *thresholds, const uint8_t *sides, uint64_t seed, int64_t start,
                  int32_t *offsets, int32_t *incident, uint64_t *planes, uint64_t *reach, uint64_t *pending,
                  int32_t *queue, uint8_t *hits)
{
    const int joined = shared_terminal(n, sides);
    incidence(n, n_edges, edges_u, edges_v, offsets, incident);
    for (int64_t first = 0; first < rows; first += 64) {
        const int lanes = rows - first < 64 ? (int)(rows - first) : 64;
        const uint64_t every = ~(uint64_t)0 >> (64 - lanes);
        uint64_t hit = joined ? every : 0;
        if (!hit) {
            indexed_planes(seed, start + first, lanes, n_edges, thresholds, planes);
            int32_t head = 0, count = 0;
            for (int32_t v = 0; v < n; v++) {
                reach[v] = pending[v] = sides[v] & 1 ? every : 0;
                if (sides[v] & 1)
                    queue[count++] = v;
            }
            while (count > 0 && hit != every) {
                int32_t x = queue[head];
                head = head + 1 == n ? 0 : head + 1;
                count--;
                uint64_t spread = pending[x] & ~hit;
                pending[x] = 0;
                for (int32_t i = offsets[x]; spread && i < offsets[x + 1]; i++) {
                    int32_t e = incident[i];
                    int32_t y = edges_u[e] ^ edges_v[e] ^ x;
                    uint64_t add = spread & planes[e] & ~reach[y];
                    if (!add)
                        continue;
                    reach[y] |= add;
                    if (sides[y] & 2)
                        hit |= add;
                    if (!pending[y]) {
                        int32_t tail = head + count < n ? head + count : head + count - n;
                        queue[tail] = y;
                        count++;
                    }
                    pending[y] |= add;
                }
            }
        }
        for (int lane = 0; lane < lanes; lane++)
            hits[first + lane] = (uint8_t)(hit >> lane & 1);
    }
}

/* The bottleneck of one trial, whose words are `words`, if it lies in the
 * band [cut, top); otherwise some value outside the band.  The edges whose
 * words lie below cut are united in index order, unsorted: if they already
 * join the terminals, the bottleneck lies below the band and 0 is returned.
 * Otherwise the edges whose words lie in the band are put into 2^bits
 * buckets of (word - cut) >> shift by a counting sort, about one edge per
 * bucket (`counts` has 2^bits + 1 slots); only the bucket being consumed is
 * put in exact order, by insertion sort.  They are united in that order
 * until the terminals join, and the joining edge's word is returned; if the
 * band is used up first, 2^53 is returned, which lies in the band only when
 * the band holds every word.  The full band [0, 2^53 + 1) is the plain
 * sweep.  `listed` takes the edges below the band from its front and those
 * in the band from its back: each edge is written at both ends but counted
 * at most at one, so the listing loop has no data-dependent branch. */
static uint64_t band_bottleneck(int32_t n, int64_t n_edges, const int32_t *edges_u, const int32_t *edges_v,
                                const uint8_t *sides, const uint64_t *words, uint64_t cut, uint64_t top,
                                int32_t *listed, int32_t *order, int64_t *counts, int32_t *parent,
                                uint8_t *reached)
{
    const uint64_t never = (uint64_t)1 << 53;
    reset_sides(n, sides, parent, reached);
    int64_t below = 0, inside = 0;
    for (int64_t e = 0; e < n_edges; e++) {
        listed[below] = (int32_t)e;
        listed[n_edges - 1 - inside] = (int32_t)e;
        below += words[e] < cut;
        inside += words[e] - cut < top - cut; /* wraps past the band below cut */
    }
    for (int64_t i = 0; i < below; i++)
        if (joins(parent, reached, edges_u[listed[i]], edges_v[listed[i]]))
            return 0;

    const int32_t *band = listed + n_edges - inside;
    int32_t bits = 1;
    while (((int64_t)1 << bits) <= inside)
        bits++;
    const int64_t buckets = (int64_t)1 << bits;
    /* Every word lies below 2^53, so the band's words span at most last + 1 values. */
    const uint64_t last = (top < never ? top : never) - cut - 1;
    int shift = 0;
    while (inside > 0 && (last >> shift) >= (uint64_t)buckets)
        shift++;
    for (int64_t k = 0; k <= buckets; k++)
        counts[k] = 0;
    for (int64_t i = 0; i < inside; i++)
        counts[((words[band[i]] - cut) >> shift) + 1]++;
    for (int64_t k = 0; k < buckets; k++)
        counts[k + 1] += counts[k];
    /* counts[k] walks through bucket k, ending at the start of bucket k + 1. */
    for (int64_t i = 0; i < inside; i++)
        order[counts[(words[band[i]] - cut) >> shift]++] = band[i];

    for (int64_t k = 0, begin = 0; k < buckets; begin = counts[k++]) {
        for (int64_t i = begin + 1; i < counts[k]; i++) {
            int32_t e = order[i];
            int64_t j = i;
            for (; j > begin && words[order[j - 1]] > words[e]; j--)
                order[j] = order[j - 1];
            order[j] = e;
        }
        for (int64_t i = begin; i < counts[k]; i++)
            if (joins(parent, reached, edges_u[order[i]], edges_v[order[i]]))
                return words[order[i]];
    }
    return never;
}

/* The bottleneck of keyed trial t = start + row: the word at which the
 * window's left and right terminals first join when its edges open in
 * increasing word order, a Kruskal sweep (Newman and Ziff, Phys. Rev. Lett.
 * 85, 4104, 2000); 0 if a vertex is in both sets, 2^53 if they never join.
 * Edge e's word is keyed_word(keys[e], keyed_stamp(seed, t)), so the trial
 * crosses at p exactly when its bottleneck is below ceil(p * 2^53).
 * sides[v] has bit 1 set for a left terminal and bit 2 for a right one.
 * Each trial is swept over the band [cut, top) of the bottlenecks found so
 * far in the call (cut the least, top one above the largest), so only the
 * edges inside the band are sorted; a trial whose bottleneck falls outside
 * the band, about 2 ln(rows) record lows and highs, is swept again over the
 * full band, as the first trial is.  The value does not depend on the band,
 * so a call on any part of a range gives that part's values.  `words`,
 * `listed`, `order`, `counts`, `parent` and `reached` are scratch.  A call
 * writes only its scratch and bottleneck, so calls on disjoint ranges, each
 * with its own scratch, may run at once. */
void keyed_bottlenecks(int64_t rows, int32_t n, int64_t n_edges, const int32_t *edges_u,
                       const int32_t *edges_v, const uint64_t *keys, const uint8_t *sides, uint64_t seed,
                       int64_t start, uint64_t *words, int32_t *listed, int32_t *order, int64_t *counts,
                       int32_t *parent, uint8_t *reached, uint64_t *bottleneck)
{
    const uint64_t never = (uint64_t)1 << 53;
    const int joined = shared_terminal(n, sides);
    uint64_t cut = 0, top = never + 1;
    for (int64_t row = 0; row < rows; row++) {
        uint64_t found = 0;
        if (!joined) {
            const uint64_t stamp = keyed_stamp(seed, start + row);
            for (int64_t e = 0; e < n_edges; e++)
                words[e] = keyed_word(keys[e], stamp);
            found = band_bottleneck(n, n_edges, edges_u, edges_v, sides, words, cut, top, listed, order,
                                    counts, parent, reached);
            if (found < cut || found >= top)
                found = band_bottleneck(n, n_edges, edges_u, edges_v, sides, words, 0, never + 1, listed,
                                        order, counts, parent, reached);
        }
        bottleneck[row] = found;
        cut = row == 0 || found < cut ? found : cut;
        top = row == 0 || found >= top ? found + 1 : top;
    }
}

/* Reach of the origin's cluster on keyed trials start .. start + rows - 1,
 * as the largest level in it (levels[v] ranks vertex v's norm among the
 * window's norms; top is the largest rank).  A best-first search from the
 * origin: it always expands a frontier vertex of the largest level, kept in
 * a bucket queue (heads[k] starts a list of frontier vertices of level k,
 * linked through next), and stops when the frontier is empty or a vertex
 * of level top is found.  An edge to an unvisited vertex is drawn when the
 * search examines it: trial t opens edge e iff keyed_word(keys[e],
 * keyed_stamp(seed, t)) is below the threshold of its probability, so the
 * reach is exact.  The search runs over the incidence lists (offsets,
 * incident), built at entry.  visited[v] holds the last row that reached v,
 * so no mark is cleared between trials.  `offsets` (n + 1 zeros),
 * `incident`, `visited`, `next` and `heads` are scratch. */
void keyed_reach(int64_t rows, int32_t n, int64_t n_edges, const int32_t *edges_u, const int32_t *edges_v,
                 const uint64_t *keys, const double *probs, const int32_t *levels, int32_t top, int32_t origin,
                 uint64_t seed, int64_t start, int32_t *offsets, int32_t *incident, int64_t *visited,
                 int32_t *next, int32_t *heads, int32_t *reach)
{
    incidence(n, n_edges, edges_u, edges_v, offsets, incident);
    for (int32_t v = 0; v < n; v++)
        visited[v] = -1;
    for (int64_t row = 0; row < rows; row++) {
        const uint64_t stamp = keyed_stamp(seed, start + row);
        for (int32_t k = 0; k <= top; k++)
            heads[k] = -1;
        int32_t level = levels[origin], best = level;
        visited[origin] = row;
        next[origin] = -1;
        heads[level] = origin;
        while (best < top) {
            while (level >= 0 && heads[level] < 0)
                level--;
            if (level < 0)
                break;
            int32_t x = heads[level];
            heads[level] = next[x];
            for (int32_t i = offsets[x]; i < offsets[x + 1]; i++) {
                int32_t e = incident[i];
                int32_t y = edges_u[e] ^ edges_v[e] ^ x;
                if (visited[y] == row || keyed_word(keys[e], stamp) >= open_threshold(probs[e]))
                    continue;
                visited[y] = row;
                next[y] = heads[levels[y]];
                heads[levels[y]] = y;
                if (levels[y] > level)
                    level = levels[y];
                if (levels[y] > best)
                    best = levels[y];
            }
        }
        reach[row] = best;
    }
}
