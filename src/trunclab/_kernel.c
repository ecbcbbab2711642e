/* Union-find clustering of a block of percolation trials, a search for the
 * origin's reach that draws only the edges it examines (keyed_reach), and
 * each trial's crossing bottleneck (indexed_bottlenecks).
 *
 * Built and loaded by kernel.py.  A block holds `rows` trials of one window
 * with `n` vertices and `n_edges` edges.  Each trial is clustered with a
 * union-find forest that lives in its own row of `labels`: the root of a
 * component is always its smallest vertex index (unions hang the larger root
 * under the smaller, path halving only moves pointers down), so the final
 * label of a vertex is that index plus `row * n`, unique across the block.
 *
 * The labelling entry points first list a trial's open edges in the caller's
 * scratch array `listed` (one slot per edge; an index is always written and
 * the count advances only when the edge is open, so the draw loop has no
 * data-dependent branch), then unite the endpoints of the listed edges.
 */
#include <stdint.h>

static inline uint64_t mix64(uint64_t z)
{
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
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

/* Labels one trial's row from its `count` listed open edges.  parent[i] <= i
 * holds for every vertex, so in increasing order each parent already
 * carries its root's final label when it is read. */
static inline void label_row(int32_t *parent, int32_t n, int32_t offset, const int32_t *edges_u,
                             const int32_t *edges_v, const int32_t *listed, int64_t count)
{
    for (int32_t i = 0; i < n; i++)
        parent[i] = i;
    for (int64_t i = 0; i < count; i++)
        unite(parent, edges_u[listed[i]], edges_v[listed[i]]);
    for (int32_t i = 0; i < n; i++)
        parent[i] = parent[i] == i ? i + offset : parent[parent[i]];
}

void mask_labels(int64_t rows, int32_t n, int64_t n_edges, const int32_t *edges_u,
                 const int32_t *edges_v, int32_t *listed, const uint8_t *open, int32_t *labels)
{
    for (int64_t row = 0; row < rows; row++) {
        const uint8_t *is_open = open + row * n_edges;
        int64_t count = 0;
        for (int64_t e = 0; e < n_edges; e++) {
            listed[count] = (int32_t)e;
            count += is_open[e];
        }
        label_row(labels + row * n, n, (int32_t)(row * n), edges_u, edges_v, listed, count);
    }
}

/* The 53-bit words (word >> 11) of indexed trial t over n_edges edges:
 * edge e takes word e % 4 of the Philox4x64-10 block t * ceil(n_edges / 4) +
 * 1 + e / 4 under key (seed, 0), the indexed stream of rng.py, whose uniforms
 * numpy computes as (word >> 11) * 2^-53. */
static void indexed_words(uint64_t seed, int64_t t, int64_t n_edges, uint64_t *words)
{
    uint64_t blocks = (uint64_t)(n_edges + 3) / 4;
    unsigned __int128 block = (unsigned __int128)(uint64_t)t * blocks + 1;
    for (int64_t e = 0; e < n_edges; e += 4, block++) {
        uint64_t word[4];
        philox4x64_10((uint64_t)block, (uint64_t)(block >> 64), seed, word);
        int64_t width = n_edges - e < 4 ? n_edges - e : 4;
        for (int64_t w = 0; w < width; w++)
            words[e + w] = word[w] >> 11;
    }
}

/* Trial t = start + row opens edge e iff its indexed word is below
 * thresholds[e]: the edges numpy's uniforms open with u < p, compared as
 * integers.  `words` is scratch of one slot per edge. */
void indexed_labels(int64_t rows, int32_t n, int64_t n_edges, const int32_t *edges_u,
                    const int32_t *edges_v, int32_t *listed, const uint64_t *thresholds,
                    uint64_t seed, int64_t start, uint64_t *words, int32_t *labels)
{
    for (int64_t row = 0; row < rows; row++) {
        indexed_words(seed, start + row, n_edges, words);
        int64_t count = 0;
        for (int64_t e = 0; e < n_edges; e++) {
            listed[count] = (int32_t)e;
            count += words[e] < thresholds[e];
        }
        label_row(labels + row * n, n, (int32_t)(row * n), edges_u, edges_v, listed, count);
    }
}

/* The bottleneck of indexed trial t = start + row: the word at which the
 * window's left and right terminals first join when its edges open in
 * increasing word order, a Kruskal sweep (Newman and Ziff, Phys. Rev. Lett.
 * 85, 4104, 2000); 0 if a vertex is in both sets, 2^53 if they never join.
 * So the trial crosses at p exactly when its bottleneck is below
 * ceil(p * 2^53), the indexed_labels test.  sides[v] has bit 1 set for a left
 * terminal and bit 2 for a right one; reached[r] holds the bits of the
 * members of root r.  A counting sort on the top `bits` of the words puts
 * the edges into 2^bits buckets in `order` (`counts` has 2^bits + 1 slots);
 * only the bucket being consumed is put in exact order, by insertion sort.
 * `words`, `order`, `counts`, `parent` and `reached` are scratch. */
void indexed_bottlenecks(int64_t rows, int32_t n, int64_t n_edges, const int32_t *edges_u,
                         const int32_t *edges_v, const uint8_t *sides, uint64_t seed, int64_t start,
                         int32_t bits, uint64_t *words, int32_t *order, int64_t *counts,
                         int32_t *parent, uint8_t *reached, uint64_t *bottleneck)
{
    const uint64_t never = (uint64_t)1 << 53;
    const int64_t buckets = (int64_t)1 << bits;
    const int shift = 53 - bits;
    for (int64_t row = 0; row < rows; row++) {
        indexed_words(seed, start + row, n_edges, words);
        for (int64_t k = 0; k <= buckets; k++)
            counts[k] = 0;
        for (int64_t e = 0; e < n_edges; e++)
            counts[(words[e] >> shift) + 1]++;
        for (int64_t k = 0; k < buckets; k++)
            counts[k + 1] += counts[k];
        /* counts[k] walks through bucket k, ending at the start of bucket k + 1. */
        for (int64_t e = 0; e < n_edges; e++)
            order[counts[words[e] >> shift]++] = (int32_t)e;

        uint64_t found = never;
        for (int32_t v = 0; v < n; v++) {
            parent[v] = v;
            reached[v] = sides[v];
            if (sides[v] == 3)
                found = 0;
        }
        for (int64_t k = 0, begin = 0; k < buckets && found == never; begin = counts[k++]) {
            for (int64_t i = begin + 1; i < counts[k]; i++) {
                int32_t e = order[i];
                int64_t j = i;
                for (; j > begin && words[order[j - 1]] > words[e]; j--)
                    order[j] = order[j - 1];
                order[j] = e;
            }
            for (int64_t i = begin; i < counts[k]; i++) {
                /* The smaller root takes the other (itself, if a == b). */
                int32_t a = find(parent, edges_u[order[i]]), b = find(parent, edges_v[order[i]]);
                int32_t root = a < b ? a : b;
                parent[a] = parent[b] = root;
                reached[root] = reached[a] | reached[b];
                if (reached[root] == 3) {
                    found = words[order[i]];
                    break;
                }
            }
        }
        bottleneck[row] = found;
    }
}

/* Fills the incidence lists of a window's `n` vertices: the edges at vertex
 * v are incident[offsets[v] .. offsets[v + 1] - 1], in increasing edge
 * order.  `offsets` holds n + 1 zeros on entry and `incident` has two slots
 * per edge.  A counting sort: it allocates nothing. */
void incidence(int32_t n, int64_t n_edges, const int32_t *edges_u, const int32_t *edges_v,
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

/* ceil(p * 2^53) for p in [0, 1], rng.open_thresholds of one edge: p * 2^53
 * is exact, and so is its integer part, which is at most 2^53. */
static inline uint64_t open_threshold(double p)
{
    double scaled = p * 9007199254740992.0;
    uint64_t whole = (uint64_t)scaled;
    return whole + ((double)whole < scaled);
}

/* Reach of the origin's cluster on keyed trials start .. start + rows - 1,
 * as the largest level in it (levels[v] ranks vertex v's norm among the
 * window's norms; top is the largest rank).  A best-first search from the
 * origin: it always expands a frontier vertex of the largest level, kept in
 * a bucket queue (heads[k] starts a list of frontier vertices of level k,
 * linked through next), and stops when the frontier is empty or a vertex
 * of level top is found.  An edge to an unvisited vertex is drawn when the
 * search examines it: trial t opens edge e iff (mix64(keys[e] ^ stamp) >> 11)
 * is below the threshold of its probability, with stamp = mix64(seed ^
 * mix64(t + 1)), the keyed stream of rng.py compared as integers.  So the
 * reach is exact and no threshold array is held.
 * visited[v] holds the last row that reached v, so no mark is cleared
 * between trials. */
void keyed_reach(int64_t rows, int32_t n, const int32_t *edges_u, const int32_t *edges_v,
                 const int32_t *offsets, const int32_t *incident, const uint64_t *keys,
                 const double *probs, const int32_t *levels, int32_t top, int32_t origin,
                 uint64_t seed, int64_t start, int64_t *visited, int32_t *next, int32_t *heads,
                 int32_t *reach)
{
    for (int32_t v = 0; v < n; v++)
        visited[v] = -1;
    for (int64_t row = 0; row < rows; row++) {
        uint64_t stamp = mix64(seed ^ mix64((uint64_t)(start + row) + 1));
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
                if (visited[y] == row || (mix64(keys[e] ^ stamp) >> 11) >= open_threshold(probs[e]))
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
