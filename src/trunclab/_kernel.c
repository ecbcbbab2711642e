/* Union-find clustering of a block of percolation trials.
 *
 * Built and loaded by kernel.py.  A block holds `rows` trials of one window
 * with `n` vertices and `n_edges` edges.  Each trial is clustered with a
 * union-find forest that lives in its own row of `labels`: the root of a
 * component is always its smallest vertex index (unions hang the larger root
 * under the smaller, path halving only moves pointers down), so the final
 * label of a vertex is that index plus `row * n`, unique across the block.
 *
 * Every entry point first lists a trial's open edges in the caller's scratch
 * array `listed` (one slot per edge; an index is always written and the
 * count advances only when the edge is open, so the draw loop has no
 * data-dependent branch), then unites the endpoints of the listed edges.
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

/* Trial `start + row` opens edge e iff (mix64(keys[e] ^ stamp) >> 11) <
 * thresholds[e], the keyed stream of rng.py compared as integers. */
void keyed_labels(int64_t rows, int32_t n, int64_t n_edges, const int32_t *edges_u,
                  const int32_t *edges_v, int32_t *listed, const uint64_t *keys,
                  const uint64_t *thresholds, uint64_t seed, int64_t start, uint8_t *open,
                  int32_t *labels)
{
    for (int64_t row = 0; row < rows; row++) {
        uint8_t *is_open = open + row * n_edges;
        uint64_t stamp = mix64(seed ^ mix64((uint64_t)(start + row) + 1));
        int64_t count = 0;
        for (int64_t e = 0; e < n_edges; e++) {
            uint8_t opened = (mix64(keys[e] ^ stamp) >> 11) < thresholds[e];
            is_open[e] = opened;
            listed[count] = (int32_t)e;
            count += opened;
        }
        label_row(labels + row * n, n, (int32_t)(row * n), edges_u, edges_v, listed, count);
    }
}

/* Trial t = start + row opens edge e iff (word >> 11) < thresholds[e], where
 * word is word e % 4 of the Philox4x64-10 block t * ceil(n_edges / 4) + 1 +
 * e / 4 under key (seed, 0): the indexed stream of rng.py, whose uniforms
 * numpy computes as (word >> 11) * 2^-53, compared as integers. */
void indexed_labels(int64_t rows, int32_t n, int64_t n_edges, const int32_t *edges_u,
                    const int32_t *edges_v, int32_t *listed, const uint64_t *thresholds,
                    uint64_t seed, int64_t start, uint8_t *open, int32_t *labels)
{
    uint64_t blocks = (uint64_t)(n_edges + 3) / 4;
    for (int64_t row = 0; row < rows; row++) {
        uint8_t *is_open = open + row * n_edges;
        unsigned __int128 block = (unsigned __int128)(uint64_t)(start + row) * blocks + 1;
        int64_t count = 0;
        for (int64_t e = 0; e < n_edges; e += 4, block++) {
            uint64_t word[4];
            philox4x64_10((uint64_t)block, (uint64_t)(block >> 64), seed, word);
            int64_t width = n_edges - e < 4 ? n_edges - e : 4;
            for (int64_t w = 0; w < width; w++) {
                uint8_t opened = (word[w] >> 11) < thresholds[e + w];
                is_open[e + w] = opened;
                listed[count] = (int32_t)(e + w);
                count += opened;
            }
        }
        label_row(labels + row * n, n, (int32_t)(row * n), edges_u, edges_v, listed, count);
    }
}
