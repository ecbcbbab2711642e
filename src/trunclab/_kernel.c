/* Union-find clustering of a block of percolation trials.
 *
 * Built and loaded by kernel.py.  A block holds `rows` trials of one window
 * with `n` vertices and `n_edges` edges.  Each trial is clustered with a
 * union-find forest that lives in its own row of `labels`: the root of a
 * component is always its smallest vertex index (unions hang the larger root
 * under the smaller, path halving only moves pointers down), so the final
 * label of a vertex is that index plus `row * n`, unique across the block.
 */
#include <stdint.h>

static inline uint64_t mix64(uint64_t z)
{
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
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

static inline void start_row(int32_t *parent, int32_t n)
{
    for (int32_t i = 0; i < n; i++)
        parent[i] = i;
}

/* parent[i] <= i holds for every vertex, so in increasing order each parent
 * already carries its root's final label when it is read. */
static inline void finish_row(int32_t *parent, int32_t n, int32_t offset)
{
    for (int32_t i = 0; i < n; i++)
        parent[i] = parent[i] == i ? i + offset : parent[parent[i]];
}

void mask_labels(int64_t rows, int32_t n, int64_t n_edges, const int32_t *edges_u,
                 const int32_t *edges_v, const uint8_t *open, int32_t *labels)
{
    for (int64_t row = 0; row < rows; row++) {
        int32_t *parent = labels + row * n;
        const uint8_t *is_open = open + row * n_edges;
        start_row(parent, n);
        for (int64_t e = 0; e < n_edges; e++)
            if (is_open[e])
                unite(parent, edges_u[e], edges_v[e]);
        finish_row(parent, n, (int32_t)(row * n));
    }
}

/* Trial `start + row` opens edge e iff (mix64(keys[e] ^ stamp) >> 11) <
 * thresholds[e], the keyed stream of rng.py compared as integers. */
void keyed_labels(int64_t rows, int32_t n, int64_t n_edges, const int32_t *edges_u,
                  const int32_t *edges_v, const uint64_t *keys, const uint64_t *thresholds,
                  uint64_t seed, int64_t start, uint8_t *open, int32_t *labels)
{
    for (int64_t row = 0; row < rows; row++) {
        int32_t *parent = labels + row * n;
        uint8_t *is_open = open + row * n_edges;
        uint64_t stamp = mix64(seed ^ mix64((uint64_t)(start + row) + 1));
        start_row(parent, n);
        for (int64_t e = 0; e < n_edges; e++) {
            is_open[e] = (mix64(keys[e] ^ stamp) >> 11) < thresholds[e];
            if (is_open[e])
                unite(parent, edges_u[e], edges_v[e]);
        }
        finish_row(parent, n, (int32_t)(row * n));
    }
}
