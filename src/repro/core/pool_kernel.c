/* The SamplerPool batch ingest loop: the scalar update() rule, compiled.
 *
 * For every item of a chunk: advance the position t, replace-top the
 * (time, idx) min-heap while its top is due at t, then bump the item's
 * shared counter if it is tracked.  Each event draws one uniform through
 * the generator's own next_double, so the RNG stream advances exactly as
 * in the Python loop.  Tracked items live in an open-addressed table of
 * (item, count, refs, born) rows; `born` numbers insertions so the
 * caller can rebuild its counter dicts in their insertion order.
 *
 * Built and loaded by repro.core.ingest_kernel; no Python API is used,
 * so the call runs with the GIL released.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef double (*next_double_fn)(void *);

enum { ITEM, COUNT, REFS, BORN, HELD, ROW };

#define GOLDEN 0x9E3779B97F4A7C15ULL

static inline uint64_t home(int64_t item, int shift) {
    return ((uint64_t)item * GOLDEN) >> shift;
}

/* Row of `item`, or -1.  A row with refs == 0 is empty. */
static inline int64_t find(const int64_t *tab, uint64_t mask, int shift,
                           int64_t item) {
    uint64_t i = home(item, shift);
    while (tab[ROW * i + REFS]) {
        if (tab[ROW * i + ITEM] == item) return (int64_t)i;
        i = (i + 1) & mask;
    }
    return -1;
}

static int64_t insert(int64_t *tab, uint64_t mask, int shift, int64_t item,
                      int64_t count, int64_t refs, int64_t born) {
    uint64_t i = home(item, shift);
    while (tab[ROW * i + REFS]) i = (i + 1) & mask;
    int64_t *row = tab + ROW * i;
    row[ITEM] = item;
    row[COUNT] = count;
    row[REFS] = refs;
    row[BORN] = born;
    row[HELD] = 0;
    return (int64_t)i;
}

/* Linear-probing delete by backward shift: no tombstones. */
static void erase(int64_t *tab, uint64_t mask, int shift, uint64_t i) {
    uint64_t j = i;
    for (;;) {
        j = (j + 1) & mask;
        if (!tab[ROW * j + REFS]) break;
        uint64_t k = home(tab[ROW * j + ITEM], shift);
        int stays = (i <= j) ? (i < k && k <= j) : (i < k || k <= j);
        if (!stays) {
            for (int c = 0; c < ROW; ++c) tab[ROW * i + c] = tab[ROW * j + c];
            i = j;
        }
    }
    tab[ROW * i + REFS] = 0;
}

/* Pop the heap top and push (time, idx) in one sift-down; heap entries
 * are interleaved (time, idx) pairs ordered lexicographically. */
static void replace_top(int64_t *heap, int64_t r, int64_t time, int64_t idx) {
    int64_t pos = 0;
    for (;;) {
        int64_t c = 2 * pos + 1;
        if (c >= r) break;
        if (c + 1 < r && (heap[2 * c + 2] < heap[2 * c]
                          || (heap[2 * c + 2] == heap[2 * c]
                              && heap[2 * c + 3] < heap[2 * c + 1])))
            ++c;
        if (heap[2 * c] > time || (heap[2 * c] == time && heap[2 * c + 1] > idx))
            break;
        heap[2 * pos] = heap[2 * c];
        heap[2 * pos + 1] = heap[2 * c + 1];
        pos = c;
    }
    heap[2 * pos] = time;
    heap[2 * pos + 1] = idx;
}

/* max(t + 1, ceil(t / u)), saturating at INT64_MAX where the Python
 * rule's integer would not fit an int64. */
static inline int64_t next_wake(int64_t t, double u) {
    if (u <= 0.0) return t + 1;
    double q = (double)t / u;
    if (q >= 9223372036854775808.0) return INT64_MAX;
    int64_t nxt = (int64_t)ceil(q);
    return nxt > t ? nxt : t + 1;
}

static int by_born(const void *a, const void *b) {
    int64_t x = ((const int64_t *)a)[BORN], y = ((const int64_t *)b)[BORN];
    return (x > y) - (x < y);
}

/* Ingest `n` items.  `state` is read and written in place, laid out as
 *   [tracked | slot, live, offsets, stamps (r each) | heap (2r, a valid
 *    heap) | keys, counts, refs (room each)]
 * where the first `tracked` rows of keys/counts/refs are the tracked
 * items in insertion order and room >= max(tracked, r).  Returns the
 * number of heap events.  The structure is checked before anything is
 * written: -1 if a heap entry names no instance, a tracked item is
 * listed twice, or a tracked item's refs differ from the number of
 * live instances holding it (so every held item is tracked and at
 * most r items ever are); -2 if the scratch table cannot be allocated.
 * On either error `state` and the generator are untouched. */
int64_t repro_pool_ingest(const int64_t *items, int64_t n, int64_t t,
                          int64_t r, int64_t room, int64_t *state,
                          next_double_fn draw, void *bitgen) {
    int64_t *slot = state + 1, *live = slot + r, *offsets = live + r;
    int64_t *stamps = offsets + r, *heap = stamps + r, *keys = heap + 2 * r;
    int64_t *counts = keys + room, *refs = counts + room;
    int cap_log2 = 3;
    while (((int64_t)1 << cap_log2) <= 2 * room) ++cap_log2;
    uint64_t cap = (uint64_t)1 << cap_log2, mask = cap - 1;
    int shift = 64 - cap_log2;
    int64_t *tab = calloc(ROW * cap, sizeof(int64_t));
    if (!tab) return -2;
    int64_t born = state[0], events = 0;
    if (born < 0 || born > room) goto bad;
    for (int64_t k = 0; k < born; ++k) {
        if (refs[k] < 1 || find(tab, mask, shift, keys[k]) >= 0) goto bad;
        insert(tab, mask, shift, keys[k], counts[k], refs[k], k);
    }
    for (int64_t k = 0; k < r; ++k) {
        if (heap[2 * k + 1] < 0 || heap[2 * k + 1] >= r) goto bad;
        if (live[k]) {
            int64_t e = find(tab, mask, shift, slot[k]);
            if (e < 0) goto bad;
            ++tab[ROW * e + HELD];
        }
    }
    for (uint64_t i = 0; i < cap; ++i)
        if (tab[ROW * i + REFS] != tab[ROW * i + HELD]) goto bad;
    for (int64_t p = 0; p < n; ++p) {
        int64_t item = items[p];
        ++t;
        while (heap[0] == t) {
            int64_t idx = heap[1];
            ++events;
            if (live[idx]) {
                int64_t e = find(tab, mask, shift, slot[idx]);
                if (--tab[ROW * e + REFS] == 0) erase(tab, mask, shift, (uint64_t)e);
            }
            slot[idx] = item;
            live[idx] = 1;
            int64_t e = find(tab, mask, shift, item);
            if (e < 0)
                e = insert(tab, mask, shift, item, 0, 1, born++);
            else
                ++tab[ROW * e + REFS];
            offsets[idx] = tab[ROW * e + COUNT];
            stamps[idx] = t;
            replace_top(heap, r, next_wake(t, draw(bitgen)), idx);
        }
        int64_t e = find(tab, mask, shift, item);
        if (e >= 0) ++tab[ROW * e + COUNT];
    }
    /* Live rows to the front, in insertion order. */
    int64_t m = 0;
    for (uint64_t i = 0; i < cap; ++i) {
        if (!tab[ROW * i + REFS]) continue;
        for (int c = 0; c < ROW; ++c) tab[ROW * m + c] = tab[ROW * i + c];
        ++m;
    }
    qsort(tab, (size_t)m, ROW * sizeof(int64_t), by_born);
    for (int64_t k = 0; k < m; ++k) {
        keys[k] = tab[ROW * k + ITEM];
        counts[k] = tab[ROW * k + COUNT];
        refs[k] = tab[ROW * k + REFS];
    }
    state[0] = m;
    free(tab);
    return events;
bad:
    free(tab);
    return -1;
}
