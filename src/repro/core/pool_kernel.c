/* SamplerPool's state buffer and the loops that run on it.
 *
 * A pool of r instances is one int64 buffer, owned by SamplerPool:
 *   [tracked | slot, live, offsets, stamps (r each) | heap (2r) |
 *    keys, counts, refs (room each)]
 * `heap` holds interleaved (time, idx) pairs, a lexicographic min-heap;
 * the first `tracked` key/count/ref rows are the tracked items in
 * insertion order, and room >= r bounds them (each tracked item is held
 * by at least one instance).
 *
 * repro_pool_ingest is the scalar update() rule, compiled: for every
 * item of a chunk, advance the position t, replace-top the heap while
 * its top is due at t, then bump the item's shared counter if it is
 * tracked.  Each event draws one uniform through the generator's own
 * next_double, so the RNG stream advances exactly as in the Python
 * loop.  A time-window generation also passes its items' arrival
 * times `ts` (n doubles) and its per-instance `wall` (r doubles): each
 * event writes the adopted item's arrival time to wall[idx], the rule
 * SamplerPool.stamp_arrivals applies in Python.  Other pools pass NULL
 * for both.  repro_pool_merge builds the merge of two pools from the pick
 * coins and the redrawn wakes; repro_pool_forward computes each
 * instance's forward count; repro_pool_check validates a buffer.
 * repro_count_union is not a pool loop: it merges the sorted item-count
 * tables a time-window Lp generation keeps beside its pool.
 * While they run, tracked items live in an open-addressed table of
 * (item, count, refs, born) rows; `born` numbers insertions so the
 * rows go back to the buffer in insertion order.
 *
 * Built and loaded by repro.core.ingest_kernel.  No Python API is used.
 * Only repro_pool_ingest is called with the GIL released (through
 * ctypes.CDLL); the short entry points, repro_pool_check,
 * repro_pool_merge, repro_pool_forward and repro_count_union, are
 * loaded through ctypes.PyDLL and keep it.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef double (*next_double_fn)(void *);

enum { ITEM, COUNT, REFS, BORN, HELD, ROW };

#define GOLDEN 0x9E3779B97F4A7C15ULL

typedef struct {
    int64_t *tab;
    uint64_t mask;
    int shift;
} table;

/* The views of one buffer. */
typedef struct {
    int64_t *slot, *live, *offsets, *stamps, *heap, *keys, *counts, *refs;
} layout;

static layout view(int64_t *state, int64_t r, int64_t room) {
    layout v;
    v.slot = state + 1;
    v.live = v.slot + r;
    v.offsets = v.live + r;
    v.stamps = v.offsets + r;
    v.heap = v.stamps + r;
    v.keys = v.heap + 2 * r;
    v.counts = v.keys + room;
    v.refs = v.counts + room;
    return v;
}

/* An empty table with room for `room` items at load <= 1/2. */
static int open_table(table *t, int64_t room) {
    int cap_log2 = 3;
    while (((int64_t)1 << cap_log2) <= 2 * room) ++cap_log2;
    uint64_t cap = (uint64_t)1 << cap_log2;
    t->mask = cap - 1;
    t->shift = 64 - cap_log2;
    t->tab = calloc(ROW * cap, sizeof(int64_t));
    return t->tab != NULL;
}

static inline uint64_t home(const table *t, int64_t item) {
    return ((uint64_t)item * GOLDEN) >> t->shift;
}

/* Row of `item`, or -1.  A row with refs == 0 is empty. */
static inline int64_t find(const table *t, int64_t item) {
    uint64_t i = home(t, item);
    while (t->tab[ROW * i + REFS]) {
        if (t->tab[ROW * i + ITEM] == item) return (int64_t)i;
        i = (i + 1) & t->mask;
    }
    return -1;
}

static int64_t insert(table *t, int64_t item, int64_t count, int64_t refs,
                      int64_t born) {
    uint64_t i = home(t, item);
    while (t->tab[ROW * i + REFS]) i = (i + 1) & t->mask;
    int64_t *row = t->tab + ROW * i;
    row[ITEM] = item;
    row[COUNT] = count;
    row[REFS] = refs;
    row[BORN] = born;
    row[HELD] = 0;
    return (int64_t)i;
}

/* Linear-probing delete by backward shift: no tombstones. */
static void erase(table *t, uint64_t i) {
    int64_t *tab = t->tab;
    uint64_t j = i;
    for (;;) {
        j = (j + 1) & t->mask;
        if (!tab[ROW * j + REFS]) break;
        uint64_t k = home(t, tab[ROW * j + ITEM]);
        int stays = (i <= j) ? (i < k && k <= j) : (i < k || k <= j);
        if (!stays) {
            for (int c = 0; c < ROW; ++c) tab[ROW * i + c] = tab[ROW * j + c];
            i = j;
        }
    }
    tab[ROW * i + REFS] = 0;
}

/* Check `state`'s structure and load its tracked rows into an open
 * table: 0 on success; -1 if tracked is outside [0, room], a live flag
 * is not 0/1, the heap slots are not a permutation of the instances, a
 * tracked item is listed twice, or a tracked item's refs differ from
 * the number of live instances holding it (so every held item is
 * tracked); -2 if the table cannot be allocated.  On success the caller
 * frees t->tab. */
static int load(table *t, const int64_t *state, int64_t r, int64_t room) {
    layout v = view((int64_t *)state, r, room);
    int64_t tracked = state[0];
    if (!open_table(t, room)) return -2;
    unsigned char *seen = calloc((size_t)r, 1);
    if (!seen) {
        free(t->tab);
        return -2;
    }
    if (tracked < 0 || tracked > room) goto bad;
    for (int64_t k = 0; k < tracked; ++k) {
        if (v.refs[k] < 1 || find(t, v.keys[k]) >= 0) goto bad;
        insert(t, v.keys[k], v.counts[k], v.refs[k], k);
    }
    for (int64_t k = 0; k < r; ++k) {
        int64_t idx = v.heap[2 * k + 1];
        if (idx < 0 || idx >= r || seen[idx]) goto bad;
        seen[idx] = 1;
        if (v.live[k] == 1) {
            int64_t e = find(t, v.slot[k]);
            if (e < 0) goto bad;
            ++t->tab[ROW * e + HELD];
        } else if (v.live[k] != 0) {
            goto bad;
        }
    }
    for (uint64_t i = 0; i <= t->mask; ++i)
        if (t->tab[ROW * i + REFS] != t->tab[ROW * i + HELD]) goto bad;
    free(seen);
    return 0;
bad:
    free(seen);
    free(t->tab);
    return -1;
}

static int by_born(const void *a, const void *b) {
    int64_t x = ((const int64_t *)a)[BORN], y = ((const int64_t *)b)[BORN];
    return (x > y) - (x < y);
}

/* Write the table's live rows back to the buffer in insertion order. */
static void store(table *t, int64_t *state, layout v) {
    int64_t *tab = t->tab, m = 0;
    for (uint64_t i = 0; i <= t->mask; ++i) {
        if (!tab[ROW * i + REFS]) continue;
        for (int c = 0; c < ROW; ++c) tab[ROW * m + c] = tab[ROW * i + c];
        ++m;
    }
    qsort(tab, (size_t)m, ROW * sizeof(int64_t), by_born);
    for (int64_t k = 0; k < m; ++k) {
        v.keys[k] = tab[ROW * k + ITEM];
        v.counts[k] = tab[ROW * k + COUNT];
        v.refs[k] = tab[ROW * k + REFS];
    }
    state[0] = m;
}

/* Sift (time, idx) down from `pos` into the r-entry heap.  Pairs
 * compare lexicographically; the smaller child is picked with bitwise
 * tests, not a branch the CPU would mispredict about half the time
 * (young pools are full of equal times). */
static void sift(int64_t *heap, int64_t r, int64_t pos, int64_t time,
                 int64_t idx) {
    int64_t c;
    while ((c = 2 * pos + 1) < r) {
        const int64_t *child = heap + 2 * c;
        if (c + 1 < r) {
            int right = (child[2] < child[0])
                        | ((child[2] == child[0]) & (child[3] < child[1]));
            c += right;
            child += 2 * right;
        }
        if ((child[0] > time) | ((child[0] == time) & (child[1] > idx))) break;
        heap[2 * pos] = child[0];
        heap[2 * pos + 1] = child[1];
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

/* 0 if `state` is a well-formed r-instance buffer (see load), -1 if
 * not, -2 without memory.  Reads only. */
int64_t repro_pool_check(int64_t r, int64_t room, const int64_t *state) {
    table t;
    int rc = load(&t, state, r, room);
    if (rc == 0) free(t.tab);
    return rc;
}

/* Each instance's forward count, counts[item] - offset, into `out`
 * (r entries); load's error code (also when an instance is empty) with
 * `out` untouched. */
int64_t repro_pool_forward(int64_t r, int64_t room, const int64_t *state,
                           int64_t *out) {
    layout v = view((int64_t *)state, r, room);
    table t;
    int rc = load(&t, state, r, room);
    if (rc) return rc;
    for (int64_t k = 0; k < r; ++k)
        if (!v.live[k]) rc = -1;
    for (int64_t k = 0; !rc && k < r; ++k)
        out[k] = t.tab[ROW * find(&t, v.slot[k]) + COUNT] - v.offsets[k];
    free(t.tab);
    return rc;
}

/* Ingest `n` items into the pool at position `t`, in place; returns the
 * number of heap events, or load's error code with `state`, `wall` and
 * the generator untouched.  With `wall` (and `ts`) non-NULL, each event
 * also stamps wall[idx] = ts[p], the adopted item's arrival time. */
int64_t repro_pool_ingest(const int64_t *items, int64_t n, int64_t t,
                          int64_t r, int64_t room, int64_t *state,
                          next_double_fn draw, void *bitgen,
                          const double *ts, double *wall) {
    layout v = view(state, r, room);
    table tab;
    int rc = load(&tab, state, r, room);
    if (rc) return rc;
    int64_t born = state[0], events = 0;
    for (int64_t p = 0; p < n; ++p) {
        int64_t item = items[p];
        ++t;
        while (v.heap[0] == t) {
            int64_t idx = v.heap[1];
            ++events;
            if (v.live[idx]) {
                int64_t e = find(&tab, v.slot[idx]);
                if (--tab.tab[ROW * e + REFS] == 0) erase(&tab, (uint64_t)e);
            }
            v.slot[idx] = item;
            v.live[idx] = 1;
            int64_t e = find(&tab, item);
            if (e < 0)
                e = insert(&tab, item, 0, 1, born++);
            else
                ++tab.tab[ROW * e + REFS];
            v.offsets[idx] = tab.tab[ROW * e + COUNT];
            v.stamps[idx] = t;
            if (wall) wall[idx] = ts[p];
            sift(v.heap, r, 0, next_wake(t, draw(bitgen)), idx);
        }
        int64_t e = find(&tab, item);
        if (e >= 0) ++tab.tab[ROW * e + COUNT];
    }
    store(&tab, state, v);
    free(tab.tab);
    return events;
}

/* Merge two r-instance pools into `out` (same layout, room rows):
 * instance k keeps `mine`'s k-th instance where kept[k], else adopts
 * `theirs`'s with its stamp shifted by `shift` (the length of `mine`'s
 * stream).  Each picked item's count is the largest picked forward
 * count, its refs the number of picks; both rows go in first-pick
 * order.  The heap is (wakes[k], k), heapified.  Returns 0, or load's
 * error code (also when a picked instance is empty) with `out`
 * untouched. */
int64_t repro_pool_merge(int64_t r, int64_t room, const int64_t *mine,
                         const int64_t *theirs, const unsigned char *kept,
                         const int64_t *wakes, int64_t shift, int64_t *out) {
    layout s[2] = {view((int64_t *)theirs, r, room), view((int64_t *)mine, r, room)};
    layout o = view(out, r, room);
    table in[2], merged;
    int rc = load(&in[0], theirs, r, room);
    if (rc) return rc;
    rc = load(&in[1], mine, r, room);
    if (rc) goto free_theirs;
    for (int64_t k = 0; k < r; ++k)
        if (!s[kept[k] != 0].live[k]) rc = -1;
    if (rc || !open_table(&merged, room)) {
        rc = rc ? rc : -2;
        goto free_both;
    }
    int64_t tracked = 0;
    for (int64_t k = 0; k < r; ++k) {
        int side = kept[k] != 0;
        int64_t item = s[side].slot[k];
        int64_t count = in[side].tab[ROW * find(&in[side], item) + COUNT]
                        - s[side].offsets[k];
        o.slot[k] = item;
        o.live[k] = 1;
        o.offsets[k] = count; /* the forward count, until the pass below */
        o.stamps[k] = s[side].stamps[k] + (side ? 0 : shift);
        int64_t e = find(&merged, item);
        if (e < 0) {
            insert(&merged, item, count, 1, tracked);
            o.keys[tracked++] = item;
        } else {
            ++merged.tab[ROW * e + REFS];
            if (count > merged.tab[ROW * e + COUNT]) merged.tab[ROW * e + COUNT] = count;
        }
    }
    for (int64_t k = 0; k < r; ++k)
        o.offsets[k] = merged.tab[ROW * find(&merged, o.slot[k]) + COUNT] - o.offsets[k];
    for (int64_t k = 0; k < tracked; ++k) {
        int64_t e = find(&merged, o.keys[k]);
        o.counts[k] = merged.tab[ROW * e + COUNT];
        o.refs[k] = merged.tab[ROW * e + REFS];
    }
    out[0] = tracked;
    for (int64_t k = 0; k < r; ++k) {
        o.heap[2 * k] = wakes[k];
        o.heap[2 * k + 1] = k;
    }
    for (int64_t k = r / 2 - 1; k >= 0; --k)
        sift(o.heap, r, k, o.heap[2 * k], o.heap[2 * k + 1]);
    free(merged.tab);
free_both:
    free(in[1].tab);
free_theirs:
    free(in[0].tab);
    return rc;
}

/* The union of a strictly ascending key list `ak` (counts `ac`, na rows)
 * and an ascending key list `bk` whose keys may repeat (counts `bc`, or
 * one per row when `bc` is NULL; nb rows), counts summed, into
 * out_keys/out_counts (room for na + nb rows).  This is how a
 * time-window Lp generation's exact count table absorbs a sorted chunk
 * or another table.  Returns the union's size and writes the largest
 * summed count among `bk`'s keys to *top. */
int64_t repro_count_union(const int64_t *ak, const int64_t *ac, int64_t na,
                          const int64_t *bk, const int64_t *bc, int64_t nb,
                          int64_t *out_keys, int64_t *out_counts, int64_t *top) {
    int64_t i = 0, m = 0, best = 0;
    for (int64_t j = 0; j < nb;) {
        int64_t key = bk[j], count = 0;
        do count += bc ? bc[j] : 1; while (++j < nb && bk[j] == key);
        for (; i < na && ak[i] < key; ++i, ++m) {
            out_keys[m] = ak[i];
            out_counts[m] = ac[i];
        }
        if (i < na && ak[i] == key) count += ac[i++];
        out_keys[m] = key;
        out_counts[m++] = count;
        if (count > best) best = count;
    }
    for (; i < na; ++i, ++m) {
        out_keys[m] = ak[i];
        out_counts[m] = ac[i];
    }
    *top = best;
    return m;
}
