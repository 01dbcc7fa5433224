/* The router's searches, compiled.
 *
 * One route_store holds one routing epoch's reservation store, the
 * state behind repro/routing/timegrid.py's TimeGrid:
 *
 *   - the halo entries, one list per key step * area + idx;
 *   - the parked tails, one list per cell;
 *   - the reserved-free-from bound cell_last[idx];
 *   - per net, the halo keys and tail cells it holds, for O(path)
 *     removal.
 *
 * Net ids and op ids reach it as the small ints its grid interned them
 * to (-1 for None). The static mask and the per-cell module owners are
 * the grid's own buffers, shared, never copied.
 *
 * route_search() is the router's time-expanded A* with its arrival
 * check, route_parking() the synthesizer's parking search with its
 * connectivity flood fills. The A* pops (f, step, push#) in order, the
 * push number making that order total, and the parking sort is stable;
 * tests/oracles/ keeps the Point-based forms they answer exactly as.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define FAULTY 1
#define PARKED_HALO 2
#define MODULE 4
/* More than two owners: never a subset of a net's exempt ops. */
#define MANY_OWNERS (-3)
#define NO_MEMORY (-2)

/* One halo or tail entry; `from` is a tail's first blocked step. Lists
 * are linked through `next` (-1 ends one); free entries too. */
typedef struct {
    int32_t net, prod, cons, from;
    uint8_t pok, cok;
    int32_t next;
} entry;

typedef struct {
    int64_t *keys;
    int64_t n_keys, cap_keys;
    int32_t *tails;
    int64_t n_tails, cap_tails;
    int reserved;
} net_record;

typedef struct {
    int32_t f, step, push, idx;
} heap_item;

typedef struct {
    int64_t width, height, area;
    const uint8_t *stat;   /* the grid's static mask */
    const int32_t *owners; /* two owner ids per cell, MANY_OWNERS beyond */
    int32_t *heads;        /* halo list heads, rows * area */
    int64_t rows, used_rows;
    int32_t *tail_heads;   /* per cell */
    int64_t *cell_last;    /* per cell, -1 when untouched */
    entry *pool;
    int64_t n_pool, cap_pool;
    int32_t free_list;
    net_record *nets;
    int64_t n_nets;
    int64_t live, reserved;
    /* Search scratch: a state is seen iff stamp[state] == generation. */
    uint32_t *stamp;
    int32_t *parent;
    int64_t scratch_cap;
    uint32_t generation;
    heap_item *heap;
    int64_t cap_heap;
} route_store;

static int64_t iabs(int64_t v)
{
    return v < 0 ? -v : v;
}

static int grow(void **buf, int64_t *cap, int64_t need, size_t item)
{
    if (need <= *cap)
        return 0;
    int64_t cap2 = *cap ? *cap : 16;
    while (cap2 < need)
        cap2 *= 2;
    void *p = realloc(*buf, (size_t)cap2 * item);
    if (!p)
        return -1;
    *buf = p;
    *cap = cap2;
    return 0;
}

route_store *route_new(int64_t width, int64_t height, const uint8_t *stat,
                       const int32_t *owners)
{
    route_store *s = calloc(1, sizeof *s);
    if (!s)
        return NULL;
    s->width = width;
    s->height = height;
    s->area = width * height;
    s->stat = stat;
    s->owners = owners;
    s->free_list = -1;
    s->tail_heads = malloc((size_t)s->area * sizeof *s->tail_heads);
    s->cell_last = malloc((size_t)s->area * sizeof *s->cell_last);
    if (!s->tail_heads || !s->cell_last) {
        free(s->tail_heads);
        free(s->cell_last);
        free(s);
        return NULL;
    }
    memset(s->tail_heads, 0xff, (size_t)s->area * sizeof *s->tail_heads);
    memset(s->cell_last, 0xff, (size_t)s->area * sizeof *s->cell_last);
    return s;
}

void route_free(route_store *s)
{
    if (!s)
        return;
    for (int64_t i = 0; i < s->n_nets; i++) {
        free(s->nets[i].keys);
        free(s->nets[i].tails);
    }
    free(s->nets);
    free(s->heads);
    free(s->tail_heads);
    free(s->cell_last);
    free(s->pool);
    free(s->stamp);
    free(s->parent);
    free(s->heap);
    free(s);
}

/* -- the reservation store ------------------------------------------------ */

static int ensure_rows(route_store *s, int64_t rows)
{
    if (rows > s->rows) {
        int64_t rows2 = s->rows ? s->rows : 16;
        while (rows2 < rows)
            rows2 *= 2;
        int32_t *p = realloc(s->heads, (size_t)(rows2 * s->area) * sizeof *p);
        if (!p)
            return -1;
        memset(p + s->rows * s->area, 0xff,
               (size_t)((rows2 - s->rows) * s->area) * sizeof *p);
        s->heads = p;
        s->rows = rows2;
    }
    if (rows > s->used_rows)
        s->used_rows = rows;
    return 0;
}

static int32_t new_entry(route_store *s)
{
    if (s->free_list >= 0) {
        int32_t e = s->free_list;
        s->free_list = s->pool[e].next;
        return e;
    }
    if (grow((void **)&s->pool, &s->cap_pool, s->n_pool + 1, sizeof(entry)))
        return -1;
    return (int32_t)s->n_pool++;
}

/* Add (net, flags) to the halo list at key unless the net already holds
 * that flag pair there; a key new to the net joins its key list. */
static int add_halo(route_store *s, net_record *r, int64_t key, int32_t net,
                    int32_t prod, int32_t cons, uint8_t pok, uint8_t cok)
{
    int held = 0;
    for (int32_t e = s->heads[key]; e >= 0; e = s->pool[e].next) {
        const entry *x = &s->pool[e];
        if (x->net == net) {
            if (x->pok == pok && x->cok == cok)
                return 0;
            held = 1;
        }
    }
    if (!held) {
        if (grow((void **)&r->keys, &r->cap_keys, r->n_keys + 1, sizeof(int64_t)))
            return -1;
        r->keys[r->n_keys++] = key;
    }
    int32_t e = new_entry(s);
    if (e < 0)
        return -1;
    entry *x = &s->pool[e];
    x->net = net;
    x->prod = prod;
    x->cons = cons;
    x->from = 0;
    x->pok = pok;
    x->cok = cok;
    if (s->heads[key] < 0)
        s->live++;
    x->next = s->heads[key];
    s->heads[key] = e;
    return 0;
}

/* Reserve a trajectory of n_cells positions (x, y pairs, off-array ones
 * allowed) as TimeGrid.reserve does: steps 0 .. min(arrival - 1, horizon)
 * in flight, each position's in-bounds 3x3 halo at the steps t-1, t and
 * t+1; then, when horizon >= arrival, the goal halo as a parked tail
 * from step max(arrival - 1, 0). 0 when done, -1 when the net is
 * already reserved, NO_MEMORY. */
int64_t route_reserve(route_store *s, const int32_t *xy, int64_t n_cells,
                      int64_t horizon, int32_t net, int32_t prod, int32_t cons,
                      const uint8_t *pmask, const uint8_t *cmask)
{
    const int64_t w = s->width, h = s->height, area = s->area;
    if (net >= s->n_nets) {
        int64_t cap = s->n_nets;
        net_record *p = s->nets;
        if (grow((void **)&p, &cap, (int64_t)net + 1, sizeof *p))
            return NO_MEMORY;
        memset(p + s->n_nets, 0, (size_t)(cap - s->n_nets) * sizeof *p);
        s->nets = p;
        s->n_nets = cap;
    }
    net_record *r = &s->nets[net];
    if (r->reserved)
        return -1;
    r->reserved = 1;
    r->n_keys = r->n_tails = 0;
    s->reserved++;
    const int64_t arrival = n_cells - 1;
    const int64_t last_t = arrival - 1 < horizon ? arrival - 1 : horizon;
    if (last_t >= 0 && ensure_rows(s, last_t + 2))
        return NO_MEMORY;
    for (int64_t t = 0; t <= last_t; t++) {
        const int64_t x = xy[2 * t], y = xy[2 * t + 1];
        const int64_t pidx = 1 <= x && x <= w && 1 <= y && y <= h ? (y - 1) * w + (x - 1) : -1;
        const uint8_t pok = pidx >= 0 && pmask && pmask[pidx];
        const uint8_t cok = pidx >= 0 && cmask && cmask[pidx];
        for (int64_t yy = y - 1; yy <= y + 1; yy++) {
            if (yy < 1 || yy > h)
                continue;
            for (int64_t xx = x - 1; xx <= x + 1; xx++) {
                if (xx < 1 || xx > w)
                    continue;
                const int64_t i = (yy - 1) * w + (xx - 1);
                if (s->cell_last[i] < t + 1)
                    s->cell_last[i] = t + 1;
                for (int64_t step = t ? t - 1 : 0; step <= t + 1; step++)
                    if (add_halo(s, r, step * area + i, net, prod, cons, pok, cok))
                        return NO_MEMORY;
            }
        }
    }
    if (horizon >= arrival) {
        const int64_t x = xy[2 * arrival], y = xy[2 * arrival + 1];
        const int64_t gidx = (y - 1) * w + (x - 1);
        const uint8_t pok = 0 <= gidx && gidx < area && pmask && pmask[gidx];
        const uint8_t cok = 0 <= gidx && gidx < area && cmask && cmask[gidx];
        const int32_t from = (int32_t)(arrival - 1 > 0 ? arrival - 1 : 0);
        for (int64_t yy = y - 1; yy <= y + 1; yy++) {
            if (yy < 1 || yy > h)
                continue;
            for (int64_t xx = x - 1; xx <= x + 1; xx++) {
                if (xx < 1 || xx > w)
                    continue;
                const int64_t i = (yy - 1) * w + (xx - 1);
                int32_t e = new_entry(s);
                if (e < 0 || grow((void **)&r->tails, &r->cap_tails, r->n_tails + 1,
                                  sizeof(int32_t)))
                    return NO_MEMORY;
                entry *q = &s->pool[e];
                q->net = net;
                q->prod = prod;
                q->cons = cons;
                q->from = from;
                q->pok = pok;
                q->cok = cok;
                if (s->tail_heads[i] < 0)
                    s->live++;
                q->next = s->tail_heads[i];
                s->tail_heads[i] = e;
                r->tails[r->n_tails++] = (int32_t)i;
            }
        }
    }
    return 0;
}

/* Unlink every entry of net from the list at *head. */
static void drop_from(route_store *s, int32_t *head, int32_t net)
{
    if (*head < 0)
        return;
    int32_t *link = head;
    while (*link >= 0) {
        int32_t e = *link;
        if (s->pool[e].net == net) {
            *link = s->pool[e].next;
            s->pool[e].next = s->free_list;
            s->free_list = e;
        } else {
            link = &s->pool[e].next;
        }
    }
    if (*head < 0)
        s->live--;
}

void route_remove(route_store *s, int32_t net)
{
    if (net < 0 || net >= s->n_nets || !s->nets[net].reserved)
        return;
    net_record *r = &s->nets[net];
    for (int64_t k = 0; k < r->n_keys; k++)
        drop_from(s, &s->heads[r->keys[k]], net);
    for (int64_t k = 0; k < r->n_tails; k++)
        drop_from(s, &s->tail_heads[r->tails[k]], net);
    r->reserved = 0;
    r->n_keys = r->n_tails = 0;
    s->reserved--;
}

void route_clear(route_store *s)
{
    if (s->used_rows)
        memset(s->heads, 0xff, (size_t)(s->used_rows * s->area) * sizeof *s->heads);
    s->used_rows = 0;
    memset(s->tail_heads, 0xff, (size_t)s->area * sizeof *s->tail_heads);
    memset(s->cell_last, 0xff, (size_t)s->area * sizeof *s->cell_last);
    s->n_pool = 0;
    s->free_list = -1;
    for (int64_t i = 0; i < s->n_nets; i++) {
        s->nets[i].reserved = 0;
        s->nets[i].n_keys = s->nets[i].n_tails = 0;
    }
    s->live = s->reserved = 0;
}

/* Live halo keys plus live tail cells. */
int64_t route_live(const route_store *s)
{
    return s->live;
}

int64_t route_reserved(const route_store *s)
{
    return s->reserved;
}

/* -- occupancy queries ---------------------------------------------------- */

/* A foreign, non-exempt entry: the two-sided merge/split exemption needs
 * both the queried cell in the zone and the entry's origin flag. */
static int blocks(const entry *e, int32_t net, int32_t prod, int32_t cons,
                  const uint8_t *pmask, const uint8_t *cmask, int64_t idx)
{
    if (e->net == net)
        return 0;
    if (e->cok && e->cons >= 0 && e->cons == cons && cmask[idx])
        return 0;
    if (e->pok && e->prod >= 0 && e->prod == prod && pmask[idx])
        return 0;
    return 1;
}

static int halo_blocks(const route_store *s, int64_t step, int64_t idx, int32_t net,
                       int32_t prod, int32_t cons, const uint8_t *pmask,
                       const uint8_t *cmask)
{
    if (step < 0 || step >= s->used_rows)
        return 0;
    for (int32_t e = s->heads[step * s->area + idx]; e >= 0; e = s->pool[e].next)
        if (blocks(&s->pool[e], net, prod, cons, pmask, cmask, idx))
            return 1;
    return 0;
}

static int tail_blocks(const route_store *s, int64_t step, int64_t idx, int32_t net,
                       int32_t prod, int32_t cons, const uint8_t *pmask,
                       const uint8_t *cmask)
{
    for (int32_t e = s->tail_heads[idx]; e >= 0; e = s->pool[e].next)
        if (s->pool[e].from <= step
            && blocks(&s->pool[e], net, prod, cons, pmask, cmask, idx))
            return 1;
    return 0;
}

/* TimeGrid.reserved_blocked for an in-bounds cell. */
int64_t route_blocked(const route_store *s, int64_t idx, int64_t step, int32_t net,
                      int32_t prod, int32_t cons, const uint8_t *pmask,
                      const uint8_t *cmask)
{
    return halo_blocks(s, step, idx, net, prod, cons, pmask, cmask)
        || tail_blocks(s, step, idx, net, prod, cons, pmask, cmask);
}

/* -- the time-expanded A* ------------------------------------------------- */

static int owned(const route_store *s, int64_t idx, int32_t prod, int32_t cons)
{
    const int32_t a = s->owners[2 * idx], b = s->owners[2 * idx + 1];
    return (a == prod || a == cons) && (b == prod || b == cons);
}

/* After arrival at step the droplet parks at dst: no foreign tail may
 * start by the horizon, and no foreign halo may touch dst up to the
 * cell's reserved-free-from bound. */
static int tail_free(const route_store *s, int64_t dst, int64_t step, int64_t horizon,
                     int32_t net, int32_t prod, int32_t cons, const uint8_t *pmask,
                     const uint8_t *cmask)
{
    for (int32_t e = s->tail_heads[dst]; e >= 0; e = s->pool[e].next) {
        const entry *x = &s->pool[e];
        if ((x->from > step + 1 ? x->from : step + 1) > horizon)
            continue;
        if (blocks(x, net, prod, cons, pmask, cmask, dst))
            return 0;
    }
    const int64_t last = s->cell_last[dst];
    const int64_t stop = last < horizon ? last : horizon;
    for (int64_t t = step + 1; t <= stop; t++)
        if (halo_blocks(s, t, dst, net, prod, cons, pmask, cmask))
            return 0;
    return 1;
}

static int heap_less(const heap_item *a, const heap_item *b)
{
    if (a->f != b->f)
        return a->f < b->f;
    if (a->step != b->step)
        return a->step < b->step;
    return a->push < b->push;
}

static void heap_push(heap_item *heap, int64_t n, heap_item item)
{
    int64_t i = n;
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (!heap_less(&item, &heap[up]))
            break;
        heap[i] = heap[up];
        i = up;
    }
    heap[i] = item;
}

static heap_item heap_pop(heap_item *heap, int64_t n)
{
    heap_item top = heap[0], last = heap[n - 1];
    n--;
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && heap_less(&heap[c + 1], &heap[c]))
            c++;
        if (!heap_less(&heap[c], &last))
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = last;
    return top;
}

/* Route one net from src to dst against the reservations, as
 * PrioritizedRouter._search does: expand (wait, +x, -x, +y, -y), the
 * source cell grandfathered against parked halos and reservations, the
 * Manhattan heuristic. Writes the trajectory's cells to path (room for
 * horizon + 1) and returns their count; 0 when no trajectory arrives and
 * stays parked within the horizon; NO_MEMORY. */
int64_t route_search(route_store *s, int64_t src, int64_t dst, int64_t horizon,
                     int32_t net, int32_t prod, int32_t cons, const uint8_t *pmask,
                     const uint8_t *cmask, int32_t *path)
{
    const int64_t w = s->width, h = s->height, area = s->area;
    const int64_t states = ((horizon > 0 ? horizon : 0) + 1) * area;
    if (states > s->scratch_cap) {
        free(s->stamp);
        free(s->parent);
        s->stamp = calloc((size_t)states, sizeof *s->stamp);
        s->parent = malloc((size_t)states * sizeof *s->parent);
        s->scratch_cap = s->stamp && s->parent ? states : 0;
        s->generation = 0;
        if (!s->scratch_cap)
            return NO_MEMORY;
    }
    if (++s->generation == 0) {
        memset(s->stamp, 0, (size_t)s->scratch_cap * sizeof *s->stamp);
        s->generation = 1;
    }
    const uint32_t gen = s->generation;
    uint32_t *stamp = s->stamp;
    int32_t *parent = s->parent;
    const uint8_t *stat = s->stat;
    const int64_t gx = dst % w, gy = dst / w;
#define DIST(i) ((int32_t)(iabs(((i) % w - gx)) + iabs(((i) / w - gy))))
    if (grow((void **)&s->heap, &s->cap_heap, 16, sizeof(heap_item)))
        return NO_MEMORY;
    int64_t n = 0;
    int32_t pushes = 1;
    heap_push(s->heap, n++, (heap_item){DIST(src), 0, 0, (int32_t)src});
    stamp[src] = gen;
    while (n) {
        const heap_item top = heap_pop(s->heap, n--);
        const int64_t step = top.step, idx = top.idx;
        if (idx == dst && tail_free(s, dst, step, horizon, net, prod, cons, pmask, cmask)) {
            int64_t state = step * area + idx;
            for (int64_t k = step; k >= 0; k--) {
                path[k] = (int32_t)(state % area);
                if (k)
                    state = parent[state];
            }
            return step + 1;
        }
        if (step >= horizon)
            continue;
        const int64_t nstep = step + 1, x = idx % w, y = idx / w;
        int64_t nbrs[5], k = 0;
        nbrs[k++] = idx;
        if (x + 1 < w)
            nbrs[k++] = idx + 1;
        if (x)
            nbrs[k++] = idx - 1;
        if (y + 1 < h)
            nbrs[k++] = idx + w;
        if (y)
            nbrs[k++] = idx - w;
        if (grow((void **)&s->heap, &s->cap_heap, n + k, sizeof(heap_item)))
            return NO_MEMORY;
        for (int64_t j = 0; j < k; j++) {
            const int64_t nidx = nbrs[j], state = nstep * area + nidx;
            if (stamp[state] == gen)
                continue;
            const uint8_t m = stat[nidx];
            if (nidx == src) {
                if (m & FAULTY)
                    continue;
                if ((m & MODULE) && !owned(s, nidx, prod, cons))
                    continue;
            } else {
                if (m) {
                    if (m & (FAULTY | PARKED_HALO))
                        continue;
                    if (!owned(s, nidx, prod, cons))
                        continue;
                }
                if (halo_blocks(s, nstep, nidx, net, prod, cons, pmask, cmask))
                    continue;
                if (tail_blocks(s, nstep, nidx, net, prod, cons, pmask, cmask))
                    continue;
            }
            stamp[state] = gen;
            parent[state] = (int32_t)(step * area + idx);
            heap_push(s->heap, n++,
                      (heap_item){(int32_t)nstep + DIST(nidx), (int32_t)nstep, pushes++,
                                  (int32_t)nidx});
        }
    }
#undef DIST
    return 0;
}

/* -- the parking search --------------------------------------------------- */

typedef struct {
    int64_t key, order, idx;
} candidate;

static int by_key_then_order(const void *a, const void *b)
{
    const candidate *p = a, *q = b;
    if (p->key != q->key)
        return p->key > q->key ? -1 : 1;
    return p->order < q->order ? -1 : p->order > q->order;
}

/* Does parking at cand leave the free cells minus its halo 4-connected?
 * mask and stack are scratch of area cells. */
static int keeps_connected(const route_store *s, const uint8_t *free_cells,
                           int64_t free_count, int64_t cand, uint8_t *mask, int64_t *stack)
{
    const int64_t w = s->width, h = s->height, area = s->area;
    memcpy(mask, free_cells, (size_t)area);
    int64_t total = free_count;
    const int64_t cx = cand % w, cy = cand / w;
    for (int64_t y = cy - 1; y <= cy + 1; y++)
        for (int64_t x = cx - 1; x <= cx + 1; x++)
            if (0 <= x && x < w && 0 <= y && y < h && mask[y * w + x]) {
                mask[y * w + x] = 0;
                total--;
            }
    if (!total)
        return 0;
    const uint8_t *first = memchr(mask, 1, (size_t)area);
    int64_t top = 0, seen = 1;
    stack[top++] = first - mask;
    mask[first - mask] = 0;
    while (top) {
        const int64_t i = stack[--top], x = i % w, y = i / w;
        int64_t nbrs[4], k = 0;
        if (x + 1 < w)
            nbrs[k++] = i + 1;
        if (x)
            nbrs[k++] = i - 1;
        if (y + 1 < h)
            nbrs[k++] = i + w;
        if (y)
            nbrs[k++] = i - w;
        for (int64_t j = 0; j < k; j++)
            if (mask[nbrs[j]]) {
                mask[nbrs[j]] = 0;
                seen++;
                stack[top++] = nbrs[j];
            }
    }
    return seen == total;
}

/* RoutingSynthesizer._nearest_parking: the packed cell to park at, -1
 * when no cell is legal, NO_MEMORY. (sx, sy) is the start (possibly off
 * the array); parked and clear are packed in-bounds cells. */
int64_t route_parking(const route_store *s, int64_t sx, int64_t sy, const int32_t *parked,
                      int64_t n_parked, const int32_t *clear, int64_t n_clear)
{
    const int64_t w = s->width, h = s->height, area = s->area;
    uint8_t *spacing = malloc((size_t)area);
    uint8_t *cleared = calloc((size_t)area, 1);
    uint8_t *free_cells = malloc((size_t)area);
    uint8_t *mask = malloc((size_t)area);
    int64_t *frontier = malloc((size_t)(2 * area) * sizeof *frontier);
    candidate *legal = malloc((size_t)area * sizeof *legal);
    int64_t result = NO_MEMORY;
    if (!spacing || !cleared || !free_cells || !mask || !frontier || !legal)
        goto done;
    /* Min Chebyshev distance to a parked droplet, saturated at 5. */
    memset(spacing, 5, (size_t)area);
    int64_t *cur = frontier, *next = frontier + area, n_cur = 0;
    for (int64_t k = 0; k < n_parked; k++) {
        spacing[parked[k]] = 0;
        cur[n_cur++] = parked[k];
    }
    for (uint8_t d = 1; n_cur && d < 5; d++) {
        int64_t n_next = 0;
        for (int64_t k = 0; k < n_cur; k++) {
            const int64_t x = cur[k] % w, y = cur[k] / w;
            for (int64_t yy = y - 1; yy <= y + 1; yy++)
                for (int64_t xx = x - 1; xx <= x + 1; xx++)
                    if (0 <= xx && xx < w && 0 <= yy && yy < h
                        && spacing[yy * w + xx] > d) {
                        spacing[yy * w + xx] = d;
                        next[n_next++] = yy * w + xx;
                    }
        }
        int64_t *swap = cur;
        cur = next;
        next = swap;
        n_cur = n_next;
    }
    for (int64_t k = 0; k < n_clear; k++)
        cleared[clear[k]] = 1;
    const int64_t start = 1 <= sx && sx <= w && 1 <= sy && sy <= h ? (sy - 1) * w + (sx - 1) : -1;
    /* Spacing (capped at 4) first, then closeness to the start; ties
     * keep the column-major scan order. */
    int64_t n_legal = 0;
    for (int64_t col = 0; col < w; col++) {
        const int64_t dx = iabs((col + 1 - sx));
        for (int64_t i = col; i < area; i += w) {
            if (s->stat[i] || i == start || cleared[i] || spacing[i] <= 1)
                continue;
            const int64_t sp = spacing[i] < 4 ? spacing[i] : 4;
            legal[n_legal] = (candidate){sp * (w + h) - dx - iabs((i / w + 1 - sy)),
                                         n_legal, i};
            n_legal++;
        }
    }
    result = -1;
    if (!n_legal)
        goto done;
    qsort(legal, (size_t)n_legal, sizeof *legal, by_key_then_order);
    int64_t free_count = 0;
    for (int64_t i = 0; i < area; i++)
        free_cells[i] = !(s->stat[i] & (FAULTY | MODULE));
    for (int64_t k = 0; k < n_parked; k++) {
        const int64_t x = parked[k] % w, y = parked[k] / w;
        for (int64_t yy = y - 1; yy <= y + 1; yy++)
            for (int64_t xx = x - 1; xx <= x + 1; xx++)
                if (0 <= xx && xx < w && 0 <= yy && yy < h)
                    free_cells[yy * w + xx] = 0;
    }
    for (int64_t i = 0; i < area; i++)
        free_count += free_cells[i];
    result = legal[0].idx;
    for (int64_t k = 0; k < n_legal; k++)
        if (keeps_connected(s, free_cells, free_count, legal[k].idx, mask, frontier)) {
            result = legal[k].idx;
            break;
        }
done:
    free(spacing);
    free(cleared);
    free(free_cells);
    free(mask);
    free(frontier);
    free(legal);
    return result;
}

/* -- the plan proof ------------------------------------------------------- */

/* route_verify() checks RoutingPlan.verify's constraints on its own:
 * it shares nothing with the store or the searches above. One epoch
 * reaches it as one int32 record (RoutingEpoch._record):
 *
 *   n_nets, n_failed, n_modules, n_regions, n_faulty, n_parked,
 *   per net     source x, y, goal x, y, producer, consumer, first, n_cells,
 *   per failed  source x, y, producer, consumer,
 *   per module  x1, y1, x2, y2, owner,
 *   per region  op, x1, y1, x2, y2,
 *   the faulty and the parked cells as (x, y) pairs,
 *   then every trajectory's (x, y) pairs, a net's from pair `first` on.
 *
 * Op ids are interned per epoch, -1 for None; rectangles are inclusive.
 *
 * The first violation found is written to the caller's six int64s:
 * epoch, kind, net a, net b (a failed net's index
 * counts on from the routed ones), step, and which step pairing broke
 * (0: both at step, 1: a one step on, 2: b one step on). Trajectories
 * are checked before pairs, each in net order, as RoutingPlan.verify
 * names them. */

enum { EMPTY = 1, ENDPOINTS, OFF_ARRAY, JUMP, ON_FAULTY, ON_MODULE, ON_PARKED, PAIR };

#define NET_FIELDS 8
#define FAILED_FIELDS 4
#define RECT_FIELDS 5

/* A routed net's trajectory, or a failed net stranded at its source. */
typedef struct {
    const int32_t *cells; /* (x, y) pairs */
    int64_t n;
    int32_t sx, sy, prod, cons;
    int32_t x1, y1, x2, y2; /* lifetime bounding box */
} droplet;

static int64_t chebyshev(int64_t ax, int64_t ay, int64_t bx, int64_t by)
{
    const int64_t dx = iabs(ax - bx), dy = iabs(ay - by);
    return dx > dy ? dx : dy;
}

static int in_region(const int32_t *regions, int64_t n_regions, int32_t op, int64_t x,
                     int64_t y)
{
    for (int64_t k = 0; k < n_regions; k++) {
        const int32_t *r = regions + RECT_FIELDS * k;
        if (r[0] == op && r[1] <= x && x <= r[3] && r[2] <= y && y <= r[4])
            return 1;
    }
    return 0;
}

/* a at (ax, ay) and b at (bx, by) break the fluidic constraint: within
 * one cell, not both inside a shared merge/split zone, and not two
 * products still leaving adjacent parking spots (at distance >= 1, each
 * within one cell of its own source, the sources within one cell). */
static int too_close(const droplet *a, const droplet *b, int64_t ax, int64_t ay,
                     int64_t bx, int64_t by, const int32_t *regions, int64_t n_regions)
{
    const int64_t d = chebyshev(ax, ay, bx, by);
    if (d > 1)
        return 0;
    if (a->cons >= 0 && a->cons == b->cons
        && in_region(regions, n_regions, a->cons, ax, ay)
        && in_region(regions, n_regions, a->cons, bx, by))
        return 0;
    if (a->prod >= 0 && a->prod == b->prod
        && in_region(regions, n_regions, a->prod, ax, ay)
        && in_region(regions, n_regions, a->prod, bx, by))
        return 0;
    if (d >= 1 && chebyshev(a->sx, a->sy, b->sx, b->sy) <= 1
        && chebyshev(ax, ay, a->sx, a->sy) <= 1 && chebyshev(bx, by, b->sx, b->sy) <= 1)
        return 0;
    return 1;
}

/* Every step, and both cross-step pairs, of a and b: the pairing that
 * breaks first (0, 1 or 2) with its step in *step, or -1. */
static int pair_violates(const droplet *a, const droplet *b, const int32_t *regions,
                         int64_t n_regions, int64_t *step)
{
    if (b->x1 - a->x2 > 1 || a->x1 - b->x2 > 1 || b->y1 - a->y2 > 1 || a->y1 - b->y2 > 1)
        return -1;
    const int64_t last = (a->n > b->n ? a->n : b->n) - 1;
    for (int64_t t = 0; t <= last; t++) {
        const int32_t *pa = a->cells + 2 * (t < a->n ? t : a->n - 1);
        const int32_t *pb = b->cells + 2 * (t < b->n ? t : b->n - 1);
        const int32_t *na = a->cells + 2 * (t + 1 < a->n ? t + 1 : a->n - 1);
        const int32_t *nb = b->cells + 2 * (t + 1 < b->n ? t + 1 : b->n - 1);
        *step = t;
        if (too_close(a, b, pa[0], pa[1], pb[0], pb[1], regions, n_regions))
            return 0;
        if (too_close(a, b, na[0], na[1], pb[0], pb[1], regions, n_regions))
            return 1;
        if (too_close(a, b, pa[0], pa[1], nb[0], nb[1], regions, n_regions))
            return 2;
    }
    return -1;
}

/* Endpoints, then per step: bounds, 4-adjacent steps, no faulty cell,
 * no foreign footprint, no parked halo except at the source. The kind
 * of the first violation, its step in *step, or 0. */
static int trajectory_violates(const droplet *d, const int32_t *goal, int64_t w,
                               int64_t h, const uint8_t *mask, const int32_t *owners,
                               int64_t *step)
{
    const int32_t *c = d->cells;
    const int64_t n = d->n;
    if (c[0] != d->sx || c[1] != d->sy || c[2 * n - 2] != goal[0] || c[2 * n - 1] != goal[1])
        return ENDPOINTS;
    for (int64_t k = 0; k < n; k++) {
        const int64_t x = c[2 * k], y = c[2 * k + 1];
        *step = k;
        if (x < 1 || x > w || y < 1 || y > h)
            return OFF_ARRAY;
        if (k && iabs(x - c[2 * k - 2]) + iabs(y - c[2 * k - 1]) > 1)
            return JUMP;
        const int64_t idx = (y - 1) * w + (x - 1);
        if (mask[idx] & FAULTY)
            return ON_FAULTY;
        for (int j = 0; j < 2; j++) {
            const int32_t o = owners[2 * idx + j];
            if (o != -1 && o != d->prod && o != d->cons)
                return ON_MODULE;
        }
        if ((x != d->sx || y != d->sy) && (mask[idx] & PARKED_HALO))
            return ON_PARKED;
    }
    return 0;
}

/* One epoch record: 0 when it proves, 1 on a violation (written to
 * found[1..5]), NO_MEMORY. The scratch mask and owners hold w * h cells;
 * *drops grows as needed. */
static int64_t verify_epoch(const int32_t *e, int64_t w, int64_t h, uint8_t *mask,
                            int32_t *owners, droplet **drops, int64_t *cap, int64_t *found)
{
    const int64_t n_nets = e[0], n_failed = e[1], n_modules = e[2], n_regions = e[3];
    const int64_t n_faulty = e[4], n_parked = e[5];
    const int32_t *nets = e + 6;
    const int32_t *failed = nets + NET_FIELDS * n_nets;
    const int32_t *modules = failed + FAILED_FIELDS * n_failed;
    const int32_t *regions = modules + RECT_FIELDS * n_modules;
    const int32_t *faulty = regions + RECT_FIELDS * n_regions;
    const int32_t *parked = faulty + 2 * n_faulty;
    const int32_t *cells = parked + 2 * n_parked;
    const int64_t area = w * h;

    memset(mask, 0, (size_t)area);
    memset(owners, 0xff, (size_t)(2 * area) * sizeof *owners);
    for (int64_t k = 0; k < n_faulty; k++) {
        const int64_t x = faulty[2 * k], y = faulty[2 * k + 1];
        if (1 <= x && x <= w && 1 <= y && y <= h)
            mask[(y - 1) * w + (x - 1)] |= FAULTY;
    }
    for (int64_t k = 0; k < n_parked; k++) {
        const int64_t x = parked[2 * k], y = parked[2 * k + 1];
        for (int64_t yy = y - 1; yy <= y + 1; yy++)
            for (int64_t xx = x - 1; xx <= x + 1; xx++)
                if (1 <= xx && xx <= w && 1 <= yy && yy <= h)
                    mask[(yy - 1) * w + (xx - 1)] |= PARKED_HALO;
    }
    /* Up to two distinct owners per cell; a third makes it MANY_OWNERS,
     * which no net's two exempt ops cover. */
    for (int64_t k = 0; k < n_modules; k++) {
        const int32_t *m = modules + RECT_FIELDS * k, owner = m[4];
        for (int64_t y = m[1] > 1 ? m[1] : 1; y <= m[3] && y <= h; y++)
            for (int64_t x = m[0] > 1 ? m[0] : 1; x <= m[2] && x <= w; x++) {
                int32_t *slot = owners + 2 * ((y - 1) * w + (x - 1));
                if (slot[0] == MANY_OWNERS || slot[0] == owner || slot[1] == owner)
                    continue;
                if (slot[0] == -1)
                    slot[0] = owner;
                else if (slot[1] == -1)
                    slot[1] = owner;
                else
                    slot[0] = slot[1] = MANY_OWNERS;
            }
    }

    if (grow((void **)drops, cap, n_nets + n_failed, sizeof(droplet)))
        return NO_MEMORY;
    droplet *d = *drops;
    for (int64_t k = 0; k < n_nets; k++) {
        const int32_t *r = nets + NET_FIELDS * k;
        droplet *a = &d[k];
        *a = (droplet){cells + 2 * (int64_t)r[6], r[7], r[0], r[1], r[4], r[5], 0, 0, 0, 0};
        found[2] = k;
        found[1] = a->n < 1 ? EMPTY : trajectory_violates(a, r + 2, w, h, mask, owners, &found[4]);
        if (found[1])
            return 1;
        a->x1 = a->x2 = a->cells[0];
        a->y1 = a->y2 = a->cells[1];
        for (int64_t i = 1; i < a->n; i++) {
            const int32_t x = a->cells[2 * i], y = a->cells[2 * i + 1];
            a->x1 = x < a->x1 ? x : a->x1;
            a->x2 = x > a->x2 ? x : a->x2;
            a->y1 = y < a->y1 ? y : a->y1;
            a->y2 = y > a->y2 ? y : a->y2;
        }
    }
    for (int64_t k = 0; k < n_failed; k++) {
        const int32_t *r = failed + FAILED_FIELDS * k;
        d[n_nets + k] = (droplet){r, 1, r[0], r[1], r[2], r[3], r[0], r[1], r[0], r[1]};
    }
    /* Every routed pair, and every routed net against every stranded
     * source. */
    for (int64_t i = 0; i < n_nets; i++)
        for (int64_t j = i + 1; j < n_nets + n_failed; j++) {
            const int pairing = pair_violates(&d[i], &d[j], regions, n_regions, &found[4]);
            if (pairing >= 0) {
                found[1] = PAIR;
                found[2] = i;
                found[3] = j;
                found[5] = pairing;
                return 1;
            }
        }
    return 0;
}

/* RoutingPlan.verify over the plan's epoch records: 0 when every epoch
 * proves, 1 when one breaks a constraint (its violation in found),
 * NO_MEMORY. */
int64_t route_verify(int64_t width, int64_t height, int64_t n_epochs,
                     const int32_t *const *epochs, int64_t *found)
{
    const int64_t area = width > 0 && height > 0 ? width * height : 0;
    uint8_t *mask = malloc((size_t)area + 1);
    int32_t *owners = malloc((size_t)(2 * area + 1) * sizeof *owners);
    droplet *drops = NULL;
    int64_t cap = 0, result = NO_MEMORY;
    if (mask && owners) {
        result = 0;
        for (int64_t k = 0; k < n_epochs && !result; k++) {
            found[0] = k;
            result = verify_epoch(epochs[k], width, height, mask, owners, &drops, &cap, found);
        }
    }
    free(mask);
    free(owners);
    free(drops);
    return result;
}
