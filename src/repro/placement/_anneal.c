/* The area cost's Metropolis round, compiled.
 *
 * anneal_round() runs up to `count` proposals of the annealer's step for
 * a cost whose delta is AreaCost.delta: draw a move as the Python move
 * kernel does (repro/placement/moves.py), price it as
 * IncrementalCostEvaluator.components() and AreaCost.delta() do, put it
 * to the Metropolis test, and apply an accepted move as
 * IncrementalCostEvaluator.apply() does. Every draw, integer operation
 * and float operation is the Python body's, in the Python body's order,
 * so an anneal through this round is that anneal bit for bit.
 *
 * The random streams are CPython's MT19937, in the layout of
 * random.Random.getstate()[1]: 624 state words, then the index.
 * getrandbits(k) for 1 <= k <= 32 is one word shifted right by 32 - k;
 * random() is two words, (a * 2**26 + b) / 2**53.
 *
 * Build with -O2 -ffp-contract=off: a fused multiply-add would round
 * `alpha * d_area + overlap_weight * d_overlap` once instead of twice.
 * exp() is libm's, the function math.exp calls.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    uint32_t index;
} mt_state;

/* What the round reads and never writes, built once per anneal. Per
 * index i: dims[4i + 2r + {0, 1}] is the footprint (w, h) in
 * orientation r, lim[4i + 2r + {0, 1}] the largest in-core origin,
 * fits[2i + r] whether that orientation fits the core. The time
 * neighbours of i are nbr_idx / nbr_dt[nbr_start[i] .. nbr_start[i+1]),
 * in the evaluator's order. */
typedef struct {
    int64_t n_cands;
    const int64_t *cands;
    int64_t kn, kn1;
    int64_t pool_branch, single_only, alone, others;
    double p_single, p_rotate;
    double alpha, overlap_weight, pull_weight, pitch2;
    const int64_t *dims;
    const int64_t *lim;
    const uint8_t *fits;
    const uint8_t *square;
    const int64_t *nbr_start;
    const int64_t *nbr_idx;
    const double *nbr_dt;
    int64_t resync_every;
} anneal_static;

/* The evaluator's records, edge histograms, box and running sums, and
 * the two random streams (the same pointer when one generator draws
 * both the moves and the Metropolis test). */
typedef struct {
    int64_t *x1, *y1, *x2, *y2;
    uint8_t *rot;
    int64_t *cx1, *cy1, *cx2, *cy2;
    int64_t bx1, by1, bx2, by2;
    double overlap_total;
    int64_t conflict_pairs, pull_sum, applies_since_resync;
    mt_state *move_rng, *accept_rng;
    int64_t improved;
} anneal_state;

/* The two structs' layouts, for the check of their ctypes mirrors
 * (repro.kernels.RoundStatic and RoundState). anneal_layout() writes
 * sizeof(anneal_static), the offsetof of each field STATIC_FIELDS names,
 * then the same for anneal_state and STATE_FIELDS, at most cap values,
 * and returns how many there are; *names gets the field names, comma
 * separated, the two structs' lists joined by a semicolon. */
#define STATIC_FIELDS(X) X(n_cands) X(cands) X(kn) X(kn1) X(pool_branch) \
    X(single_only) X(alone) X(others) X(p_single) X(p_rotate) X(alpha) \
    X(overlap_weight) X(pull_weight) X(pitch2) X(dims) X(lim) X(fits) X(square) \
    X(nbr_start) X(nbr_idx) X(nbr_dt) X(resync_every)
#define STATE_FIELDS(X) X(x1) X(y1) X(x2) X(y2) X(rot) X(cx1) X(cy1) X(cx2) X(cy2) \
    X(bx1) X(by1) X(bx2) X(by2) X(overlap_total) X(conflict_pairs) X(pull_sum) \
    X(applies_since_resync) X(move_rng) X(accept_rng) X(improved)
#define NAME(field) #field ","
#define STATIC_AT(field) (int64_t)offsetof(anneal_static, field),
#define STATE_AT(field) (int64_t)offsetof(anneal_state, field),
int64_t anneal_layout(int64_t *out, int64_t cap, const char **names)
{
    static const char field_names[] = STATIC_FIELDS(NAME) ";" STATE_FIELDS(NAME);
    const int64_t layout[] = {
        (int64_t)sizeof(anneal_static), STATIC_FIELDS(STATIC_AT)
        (int64_t)sizeof(anneal_state), STATE_FIELDS(STATE_AT)
    };
    const int64_t n = (int64_t)(sizeof layout / sizeof *layout);
    for (int64_t k = 0; k < n && k < cap; k++)
        out[k] = layout[k];
    *names = field_names;
    return n;
}

static uint32_t genrand(mt_state *s)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = s->mt;
    uint32_t y;
    if (s->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        s->index = 0;
    }
    y = mt[s->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

static double random53(mt_state *s)
{
    uint32_t a = genrand(s) >> 5, b = genrand(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static int64_t getrandbits(mt_state *s, int64_t k)
{
    return (int64_t)(genrand(s) >> (32 - k));
}

static int64_t bit_length(int64_t v)
{
    int64_t k = 0;
    while (v) {
        k++;
        v >>= 1;
    }
    return k;
}

/* No edge sits below 1, so NONE matches no histogram bin. */
#define NONE INT64_MIN

/* repro.placement.incremental._min_after and _max_after. */
static int64_t min_after(const int64_t *cnt, int64_t v, int64_t r1, int64_t r2, int64_t best)
{
    while (v < best) {
        int64_t c = cnt[v];
        if (c) {
            if (v == r1)
                c -= 1;
            if (v == r2)
                c -= 1;
            if (c)
                return v;
        }
        v += 1;
    }
    return best;
}

static int64_t max_after(const int64_t *cnt, int64_t v, int64_t r1, int64_t r2, int64_t best)
{
    while (v > best) {
        int64_t c = cnt[v];
        if (c) {
            if (v == r1)
                c -= 1;
            if (v == r2)
                c -= 1;
            if (c)
                return v;
        }
        v -= 1;
    }
    return best;
}

#define MIN(a, b) ((a) < (b) ? (a) : (b))
#define MAX(a, b) ((a) > (b) ? (a) : (b))

/* Clamp an origin coordinate to [1, m] as the move kernel does. */
static int64_t clamp_origin(int64_t v, int64_t m)
{
    v = v < m ? v : m;
    return v < 1 ? 1 : v;
}

/* Shift one module's edges to their new histogram bins. */
static void move_edges(anneal_state *d, int64_t i, int64_t nx1, int64_t ny1,
                       int64_t nx2, int64_t ny2, uint8_t r)
{
    int64_t old = d->x1[i];
    if (old != nx1) {
        d->cx1[old] -= 1;
        d->cx1[nx1] += 1;
        d->x1[i] = nx1;
    }
    old = d->y1[i];
    if (old != ny1) {
        d->cy1[old] -= 1;
        d->cy1[ny1] += 1;
        d->y1[i] = ny1;
    }
    old = d->x2[i];
    if (old != nx2) {
        d->cx2[old] -= 1;
        d->cx2[nx2] += 1;
        d->x2[i] = nx2;
    }
    old = d->y2[i];
    if (old != ny2) {
        d->cy2[old] -= 1;
        d->cy2[ny2] += 1;
        d->y2[i] = ny2;
    }
    d->rot[i] = r;
}

/* Run up to `count` steps at (span, temperature). Each accepted move's
 * delta is added to *current_cost. Returns the steps run: `count`, or
 * fewer when an accepted move leaves *current_cost below best_cost
 * (d->improved is then 1) or brings the resync counter to
 * resync_every. */
int64_t anneal_round(const anneal_static *s, anneal_state *d, int64_t span,
                     double temperature, int64_t count, double *current_cost,
                     double best_cost, int64_t *accepted)
{
    const int64_t n = s->n_cands;
    const int64_t *cands = s->cands;
    const int64_t *dims = s->dims, *lim = s->lim;
    const uint8_t *fits = s->fits, *square = s->square;
    const int64_t *nbr_start = s->nbr_start, *nbr_idx = s->nbr_idx;
    const double *nbr_dt = s->nbr_dt;
    int64_t *X1 = d->x1, *Y1 = d->y1, *X2 = d->x2, *Y2 = d->y2;
    uint8_t *R = d->rot;
    mt_state *mr = d->move_rng, *ar = d->accept_rng;
    const int64_t width = span + span + 1;
    const int64_t kw = bit_length(width);
    double current = *current_cost;
    int64_t steps = 0, acc = 0;

    d->improved = 0;
    while (steps < count) {
        double d_overlap = 0.0, delta;
        int64_t d_pairs = 0, d_pull;
        steps++;
        if (s->single_only || random53(mr) < s->p_single) {
            /* Draw generation function (i) or (ii). */
            int64_t j, i, mx, my, v, nx1, ny1, nx2, ny2, ox1, oy1, ox2, oy2;
            int64_t bx1, by1, bx2, by2, area_cells, k;
            uint8_t r;
            j = getrandbits(mr, s->kn);
            while (j >= n)
                j = getrandbits(mr, s->kn);
            i = cands[j];
            r = R[i];
            if (!square[i] && random53(mr) < s->p_rotate && fits[2 * i + !r])
                r = !r;
            mx = lim[4 * i + 2 * r];
            my = lim[4 * i + 2 * r + 1];
            v = getrandbits(mr, kw);
            while (v >= width)
                v = getrandbits(mr, kw);
            nx1 = clamp_origin(v + (X1[i] - span), mx);
            v = getrandbits(mr, kw);
            while (v >= width)
                v = getrandbits(mr, kw);
            ny1 = clamp_origin(v + (Y1[i] - span), my);

            /* Price it. */
            nx2 = nx1 + dims[4 * i + 2 * r] - 1;
            ny2 = ny1 + dims[4 * i + 2 * r + 1] - 1;
            ox1 = X1[i];
            oy1 = Y1[i];
            ox2 = X2[i];
            oy2 = Y2[i];
            for (k = nbr_start[i]; k < nbr_start[i + 1]; k++) {
                int64_t q = nbr_idx[k], ox, oy;
                double dt = nbr_dt[k];
                int64_t qx1 = X1[q], qy1 = Y1[q], qx2 = X2[q], qy2 = Y2[q];
                ox = MIN(ox2, qx2) - MAX(ox1, qx1) + 1;
                if (ox > 0) {
                    oy = MIN(oy2, qy2) - MAX(oy1, qy1) + 1;
                    if (oy > 0) {
                        d_overlap -= (double)(ox * oy) * dt;
                        d_pairs -= 1;
                    }
                }
                ox = MIN(nx2, qx2) - MAX(nx1, qx1) + 1;
                if (ox > 0) {
                    oy = MIN(ny2, qy2) - MAX(ny1, qy1) + 1;
                    if (oy > 0) {
                        d_overlap += (double)(ox * oy) * dt;
                        d_pairs += 1;
                    }
                }
            }
            bx1 = d->bx1;
            by1 = d->by1;
            bx2 = d->bx2;
            by2 = d->by2;
            area_cells = (bx2 - bx1 + 1) * (by2 - by1 + 1);
            if (ox1 == bx1 && d->cx1[bx1] == 1)
                bx1 = s->alone ? nx1 : min_after(d->cx1, bx1, ox1, NONE, nx1);
            else if (nx1 < bx1)
                bx1 = nx1;
            if (oy1 == by1 && d->cy1[by1] == 1)
                by1 = s->alone ? ny1 : min_after(d->cy1, by1, oy1, NONE, ny1);
            else if (ny1 < by1)
                by1 = ny1;
            if (ox2 == bx2 && d->cx2[bx2] == 1)
                bx2 = s->alone ? nx2 : max_after(d->cx2, bx2, ox2, NONE, nx2);
            else if (nx2 > bx2)
                bx2 = nx2;
            if (oy2 == by2 && d->cy2[by2] == 1)
                by2 = s->alone ? ny2 : max_after(d->cy2, by2, oy2, NONE, ny2);
            else if (ny2 > by2)
                by2 = ny2;
            d_pull = nx2 + ny2 - ox2 - oy2;
            delta = s->alpha * ((double)((bx2 - bx1 + 1) * (by2 - by1 + 1)) * s->pitch2
                                - (double)area_cells * s->pitch2)
                    + s->overlap_weight * d_overlap;
            if (s->pull_weight != 0.0)
                delta += s->pull_weight * (double)d_pull;

            /* Decide, then apply. */
            if (!(delta < 0 || random53(ar) < exp(-delta / temperature)))
                continue;
            move_edges(d, i, nx1, ny1, nx2, ny2, r);
            d->bx1 = bx1;
            d->by1 = by1;
            d->bx2 = bx2;
            d->by2 = by2;
        } else {
            /* Draw generation function (iii) or (iv). */
            int64_t pa, pb, a, b, mx, my, k, m, dt_k;
            int64_t ax1, ay1, ax2, ay2, bx1, by1, bx2, by2;
            int64_t ox1a, oy1a, ox2a, oy2a, ox1b, oy1b, ox2b, oy2b;
            int64_t nx1, ny1, nx2, ny2, area_cells, v;
            uint8_t ra, rb;
            pa = getrandbits(mr, s->kn);
            while (pa >= n)
                pa = getrandbits(mr, s->kn);
            if (s->pool_branch) {
                pb = getrandbits(mr, s->kn1);
                while (pb >= n - 1)
                    pb = getrandbits(mr, s->kn1);
                if (pb == pa)
                    pb = n - 1;
            } else {
                pb = getrandbits(mr, s->kn);
                while (pb >= n || pb == pa)
                    pb = getrandbits(mr, s->kn);
            }
            a = cands[pa];
            b = cands[pb];
            ra = R[a];
            rb = R[b];
            if (random53(mr) < s->p_rotate) {
                if (random53(mr) < 0.5) {
                    if (!square[a] && fits[2 * a + !ra])
                        ra = !ra;
                } else if (!square[b] && fits[2 * b + !rb]) {
                    rb = !rb;
                }
            }
            mx = lim[4 * a + 2 * ra];
            my = lim[4 * a + 2 * ra + 1];
            ax1 = clamp_origin(X1[b], mx);
            ay1 = clamp_origin(Y1[b], my);
            mx = lim[4 * b + 2 * rb];
            my = lim[4 * b + 2 * rb + 1];
            bx1 = clamp_origin(X1[a], mx);
            by1 = clamp_origin(Y1[a], my);

            /* Price it: each moved module against its other neighbours,
             * a first, then the pair itself. */
            ax2 = ax1 + dims[4 * a + 2 * ra] - 1;
            ay2 = ay1 + dims[4 * a + 2 * ra + 1] - 1;
            bx2 = bx1 + dims[4 * b + 2 * rb] - 1;
            by2 = by1 + dims[4 * b + 2 * rb + 1] - 1;
            d_pull = 0;
            for (m = 0; m < 2; m++) {
                int64_t i = m ? b : a;
                int64_t nx1m = m ? bx1 : ax1, ny1m = m ? by1 : ay1;
                int64_t nx2m = m ? bx2 : ax2, ny2m = m ? by2 : ay2;
                int64_t ox1 = X1[i], oy1 = Y1[i], ox2 = X2[i], oy2 = Y2[i];
                d_pull += nx2m + ny2m - ox2 - oy2;
                for (k = nbr_start[i]; k < nbr_start[i + 1]; k++) {
                    int64_t q = nbr_idx[k], ox, oy;
                    double dt = nbr_dt[k];
                    int64_t qx1, qy1, qx2, qy2;
                    if (q == a || q == b)
                        continue;
                    qx1 = X1[q];
                    qy1 = Y1[q];
                    qx2 = X2[q];
                    qy2 = Y2[q];
                    ox = MIN(ox2, qx2) - MAX(ox1, qx1) + 1;
                    if (ox > 0) {
                        oy = MIN(oy2, qy2) - MAX(oy1, qy1) + 1;
                        if (oy > 0) {
                            d_overlap -= (double)(ox * oy) * dt;
                            d_pairs -= 1;
                        }
                    }
                    ox = MIN(nx2m, qx2) - MAX(nx1m, qx1) + 1;
                    if (ox > 0) {
                        oy = MIN(ny2m, qy2) - MAX(ny1m, qy1) + 1;
                        if (oy > 0) {
                            d_overlap += (double)(ox * oy) * dt;
                            d_pairs += 1;
                        }
                    }
                }
            }
            ox1a = X1[a];
            oy1a = Y1[a];
            ox2a = X2[a];
            oy2a = Y2[a];
            ox1b = X1[b];
            oy1b = Y1[b];
            ox2b = X2[b];
            oy2b = Y2[b];
            dt_k = -1;
            for (k = nbr_start[a]; k < nbr_start[a + 1]; k++) {
                if (nbr_idx[k] == b) {
                    dt_k = k;
                    break;
                }
            }
            if (dt_k >= 0) {
                double dt = nbr_dt[dt_k];
                int64_t ox = MIN(ox2a, ox2b) - MAX(ox1a, ox1b) + 1;
                int64_t oy = MIN(oy2a, oy2b) - MAX(oy1a, oy1b) + 1;
                if (ox > 0 && oy > 0) {
                    d_overlap -= (double)(ox * oy) * dt;
                    d_pairs -= 1;
                }
                ox = MIN(ax2, bx2) - MAX(ax1, bx1) + 1;
                oy = MIN(ay2, by2) - MAX(ay1, by1) + 1;
                if (ox > 0 && oy > 0) {
                    d_overlap += (double)(ox * oy) * dt;
                    d_pairs += 1;
                }
            }
            nx1 = MIN(ax1, bx1);
            ny1 = MIN(ay1, by1);
            nx2 = MAX(ax2, bx2);
            ny2 = MAX(ay2, by2);
            area_cells = (d->bx2 - d->bx1 + 1) * (d->by2 - d->by1 + 1);
            if (s->others) {
                v = d->bx1;
                if (v == ox1a || v == ox1b)
                    nx1 = min_after(d->cx1, v, ox1a, ox1b, nx1);
                else if (v < nx1)
                    nx1 = v;
                v = d->by1;
                if (v == oy1a || v == oy1b)
                    ny1 = min_after(d->cy1, v, oy1a, oy1b, ny1);
                else if (v < ny1)
                    ny1 = v;
                v = d->bx2;
                if (v == ox2a || v == ox2b)
                    nx2 = max_after(d->cx2, v, ox2a, ox2b, nx2);
                else if (v > nx2)
                    nx2 = v;
                v = d->by2;
                if (v == oy2a || v == oy2b)
                    ny2 = max_after(d->cy2, v, oy2a, oy2b, ny2);
                else if (v > ny2)
                    ny2 = v;
            }
            delta = s->alpha * ((double)((nx2 - nx1 + 1) * (ny2 - ny1 + 1)) * s->pitch2
                                - (double)area_cells * s->pitch2)
                    + s->overlap_weight * d_overlap;
            if (s->pull_weight != 0.0)
                delta += s->pull_weight * (double)d_pull;

            /* Decide, then apply. */
            if (!(delta < 0 || random53(ar) < exp(-delta / temperature)))
                continue;
            d->bx1 = nx1;
            d->by1 = ny1;
            d->bx2 = nx2;
            d->by2 = ny2;
            move_edges(d, a, ax1, ay1, ax2, ay2, ra);
            move_edges(d, b, bx1, by1, bx2, by2, rb);
        }
        d->overlap_total += d_overlap;
        d->conflict_pairs += d_pairs;
        d->pull_sum += d_pull;
        d->applies_since_resync += 1;
        current += delta;
        acc += 1;
        if (current < best_cost) {
            d->improved = 1;
            break;
        }
        if (d->applies_since_resync >= s->resync_every)
            break;
    }
    *current_cost = current;
    *accepted = acc;
    return steps;
}
