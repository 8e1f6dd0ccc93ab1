/* OMP's factored pick loop, the compiled twin of the loop in
 * vibdict.coding._omp_encode. It makes the same picks and leaves the same
 * bytes in every array that loop leaves, but it keeps the correlations up
 * to date another way. The factor and the amplitudes are the numpy loop's
 * operations in the same order, and every dot and matrix-vector product
 * goes through the BLAS functions numpy itself calls, passed in as
 * pointers. Build with -ffp-contract=off and without -ffast-math, so that
 * no multiply-add is fused.
 *
 * omp_fast_forward runs picks from k = 0 until the budget is spent, the
 * scan finds nothing left, or a pivot is not positive and finite; it
 * returns the pick it stopped at. The state is then what the Python loop
 * holds at the start of that pick, and that loop carries on from it.
 *
 * Band updates. After the refit, each placement p whose amplitude moved by
 * d_p (the new placement by its whole amplitude) changes the correlation
 * of atom q at shift t by -d_p * table[row_p, q, t - tau_p + L_max], the
 * Gram band of the two atoms. The kernel subtracts that from corr and
 * marks the entry approximate; the numpy loop instead recomputes the exact
 * value, correlate_at over the new residual. An approximate entry is made
 * exact by that same correlate_at, over a residual that is rebuilt only
 * where it is stale, sample by sample in the numpy loop's bincount order.
 *
 * The screen. Magnitudes are kept with their maximum per block of 64
 * entries. A pick takes the first maximum V over the blocks; if V and the
 * bound B below are finite, every approximate entry that is not dead and
 * whose magnitude is at least V - B is made exact, and the pick is taken
 * again, until no such entry is left. Then every entry that could equal or
 * beat V is exact, and the first maximum is np.argmax's. If V or B is not
 * finite (a NaN, an infinity or -inf when all is dead), every entry is made
 * exact and the first maximum, or first NaN, is np.argmax's directly.
 * Every entry is also made exact before the last pick, on exhaustion and
 * before a ridge handoff, so that corr and the magnitudes are the numpy
 * loop's bytes wherever that loop reads or returns them.
 *
 * The bound. Let u = 2^-53, g_j = j u / (1 - j u), L = L_max, K the
 * capacity, X = max |x|, W1 the largest l1 norm of an atom, Winf its
 * largest sample, N the largest squared l2 norm, and A the largest sum of
 * |a_p| over the refits so far. Every residual the loop forms, from x on,
 * is x - sum_p a_p phi_p up to |eta_t| <= g_(K+1) R with R = X + Winf A,
 * since a product rounds by u, a sum of at most K nonzero products by
 * g_K, the zero padding lanes add nothing, and x - acc rounds by u. For an
 * entry that was last exact as E0 = correlate_at(R0) and is now stored as
 * S, with E1 = correlate_at(R1) its exact value now:
 *   - each of E0 and E1 is its real inner product within g_L R W1 (ddot
 *     in any order), and within g_(K+1) R W1 of the inner product of the
 *     unrounded residual;
 *   - each table entry is its inner product within g_L N (Cauchy-Schwarz),
 *     and the computed d_p is the true move within u |d_p|, so one product
 *     d_p * table is the true change within g_(L+3) N |d_p|;
 *   - each subtraction from corr rounds by u |S|, with |S| <= 2 R W1.
 * The true moves of each amplitude add up to its whole change, so
 *   |S - E1| <= (2 g_L + 2 g_(K+1) + 2 u C) R W1 + g_(L+3) N D,
 * to first order in u, where C counts the band updates and D sums their
 * |d_p| since every entry was last exact. The kernel takes
 *   B = safety * u * ((2 L + 2 K + 6 + 2 C) R W1 + (L + 4) N D).
 * While j u <= 0.01, g_j <= 1.01 j u, so B holds the sum above once
 * safety >= 1.01. The binding passes SCREEN_SAFETY of omp_kernel.py, 1e4:
 * the margin over 1.01, at least 10^3, covers the dropped terms of order
 * u^2 and the rounding of A, R W1, B and V - B. If 4 R W1 overflows, B is
 * infinite. With safety 0 the screen trusts an approximate entry whenever
 * it reads below V, and a near tie can then go the wrong way. */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef double (*ddot_t)(int64_t n, const double *x, int64_t incx, const double *y, int64_t incy);
typedef void (*dgemv_t)(int order, int trans, int64_t m, int64_t n, double alpha,
                        const double *a, int64_t lda, const double *x, int64_t incx,
                        double beta, double *y, int64_t incy);

enum { ROW_MAJOR = 101, COL_MAJOR = 102, TRANS = 112, BLOCK = 64 };
typedef double pair __attribute__((vector_size(2 * sizeof(double))));

/* np.correlate at one shift: numpy unrolls kernels of up to 11 taps into
 * a plain running sum; longer ones go to DOUBLE_dot, whose sum starts at
 * 0.0 (so a -0.0 from BLAS comes back as +0.0). */
static double correlate_at(ddot_t ddot, const double *r, const double *w, int64_t len)
{
    if (len <= 11) {
        double s = 0.0;
        for (int64_t j = 0; j < len; j++)
            s += r[j] * w[j];
        return s;
    }
    return 0.0 + ddot(len, r, 1, w, 1);
}

/* float(a @ b) for two k-vectors. */
static double dot(ddot_t ddot, int64_t k, const double *a, const double *b)
{
    return k ? 0.0 + ddot(k, a, 1, b, 1) : 0.0;
}

/* numpy's matmul of the k x k block at a (row stride lda) with a vector:
 * a @ x is COL_MAJOR, x @ a is ROW_MAJOR. With k == 1 numpy multiplies
 * without BLAS. */
static void matvec(dgemv_t dgemv, int order, int64_t k, const double *a, int64_t lda,
                   const double *x, double *y)
{
    if (k == 1) {
        y[0] = 0.0;
        y[0] += a[0] * x[0];
    } else if (k > 1) {
        dgemv(order, TRANS, k, k, 1.0, a, lda, x, 1, 0.0, y, 1);
    }
}

/* np.argmax: the first maximum, or the first NaN. */
static int64_t argmax(const double *a, int64_t size)
{
    int64_t best = 0;
    if (a[0] != a[0])
        return 0;
    for (int64_t i = 1; i < size; i++) {
        if (a[i] > a[best])
            best = i;
        else if (a[i] != a[i])
            return i;
    }
    return best;
}

struct loop {
    ddot_t ddot;
    int64_t m, n, width, lmax, size, blocks, fitted;
    const int64_t *len, *sel_row, *sel_tau;
    const double *atoms, *x, *amp;
    const uint8_t *dead;
    double *corr, *mag, *residual, *acc, *top;
    uint8_t *approx, *stale, *dirty;
    double updates, moved; /* C and D of the bound */
};

static int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }
static int64_t max64(int64_t a, int64_t b) { return a > b ? a : b; }

/* The larger of a running maximum and a new value; a NaN stays. */
static double raise_to(double top, double value)
{
    return value > top || value != value ? value : top;
}

/* residual[a..b] = x - bincount(...) over the fitted placements: in pick
 * order, lanes in order, padding lanes on the last sample with zero weight. */
static void rebuild(struct loop *s, int64_t a, int64_t b)
{
    memset(s->acc + a, 0, (b - a + 1) * sizeof(double));
    for (int64_t p = 0; p < s->fitted; p++) {
        const int64_t tau = s->sel_tau[p];
        if (tau > b || min64(tau + s->lmax - 1, s->n - 1) < a)
            continue;
        const double *w = s->atoms + s->sel_row[p] * s->lmax;
        for (int64_t j = 0; j < s->lmax; j++) {
            const int64_t t = min64(tau + j, s->n - 1);
            if (t > b)
                break;
            if (t >= a)
                s->acc[t] += s->amp[p] * w[j];
        }
    }
    for (int64_t t = a; t <= b; t++)
        s->residual[t] = s->x[t] - s->acc[t];
}

/* Bring residual[a..b] up to the current amplitudes. */
static void refresh_residual(struct loop *s, int64_t a, int64_t b)
{
    while (a <= b && !s->stale[a])
        a++;
    while (b >= a && !s->stale[b])
        b--;
    if (a > b)
        return;
    rebuild(s, a, b);
    memset(s->stale + a, 0, b - a + 1);
}

static void make_exact(struct loop *s, int64_t i)
{
    const int64_t q = i / s->width, t = i % s->width;
    refresh_residual(s, t, t + s->len[q] - 1);
    s->corr[i] = correlate_at(s->ddot, s->residual + t, s->atoms + q * s->lmax, s->len[q]);
    s->approx[i] = 0;
}

/* The magnitudes of a block from corr, -inf where dead, and their
 * maximum, or NaN if one of them is NaN. */
static void refresh_block(struct loop *s, int64_t b)
{
    double top = -INFINITY;
    int nan = 0;
    for (int64_t i = b * BLOCK; i < min64((b + 1) * BLOCK, s->size); i++) {
        const double mag = s->dead[i] ? -INFINITY : fabs(s->corr[i]);
        s->mag[i] = mag;
        top = mag > top ? mag : top;
        nan |= mag != mag;
    }
    s->top[b] = nan ? NAN : top;
}

static void make_all_exact(struct loop *s)
{
    refresh_residual(s, 0, s->n - 1);
    for (int64_t i = 0; i < s->size; i++)
        if (s->approx[i])
            make_exact(s, i);
    for (int64_t b = 0; b < s->blocks; b++)
        refresh_block(s, b);
    s->updates = s->moved = 0.0;
}

/* np.argmax of the magnitudes as they are stored. */
static int64_t first_top(const struct loop *s)
{
    const int64_t lo = argmax(s->top, s->blocks) * BLOCK;
    return lo + argmax(s->mag + lo, min64(BLOCK, s->size - lo));
}

/* np.argmax of the exact magnitudes; see the screen above. */
static int64_t screen(struct loop *s, double bound)
{
    for (;;) {
        const int64_t best = first_top(s);
        const double low = s->mag[best] - bound;
        if (!isfinite(low)) {
            make_all_exact(s);
            return first_top(s);
        }
        int found = 0;
        for (int64_t b = 0; b < s->blocks; b++) {
            if (!(s->top[b] >= low))
                continue;
            int hit = 0;
            for (int64_t i = b * BLOCK; i < min64((b + 1) * BLOCK, s->size); i++) {
                if (s->approx[i] && !s->dead[i] && s->mag[i] >= low) {
                    make_exact(s, i);
                    hit = 1;
                }
            }
            if (hit) {
                refresh_block(s, b);
                found = 1;
            }
        }
        if (!found)
            return best;
    }
}

/* corr[q, t] -= d * table[row, q, t - tau + L_max] for every atom q and
 * every valid shift t at which the two supports overlap. */
static void band_update(struct loop *s, const double *table, int64_t row, int64_t tau, double d)
{
    const int64_t span = 2 * s->lmax + 1;
    for (int64_t q = 0; q < s->m; q++) {
        const int64_t lo = max64(0, tau - s->len[q] + 1);
        const int64_t hi = min64(s->n - s->len[q], tau + s->len[row] - 1);
        if (lo > hi)
            continue;
        /* two lanes at a time, each rounded as the scalar loop would */
        double *c = s->corr + q * s->width + lo;
        const double *band = table + (row * s->m + q) * span + s->lmax - tau + lo;
        const int64_t count = hi - lo + 1;
        const pair dd = {d, d};
        for (int64_t j = 0; j + 1 < count; j += 2) {
            pair cj, bj;
            memcpy(&cj, c + j, sizeof cj);
            memcpy(&bj, band + j, sizeof bj);
            cj -= dd * bj;
            memcpy(c + j, &cj, sizeof cj);
        }
        if (count % 2)
            c[count - 1] -= d * band[count - 1];
        memset(s->approx + q * s->width + lo, 1, hi - lo + 1);
        const int64_t b0 = (q * s->width + lo) / BLOCK, b1 = (q * s->width + hi) / BLOCK;
        memset(s->dirty + b0, 1, b1 - b0 + 1);
    }
}

int64_t omp_fast_forward(ddot_t ddot, dgemv_t dgemv, int64_t m, int64_t n, int64_t width,
                         int64_t lmax, int64_t budget, int64_t cap, double safety,
                         const int64_t *len, const double *atoms, const double *table,
                         const double *x, const double *signal_corr, double *corr, double *mag,
                         uint8_t *dead, int64_t *sel_row, int64_t *sel_tau, double *linv,
                         double *z, double *amp, double *residual, double *work, uint8_t *flags)
{
    const int64_t span = 2 * lmax + 1, size = m * width, blocks = (size + BLOCK - 1) / BLOCK;
    double *g = work + n, *v = g + cap, *previous = v + cap;
    struct loop s = {ddot, m, n, width, lmax, size, blocks, 0, len, sel_row, sel_tau, atoms, x,
                     amp, dead, corr, mag, residual, work, previous + cap,
                     flags, flags + size, flags + size + n, 0.0, 0.0};
    memset(flags, 0, size + n + blocks);
    for (int64_t b = 0; b < blocks; b++)
        refresh_block(&s, b);

    /* X, W1, Winf, N and A of the bound */
    double xmax = 0.0, w1 = 0.0, wmax = 0.0, norm = 0.0, asum = 0.0;
    for (int64_t i = 0; i < n; i++)
        xmax = raise_to(xmax, fabs(x[i]));
    for (int64_t q = 0; q < m; q++) {
        double l1 = 0.0, l2 = 0.0;
        for (int64_t j = 0; j < len[q]; j++) {
            const double w = atoms[q * lmax + j];
            l1 += fabs(w);
            l2 += w * w;
            wmax = raise_to(wmax, fabs(w));
        }
        w1 = raise_to(w1, l1);
        norm = raise_to(norm, l2);
    }
    const double u = 0x1p-53;

    int64_t k = 0;
    for (; k < budget; k++) {
        if (k + 1 == budget)
            make_all_exact(&s);
        const double reach = (xmax + wmax * asum) * w1;
        const double bound = !isfinite(4.0 * reach) ? INFINITY
            : safety * u * ((2.0 * lmax + 2.0 * cap + 6.0 + 2.0 * s.updates) * reach
                            + (lmax + 4.0) * norm * s.moved);
        const int64_t best = screen(&s, bound);
        if (!(mag[best] > 0.0))
            break;
        const int64_t row = best / width, tau = best % width;
        /* Gram row of the new placement against the selected ones */
        for (int64_t j = 0; j < k; j++) {
            int64_t lag = sel_tau[j] - (tau - lmax);
            lag = lag < 0 ? 0 : lag > 2 * lmax ? 2 * lmax : lag;
            g[j] = table[(row * m + sel_row[j]) * span + lag];
        }
        matvec(dgemv, COL_MAJOR, k, linv, cap, g, v);
        const double pivot = table[(row * m + row) * span + lmax] - dot(ddot, k, v, v);
        if (!(pivot > 0.0 && isfinite(pivot)))
            break;
        const double lam = sqrt(pivot);
        dead[best] = 1;
        s.dirty[best / BLOCK] = 1;
        sel_row[k] = row;
        sel_tau[k] = tau;
        double *lrow = linv + k * cap;
        matvec(dgemv, ROW_MAJOR, k, linv, cap, v, lrow);
        for (int64_t j = 0; j < k; j++)
            lrow[j] = -lrow[j] / lam;
        lrow[k] = 1.0 / lam;
        z[k] = (signal_corr[best] - dot(ddot, k, v, z)) / lam;
        memcpy(previous, amp, k * sizeof(double));
        matvec(dgemv, ROW_MAJOR, k + 1, linv, cap, z, amp);
        s.fitted = k + 1;

        /* A placement whose amplitude changed bits leaves its samples of the
         * residual stale and, unless this was the last pick, moves the
         * correlations in its band by the change. */
        double total = 0.0;
        for (int64_t p = 0; p <= k; p++) {
            total += fabs(amp[p]);
            if (p < k && !memcmp(amp + p, previous + p, sizeof(double)))
                continue;
            memset(s.stale + sel_tau[p], 1, min64(lmax, n - sel_tau[p]));
            const double d = p < k ? amp[p] - previous[p] : amp[p];
            if (k + 1 < budget && d != 0.0) {
                band_update(&s, table, sel_row[p], sel_tau[p], d);
                s.updates += 1.0;
                s.moved += fabs(d);
            }
        }
        asum = raise_to(asum, total);
        for (int64_t b = 0; b < blocks; b++) {
            if (s.dirty[b]) {
                refresh_block(&s, b);
                s.dirty[b] = 0;
            }
        }
    }
    if (k < budget)
        make_all_exact(&s);
    refresh_residual(&s, 0, n - 1);
    return k;
}
