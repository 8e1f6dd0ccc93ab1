/* OMP's factored pick loop, the compiled twin of the loop in
 * vibdict.coding._omp_encode. It makes the same floating-point operations
 * in the same order, and every dot and matrix-vector product goes through
 * the BLAS functions numpy itself calls, passed in as pointers, so the
 * result is the same bytes. Build with -ffp-contract=off and without
 * -ffast-math, so that no multiply-add is fused.
 *
 * omp_fast_forward runs picks from k = 0 until the budget is spent, the
 * scan finds nothing left, or a pivot is not positive and finite; it
 * returns the pick it stopped at. The state is then what the Python loop
 * holds at the start of that pick, and that loop carries on from it. */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef double (*ddot_t)(int64_t n, const double *x, int64_t incx, const double *y, int64_t incy);
typedef void (*dgemv_t)(int order, int trans, int64_t m, int64_t n, double alpha,
                        const double *a, int64_t lda, const double *x, int64_t incx,
                        double beta, double *y, int64_t incy);

enum { ROW_MAJOR = 101, COL_MAJOR = 102, TRANS = 112 };

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

/* np.argmax: the first maximum in row-major order, or the first NaN. */
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

int64_t omp_fast_forward(ddot_t ddot, dgemv_t dgemv, int64_t m, int64_t n, int64_t width,
                         int64_t lmax, int64_t budget, int64_t cap, const int64_t *len,
                         const double *atoms, const double *table, const double *x,
                         const double *signal_corr, double *corr, double *mag, uint8_t *dead,
                         int64_t *sel_row, int64_t *sel_tau, double *linv, double *z,
                         double *amp, double *residual, double *work)
{
    double *acc = work, *g = work + n, *v = g + cap;
    const int64_t span = 2 * lmax + 1;
    for (int64_t k = 0; k < budget; k++) {
        const int64_t best = argmax(mag, m * width);
        if (!(mag[best] > 0.0))
            return k;
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
            return k;
        const double lam = sqrt(pivot);
        dead[best] = 1;
        mag[best] = -INFINITY;
        sel_row[k] = row;
        sel_tau[k] = tau;
        double *lrow = linv + k * cap;
        matvec(dgemv, ROW_MAJOR, k, linv, cap, v, lrow);
        for (int64_t j = 0; j < k; j++)
            lrow[j] = -lrow[j] / lam;
        lrow[k] = 1.0 / lam;
        z[k] = (signal_corr[best] - dot(ddot, k, v, z)) / lam;
        matvec(dgemv, ROW_MAJOR, k + 1, linv, cap, z, amp);

        /* residual = x - bincount(...): placements in pick order, lanes in
         * order, padding lanes on the last sample with zero weight */
        memset(acc, 0, n * sizeof(double));
        for (int64_t p = 0; p <= k; p++) {
            const double *w = atoms + sel_row[p] * lmax;
            for (int64_t j = 0; j < lmax; j++) {
                const int64_t t = sel_tau[p] + j < n - 1 ? sel_tau[p] + j : n - 1;
                acc[t] += amp[p] * w[j];
            }
        }
        int64_t first = -1, last = -1;
        for (int64_t i = 0; i < n; i++) {
            const double r = x[i] - acc[i];
            if (r != residual[i]) {
                if (first < 0)
                    first = i;
                last = i;
            }
            residual[i] = r;
        }
        if (k + 1 >= budget || first < 0)
            continue;
        for (int64_t q = 0; q < m; q++) {
            const int64_t lo = first - len[q] + 1 > 0 ? first - len[q] + 1 : 0;
            const int64_t hi = n - len[q] < last ? n - len[q] : last;
            for (int64_t t = lo; t <= hi; t++)
                corr[q * width + t] = correlate_at(ddot, residual + t, atoms + q * lmax, len[q]);
        }
        const int64_t c0 = first - lmax + 1 > 0 ? first - lmax + 1 : 0;
        const int64_t c1 = last < width - 1 ? last : width - 1;
        for (int64_t q = 0; q < m; q++)
            for (int64_t c = c0; c <= c1; c++)
                mag[q * width + c] = dead[q * width + c] ? -INFINITY : fabs(corr[q * width + c]);
    }
    return budget;
}
