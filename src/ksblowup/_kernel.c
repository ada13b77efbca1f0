/* The compiled passes of ksblowup, built with -ffp-contract=off (no product
 * and sum fuse) so that each repeats its NumPy twin bit for bit.
 *
 * ks_stretch is the loop of ksblowup.sim.Stepper._stretch: one record
 * interval's IMEX steps on raw arrays, k - 1 steps at dt and a last one at its
 * own dt (the step landing on a record or end time, or dt again).  Each step
 * repeats Stepper._advance operation for operation:
 *   - E v and D v from the gather (v[i+1], v[i], v[i-1]) of the (2, 3, n)
 *     stencil stack w, summed as numpy reduces it, (g0 w0 + g1 w1) + g2 w2;
 *   - the per-node Peclet select of sim._explicit (a NaN Peclet number
 *     upwinds), after one pass that finds whether any node upwinds, and its
 *     upwind patch of D v;
 *   - b = (E v + (D v) v) dt + v, with b[n-1] = bval[step];
 *   - LAPACK dgtts2's forward and back sweeps for one right-hand side over
 *     the dgttrf factors (dl, df, du, du2, ipiv), as dgttrs solves.
 * The matrix I - (dt/2) Lap - dt D_lin of each dt is formed as
 * Stepper._factored forms it and factored by ks_factor, a port of LAPACK
 * dgttrf, into scratch.  The loop stops at the first step whose solution is
 * not finite, and before a step whose matrix has a non-finite entry or is
 * singular.  It returns the number of steps taken and leaves v at the last
 * finite field; scratch holds 9 n doubles (b, then two sets of factors) and
 * ipiv 2 n ints.
 *
 * ks_slice is the arithmetic of ksblowup.diagnostics.decompose's NumPy path
 * after Q: the psi_hat cutoff, the mode projections and the tilde rho-norm, the flat
 * norms' Euler chain with its tail-decay and resolution tests, and the outer
 * and sup norms.  It repeats NumPy's order of operations, and its sums and
 * maxima are NumPy's reductions: np.add.reduce is the identity 0.0 plus
 * numpy's pairwise sum (8 accumulators in blocks of up to 128, split at
 * n/2 - (n/2) % 8), a sum over rows adds them in order, and
 * np.maximum.reduce lets a NaN through.  xi and Q(xi) stay in NumPy, whose
 * vectorized power does not round as libm's pow does. */
#include <math.h>
#include <string.h>

/* LAPACK dgttrf: the LU factors of the tridiagonal (dl, d, du) of order n
 * with partial pivoting, in place, the second superdiagonal in du2 and the
 * 1-based pivots in ipiv; returns info, the first i with U(i,i) = 0, or 0. */
long ks_factor(long n, double *dl, double *d, double *du, double *du2, int *ipiv)
{
    long i;
    for (i = 0; i < n; i++)
        ipiv[i] = (int)(i + 1);
    for (i = 0; i < n - 2; i++)
        du2[i] = 0.0;
    for (i = 0; i < n - 1; i++) {
        if (fabs(d[i]) >= fabs(dl[i])) {      /* no interchange */
            if (d[i] != 0.0) {
                double fact = dl[i] / d[i];
                dl[i] = fact;
                d[i + 1] = d[i + 1] - fact * du[i];
            }
        } else {        /* interchange rows i and i + 1 */
            double fact = d[i] / dl[i], temp = du[i];
            d[i] = dl[i];
            dl[i] = fact;
            du[i] = d[i + 1];
            d[i + 1] = temp - fact * d[i + 1];
            if (i < n - 2) {
                du2[i] = du[i + 1];
                du[i + 1] = -fact * du[i + 1];
            }
            ipiv[i] = (int)(i + 2);
        }
    }
    for (i = 0; i < n; i++)
        if (d[i] == 0.0)
            return i + 1;
    return 0;
}

/* The factors f = (dl, df, du, du2), n doubles each, and ipiv of
 * I - (dt/2) Lap - dt D_lin from the rows tri = (Lap lower, diagonal, upper,
 * D_lin lower, diagonal, upper), its last row the boundary condition; -1 for
 * a non-finite entry, else ks_factor's info. */
static long factor(long n, double dt, long neumann, const double *tri, double *f, int *ipiv)
{
    double *dl = f, *df = f + n, *du = f + 2 * n;
    long i;
    for (i = 0; i < n - 1; i++) {
        dl[i] = -0.5 * dt * tri[i + 1] - dt * tri[3 * n + i + 1];
        du[i] = -0.5 * dt * tri[2 * n + i] - dt * tri[5 * n + i];
    }
    for (i = 0; i < n; i++)
        df[i] = (1.0 - 0.5 * dt * tri[n + i]) - dt * tri[4 * n + i];
    df[n - 1] = 1.0;
    dl[n - 2] = neumann ? -1.0 : 0.0;
    for (i = 0; i < n; i++)
        if (!isfinite(df[i]) || (i < n - 1 && !(isfinite(dl[i]) && isfinite(du[i]))))
            return -1;
    return ks_factor(n, dl, df, du, f + 3 * n, ipiv);
}

long ks_stretch(long n, long k, long neumann, double dt, double last, double d,
                const double *y, const double *h, const double *dy, const double *w,
                const double *tri, double *scratch, int *ipiv, const double *bval,
                double *v)
{
    double *x = v, *z = scratch, *swap, *fa = scratch + n, *fb = fa;
    int *pa = ipiv, *pb = ipiv;
    long s, i, steps = k;
    if (k > 1 && factor(n, dt, neumann, tri, fa, pa) != 0)
        return 0;
    if (k == 1 || last != dt) {
        fb = fa + 4 * n;
        pb = ipiv + n;
        if (factor(n, last, neumann, tri, fb, pb) != 0)
            steps = k - 1;
    }
    for (s = 0; s < steps; s++) {
        const double *f = s < k - 1 ? fa : fb;
        const double *dl = f, *df = f + n, *du = f + 2 * n, *du2 = f + 3 * n;
        const int *p = s < k - 1 ? pa : pb;
        double step = s < k - 1 ? dt : last, zi, z1, z2;
        int upwind = 0, finite;
        for (i = 0; i < n; i++)
            if (!(fabs(x[i] * y[i]) * h[i] <= 2.0))
                upwind = 1;
        for (i = 0; i < n; i++) {
            /* the gather: (v[1], v[0], v[0]) at node 0, (v[n-1], v[n-2],
             * v[n-2]) at the last, whose third weight is zero */
            long end = i == n - 1;
            double g0 = x[i == 0 ? 1 : end ? i : i + 1];
            double g1 = x[end ? i - 1 : i];
            double g2 = x[i == 0 ? 0 : i - 1];
            double ev = (g0 * w[i] + g1 * w[n + i]) + g2 * w[2 * n + i];
            double dv = (g0 * w[3 * n + i] + g1 * w[4 * n + i]) + g2 * w[5 * n + i];
            if (upwind && !(fabs(x[i] * y[i]) * h[i] <= 2.0)) {
                double slope = 0.0;
                if (i > 0 && (end || !(x[i] * y[i] > 0)))
                    slope = (x[i] - x[i - 1]) / dy[i - 1];
                else if (i > 0)
                    slope = (x[i + 1] - x[i]) / dy[i];
                dv = slope * y[i];
                dv = dv + d * x[i];
            }
            dv = dv * x[i];
            z[i] = (ev + dv) * step + x[i];
        }
        /* dgtts2's sweeps, the entry they carry held in a register: row i
         * is eliminated from row i + 1, or rows i and i + 1 swap first */
        z[n - 1] = bval[s];
        zi = z[0];
        for (i = 0; i < n - 1; i++) {
            double next = z[i + 1];
            if (p[i] == i + 1) {
                z[i] = zi;
                zi = next - dl[i] * zi;
            } else {
                z[i] = next;
                zi = zi - dl[i] * next;
            }
        }
        z2 = zi / df[n - 1];
        z1 = (z[n - 2] - du[n - 2] * z2) / df[n - 2];
        z[n - 1] = z2;
        z[n - 2] = z1;
        finite = isfinite(z1) && isfinite(z2);
        for (i = n - 3; i >= 0; i--) {
            zi = (z[i] - du[i] * z1 - du2[i] * z2) / df[i];
            z[i] = zi;
            finite &= isfinite(zi) != 0;
            z2 = z1;
            z1 = zi;
        }
        if (!finite)
            break;
        swap = x;
        x = z;
        z = swap;
    }
    if (x != v)
        memcpy(v, x, n * sizeof *v);
    return s;
}

/* numpy's pairwise_sum_DOUBLE of a[0..n-1], each a[i] times b[i] where b is
 * given: below 8 entries in turn from 0.0, up to 128 in 8 accumulators, else
 * split at n/2 - (n/2) % 8 */
static double pairwise(const double *a, const double *b, long n)
{
    double r0, r1, r2, r3, r4, r5, r6, r7, res;
    long i, half;
#define AT(i) (b ? a[i] * b[i] : a[i])
    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++)
            res += AT(i);
        return res;
    }
    if (n <= 128) {
        r0 = AT(0), r1 = AT(1), r2 = AT(2), r3 = AT(3);
        r4 = AT(4), r5 = AT(5), r6 = AT(6), r7 = AT(7);
        for (i = 8; i < n - n % 8; i += 8) {
            r0 += AT(i), r1 += AT(i + 1), r2 += AT(i + 2), r3 += AT(i + 3);
            r4 += AT(i + 4), r5 += AT(i + 5), r6 += AT(i + 6), r7 += AT(i + 7);
        }
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7));
        for (; i < n; i++)
            res += AT(i);
        return res;
    }
#undef AT
    half = n / 2;
    half -= half % 8;
    return pairwise(a, b, half) + pairwise(a + half, b ? b + half : b, n - half);
}

/* np.add.reduce of a[0..n-1], or of the products a[i] b[i]: the identity 0.0
 * plus the pairwise sum */
static double sum(const double *a, const double *b, long n)
{
    return 0.0 + pairwise(a, b, n);
}

/* A running np.maximum.reduce of nonnegative entries: the largest so far
 * (from 0.0, which no nonnegative entry changes) and the first NaN met,
 * which wins, as numpy lets a NaN through */
struct peak {
    double top, nan;
};

static void take(struct peak *p, double x)
{
    p->top = p->top > x ? p->top : x;
    if (x != x && p->nan == 0.0)
        p->nan = x;
}

static double peak_of(const struct peak *p)
{
    return p->nan != 0.0 ? p->nan : p->top;
}

/* The band lo <= i < hi of profile.cutoff_chi for ascending xi: below it
 * xi <= K, xi / K rounds to at most 1 and chi is exactly 1.0; from its end
 * xi >= 2K, xi / K rounds to at least 2 and chi is exactly 0.0; on it xi / K
 * rounds into [1, 2], where u - 1 is exact and the clip is idle, and chi is
 * the smoothstep of xi / K - 1 */
static void band(long n, const double *xi, double K, long *lo, long *hi)
{
    long i = 0;
    while (i < n && xi[i] <= K)
        i++;
    *lo = i;
    while (i < n && xi[i] < 2.0 * K)
        i++;
    *hi = i;
}

static double chi(double xi, double K)
{
    double t = xi / K - 1.0;
    return 1.0 - t * t * t * ((10.0 - 15.0 * t) + 6.0 * t * t);
}

/* y df/dy as y * np.gradient(f, y, edge_order=1) forms it, from its stencil
 * st (DiagnosticsContext._slice_arrays): the interior weights (a, b, c),
 * n - 2 each, or with equal spacings the one doubled spacing b */
static void euler(long n, long uniform, const double *st, const double *y,
                  const double *f, double *out)
{
    const double *a = st, *b = st + n - 2, *c = st + 2 * (n - 2);
    long i;
    if (uniform)
        for (i = 1; i < n - 1; i++)
            out[i] = (f[i + 1] - f[i - 1]) / st[0] * y[i];
    else
        for (i = 1; i < n - 1; i++)
            out[i] = ((a[i - 1] * f[i - 1] + b[i - 1] * f[i]) + c[i - 1] * f[i + 1]) * y[i];
    out[0] = (f[1] - f[0]) / (y[1] - y[0]) * y[0];
    out[n - 1] = (f[n - 1] - f[n - 2]) / (y[n - 1] - y[n - 2]) * y[n - 1];
}

/* 1 where diagnostics._check_tail_decay raises on this integrand,
 * `count` of them positive: the mean of the window that ends five nodes
 * before the last positive entry is at least that of the window before it,
 * and above 1e-6 of the row's largest entry */
static long tail_grows(long n, const double *row, long count)
{
    long first = 0, end = n - 1, i, m, last, prev;
    struct peak top = {0.0, 0.0};
    double mean;
    if (count < 32)
        return 0;
    while (!(row[first] > 0))
        first++;
    while (!(row[end] > 0))
        end--;
    end -= 5;
    m = end - first + 1;
    if (m < 32)
        return 0;
    last = end - m / 8;                 /* row[last:end + 1], row[prev:last] */
    prev = end - m / 4;
    mean = sum(row + last, 0, end + 1 - last) / (end + 1 - last);
    if (!(mean >= sum(row + prev, 0, last - prev) / (last - prev)))
        return 0;
    for (i = 0; i < n; i++)
        take(&top, row[i]);
    return mean > 1e-6 * peak_of(&top);
}

/* decompose's measurements of the field v at s, from xi, Q(xi) and psi_hat's
 * factor c = -1/(B s), into out: the rows coefficients, the tilde rho-norm,
 * flat norms 0-2, out_sup, out_dysup, out_ysup, sup |v| and sup |v - Q|.
 * The grid's arrays are those of DiagnosticsContext: y, phi_tilde, the rho
 * quadrature weights, the rows eigenfunctions phi and their squared norms,
 * the flat weights, and the Euler stencil st; scratch holds 6 n doubles.
 * Returns 1 when the field is unresolved (`_flat_norms` warns), 2 when a
 * flat integrand's tail does not decay (it raises), else 0. */
long ks_slice(long n, long rows, long uniform, double c, double K, const double *y,
              const double *phit, const double *quad, const double *phi,
              const double *norm_sq, const double *flat_w, const double *st,
              double *scratch, double *out, const double *xi, const double *q,
              const double *v)
{
    double *eh = scratch, *ex = scratch + n, *d1 = scratch + 2 * n, *d2 = scratch + 3 * n,
           *w = scratch + 4 * n, *t = scratch + 5 * n, coef[rows];
    const double *chain[3] = {eh, d1, d2};
    struct peak sup_v = {0.0, 0.0}, sup_dev = {0.0, 0.0}, big = {0.0, 0.0},
                jump = {0.0, 0.0}, out_sup = {0.0, 0.0}, out_dsup = {0.0, 0.0},
                out_ysup = {0.0, 0.0};
    long flags = 0, lo, hi, lo_k, hi_k, i, k, j;

    /* eps_hat = v - (Q + psi_hat), psi_hat cut by the unit cutoff; eps =
     * eps_hat + psi_hat cut by 1 - chi_K for the outer norms; the rho-weighted
     * eps_hat of the projections; the sups of v, v - Q, eps_hat and its
     * jumps, and the resolution test */
    band(n, xi, 1.0, &lo, &hi);
    band(n, xi, K, &lo_k, &hi_k);
    for (i = 0; i < n; i++) {
        double ph = c * phit[i], e;
        if (i >= hi)
            ph *= 0.0;
        else if (i >= lo)
            ph *= chi(xi[i], 1.0);
        eh[i] = v[i] - (q[i] + ph);
        e = eh[i] + ph;
        if (i < lo_k)
            e *= 0.0;
        else if (i < hi_k)
            e *= 1.0 - chi(xi[i], K);
        ex[i] = e;
        w[i] = quad[i] * eh[i];
        take(&sup_v, fabs(v[i]));
        take(&sup_dev, fabs(v[i] - q[i]));
        take(&big, fabs(eh[i]));
        if (i)
            take(&jump, fabs(eh[i] - eh[i - 1]));
    }
    if (peak_of(&jump) / (peak_of(&big) + 1e-300) > 0.5)
        flags = 1;

    /* the projections, one row-wise sum each, and the rho-norm of the
     * remainder, its sum over the modes taken in order */
    for (k = 0; k < rows; k++)
        coef[k] = out[k] = sum(w, phi + k * n, n) / norm_sq[k];
    for (i = 0; i < n; i++) {
        double nat = 0.0;
        for (k = 0; k < rows; k++)
            nat += coef[k] * phi[k * n + i];
        t[i] = quad[i] * ((eh[i] - nat) * (eh[i] - nat));
    }
    out[rows] = sqrt(sum(t, 0, n));

    /* the flat norms: the Euler chain, and each row's integrand, tail test
     * and sum */
    euler(n, uniform, st, y, eh, d1);
    euler(n, uniform, st, y, d1, d2);
    for (j = 0; j < 3; j++) {
        long count = 0;
        for (i = 0; i < n; i++) {
            t[i] = flat_w[i] * chain[j][i] * chain[j][i];
            count += t[i] > 0;
        }
        if (tail_grows(n, t, count))
            flags = 2;
        out[rows + 1 + j] = sqrt(sum(t, 0, n));
    }

    /* the outer norms */
    euler(n, uniform, st, y, ex, d1);
    for (i = 0; i < n; i++) {
        take(&out_sup, fabs(ex[i]));
        take(&out_dsup, fabs(d1[i]));
        take(&out_ysup, y[i] * fabs(ex[i]));
    }
    out[rows + 4] = peak_of(&out_sup);
    out[rows + 5] = peak_of(&out_dsup);
    out[rows + 6] = peak_of(&out_ysup);
    out[rows + 7] = peak_of(&sup_v);
    out[rows + 8] = peak_of(&sup_dev);
    return flags;
}
