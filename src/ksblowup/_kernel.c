/* The compiled passes of ksblowup, built with -ffp-contract=off (no product
 * and sum fuse) so that each repeats its NumPy twin bit for bit.
 *
 * ks_stretch is the loop of ksblowup.sim.Stepper._stretch: one record
 * interval's IMEX steps on raw arrays, k - 1 steps at dt and a last one at its
 * own dt (the step landing on a record or end time, or dt again).  Each step
 * (`step`) repeats Stepper._advance operation for operation, in one pass over
 * the nodes and one back:
 *   - LAPACK dgtts2's forward sweep for one right-hand side over the dgttrf
 *     factors (dl, df, du, du2, ipiv), as dgttrs solves, which forms each
 *     entry b[i+1] of b = (E v + (D v) v) dt + v just before it eliminates it
 *     (`node_b`): E v and D v from the gather (v[i+1], v[i], v[i-1]) of the
 *     (2, 3, n) stencil stack w, summed as numpy reduces it,
 *     (g0 w0 + g1 w1) + g2 w2, then the per-node Peclet select of
 *     sim._explicit (a NaN Peclet number upwinds) and its upwind patch of
 *     D v.  No sum runs across nodes, so the order of the nodes' work
 *     changes no bit;
 *   - b[n-1], the boundary value: at d = 4 with the profile boundary, Q at
 *     the edge xi = y_max pow(t, -0.25) of the step's end time t, as
 *     Stepper._edges forms it (Python's ** is libm's pow, and t = c xi^4 is
 *     taken by products in profile and here); else the value Stepper._edges
 *     gave;
 *   - dgtts2's back sweep, with the finiteness test folded in.
 * The matrix I - (dt/2) Lap - dt D_lin of each dt is formed as
 * Stepper._factored forms it and factored by ks_factor, a port of LAPACK
 * dgttrf, into scratch.  The loop stops at the first step whose solution is
 * not finite, and before a step whose matrix has a non-finite entry or is
 * singular, or whose t = c xi^4 is not finite (q_of_xi raises there).  It
 * returns the number of steps taken and leaves v at the last finite field;
 * scratch holds 9 n doubles (the step's output, then two sets of factors)
 * and ipiv 2 n ints.
 *
 * ks_cfl_stretch is the loop of Stepper.advance's CFL steps for the Neumann
 * boundary: each step's dt from ks_cfl's maxima, capped and landed as
 * advance sets it, factored, and stepped as above.
 *
 * ks_slice is the arithmetic of ksblowup.diagnostics.decompose's NumPy path:
 * at d = 4 xi and Q(xi) as well, at d = 3 what follows them; then the psi_hat
 * cutoff, the mode projections and the tilde rho-norm, the flat norms' Euler
 * chain with its tail-decay (ks_tail_grows) and resolution tests, and the
 * outer and sup norms.  It repeats NumPy's order of operations, and its sums
 * and maxima are NumPy's reductions: np.add.reduce is the identity 0.0 plus
 * numpy's pairwise sum (8 accumulators in blocks of up to 128, split at
 * n/2 - (n/2) % 8), a sum over rows adds them in order, and
 * np.maximum.reduce lets a NaN through.  d = 3's Q stays in NumPy, whose
 * sinh and arcsinh do not round as libm's do.
 *
 * ks_cfl takes the two maxima of ksblowup.sim.Stepper.cfl_dt. */
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

/* Q(xi) at d = 4 as profile.q_of_xi forms it: t = c ((xi xi)(xi xi)), then
 * 1 / (2 + sqrt(4 + t)); 0 where t is not finite, where q_of_xi raises */
static int profile_q(double xi, double c, double *q)
{
    double xi2 = xi * xi, t = c * (xi2 * xi2);
    if (!isfinite(t))
        return 0;
    *q = 1.0 / (2.0 + sqrt(4.0 + t));
    return 1;
}

/* b[i] = (E v + (D v) v) dt + v at a node i < n - 1 of the field x, as
 * Stepper._advance forms it: E v and D v from the gather (x[i+1], x[i],
 * x[i-1]), or (x[1], x[0], x[0]) at node 0, and D v upwinded where the
 * Peclet test fails */
static inline double node_b(long n, long i, double d, double dt, const double *y,
                            const double *h, const double *dy, const double *w,
                            const double *x)
{
    double g0 = x[i + 1], g1 = x[i], g2 = x[i == 0 ? 0 : i - 1];
    double ev = (g0 * w[i] + g1 * w[n + i]) + g2 * w[2 * n + i];
    double dv = (g0 * w[3 * n + i] + g1 * w[4 * n + i]) + g2 * w[5 * n + i];
    if (!(fabs(x[i] * y[i]) * h[i] <= 2.0)) {
        double slope = 0.0;
        if (i > 0 && !(x[i] * y[i] > 0))
            slope = (x[i] - x[i - 1]) / dy[i - 1];
        else if (i > 0)
            slope = (x[i + 1] - x[i]) / dy[i];
        dv = slope * y[i];
        dv = dv + d * x[i];
    }
    dv = dv * x[i];
    return (ev + dv) * dt + x[i];
}

/* One step of x at dt into z over the factors f = (dl, df, du, du2) and
 * pivots p of its matrix, with the boundary value edge as b[n-1]: dgtts2's
 * forward sweep forms each b[i+1] just before it eliminates it, the entry
 * it carries held in a register (row i is eliminated from row i + 1, or
 * rows i and i + 1 swap first), then its back sweep; whether z is finite */
static int step(long n, double d, double dt, double edge, const double *f, const int *p,
                const double *y, const double *h, const double *dy, const double *w,
                const double *restrict x, double *restrict z)
{
    const double *dl = f, *df = f + n, *du = f + 2 * n, *du2 = f + 3 * n;
    double zi = node_b(n, 0, d, dt, y, h, dy, w, x), z1, z2;
    long i;
    int finite;
    for (i = 0; i < n - 1; i++) {
        double next = i < n - 2 ? node_b(n, i + 1, d, dt, y, h, dy, w, x) : edge;
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
    return finite;
}

/* bval holds the k boundary values, or with the profile constant c > 0 (d = 4)
 * the stretch's k + 1 times, from which the loop forms them */
long ks_stretch(long n, long k, long neumann, double dt, double last, double d, double c,
                const double *y, const double *h, const double *dy, const double *w,
                const double *tri, double *scratch, int *ipiv, const double *bval,
                double *v)
{
    double *x = v, *z = scratch, *swap, *fa = scratch + n, *fb = fa;
    int *pa = ipiv, *pb = ipiv;
    long s, steps = k;
    if (k > 1 && factor(n, dt, neumann, tri, fa, pa) != 0)
        return 0;
    if (k == 1 || last != dt) {
        fb = fa + 4 * n;
        pb = ipiv + n;
        if (factor(n, last, neumann, tri, fb, pb) != 0)
            steps = k - 1;
    }
    for (s = 0; s < steps; s++) {
        int at_dt = s < k - 1;
        double edge = bval[s];
        if (c > 0.0 && !profile_q(y[n - 1] * pow(bval[s + 1], -0.25), c, &edge))
            break;
        if (!step(n, d, at_dt ? dt : last, edge, at_dt ? fa : fb, at_dt ? pa : pb, y, h, dy, w,
                  x, z))
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
 * before the end of the domain is at least that of the window before it,
 * and above 1e-6 of the row's largest entry */
long ks_tail_grows(long n, const double *row, long count)
{
    long first = 0, end = n - 6, i, m, last, prev;
    struct peak top = {0.0, 0.0};
    double mean;
    if (count < 32)
        return 0;
    while (!(row[first] > 0))
        first++;
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
 * With the profile constant cq > 0 (d = 4) the pass first forms xi =
 * y pow(s, -0.25), as y * s ** -0.25 forms it, and Q(xi) into xi and q;
 * with cq = 0 it reads them.  The grid's arrays are those of
 * DiagnosticsContext: y, phi_tilde, the rho quadrature weights, the rows
 * eigenfunctions phi and their squared norms, the flat weights, and the
 * Euler stencil st; scratch holds 6 n doubles.  Returns 3 when a t = c xi^4
 * is not finite (q_of_xi raises), 1 when the field is unresolved
 * (`_flat_norms` warns), 2 when a flat integrand's tail does not decay (it
 * raises), else 0. */
long ks_slice(long n, long rows, long uniform, double c, double K, double s, double cq,
              const double *y, const double *phit, const double *quad, const double *phi,
              const double *norm_sq, const double *flat_w, const double *st,
              double *scratch, double *out, double *xi, double *q, const double *v)
{
    double *eh = scratch, *ex = scratch + n, *d1 = scratch + 2 * n, *d2 = scratch + 3 * n,
           *w = scratch + 4 * n, *t = scratch + 5 * n, coef[rows];
    const double *chain[3] = {eh, d1, d2};
    struct peak sup_v = {0.0, 0.0}, sup_dev = {0.0, 0.0}, big = {0.0, 0.0},
                jump = {0.0, 0.0}, out_sup = {0.0, 0.0}, out_dsup = {0.0, 0.0},
                out_ysup = {0.0, 0.0};
    long flags = 0, lo, hi, lo_k, hi_k, i, k, j;

    if (cq > 0.0) {
        double sm = pow(s, -0.25);
        for (i = 0; i < n; i++) {
            xi[i] = y[i] * sm;
            if (!profile_q(xi[i], cq, q + i))
                return 3;
        }
    }

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
        if (ks_tail_grows(n, t, count))
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

/* Stepper.cfl_dt's two maxima of the field v into out: the nonlinear
 * drift's largest max(|v y|[i], |v y|[i + 1]) / dy[i], and the reaction's
 * largest |d2 v - sigma|, each letting a NaN through as np.max does; a
 * maximum is exact in any order. */
void ks_cfl(long n, double d2, double sigma, const double *y, const double *dy,
            const double *v, double *out)
{
    struct peak drift = {0.0, 0.0}, react = {0.0, 0.0};
    double a0 = fabs(v[0] * y[0]), a1;
    long i;
    take(&react, fabs(d2 * v[0] - sigma));
    for (i = 1; i < n; i++) {
        a1 = fabs(v[i] * y[i]);
        take(&drift, (a1 > a0 || a1 != a1 ? a1 : a0) / dy[i - 1]);
        take(&react, fabs(d2 * v[i] - sigma));
        a0 = a1;
    }
    out[0] = peak_of(&drift);
    out[1] = peak_of(&react);
}

/* A capped CFL run of a Neumann stepper, the steps Stepper.advance takes one
 * at a time without a fixed dt: from v at t toward target, at most `most`
 * steps, each of Stepper.cfl_dt's dt at cfl from ks_cfl's maxima, at most
 * rate (t_star - t) (a NaN rate caps nothing), and landing on target by
 * _stretch_times' rule (a step within tol of target takes it all), the time
 * summed as t += dt.  The loop stops before a step whose dt is not positive
 * or whose matrix cannot be factored, and at a step whose solution is not
 * finite: Stepper.advance takes that one on its per-step path.  Returns the
 * steps taken, and into out the time reached and their smallest and largest
 * dt; v and scratch as ks_stretch leaves them. */
long ks_cfl_stretch(long n, double most, double d, double sigma, double cfl, double rate,
                    double t_star, double t, double target, double tol, const double *y,
                    const double *h, const double *dy, const double *w, const double *tri,
                    double *scratch, int *ipiv, double *out, double *v)
{
    double *x = v, *z = scratch, *swap, *f = scratch + n, lo = INFINITY, hi = 0.0, m[2];
    long s;
    for (s = 0; s < most && t < target - tol; s++) {
        double dt, cap = rate * (t_star - t);
        ks_cfl(n, 2.0 * d, sigma, y, dy, x, m);
        dt = m[0] > 0 ? cfl / m[0] : INFINITY;
        if (m[1] > 0 && 0.5 / m[1] < dt)
            dt = 0.5 / m[1];
        if (cap < dt)
            dt = cap;
        if (!(dt > 0))
            break;
        if (!(dt < (target - t) - tol))
            dt = target - t;
        if (factor(n, dt, 1, tri, f, ipiv) != 0 || !step(n, d, dt, 0.0, f, ipiv, y, h, dy, w, x, z))
            break;
        t += dt;
        lo = dt < lo ? dt : lo;
        hi = dt > hi ? dt : hi;
        swap = x;
        x = z;
        z = swap;
    }
    if (x != v)
        memcpy(v, x, n * sizeof *v);
    out[0] = t;
    out[1] = lo;
    out[2] = hi;
    return s;
}
