/* The compiled passes of ksblowup, built with -ffp-contract=off (no product
 * and sum fuse) so that each repeats its NumPy twin bit for bit.
 *
 * Each caller hands over its per-grid entries as one uintp array, built once
 * (counts first, then addresses; the enums below): a stepper
 * (ksblowup.sim.Stepper), a factor table (sim.FactorTable) and a diagnostics
 * context (ksblowup.diagnostics.DiagnosticsContext._slice_arrays).
 *
 * ks_stretch is the one stepping loop, and Stepper._loop its one caller.  It
 * always forms its step times itself, by sim._stretch_times' rule: t += dt
 * while t < target - tol and dt < (target - t) - tol, then the landing step
 * target - t; with a cfl each dt comes from ks_cfl's maxima instead.  On the
 * field a d = 4 record interval lands on it can take ks_cfl's maxima and
 * ks_slice's measurements too, so a record interval and its record are one
 * call.  Each step (`step`) repeats Stepper._advance operation for operation,
 * in one pass over the nodes and one back:
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
 *     taken by products in profile and here); zero for Neumann; at d = 3
 *     the value Stepper._edges gave;
 *   - dgtts2's back sweep, with the finiteness test folded in.
 * The matrix I - (dt/2) Lap - dt D_lin of each dt is formed as
 * Stepper._factored forms it and factored by ks_factor, a port of LAPACK
 * dgttrf.  The factors go into a slot of the factor table that a search
 * shares among its probes, looked up by exact dt, or into the stepper's
 * scratch where there is no table or no free slot; no slot is evicted.  The
 * loop stops at the first step whose solution is not finite, and before a
 * step whose matrix has a non-finite entry or is singular, or whose
 * t = c xi^4 is not finite (q_of_xi raises there).  It returns the number of
 * steps taken and leaves v at the last finite field.
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
 * ks_cfl takes the two maxima of ksblowup.sim.Stepper.cfl_dt.
 *
 * ks_ansatz is the arithmetic of ksblowup.profile._ansatz after Q, for
 * ansatz_residual, ansatz_time_derivative and selfsimilar_rhs_of_ansatz: in
 * one pass over the nodes, Q' and Lap Q, d(psi)/ds and the generated error,
 * and on the ansatz cutoff's support xi < 2K phi_tilde's and the cutoff's
 * jets and psi_hat's terms.  xi, t, Q, Q^(l+1) and at d = 3 xi^4 stay in
 * NumPy: its sinh, arcsinh and pow (** with an exponent other than 2) are
 * SIMD code whose last bits libm's do not repeat.  The scalars, among them
 * s^(-1/(2l)) and K^2, come from Python, so the pass calls no pow. */
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

/* A stepper's entries.  G_SCRATCH: 5 n doubles, a field and one set of
 * factors; G_IPIV: n ints.  G_CONST: d, sigma, Q's constant c at d = 4 with
 * the profile boundary (else 0) and the time tolerance.  G_OUT: ks_cfl's
 * maxima; or the time a loop reached, its smallest and largest dt and the
 * count of matrices it factored, then at a measured landing ks_cfl's maxima,
 * ks_slice's flags and its seconds. */
enum { G_N, G_NEUMANN, G_Y, G_H, G_DY, G_W, G_TRI, G_SCRATCH, G_IPIV, G_CONST, G_OUT };
/* A factor table's: the slot count, the slots used, the dt of each used
 * slot, then 4 n doubles of factors and n pivots per slot. */
enum { T_SLOTS, T_USED, T_DT, T_F, T_IPIV };
/* A diagnostics context's.  S_CONST: K, B, Q's constant c at d = 4 (else 0)
 * and the ansatz cutoff's scale (profile.UNIT_CUTOFF.K); S_SCRATCH: 6 n
 * doubles; S_OUT: the measurements; S_XI and S_Q: xi and Q(xi), formed here
 * at d = 4. */
enum { S_N, S_ROWS, S_UNIFORM, S_Y, S_PHIT, S_QUAD, S_PHI, S_NORM, S_FLAT, S_ST, S_SCRATCH,
       S_OUT, S_XI, S_Q, S_CONST };
#define ARR(a, i) ((double *)(a)[i])

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

/* profile._smoothstep, 1 - t^3 (10 - 15 t + 6 t^2) */
static double smooth(double t)
{
    return 1.0 - t * t * t * ((10.0 - 15.0 * t) + 6.0 * t * t);
}

static double chi(double xi, double K)
{
    return smooth(xi / K - 1.0);
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

/* decompose's measurements of the field v at s into S_OUT: the rows
 * coefficients, the tilde rho-norm, flat norms 0-2, out_sup, out_dysup,
 * out_ysup, sup |v| and sup |v - Q|, from xi, Q(xi) and psi_hat's factor
 * c = -1/(B s).  With Q's constant cq > 0 (d = 4) the pass first forms xi =
 * y pow(s, -0.25), as y * s ** -0.25 forms it, and Q(xi) into S_XI and S_Q;
 * with cq = 0 it reads them.  The grid's arrays are those of
 * DiagnosticsContext: y, phi_tilde, the rho quadrature weights, the rows
 * eigenfunctions phi and their squared norms, the flat weights, and the
 * Euler stencil st.  Returns 3 when a t = c xi^4 is not finite (q_of_xi
 * raises), 4 when the grid ends short of xi = 2K (outer_norms raises), 1 when
 * the field is unresolved (`_flat_norms` warns), 2 when a flat integrand's
 * tail does not decay (it raises), else 0. */
long ks_slice(const uintptr_t *a, double s, const double *v)
{
    long n = (long)a[S_N], rows = (long)a[S_ROWS], uniform = (long)a[S_UNIFORM];
    const double *y = ARR(a, S_Y), *phit = ARR(a, S_PHIT), *quad = ARR(a, S_QUAD),
                 *phi = ARR(a, S_PHI), *norm_sq = ARR(a, S_NORM), *flat_w = ARR(a, S_FLAT),
                 *st = ARR(a, S_ST), *kbc = ARR(a, S_CONST);
    double *scratch = ARR(a, S_SCRATCH), *out = ARR(a, S_OUT), *xi = ARR(a, S_XI),
           *q = ARR(a, S_Q), K = kbc[0], c = -(1.0 / (kbc[1] * s)), cq = kbc[2], Ku = kbc[3];
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
    if (xi[n - 1] < 2.0 * K)
        return 4;

    /* eps_hat = v - (Q + psi_hat), psi_hat cut by the unit cutoff; eps =
     * eps_hat + psi_hat cut by 1 - chi_K for the outer norms; the rho-weighted
     * eps_hat of the projections; the sups of v, v - Q, eps_hat and its
     * jumps, and the resolution test */
    band(n, xi, Ku, &lo, &hi);
    band(n, xi, K, &lo_k, &hi_k);
    for (i = 0; i < n; i++) {
        double ph = c * phit[i], e;
        if (i >= hi)
            ph *= 0.0;
        else if (i >= lo)
            ph *= chi(xi[i], Ku);
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


/* ks_ansatz's constants: d, l, Q's constant c, sm = s^(-1/(2l)), sm sm,
 * u = 1/(B s), 2 l s, u / s, the ansatz cutoff's K, K^2 and its support's
 * end 2K (profile._CUTOFF_END) */
enum { A_D, A_L, A_C, A_SM, A_SM2, A_U, A_LS, A_US, A_K, A_K2, A_END };

/* Horner's sum of the m ascending coefficients a at y2, from 0.0 as
 * profile._even_eval sums them */
static double horner(const double *a, long m, double y2)
{
    double acc = 0.0;
    while (m-- > 0)
        acc = acc * y2 + a[m];
    return acc;
}

/* profile._ansatz's arithmetic after Q: d(psi)/ds into dpsi and the generated
 * error E_hat into err at each of the n nodes y, from xi = y sm, Q(xi),
 * Q^(l+1) and xi^(2l-2) (NULL at d = 4: xi xi), which NumPy forms.  First
 * _profile_jet's Q' and Lap Q; where xi < 2K, _ansatz_terms from
 * phi_tilde's jets (poly: phi_tilde's m coefficients, then those of its
 * derivative over y, 2 j a_j, m - 1, then m_lap of its Laplacian) and the
 * cutoff's (cutoff_chi, cutoff_chi_d1, cutoff_chi_d2); past it the
 * profile's terms alone and + 0.0, and no phi_tilde, whose overflow stays
 * out.  Each node repeats NumPy's order of operations. */
void ks_ansatz(long n, const double *k, const double *poly, long m, long m_lap,
               const double *y, const double *xi, const double *q, const double *q_l1,
               const double *xi_2l2, double *dpsi, double *err)
{
    double d = k[A_D], two_l = 2.0 * k[A_L], m2c = -2.0 * k[A_C], sm = k[A_SM],
           sm2 = k[A_SM2], u = k[A_U], ls = k[A_LS], us = k[A_US], K = k[A_K],
           K2 = k[A_K2], end = k[A_END];
    long i;
    for (i = 0; i < n; i++) {
        double x = xi[i], qi = q[i], omq = 1.0 - 2.0 * qi,
               qp_xi = m2c * (xi_2l2 ? xi_2l2[i] : x * x) * q_l1[i] / omq, qp = x * qp_xi,
               g = 2.0 * d * qi - 1.0 + x * qp, lap_q = qp_xi * (2.0 * g / omq + d),
               yi, y2, p, p1, lap_p, uk, t, c0, c1, c2, ph, ph_y, lap_ph, h_ph, nl;
        int inside;
        dpsi[i] = -x * qp / ls;
        if (!(x < end)) {
            err[i] = -dpsi[i] + sm2 * lap_q + 0.0;
            continue;
        }
        yi = y[i];
        y2 = yi * yi;
        p = horner(poly, m, y2);
        p1 = horner(poly + m, m - 1, y2) * yi;
        lap_p = horner(poly + 2 * m - 1, m_lap, y2);
        uk = x / K;
        t = uk - 1.0;
        t = t < 0.0 ? 0.0 : t > 1.0 ? 1.0 : t;
        inside = uk > 1.0 && uk < 2.0;
        c0 = smooth(t);
        c1 = (inside ? -30.0 * t * t * ((1.0 - t) * (1.0 - t)) : 0.0) / K;
        c2 = (inside ? -60.0 * t * (1.0 - t) * (1.0 - 2.0 * t) : 0.0) / K2;
        ph = -u * p * c0;
        ph_y = -u * (p1 * c0 + p * c1 * sm);
        lap_ph = -u * (lap_p * c0 + 2.0 * p1 * c1 * sm + p * c2 * sm * sm
                       + (d + 1.0) * (yi > 0.0 ? 1.0 / yi : 0.0) * p * c1 * sm);
        h_ph = lap_ph - omq * yi * ph_y / 2.0 + g * ph;
        nl = d * ph * ph + yi * ph * ph_y;
        dpsi[i] = dpsi[i] + us * (p * c0 + p * c1 * x / two_l);
        err[i] = -dpsi[i] + sm2 * lap_q + h_ph + nl;
    }
}

/* Stepper.cfl_dt's two maxima of the field v into m: the nonlinear drift's
 * largest max(|v y|[i], |v y|[i + 1]) / dy[i], and the reaction's largest
 * |2 d v - sigma|, each letting a NaN through as np.max does; a maximum is
 * exact in any order. */
static void maxima(const uintptr_t *g, const double *v, double *m)
{
    long n = (long)g[G_N], i;
    const double *y = ARR(g, G_Y), *dy = ARR(g, G_DY), *d_sigma = ARR(g, G_CONST);
    double d2 = 2.0 * d_sigma[0], sigma = d_sigma[1], a0 = fabs(v[0] * y[0]), a1;
    struct peak drift = {0.0, 0.0}, react = {0.0, 0.0};
    take(&react, fabs(d2 * v[0] - sigma));
    for (i = 1; i < n; i++) {
        a1 = fabs(v[i] * y[i]);
        take(&drift, (a1 > a0 || a1 != a1 ? a1 : a0) / dy[i - 1]);
        take(&react, fabs(d2 * v[i] - sigma));
        a0 = a1;
    }
    m[0] = peak_of(&drift);
    m[1] = peak_of(&react);
}

/* Stepper.cfl_dt's two maxima of v, into the first two entries of G_OUT */
void ks_cfl(const uintptr_t *g, const double *v)
{
    maxima(g, v, ARR(g, G_OUT));
}

/* The last factors the loop used, and the dt they are of */
struct lu {
    double dt, *f;
    int *p;
};

/* The factors of dt's matrix into lu: the ones it holds where they are of
 * dt, else a table slot whose dt equals it, else factored into a free slot,
 * or into the scratch where there is no table or no free slot, each
 * factorization counted in G_OUT; 0 where the matrix cannot be factored,
 * whose slot stays free. */
static int factors(const uintptr_t *g, uintptr_t *table, double dt, struct lu *lu)
{
    long n = (long)g[G_N], used = table ? (long)table[T_USED] : 0, i;
    double *f = ARR(g, G_SCRATCH) + n;
    int *p = (int *)g[G_IPIV];
    if (lu->f && lu->dt == dt)
        return 1;
    for (i = 0; i < used && ARR(table, T_DT)[i] != dt; i++)
        ;
    if (table && i < (long)table[T_SLOTS]) {
        f = ARR(table, T_F) + 4 * n * i;
        p = (int *)table[T_IPIV] + n * i;
    }
    lu->f = NULL;
    if (i == used) {
        ARR(g, G_OUT)[3] += 1.0;
        if (factor(n, dt, (long)g[G_NEUMANN], ARR(g, G_TRI), f, p) != 0)
            return 0;
        if (table && i < (long)table[T_SLOTS]) {
            ARR(table, T_DT)[i] = dt;
            table[T_USED] = (uintptr_t)(i + 1);
        }
    }
    lu->dt = dt;
    lu->f = f;
    lu->p = p;
    return 1;
}

/* At most `most` steps of v from t toward target, each of dt, or with cfl > 0
 * of Stepper.cfl_dt's dt at cfl from ks_cfl's maxima, at most rate (t_star -
 * t) (a NaN rate caps nothing) and positive; any step that would end within
 * tol of target, or past it, lands on it (_stretch_times' rule), and t sums
 * them as t += dt.  The s-th step's boundary value is bval[s] where bval is
 * given (d = 3's profile values, at least `most` of them); else, with the
 * profile constant c > 0 (d = 4), Q at the edge of its end time, or zero
 * (Neumann).  Into G_OUT the time reached, the smallest and largest dt
 * and the matrices factored; where ctx is given and the loop reached target,
 * ks_cfl's maxima and ks_slice's flags and seconds of the field it landed on
 * too.  Returns the steps taken; v holds the last finite field. */
long ks_stretch(const uintptr_t *g, uintptr_t *table, const uintptr_t *ctx, double most,
                double dt, double cfl, double rate, double t_star, double t, double target,
                const double *bval, double *v)
{
    long n = (long)g[G_N], s;
    const double *y = ARR(g, G_Y), *h = ARR(g, G_H), *dy = ARR(g, G_DY), *w = ARR(g, G_W),
                 *cst = ARR(g, G_CONST);
    double d = cst[0], c = cst[2], tol = cst[3], *out = ARR(g, G_OUT), *x = v,
           *z = ARR(g, G_SCRATCH), *swap, lo = INFINITY, hi = 0.0;
    struct lu lu = {0.0, NULL, NULL};
    out[3] = 0.0;
    for (s = 0; s < most && t < target - tol; s++) {
        double step_dt = dt, edge = 0.0;
        if (cfl > 0.0) {
            double m[2], cap = rate * (t_star - t);
            maxima(g, x, m);
            step_dt = m[0] > 0 ? cfl / m[0] : INFINITY;
            if (m[1] > 0 && 0.5 / m[1] < step_dt)
                step_dt = 0.5 / m[1];
            if (cap < step_dt)
                step_dt = cap;
            if (!(step_dt > 0))
                break;
        }
        if (!(step_dt < (target - t) - tol))
            step_dt = target - t;
        if (bval)
            edge = bval[s];
        else if (c > 0.0 && !profile_q(y[n - 1] * pow(t + step_dt, -0.25), c, &edge))
            break;
        if (!factors(g, table, step_dt, &lu) ||
            !step(n, d, step_dt, edge, lu.f, lu.p, y, h, dy, w, x, z))
            break;
        t += step_dt;
        lo = step_dt < lo ? step_dt : lo;
        hi = step_dt > hi ? step_dt : hi;
        swap = x;
        x = z;
        z = swap;
    }
    if (x != v)
        memcpy(v, x, n * sizeof *v);
    out[0] = t;
    out[1] = lo;
    out[2] = hi;
    if (ctx && !(t < target - tol)) {
        struct timespec a, b;
        maxima(g, v, out + 4);
        clock_gettime(CLOCK_MONOTONIC, &a);
        out[6] = (double)ks_slice(ctx, t, v);
        clock_gettime(CLOCK_MONOTONIC, &b);
        out[7] = (double)(b.tv_sec - a.tv_sec) + 1e-9 * (double)(b.tv_nsec - a.tv_nsec);
    }
    return s;
}
