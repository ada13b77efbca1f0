/* The compiled loop of ksblowup.sim.Stepper._stretch: one record interval's
 * IMEX steps on raw arrays, k - 1 steps at dt and a last one at its own dt
 * (the step landing on a record or end time, or dt again).
 *
 * Each step repeats Stepper._advance operation for operation, so that the two
 * agree bit for bit (built with -ffp-contract=off: no product and sum fuse):
 *   - E v and D v from the gather (v[i+1], v[i], v[i-1]) of the (2, 3, n)
 *     stencil stack w, summed as numpy reduces it, (g0 w0 + g1 w1) + g2 w2;
 *   - the Peclet decision of sim._explicit (a NaN takes the per-node path)
 *     and its per-node upwind patch of D v;
 *   - b = (E v + (D v) v) dt + v, with b[n-1] = bval[step];
 *   - LAPACK dgtts2's forward and back sweeps for one right-hand side over
 *     the dgttrf factors (dl, df, du, du2, ipiv), as dgttrs solves.
 * The matrix I - (dt/2) Lap - dt D_lin of each dt is formed as
 * Stepper._factored forms it and factored by ks_factor, a port of LAPACK
 * dgttrf, into scratch.  The loop stops at the first step whose solution is
 * not finite, and before a step whose matrix has a non-finite entry or is
 * singular.  It returns the number of steps taken and leaves v at the last
 * finite field; scratch holds 9 n doubles (b, then two sets of factors) and
 * ipiv 2 n ints. */
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
