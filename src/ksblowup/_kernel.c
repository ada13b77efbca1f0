/* k IMEX steps at one dt on raw arrays: the compiled loop of
 * ksblowup.sim.Stepper._stretch.
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
 * The loop stops at the first step whose solution is not finite.  It returns
 * the number of finite steps and leaves v at the last finite field; b is
 * scratch of n doubles. */
#include <math.h>
#include <string.h>

long ks_stretch(long n, long k, double dt, double d, const double *y,
                const double *h, const double *dy, const double *w, double *b,
                const double *bval, const double *dl, const double *df,
                const double *du, const double *du2, const int *ipiv, double *v)
{
    double *x = v, *z = b, *swap;
    long s, i;
    for (s = 0; s < k; s++) {
        int upwind = 0;
        for (i = 0; i < n; i++)
            if (!(fabs(x[i] * y[i]) * h[i] <= 2.0))
                upwind = 1;
        for (i = 0; i < n; i++) {
            /* the gather: (v[1], v[0], v[0]) at node 0, (v[n-1], v[n-2],
             * v[n-2]) at the last, whose third weight is zero */
            long last = i == n - 1;
            double g0 = x[i == 0 ? 1 : last ? i : i + 1];
            double g1 = x[last ? i - 1 : i];
            double g2 = x[i == 0 ? 0 : i - 1];
            double ev = (g0 * w[i] + g1 * w[n + i]) + g2 * w[2 * n + i];
            double dv = (g0 * w[3 * n + i] + g1 * w[4 * n + i]) + g2 * w[5 * n + i];
            if (upwind && !(fabs(x[i] * y[i]) * h[i] <= 2.0)) {
                double slope = 0.0;
                if (i > 0 && (last || !(x[i] * y[i] > 0)))
                    slope = (x[i] - x[i - 1]) / dy[i - 1];
                else if (i > 0)
                    slope = (x[i + 1] - x[i]) / dy[i];
                dv = slope * y[i];
                dv = dv + d * x[i];
            }
            dv = dv * x[i];
            z[i] = (ev + dv) * dt + x[i];
        }
        z[n - 1] = bval[s];
        for (i = 0; i < n - 1; i++) {
            long ip = ipiv[i] - 1;
            double temp = z[2 * i + 1 - ip] - dl[i] * z[ip];
            z[i] = z[ip];
            z[i + 1] = temp;
        }
        z[n - 1] = z[n - 1] / df[n - 1];
        z[n - 2] = (z[n - 2] - du[n - 2] * z[n - 1]) / df[n - 2];
        for (i = n - 3; i >= 0; i--)
            z[i] = (z[i] - du[i] * z[i + 1] - du2[i] * z[i + 2]) / df[i];
        for (i = 0; i < n; i++)
            if (!isfinite(z[i]))
                break;
        if (i < n)
            break;
        swap = x;
        x = z;
        z = swap;
    }
    if (x != v)
        memcpy(v, x, n * sizeof *v);
    return s;
}
