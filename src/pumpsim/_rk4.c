/* The RK4 step loop of pumpsim.dynamics._advance, compiled.

   pumpsim_rk4_chunk is pumpsim.dynamics._chunk in C: the same operations on
   the same operands in the same order, so that, built without contraction
   into fused multiply-adds (-ffp-contract=off) and without -ffast-math, every
   result rounds as the Python loop's does.  dynamics._kernel builds it with
   the system cc and uses it only after it matched _chunk bit for bit on a
   probe.

   state:  n, q in and out
   index:  k, rec, j, clamps in and out
   coef:   tau_e, tau_ph, gamma_conf*tau_ph, n_0, n_th - n_0, c_sp,
           2*gamma_q
   Steps k to k_stop - 1 of length h under the carrier source src, storing
   the state at the start of step rec in out_n[j], out_q[j] and moving rec on
   by stride.  Returns 0 after step k_stop - 1 with k = k_stop, or stops at
   step k with its status: 1 the step maps the nonzero state onto itself, 2
   its result is not finite, 3 a stage has 1 + 2*gamma_q*q <= 0, 4 its
   sample index j is outside [0, n_out). */

#include <math.h>
#include <stdint.h>

enum { DONE, STALL, NON_FINITE, DOMAIN, BOUNDS };

int pumpsim_rk4_chunk(double *state, int64_t *index, int64_t k_stop,
                      double h, double src, const double *coef,
                      double *out_n, double *out_q, int64_t n_out,
                      int64_t stride)
{
    const double tau_e = coef[0], tau_ph = coef[1], gtp = coef[2];
    const double n_0 = coef[3], denom = coef[4], c_sp = coef[5];
    const double two_gq = coef[6];
    const double half = 0.5 * h;
    double n = state[0], q = state[1];
    int64_t k = index[0], rec = index[1], j = index[2], clamps = index[3];
    int status = DONE;

    for (; k < k_stop; k++) {
        double s, g, k1n, k1q, k2n, k2q, k3n, k3q, k4n, k4q;
        double na, qa, nb, qb, nc, qc, n1, q1;
        if (k == rec) {
            if (j < 0 || j >= n_out) {
                status = BOUNDS;
                break;
            }
            out_n[j] = n;
            out_q[j] = q;
            j += 1;
            rec += stride;
        }

        s = 1.0 + two_gq * q;
        if (s <= 0.0) { status = DOMAIN; break; }
        g = (n - n_0) / denom / sqrt(s);
        k1n = src - n / tau_e - q * g / gtp;
        k1q = (g - 1.0) * q / tau_ph + c_sp * n / tau_e;
        na = n + half * k1n;
        qa = q + half * k1q;
        s = 1.0 + two_gq * qa;
        if (s <= 0.0) { status = DOMAIN; break; }
        g = (na - n_0) / denom / sqrt(s);
        k2n = src - na / tau_e - qa * g / gtp;
        k2q = (g - 1.0) * qa / tau_ph + c_sp * na / tau_e;
        nb = n + half * k2n;
        qb = q + half * k2q;
        s = 1.0 + two_gq * qb;
        if (s <= 0.0) { status = DOMAIN; break; }
        g = (nb - n_0) / denom / sqrt(s);
        k3n = src - nb / tau_e - qb * g / gtp;
        k3q = (g - 1.0) * qb / tau_ph + c_sp * nb / tau_e;
        nc = n + h * k3n;
        qc = q + h * k3q;
        s = 1.0 + two_gq * qc;
        if (s <= 0.0) { status = DOMAIN; break; }
        g = (nc - n_0) / denom / sqrt(s);
        k4n = src - nc / tau_e - qc * g / gtp;
        k4q = (g - 1.0) * qc / tau_ph + c_sp * nc / tau_e;

        n1 = n + h * (k1n + 2.0 * k2n + 2.0 * k3n + k4n) / 6.0;
        q1 = q + h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0;
        if (n1 == n && q1 == q && n != 0.0 && q != 0.0) {
            status = STALL;
            break;
        }
        if (!(isfinite(n1) && isfinite(q1))) {
            status = NON_FINITE;
            break;
        }
        if (n1 < 0.0) {
            n1 = 0.0;
            clamps += 1;
        }
        if (q1 < 0.0) {
            q1 = 0.0;
            clamps += 1;
        }
        n = n1;
        q = q1;
    }

    state[0] = n;
    state[1] = q;
    index[0] = k;
    index[1] = rec;
    index[2] = j;
    index[3] = clamps;
    return status;
}
