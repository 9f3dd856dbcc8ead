/* The compiled loops of pumpsim.dynamics: the RK4 step loop of every
   integration, and the row loop of _write_csv, built into one library by
   pumpsim._native with the system cc.

   rk4_step is one step of pumpsim.dynamics._chunk in C: the same operations
   on the same operands in the same order, so that, built without
   contraction into fused multiply-adds (-ffp-contract=off) and without
   -ffast-math, every result rounds as the Python loop's does.  Forcing it
   inline ran no faster and took about 15 ms more to build.

   pumpsim_rk4 steps independent states, its lanes, side by side through
   one run of the drive: the one lane of a dynamics._advance call, or the
   shooting solves of _periodic._lockstep, where one lane's
   divide-and-sqrt chain then does not leave the divider idle.
   coef:   tau_e, tau_ph, gamma_conf*tau_ph, n_0, n_th - n_0, c_sp,
           2*gamma_q
   _native.select uses it only after it matched its Python twin
   dynamics._chunk_lanes bit for bit on a probe.

   pumpsim_format_rows writes the CSV rows of dynamics._write_csv by digit
   arithmetic that gives the bytes of "%.12g", whole rows at a time, and
   stops before each row that holds a value it cannot prove, for the caller
   to write that row with "%.12g".  _native.select uses it only after its
   rows matched its twin dynamics._write_rows, which formats every value
   with "%.12g", byte for byte on a probe; the twin writes where the build
   or the probe fails, and writes every table shorter than one block of
   rows, which so never builds the library. */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

enum { DONE, STALL, NON_FINITE, DOMAIN, BOUNDS };

struct coefs {
    double tau_e, tau_ph, gtp, n_0, denom, c_sp, two_gq;
};

static struct coefs load_coefs(const double *coef)
{
    struct coefs c = {coef[0], coef[1], coef[2], coef[3], coef[4], coef[5],
                      coef[6]};
    return c;
}

/* One step from (*n, *q) of length h, half = 0.5*h, under the source src.
   Returns DONE with the clamped result in *n, *q and each clamp added to
   *clamps, or leaves them and returns STALL (the result is the nonzero
   state itself), NON_FINITE or DOMAIN. */
static inline int rk4_step(double *n_io, double *q_io, int64_t *clamps,
                           double h, double half, double src,
                           const struct coefs *c)
{
    const double n = *n_io, q = *q_io;
    double s, g, k1n, k1q, k2n, k2q, k3n, k3q, k4n, k4q;
    double na, qa, nb, qb, nc, qc, n1, q1;

    s = 1.0 + c->two_gq * q;
    if (s <= 0.0)
        return DOMAIN;
    g = (n - c->n_0) / c->denom / sqrt(s);
    k1n = src - n / c->tau_e - q * g / c->gtp;
    k1q = (g - 1.0) * q / c->tau_ph + c->c_sp * n / c->tau_e;
    na = n + half * k1n;
    qa = q + half * k1q;
    s = 1.0 + c->two_gq * qa;
    if (s <= 0.0)
        return DOMAIN;
    g = (na - c->n_0) / c->denom / sqrt(s);
    k2n = src - na / c->tau_e - qa * g / c->gtp;
    k2q = (g - 1.0) * qa / c->tau_ph + c->c_sp * na / c->tau_e;
    nb = n + half * k2n;
    qb = q + half * k2q;
    s = 1.0 + c->two_gq * qb;
    if (s <= 0.0)
        return DOMAIN;
    g = (nb - c->n_0) / c->denom / sqrt(s);
    k3n = src - nb / c->tau_e - qb * g / c->gtp;
    k3q = (g - 1.0) * qb / c->tau_ph + c->c_sp * nb / c->tau_e;
    nc = n + h * k3n;
    qc = q + h * k3q;
    s = 1.0 + c->two_gq * qc;
    if (s <= 0.0)
        return DOMAIN;
    g = (nc - c->n_0) / c->denom / sqrt(s);
    k4n = src - nc / c->tau_e - qc * g / c->gtp;
    k4q = (g - 1.0) * qc / c->tau_ph + c->c_sp * nc / c->tau_e;

    n1 = n + h * (k1n + 2.0 * k2n + 2.0 * k3n + k4n) / 6.0;
    q1 = q + h * (k1q + 2.0 * k2q + 2.0 * k3q + k4q) / 6.0;
    if (n1 == n && q1 == q && n != 0.0 && q != 0.0)
        return STALL;
    if (!(isfinite(n1) && isfinite(q1)))
        return NON_FINITE;
    if (n1 < 0.0) {
        n1 = 0.0;
        *clamps += 1;
    }
    if (q1 < 0.0) {
        q1 = 0.0;
        *clamps += 1;
    }
    *n_io = n1;
    *q_io = q1;
    return DONE;
}

/* The lanes' states n[l], q[l] in and out, over steps k to k_stop - 1 of
   length h, lane l under the source src[l] and counting its clamps in
   clamps[l].  A lane whose halted[l] is nonzero is not stepped.  The lanes
   share the record cursor (rec, j), in and out: at step k == rec each
   stepping lane's state at the start of the step goes to column j of its
   rows out_n[l*n_out + j] (unless out_n is NULL) and out_q[l*n_out + j],
   and rec moves on by stride.  at[l] is set to the step where lane l
   stopped: k_stop, or the step that failed or stalled.  A failing step, one
   with no finite result or with a stage outside the gain's domain, halts
   its lane with NON_FINITE or DOMAIN, at the state from the start of that
   step.  A step that maps the nonzero state onto itself stalls its lane:
   it keeps that state, stored at each remaining record step of the call,
   and is released at the end.  Once no lane is stepping the loop runs on
   record steps only, so a lone lane exits at its stall.  Returns DONE with
   the cursor at k_stop, or BOUNDS at a column j outside [0, n_out), after
   the columns before it have been stored. */
int pumpsim_rk4(double *n, double *q, int64_t *halted, int64_t *clamps,
                int64_t *at, int64_t lanes, int64_t k, int64_t k_stop,
                int64_t *cursor, int64_t stride, double h, const double *src,
                const double *coef, double *out_n, double *out_q,
                int64_t n_out)
{
    const struct coefs c = load_coefs(coef);
    const double half = 0.5 * h;
    int64_t l, rec = cursor[0], j = cursor[1], active = 0;
    int status = DONE;

    for (l = 0; l < lanes; l++)
        if (!halted[l]) {
            at[l] = k_stop;
            active += 1;
        }
    for (; k < k_stop; k++) {
        if (k == rec) {
            if (j < 0 || j >= n_out) {
                status = BOUNDS;
                break;
            }
            for (l = 0; l < lanes; l++)
                if (!halted[l] || halted[l] == STALL) {
                    if (out_n)
                        out_n[l * n_out + j] = n[l];
                    out_q[l * n_out + j] = q[l];
                }
            j += 1;
            rec += stride;
        }
        if (!active) {  /* on to the next record step, if any */
            if (rec <= k || rec >= k_stop)
                break;
            k = rec - 1;
            continue;
        }
        for (l = 0; l < lanes; l++) {
            int s;
            if (halted[l])
                continue;
            s = rk4_step(&n[l], &q[l], &clamps[l], h, half, src[l], &c);
            if (s != DONE) {
                halted[l] = s;
                at[l] = k;
                active -= 1;
            }
        }
    }
    for (l = 0; l < lanes; l++)
        if (halted[l] == STALL)
            halted[l] = 0;
    cursor[0] = rec;
    cursor[1] = j;
    return status;
}

/* bytes a row reserves per value: "%.12g" of a double is at most 19 bytes
   ("-1.23456789012e-308") and a separator follows it, but format_value
   copies its digits 12 at a time, past the end of the text, up to 26
   bytes; pumpsim._native sizes the buffer with the same figure */
#define VALUE_BYTES 32

static const char PAIRS[] =  /* "00" to "99" */
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The "%.12g" text of x and sep at out; returns its length, or 0 where
   x is handed back: subnormal or non-finite, below 1e-297, a tie under an
   inexact factor, or an r that is not 12 digits.  A zero is "0" or "-0".

   With e = floor(log10|x|), r = rint(d) of d = |x|*10**(11 - e) is the
   12-digit integer that "%.12g" rounds to, ties aside.  pow10[e + 308] is
   10**(11 - e), 0 past the double range.  e comes from the binary
   exponent b of x, as floor(b*log10(2)) (78913/2**18 gives it exactly for
   every b of a normal double) plus 1 where |x| >= 10**(e + 1) as pow10
   rounds it.  Where that rounding puts e one too high, r = 1e11 is the
   digits that "%.12g" rounds x to.  An exact factor (|e| <= 11) rounds d
   once, never across a half, so a d on a half-integer goes by the sign of
   the product's error (Dekker, split by 2**27 + 1).  An inexact one leaves
   d within 2.2e-4 of exact (two roundings below 1e12), and a d within
   1e-3 of a half goes back. */
static int format_value(double x, char sep, const double *pow10, char *out)
{
    const double a = fabs(x);
    double d, r, near;
    uint64_t bits;
    int e, exact, digits;
    int64_t m, hi, lo;
    char dig[24], *p = out;

    if (a == 0.0) {
        if (signbit(x))
            *p++ = '-';
        *p++ = '0';
        *p++ = sep;
        return (int)(p - out);
    }
    if (!isfinite(a) || a < DBL_MIN)
        return 0;
    memcpy(&bits, &a, sizeof bits);
    /* the offset keeps the shifted number nonnegative */
    e = (int)((((int64_t)(bits >> 52) - 1023) * 78913 + (512 << 18)) >> 18)
        - 512;
    if (e < -298)
        return 0;
    e += a >= pow10[318 - e];  /* 10**(e + 1) */
    d = a * pow10[e + 308];
    r = rint(d);
    exact = e >= -11 && e <= 11;
    near = fabs(d - r);
    if (near == 0.5 && exact) {
        const double v = pow10[e + 308];
        const double uh = a * 134217729.0 - (a * 134217729.0 - a);
        const double vh = v * 134217729.0 - (v * 134217729.0 - v);
        const double err = (uh * vh - d) + uh * (v - vh) + (a - uh) * vh
                           + (a - uh) * (v - vh);
        if (err != 0.0)
            r = d + copysign(0.5, err);
    }
    if (!(r >= 1e11 && r < 1e12 && (exact || near < 0.499)))
        return 0;

    /* the 12 digits of r, two at a time from two halves of six */
    m = (int64_t)r;
    hi = m / 1000000;
    lo = m % 1000000;
    memcpy(dig, PAIRS + 2 * (hi / 10000), 2);
    memcpy(dig + 2, PAIRS + 2 * (hi / 100 % 100), 2);
    memcpy(dig + 4, PAIRS + 2 * (hi % 100), 2);
    memcpy(dig + 6, PAIRS + 2 * (lo / 10000), 2);
    memcpy(dig + 8, PAIRS + 2 * (lo / 100 % 100), 2);
    memcpy(dig + 10, PAIRS + 2 * (lo % 100), 2);
    memset(dig + 12, '0', 12);
    for (digits = 12; digits > 1 && dig[digits - 1] == '0'; digits--)
        ;
    if (signbit(x))
        *p++ = '-';
    if (e >= 0 && e < 12) {  /* ddd.ddd, or ddd without a fraction */
        memcpy(p, dig, 12);
        p += e + 1;
        if (digits > e + 1) {
            *p = '.';
            memcpy(p + 1, dig + e + 1, 12);
            p += digits - e;
        }
    } else if (e >= -4 && e < 0) {  /* 0.000ddd */
        memcpy(p, "0.000", 5);
        p += 1 - e;
        memcpy(p, dig, 12);
        p += digits;
    } else {  /* d.ddde+XX, with 2 or 3 exponent digits */
        const int u = e < 0 ? -e : e;
        *p = dig[0];
        p[1] = '.';
        memcpy(p + 2, dig + 1, 12);
        p += digits > 1 ? digits + 1 : 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (u > 99)
            *p++ = (char)('0' + u / 100);
        memcpy(p, PAIRS + 2 * (u % 100), 2);
        p += 2;
    }
    *p++ = sep;
    return (int)(p - out);
}

/* Whether columns 1 to n_cols - 1 of row have the bits of the row above:
   bits, not values, since -0.0 == 0.0 but the two print apart.  Each value
   is read as a uint64_t through memcpy, which cc compiles to one load, not
   a call to memcmp. */
static int same_tail(const double *const *columns, int64_t n_cols,
                     int64_t row)
{
    int64_t c;
    uint64_t a, b;
    for (c = 1; c < n_cols; c++) {
        memcpy(&a, &columns[c][row], sizeof a);
        memcpy(&b, &columns[c][row - 1], sizeof b);
        if (a != b)
            return 0;
    }
    return 1;
}

/* Whole rows of the n_cols columns of n_rows values, from row *row on,
   each value followed by ',' or, at the end of a row, '\n', written into
   buf of cap bytes while the next row surely fits.  A row whose tail (its
   columns from 1 on) has the bits of the row above copies that row's text;
   the row above is one written in this call.  Stops after the last row, at
   a row that might not fit, or before a row that holds a value
   format_value hands back, with that row's text taken back.  Returns the
   bytes written, with *row at the first row not written: where it did not
   move, that row is handed back, for the caller to write with "%.12g". */
int64_t pumpsim_format_rows(const double *const *columns, int64_t n_cols,
                            int64_t n_rows, const double *pow10,
                            int64_t *row_io, char *buf, int64_t cap)
{
    int64_t row = *row_io, pos = 0, prev = -1, prev_len = 0;

    for (; row < n_rows && cap - pos >= n_cols * VALUE_BYTES; row++) {
        const int64_t start = pos;
        int64_t col = 1, tail;
        int length = format_value(columns[0][row], n_cols > 1 ? ',' : '\n',
                                  pow10, buf + pos);
        if (length == 0)
            break;
        pos += length;
        tail = pos;
        if (prev >= 0 && same_tail(columns, n_cols, row)) {
            memcpy(buf + pos, buf + prev, prev_len);
            pos += prev_len;
            col = n_cols;
        }
        for (; col < n_cols; col++) {
            length = format_value(columns[col][row],
                                  col + 1 < n_cols ? ',' : '\n', pow10,
                                  buf + pos);
            if (length == 0)
                break;
            pos += length;
        }
        if (col < n_cols) {
            pos = start;
            break;
        }
        prev = tail;
        prev_len = pos - tail;
    }
    *row_io = row;
    return pos;
}
