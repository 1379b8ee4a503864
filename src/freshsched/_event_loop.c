/* The simulator's event loop, transcribed from `simulator._python_loop`,
   which defines it: the same branches in the same order, the same
   comparisons and INFINITY for math.inf. Its sums are the Python loop's too,
   each term computed as it computes it and added in the same order, in the
   one pass over the events. The loop only adds, subtracts, multiplies,
   divides and compares doubles, so with contraction off (-ffp-contract=off)
   and no -ffast-math every value it writes is the Python loop's, to the
   bit. The one sum the Python loop takes with math.fsum, that of the
   peak-age samples, is correctly rounded, so it has one value, and
   freshsched_fsum below takes that value: in integer bins where every term
   is finite with the sign bit clear, as every peak-age sample is, and else
   by CPython's fsum transcribed, whose order of operations alone gives its
   results on mixed signs and on overflow. The last function is the draw
   -log(u)/rate with libm's log, which math.log calls too. `simulator` builds
   this file on first use and calls it through ctypes. Backquotes mark Python
   names. */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* x87 arithmetic would round to 80 bits between operations */
#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "doubles must be evaluated in double precision"
#endif

/* the codes of `policy`: the server positions, OLDER_HEAD, an FCFS
   departure that leaves both queues nonempty, and the triggers */
enum { IDLE = 0, SERVE_Q = 1, SERVE_U = 2, OLDER_HEAD = -1 };
enum { ARRIVE_U = 0, ARRIVE_Q = 1, DEPART_U = 2, DEPART_Q = 3 };

/* the sums that sum[] holds, in this order */
enum { NQ, NU, BUSY, AGE, RESPONSE, UPDATE_SYSTEM, PAOI, SUMS };

/* Adds the interval (*last, t] to the n_q and n_u integrals, clipped to
   (warmup, t], and to the busy time, and moves *last to t; as `_python_loop`
   does after each event. */
static void occupy(double t, int64_t n_q, int64_t n_u, double warmup, double *last,
                   double *sum)
{
    double dt = t - (*last > warmup ? *last : warmup);
    if (dt > 0) {
        sum[NQ] += (double)n_q * dt;
        sum[NU] += (double)n_u * dt;
    }
    if (n_q + n_u > 0) /* every policy is work-conserving */
        sum[BUSY] += t - *last;
    *last = t;
}

/* The integral of the age t - g over (t0, t1] clipped to (warmup, horizon];
   as `_python_loop` takes it at each delivery. */
static double age_area(double g, double t0, double t1, double warmup, double horizon)
{
    double a = t0 > warmup ? t0 : warmup, b = t1 < horizon ? t1 : horizon;
    if (!(b > a))
        return 0.0;
    a -= g;
    b -= g;
    return (b * b - a * a) / 2.0;
}

/* room for every partial: see fsum_partials */
#define PARTIALS 2100

/* The sum of terms[0..n), correctly rounded: CPython 3.11's math_fsum
   (Modules/mathmodule.c) transcribed, on an array of doubles instead of an
   iterable. It is Shewchuk's exact summation (Discrete Comput. Geom. 18,
   1997): each term is added into partials that are kept non-overlapping and
   increasing in magnitude, their sum is then taken exactly from the top
   until it becomes inexact, and a half-even fix-up rounds across the
   partials below. The partials are non-overlapping, so each holds a bit
   position, between 2^-1074 and 2^1023, that no other holds: there are at
   most 2098 of them, and PARTIALS doubles on the stack take the place of
   CPython's growing array. Inf and NaN terms are summed apart, as CPython
   sums them; where it raises, on an intermediate overflow or on
   inf + -inf, this returns NaN. */
static double fsum_partials(const double *terms, int64_t n)
{
    double p[PARTIALS];
    double x, y, t, hi, yr, lo = 0.0, xsave, special_sum = 0.0;
    int64_t i, j, m = 0; /* m partials in p[] */

    for (int64_t k = 0; k < n; k++) { /* for x in terms */
        x = terms[k];
        xsave = x;
        for (i = j = 0; j < m; j++) { /* for y in partials */
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                p[i++] = lo;
            x = hi;
        }
        m = i; /* p[i:] = [x] */
        if (x != 0.0) {
            if (!isfinite(x)) {
                /* from an intermediate overflow, or from an inf or a NaN
                   among the terms */
                if (isfinite(xsave))
                    return NAN;
                special_sum += xsave;
                m = 0; /* reset partials */
            } else if (m >= PARTIALS) {
                return NAN; /* more than the bound above allows */
            } else {
                p[m++] = x;
            }
        }
    }
    if (special_sum != 0.0)
        return special_sum; /* NaN for inf + -inf */

    hi = 0.0;
    if (m > 0) {
        hi = p[--m];
        /* sum_exact(p, hi) from the top, stop when the sum becomes inexact */
        while (m > 0) {
            x = hi;
            y = p[--m];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0)
                break;
        }
        /* Make half-even rounding work across multiple partials: [1e-16, 1,
           1e16] rounds the last digit up to 2 instead of down to 0, since
           the 1e-16 makes the 1 slightly closer to 2. */
        if (m > 0 && ((lo < 0.0 && p[m - 1] < 0.0) || (lo > 0.0 && p[m - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr)
                hi = x;
        }
    }
    return hi;
}

/* one bin per biased exponent; 32-bit limbs from 2^-1074 up, past the
   top bit a bin's two words can reach, 2^(2045 + 128), with two to spare */
#define BINS 2048
#define LIMBS 70
#define LOW32 UINT64_C(0xffffffff)

/* Adds v * 2^s into the limbs, s counted in bits from 2^-1074. */
static void add_at(uint64_t *limb, uint64_t v, int s)
{
    int i = s / 32, r = s % 32;
    limb[i] += (v << r) & LOW32;
    limb[i + 1] += (v >> (32 - r)) & LOW32;
    if (r > 0)
        limb[i + 2] += v >> (64 - r);
}

/* The sum of terms[0..n), correctly rounded: `math.fsum`'s value. A peak-age
   sample is never negative, and on terms that are all finite with the sign
   bit clear the sum is taken in integers, a superaccumulator (Neal, "Fast
   exact summation using small and large superaccumulators",
   arXiv:1505.05571, 2015): each term's 53-bit integer mantissa is added
   into the bin of its biased exponent, a low word and a word that counts
   its carries; the bins are then folded into 32-bit limbs, whose integer is
   the exact sum in units of 2^-1074, and that is rounded once, half-even. A
   correctly rounded sum has one value, so this is CPython's. Any other term
   (a negative one, -0.0, an inf or a NaN), or a sum that rounds past
   DBL_MAX, runs fsum_partials on all the terms: only its order of
   operations gives CPython's results on mixed signs, on an intermediate
   overflow (NaN here, where CPython raises) and at the DBL_MAX boundary. */
double freshsched_fsum(const double *terms, int64_t n)
{
    uint64_t bin[BINS][2] = {{0}}, limb[LIMBS] = {0}, bits, mant, half, sticky;
    int e, i, top, p, shift, r;
    double sum;

    for (int64_t k = 0; k < n; k++) {
        memcpy(&bits, &terms[k], sizeof bits);
        if (bits >= UINT64_C(0x7ff0000000000000)) /* the sign bit, an inf or a NaN */
            return fsum_partials(terms, n);
        e = (int)(bits >> 52);
        mant = bits & ((UINT64_C(1) << 52) - 1);
        if (e > 0) /* a normal term's implicit bit */
            mant |= UINT64_C(1) << 52;
        bin[e][0] += mant;
        bin[e][1] += bin[e][0] < mant;
    }
    /* bin e holds multiples of 2^(max(e, 1) - 1075): subnormals share the
       unit of the smallest normals */
    for (e = 0; e < BINS; e++) {
        if (bin[e][0] | bin[e][1]) {
            add_at(limb, bin[e][0], e > 0 ? e - 1 : 0);
            add_at(limb, bin[e][1], (e > 0 ? e - 1 : 0) + 64);
        }
    }
    for (i = 0; i < LIMBS - 1; i++) {
        limb[i + 1] += limb[i] >> 32;
        limb[i] &= LOW32;
    }
    for (top = LIMBS - 1; top >= 0 && limb[top] == 0; top--)
        ;
    if (top < 0)
        return 0.0;
    /* p: the position of the top bit */
    for (p = 32 * top, bits = limb[top]; bits > 1; bits >>= 1)
        p++;
    if (p < 53) /* exact: below 2^-1021 */
        return ldexp((double)(limb[0] | limb[1] << 32), -1074);
    /* the 53 bits from the top, then the bit below them and any bit below
       that, to round half-even */
    shift = p - 52;
    i = shift / 32;
    r = shift % 32;
    mant = limb[i] >> r | limb[i + 1] << (32 - r);
    if (r > 0)
        mant |= limb[i + 2] << (64 - r);
    mant &= (UINT64_C(1) << 53) - 1;
    i = (shift - 1) / 32;
    r = (shift - 1) % 32;
    half = limb[i] >> r & 1;
    sticky = limb[i] & ((UINT64_C(1) << r) - 1);
    while (sticky == 0 && i > 0)
        sticky = limb[--i];
    if (half && (sticky != 0 || (mant & 1)))
        mant += 1; /* 2^53 at most, still exact */
    sum = ldexp((double)mant, shift - 1074);
    return isfinite(sum) ? sum : fsum_partials(terms, n);
}

/* moves[] is the array of `policy.decision_table`: each position's rules on
   its 4 triggers, each a (cap_q + 1) x (cap_u + 1) table of positions that
   holds `NO_POSITION`, a code past SERVE_U, where the trigger cannot fire.
   The arrival epochs run through the first one past the horizon; remain_u
   and remain_q start as the service requirements and take the remaining
   work of preempted heads. Returns the pending completion epoch; writes n_q,
   n_u, h_q, h_u, the position and the counts of queries and of updates that
   departed after the warmup into state[], one peak-age sample per update
   that departed after the warmup into paoi[], and the sums into sum[], the
   last of them the samples' sum by freshsched_fsum. Returns NaN if the
   table leads to no position. */
double freshsched_event_loop(const int8_t *moves, int64_t cap_q, int64_t cap_u,
                             const double *arrive_u, const double *arrive_q,
                             double *remain_u, double *remain_q,
                             double *depart_u, double *depart_q,
                             double warmup, double horizon,
                             int64_t *state, double *sum, double *paoi)
{
    const int64_t cells = (cap_q + 1) * (cap_u + 1);
    int64_t n_q = 0, n_u = 0; /* queue lengths */
    int64_t h_q = 0, h_u = 0; /* index of each queue's head */
    double next_u = arrive_u[0], next_q = arrive_q[0];
    int pos = IDLE;
    /* the position's rules on each trigger */
    const int8_t *rules = moves;
    double completion = INFINITY;
    double t;
    int new;
    /* the last event; the freshest delivered generation and its delivery */
    double last = 0.0, g = 0.0, delivered = 0.0;
    int64_t responses = 0, updates = 0; /* departed after the warmup */

    for (int k = 0; k < SUMS; k++)
        sum[k] = 0.0;
    for (;;) {
        int64_t i = n_q < cap_q ? n_q : cap_q;
        int64_t j = n_u < cap_u ? n_u : cap_u;
        int64_t cell = i * (cap_u + 1) + j;
        if (completion <= next_u && completion <= next_q) {
            t = completion;
            if (t > horizon)
                break;
            occupy(t, n_q, n_u, warmup, &last, sum);
            new = rules[(pos == SERVE_Q ? DEPART_Q : DEPART_U) * cells + cell];
            if (pos == SERVE_Q) {
                depart_q[h_q] = t;
                if (t > warmup) {
                    responses += 1;
                    sum[RESPONSE] += t - arrive_q[h_q];
                }
                n_q -= 1;
                h_q += 1;
            } else {
                double generation = arrive_u[h_u];
                depart_u[h_u] = t;
                if (t > warmup) {
                    sum[UPDATE_SYSTEM] += t - generation;
                    paoi[updates++] = (generation - g) + (t - generation);
                }
                sum[AGE] += age_area(g, delivered, t, warmup, horizon);
                g = generation;
                delivered = t;
                n_u -= 1;
                h_u += 1;
            }
            if (new == OLDER_HEAD)
                new = arrive_u[h_u] <= arrive_q[h_q] ? SERVE_U : SERVE_Q;
            /* the departed head has no work to bank */
            if (new == SERVE_Q)
                completion = t + remain_q[h_q];
            else if (new == SERVE_U)
                completion = t + remain_u[h_u];
            else
                completion = INFINITY;
            if (new != pos) {
                if (new < IDLE || new > SERVE_U)
                    return NAN;
                pos = new;
                rules = moves + 4 * pos * cells;
            }
            continue;
        }
        if (next_u <= next_q) { /* simultaneous arrivals serve the update first */
            t = next_u;
            if (t > horizon)
                break;
            occupy(t, n_q, n_u, warmup, &last, sum);
            new = rules[ARRIVE_U * cells + cell];
            n_u += 1;
            next_u = arrive_u[h_u + n_u];
        } else {
            t = next_q;
            if (t > horizon)
                break;
            occupy(t, n_q, n_u, warmup, &last, sum);
            new = rules[ARRIVE_Q * cells + cell];
            n_q += 1;
            next_q = arrive_q[h_q + n_q];
        }
        if (new != pos) { /* preempt-resume: bank the head's remaining work */
            if (new < IDLE || new > SERVE_U)
                return NAN;
            if (pos == SERVE_Q)
                remain_q[h_q] = completion - t;
            else if (pos == SERVE_U)
                remain_u[h_u] = completion - t;
            if (new == SERVE_Q)
                completion = t + remain_q[h_q];
            else if (new == SERVE_U)
                completion = t + remain_u[h_u];
            else
                completion = INFINITY;
            pos = new;
            rules = moves + 4 * pos * cells;
        }
    }
    /* from the last event, and from the last delivery, to the horizon */
    occupy(horizon, n_q, n_u, warmup, &last, sum);
    sum[AGE] += age_area(g, delivered, horizon, warmup, horizon);
    sum[PAOI] = freshsched_fsum(paoi, updates);
    state[0] = n_q;
    state[1] = n_u;
    state[2] = h_q;
    state[3] = h_u;
    state[4] = pos;
    state[5] = responses;
    state[6] = updates;
    return completion;
}

/* out[i] = -log(u[i]) / rate for i < n, as `simulator.exponential_draws`
   takes it in Python: libm's log, negated, then divided once. */
void freshsched_exponential(const double *u, int64_t n, double rate, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = -log(u[i]) / rate;
}
