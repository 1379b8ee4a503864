/* The simulator's event loop, transcribed from simulator._python_loop, which
   defines it: the same branches in the same order, the same comparisons and
   INFINITY for math.inf. The loop only adds, subtracts and compares doubles,
   so with contraction off (-ffp-contract=off) and no -ffast-math every value
   it writes is the Python loop's, to the bit. `simulator` builds this file on
   first use and calls it through ctypes. */
#include <float.h>
#include <math.h>
#include <stdint.h>

/* x87 arithmetic would round to 80 bits between operations */
#if !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#error "doubles must be evaluated in double precision"
#endif

/* the codes of `policy`: the server positions, OLDER_HEAD, an FCFS
   departure that leaves both queues nonempty, and the triggers */
enum { IDLE = 0, SERVE_Q = 1, SERVE_U = 2, OLDER_HEAD = -1 };
enum { ARRIVE_U = 0, ARRIVE_Q = 1, DEPART_U = 2, DEPART_Q = 3 };

/* `moves` is the array of policy.decision_table: each position's rules on
   its 4 triggers, each a (cap_q + 1) x (cap_u + 1) table of positions that
   holds NO_POSITION, a code past SERVE_U, where the trigger cannot fire.
   The arrival epochs run through the first one past the horizon; `remain_*`
   start as the service requirements and take the remaining work of
   preempted heads. Returns the pending completion epoch and writes n_q,
   n_u, h_q, h_u and the position into `state`; returns NaN if the table
   leads to no position. */
double freshsched_event_loop(const int8_t *moves, int64_t cap_q, int64_t cap_u,
                             const double *arrive_u, const double *arrive_q,
                             double *remain_u, double *remain_q,
                             double *depart_u, double *depart_q,
                             double horizon, int64_t *state)
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

    for (;;) {
        int64_t i = n_q < cap_q ? n_q : cap_q;
        int64_t j = n_u < cap_u ? n_u : cap_u;
        int64_t cell = i * (cap_u + 1) + j;
        if (completion <= next_u && completion <= next_q) {
            t = completion;
            if (t > horizon)
                break;
            new = rules[(pos == SERVE_Q ? DEPART_Q : DEPART_U) * cells + cell];
            if (pos == SERVE_Q) {
                depart_q[h_q] = t;
                n_q -= 1;
                h_q += 1;
            } else {
                depart_u[h_u] = t;
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
            new = rules[ARRIVE_U * cells + cell];
            n_u += 1;
            next_u = arrive_u[h_u + n_u];
        } else {
            t = next_q;
            if (t > horizon)
                break;
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
    state[0] = n_q;
    state[1] = n_u;
    state[2] = h_q;
    state[3] = h_u;
    state[4] = pos;
    return completion;
}
