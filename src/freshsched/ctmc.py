"""Markov chains of the thresholded policies.

States are (n_q, n_u, z) with z = 0 empty/idle, z = 1 serving the query queue,
z = 2 serving the update queue. Transitions are generated through the shared
policy decision table, so the chains and the simulator cannot drift apart.

`solve` treats the chain as a quasi-birth-death (QBD) process. The level is
n_u, and the phase is (n_q, z) with n_q truncated at c jobs, where a query
arrival is lost. When only the update threshold is finite, the classes are
swapped first, so a queue whose threshold alone is finite, the short one, is
always the phase. From the decision table's cap `cap_u` on, the transitions
do not depend on the level, so pi_{l+1} = pi_l R for l >= cap_u (Neuts,
Matrix-Geometric Solutions, 1981). R comes from G by logarithmic reduction
(Latouche & Ramaswami, J. Appl. Prob. 30, 1993). The reduction runs on the
live phases alone, those that some move of the repeating levels enters: a
dead phase's column is 0 in the up and down blocks a0 and a2, and in the
local block a1 off the diagonal. This is exact. G, whose paths end with a
move down, is 0 on a dead column, so U = a1 + a0 G is 0 on the (live, dead)
entries and (-U)^-1 is block triangular. R = a0 (-U)^-1 is then 0 on the
dead columns, and its live columns come from the live blocks alone. R keeps
a row for every phase, since level cap_u holds mass on each. Query-k never
serves an update with k queries waiting, so c + k of its 2c + 1 phases are
live.

The boundary, levels 0..cap_u, is block tridiagonal by level, with local
blocks L_l and blocks U_l up and D_l down. It is solved by linear level
reduction (Latouche & Ramaswami, Introduction to Matrix-Analytic Methods in
Stochastic Modeling, SIAM 1999, on level-dependent QBDs): the levels above
fold into level top = cap_u as S_top = L_top + R a2, and each level into the
one below as R_{l-1} = U_{l-1} (-S_l)^-1 and S_{l-1} = L_{l-1} + R_{l-1} D_l.
Level 0 is solved with the empty state's weight fixed at 1, and
pi_l = pi_{l-1} R_{l-1} fills the levels back up. Each level keeps only the
states that some move enters, since no other state holds mass: c + k for
Query-k. The logarithmic reduction takes explicit inverses, because each of
its inverses multiplies two blocks, and numpy's inverse and two matmuls beat
one solve with both blocks as right-hand sides (38 against 62 us at 33
phases, 5.4 against 8.6 ms at 257, one core). A matrix that meets one block,
as (-S_l) does U_{l-1}, is solved. So `solve` needs numpy alone.

The rung of the phase truncation is the first c of max(16, 2 cap_q) 2^j at
which (1 + eta) eta^(c - t) is below TAIL_TOLERANCE, for the phase class's
finite threshold t and eta = lambda / mu of that class: from t on that class
is always served, so its law is geometric with ratio eta from N = t - 1 on,
and the band is that bound times pi(N = t - 1). With t infinite (Query-inf,
Update-inf) the band has no bound and the rung is the first, 16. Those
chains and Joint-(m, n) start on the rung. Query-k and Update-k of finite
k start lower, at the first c from 2 cap_q on at which the bound times
pi_hat is below both TAIL_TOLERANCE and GAP_TOLERANCE (1 - rho)
rho_level / 3, or on the rung if that comes first. pi_hat bounds
pi(N >= t - 1): rho^(t - 1) at equal service rates, where the total count
of a work-conserving preempt-resume system is that of M/M/1,
P(N >= i) = rho^i, and the phase count lies below it; 1 otherwise. The
second term is the gap's share: the band's loss reaches the conservation gap
amplified about as 1 / (1 - rho), as the queue lengths are, and the gap is
relative to E[N_level] >= rho_level, the share of time a level job is in
service. The relative gap ran 6-10 times the band at rho = 2/3 and about 250
times at rho = 0.99 (Query-1 at (0.09, 0.9)), within the 27 and 3333 that
3 / ((1 - rho) rho_level) allows. c then doubles until the mass on its band
is below TAIL_TOLERANCE and the conservation gap below GAP_TOLERANCE, and
stops with NoConvergence once the band is below its tolerance but a doubling
no longer halves the gap.

`build_ctmc` and `solve_stationary` solve the chain truncated on both sides
instead, with arrivals that would cross the truncation dropped. They are the
reference the tests check `solve` against, and the only users of scipy here,
which they import when called.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from .model import (UNBOUNDED, ExactResult, Fcfs, JointMN, ModelParams, conservation_rhs,
                    paoi_from_update_system_time, stability_guard)
from .policy import (ARRIVE_Q, ARRIVE_U, DEPART_Q, DEPART_U, Z_IDLE, Z_QUERY, Z_UPDATE,
                     decision_table, policy_columns, thresholds)

TAIL_TOLERANCE = 1e-8
RESIDUAL_TOLERANCE = 1e-10
# relative gap between the direct and the conservation-law moment of the level
GAP_TOLERANCE = 1e-9
# The caps keep one solve under about 1.6 GB. The reference chain's sparse
# solve peaks at 10 KB per state on a square truncation and at 25 KB on a long
# thin one. The QBD peaks at about 116 bytes per (phase, phase) entry of a
# level, with one BLAS thread: 486 MB over the interpreter for Joint-(13, 510)
# at c = 1024 (2049 phases, 16 boundary levels of 1534 live states, whose
# R_l dominate), 295 MB for Query-1 there. At the caps' largest level,
# Joint-(13, 897) at c = 1798 (3597 phases, 62948 states), that is 1.5 GB.
MAX_STATES = 2 ** 16
MAX_PHASES = 3600
# logarithmic reduction covers 2^k levels in k steps
MAX_REDUCTIONS = 64


class TruncationTooSmall(ValueError):
    """Truncation bounds too tight for the threshold region (or the tail)."""


class NoConvergence(RuntimeError):
    """The stationary solve did not reach the residual tolerance."""


class Reducible(RuntimeError):
    """The represented state space is not a single recurrent class."""


def _reject_fcfs(policy) -> None:
    # the (inf, inf) chain of FCFS's thresholds is not FCFS, which serves by
    # arrival order
    if isinstance(policy, Fcfs):
        raise ValueError("FCFS has no chain on queue counts: it serves by arrival order")


@dataclass(frozen=True)
class CtmcSpec:
    params: ModelParams
    policy: "QueryK | UpdateK | JointMN"
    c_q: int
    c_u: int

    def __post_init__(self):
        _reject_fcfs(self.policy)
        # the chain must reach the table's caps, from which on a count decides
        # like every count above it
        cap_q, cap_u, _ = decision_table(self.policy)
        if self.c_q < cap_q or self.c_u < cap_u:
            raise TruncationTooSmall(
                f"truncation {self.c_q} x {self.c_u} below the decision table's "
                f"{cap_q} x {cap_u} for {self.policy!r}")


@dataclass
class CtmcRates:
    """Reachable states and their transition rates."""

    spec: "CtmcSpec | None"
    states: List[Tuple[int, int, int]]
    index: Dict[Tuple[int, int, int], int]
    transitions: List[Tuple[int, int, float]]

    @cached_property
    def state_array(self) -> np.ndarray:
        """The states as an (n, 3) integer array of (n_q, n_u, z) rows."""
        return np.array(self.states, dtype=np.int64).reshape(-1, 3)


def build_ctmc(spec: CtmcSpec) -> CtmcRates:
    if spec.c_q * spec.c_u > MAX_STATES:
        raise NoConvergence(
            f"truncation {spec.c_q} x {spec.c_u} exceeds the cap of {MAX_STATES} states")
    params = spec.params
    cap_q, cap_u, next_position = decision_table(spec.policy)
    table = next_position.tolist()  # plain ints, which the loop indexes faster
    start = (0, 0, Z_IDLE)
    index = {start: 0}
    states = [start]
    transitions: List[Tuple[int, int, float]] = []
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        i, j, z = state
        si = index[state]
        rules = table[z]
        ci = i if i < cap_q else cap_q
        cj = j if j < cap_u else cap_u
        events = []
        if i < spec.c_q:
            events.append(((i + 1, j, rules[ARRIVE_Q][ci][cj]), params.lambda_q))
        if j < spec.c_u:
            events.append(((i, j + 1, rules[ARRIVE_U][ci][cj]), params.lambda_u))
        if z == Z_QUERY:
            events.append(((i - 1, j, rules[DEPART_Q][ci][cj]), params.mu_q))
        elif z == Z_UPDATE:
            events.append(((i, j - 1, rules[DEPART_U][ci][cj]), params.mu_u))
        for target, rate in events:
            ti = index.get(target)
            if ti is None:
                ti = len(states)
                index[target] = ti
                states.append(target)
                frontier.append(target)
            transitions.append((si, ti, rate))
    return CtmcRates(spec, states, index, transitions)


@dataclass
class CtmcSolution:
    rates: CtmcRates
    probabilities: np.ndarray
    residual: float
    # mass on the boundary bands n_q >= c_q - 1 and n_u >= c_u - 1
    tail_mass: float

    def probability(self, state: Tuple[int, int, int]) -> float:
        idx = self.rates.index.get(state)
        return 0.0 if idx is None else float(self.probabilities[idx])


def _check_recurrent(qt: "scipy.sparse.csr_matrix", target: int) -> None:
    import scipy.sparse.csgraph as csgraph
    # every state must be able to reach the empty state, otherwise the
    # truncated chain has a transient piece the solve cannot normalize over;
    # qt has an entry (t, s) for each transition s -> t, so a search from the
    # empty state along its rows walks the transitions backwards
    reached = csgraph.breadth_first_order(qt, target, directed=True,
                                          return_predecessors=False)
    if len(reached) < qt.shape[0]:
        raise Reducible("states exist that cannot reach the empty state")


def solve_stationary(rates: CtmcRates) -> CtmcSolution:
    """Solve pi Q = 0 with sum(pi) = 1 by sparse direct factorization."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    n = len(rates.states)
    edges = np.array(rates.transitions, dtype=float).reshape(-1, 3)
    src = edges[:, 0].astype(np.int64)
    dst = edges[:, 1].astype(np.int64)
    # Q^T gets (t, s, rate) then (s, s, -rate) per transition s -> t; the
    # duplicates are summed in this order, which fixes the matrix to the bit
    rows = np.empty(2 * len(edges), dtype=np.int64)
    cols = np.empty_like(rows)
    vals = np.empty(2 * len(edges))
    rows[0::2], rows[1::2] = dst, src
    cols[0::2], cols[1::2] = src, src
    vals[0::2], vals[1::2] = edges[:, 2], -edges[:, 2]
    qt = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    norm_row = rates.index.get((0, 0, Z_IDLE), 0)
    _check_recurrent(qt, norm_row)

    keep = qt.tocoo()
    mask = keep.row != norm_row
    rows2 = np.concatenate([keep.row[mask], np.full(n, norm_row)])
    cols2 = np.concatenate([keep.col[mask], np.arange(n)])
    vals2 = np.concatenate([keep.data[mask], np.ones(n)])
    a = sp.coo_matrix((vals2, (rows2, cols2)), shape=(n, n)).tocsc()
    b = np.zeros(n)
    b[norm_row] = 1.0

    pi = spla.spsolve(a, b)
    if not np.all(np.isfinite(pi)):
        raise NoConvergence("stationary solve produced non-finite probabilities")
    residual = float(np.max(np.abs(qt @ pi)))
    if residual > RESIDUAL_TOLERANCE:
        raise NoConvergence(f"balance residual {residual:g} above {RESIDUAL_TOLERANCE:g}")
    if np.min(pi) < -1e-9:
        raise NoConvergence(f"negative stationary probability {np.min(pi):g}")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()

    spec = rates.spec
    if spec is None:
        return CtmcSolution(rates, pi, residual, 0.0)
    band = ((rates.state_array[:, 0] >= spec.c_q - 1)
            | (rates.state_array[:, 1] >= spec.c_u - 1))
    return CtmcSolution(rates, pi, residual, float(pi[band].sum()))


def expected_queue_lengths(solution: CtmcSolution) -> Tuple[float, float]:
    """Direct first moments (E[N_q], E[N_u]) of the stationary distribution."""
    states = solution.rates.state_array
    pi = solution.probabilities
    return float(states[:, 0].astype(float) @ pi), float(states[:, 1].astype(float) @ pi)


def _level_start(level, c: int):
    # level 0 holds (0, idle) and (i, query) for i = 1..c; every higher level
    # holds (i, query) for i = 1..c, then (i, update) for i = 0..c
    return np.where(level == 0, 0, c + 1 + (level - 1) * (2 * c + 1))


def _generator(params: ModelParams, table, c: int, levels: int) -> Tuple[np.ndarray, ...]:
    """Generator of levels 0..levels-1 with n_q truncated at c, as (source,
    target, rate) triplets ordered by source, and the n_q and level of every
    state. A state's diagonal entry comes first, and no two triplets share a
    (source, target) pair. An update arrival from the top level leaves the
    triplets but still counts in the diagonal."""
    phase_i = np.r_[1:c + 1, 0:c + 1]
    phase_z = np.r_[np.full(c, Z_QUERY), np.full(c + 1, Z_UPDATE)]
    i = np.r_[0:c + 1, np.tile(phase_i, levels - 1)]
    z = np.r_[Z_IDLE, np.full(c, Z_QUERY), np.tile(phase_z, levels - 1)]
    j = np.r_[np.zeros(c + 1, dtype=np.int64), np.repeat(np.arange(1, levels), 2 * c + 1)]
    ci, cj = np.minimum(i, table.cap_q), np.minimum(j, table.cap_u)
    n = len(i)
    # a row per state: the diagonal, then one column per event
    src = np.repeat(np.arange(n), 5).reshape(n, 5)
    dst, rate, keep = src.copy(), np.zeros((n, 5)), np.ones((n, 5), dtype=bool)
    out = np.zeros(n)
    for column, (event, r, di, dj, fires) in enumerate((
            (ARRIVE_Q, params.lambda_q, 1, 0, True),
            (ARRIVE_U, params.lambda_u, 0, 1, True),
            (DEPART_Q, params.mu_q, -1, 0, z == Z_QUERY),
            (DEPART_U, params.mu_u, 0, -1, z == Z_UPDATE)), start=1):
        # a query arrival at n_q = c is lost but still moves the server as
        # `decide` says; dropping it would trap the server at the updates
        # once both thresholds are reached, with no level to leave them by
        ti, tj, tz = np.minimum(i + di, c), j + dj, table.next_position[z, event, ci, cj]
        moves = fires & ((ti != i) | (tj != j) | (tz != z))
        out += r * moves
        keep[:, column] = moves & (tj < levels)
        dst[:, column] = _level_start(tj, c) + np.where(tz == Z_UPDATE, c + ti, ti - (tj > 0))
        rate[:, column] = r
    rate[:, 0] = -out
    return src[keep], dst[keep], rate[keep], i, j


def _blocks(shapes, target: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            rates: np.ndarray) -> List[np.ndarray]:
    """Dense blocks of the given shapes, the k-th holding the moves whose
    target is k, at (rows, cols)."""
    blocks = [np.zeros(shape) for shape in shapes]
    for k, block in enumerate(blocks):
        pick = target == k
        block[rows[pick], cols[pick]] = rates[pick]
    return blocks


def _check_drift(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> None:
    # the level process is positive recurrent iff it moves down faster than up
    # under the stationary law alpha of the phase generator (Neuts, Thm 1.7.1)
    a = (a0 + a1 + a2).T
    a[-1] = 1.0
    alpha = np.linalg.solve(a, np.eye(len(a))[-1])
    up, down = alpha @ a0.sum(axis=1), alpha @ a2.sum(axis=1)
    if not up < down:
        raise NoConvergence(f"the level process drifts up: rate {up:g} up, {down:g} down")


def _rate_matrix(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray,
                 entering: np.ndarray) -> np.ndarray:
    """R's columns for the phases of the level-independent QBD with up, local
    and down blocks a0, a1 and a2, from G by logarithmic reduction.

    ``entering`` holds the up moves into these phases, with a row for every
    phase of a level: a0 itself, or a0's live columns when the blocks are
    cut to the live phases."""
    local = np.linalg.inv(-a1)
    up, down = local @ a0, local @ a2
    g, path = down, up
    for _ in range(MAX_REDUCTIONS):
        mix = np.linalg.inv(np.eye(len(g)) - up @ down - down @ up)
        up, down = mix @ (up @ up), mix @ (down @ down)
        grown = g + path @ down
        path = path @ up
        # near rho = 1 round-off keeps 1 - G1 above 1e-13 until G stops moving
        done = np.max(np.abs(1.0 - grown.sum(axis=1))) < 1e-13 or np.array_equal(grown, g)
        g = grown
        if done:
            return np.linalg.solve(-(a1 + a0 @ g).T, entering.T).T
    raise NoConvergence(f"G not converged after {MAX_REDUCTIONS} reductions")


def _live_rate_matrix(a0: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """R of the level-independent QBD with blocks a0, a1 and a2, reduced on
    its live phases alone, as the module docstring argues."""
    local = a1.copy()
    np.fill_diagonal(local, 0.0)
    live = np.flatnonzero(a0.any(axis=0) | a2.any(axis=0) | local.any(axis=0))
    cut = np.ix_(live, live)
    r = np.zeros_like(a0)
    r[:, live] = _rate_matrix(a0[cut], a1[cut], a2[cut], a0[:, live])
    return r


def _solve_qbd(params: ModelParams, table, c: int):
    """(E[N_q], E[N_u], band mass, balance residual, boundary states) of the
    QBD with n_q truncated at c."""
    top, p = table.cap_u, 2 * c + 1
    src, dst, rate, i, j = _generator(params, table, c, top + 3)
    start = _level_start(np.arange(top + 4), c)
    s0, s1, s2 = start[top:top + 3]
    # every level from top on has the moves of level top + 1: a2 down, a1
    # within the level and a0 up
    first, last = np.searchsorted(src, (s1, s2))
    s, t = src[first:last], dst[first:last]
    a2, a1, a0 = _blocks([(p, p)] * 3, j[t] - top, s - s1, t - start[j[t]],
                         rate[first:last])
    _check_drift(a0, a1, a2)
    r = _live_rate_matrix(a0, a1, a2)
    # the boundary keeps the states that some move enters, numbered within
    # their level; the moves out of any other state are dropped with it
    live = np.zeros(len(i), dtype=bool)
    live[dst[src != dst]] = True
    # level top + 1 feeds level top by pi_top R a2; the full blocks go before
    # the boundary's R_l pile up
    phases = np.flatnonzero(live[s0:s1])
    feed = r[phases] @ a2[:, phases]
    del a0, a1, a2
    before = np.r_[0, np.cumsum(live)]
    count, index = np.diff(before[start]), before[1:] - 1 - before[start[j]]
    bounds = np.searchsorted(src, start[:top + 2])

    def level_blocks(level):
        # the blocks D_level, L_level and U_level on the live states
        s, t, rates = (x[bounds[level]:bounds[level + 1]] for x in (src, dst, rate))
        keep = live[s]
        s, t, rates = s[keep], t[keep], rates[keep]
        n = count[level]
        return _blocks([(n, count[level - 1] if level else 0), (n, n), (n, count[level + 1])],
                       j[t] - level + 1, index[s], index[t], rates)

    # linear level reduction: each level folds into the one below, and only
    # the R_l are kept
    down, local, _ = level_blocks(top)
    folded = local + feed
    reduced = []
    for level in range(top, 0, -1):
        below, local, up = level_blocks(level - 1)
        reduced.append(np.linalg.solve(-folded.T, up.T).T)
        folded, down = local + reduced[-1] @ down, below
    # the empty state, first in level 0, has weight 1 and its equation goes
    weights = [np.r_[1.0, np.linalg.solve(folded[1:, 1:].T, -folded[0, 1:])]]
    for step in reversed(reduced):
        weights.append(weights[-1] @ step)
    pi = np.zeros(s1)
    pi[live[:s1]] = np.concatenate(weights)
    pi = np.clip(pi, 0.0, None)  # round-off
    # levels >= top hold tail = pi_top (I - R)^-1 per phase, and
    # sum_l (l - top) pi_l = pi_top R (I - R)^-2 = tail R (I - R)^-1; R is 0
    # off its live columns, so (I - R)^-1 is taken on them alone
    on = np.flatnonzero(live[s1:s2])
    entering = r[:, on]
    left = (np.eye(len(on)) - r[np.ix_(on, on)]).T
    tail = pi[s0:].copy()
    tail[on] += np.linalg.solve(left, pi[s0:] @ entering)
    tail = np.clip(tail, 0.0, None)
    scale = pi[:s0].sum() + tail.sum()
    pi, tail = pi / scale, tail / scale
    beyond = np.linalg.solve(left, tail @ entering)

    upper = np.r_[pi, pi[s0:] @ r, pi[s0:] @ r @ r]
    flow = np.bincount(dst, weights=upper[src] * rate, minlength=len(upper))
    residual = float(np.max(np.abs(flow[:s2])))
    if not residual <= RESIDUAL_TOLERANCE:
        raise NoConvergence(f"balance residual {residual:g} above {RESIDUAL_TOLERANCE:g}")
    low, phase_i = pi[:s0], i[s0:s1]
    nq = low @ i[:s0] + tail @ phase_i
    nu = low @ j[:s0] + top * tail.sum() + beyond.sum()
    band = low[i[:s0] >= c - 1].sum() + tail[phase_i >= c - 1].sum()
    return float(nq), float(nu), float(band), residual, int(s1)


def _fits(c: int, top: int) -> bool:
    # the generator holds levels 0..top + 2
    return 2 * c + 1 <= MAX_PHASES and _level_start(top + 3, c) <= MAX_STATES


def _check_size(c: int, top: int) -> None:
    # before anything is allocated
    if not _fits(c, top):
        raise NoConvergence(
            f"phase truncation {c} needs {2 * c + 1} phases a level and "
            f"{int(_level_start(top + 3, c))} states; "
            f"the caps are {MAX_PHASES} phases and {MAX_STATES} states")


def solve(params: ModelParams, policy) -> ExactResult:
    """A thresholded policy's steady state by one QBD solve for each phase
    truncation, doubled from the start that the phase class's geometric tail
    predicts (the module docstring): for Query-k and Update-k of finite k
    the first c whose band bound also meets the gap's share, never past the
    rung, and otherwise the rung. The rung is never past the caps.

    The level's queue length comes from the conservation law, and
    ``conservation_gap`` is its distance from the chain's direct moment.
    ``truncation`` is (c, inf) with n_q as the phase, or (inf, c) after the
    class swap. ``n_states`` counts the states of the boundary, levels
    0..cap_u, and ``rounds`` the truncations solved. For Query-k and
    Update-k of finite k the bound holds, so the first round meets the band
    tolerance. It met the gap's too on every one of 864 chains measured
    (rho 0.3-0.99, k 1-12, mu_u / mu_q 0.5-2) that did not start on the
    rung, and a start on the rung can double (Query-2 at (0.475, 0.475)
    solves 32, then 64). Joint-(m, n)'s phase class also waits behind
    updates, so its tail is heavier, and the predicted rung is only a start.
    R and the boundary's linear level reduction both run on the live states
    of a level, those that some move enters: c + k of the 2c + 1 for Query-k
    and Update-k. The level reduction takes one dense solve per boundary
    level. On one core of an AVX-512 Xeon, with the decision table built,
    Joint-(100, 100) at (0.3, 0.3) solves one round at c = 204, 102 solves
    of 304 live states, in 0.93 s, and Query-1 at (0.09, 0.9), rho = 0.99,
    one round at c = 256 with 257 of 513 phases live in 0.16-0.17 s.
    Little's law at the given rates turns the swapped-back lengths into times.
    """
    _reject_fcfs(policy)
    stability_guard(params)
    m, n = thresholds(policy)
    swap = m != UNBOUNDED == n
    # the chain's rates and policy, with the classes swapped if need be
    rates = (ModelParams(params.lambda_q, params.mu_q, params.lambda_u, params.mu_u)
             if swap else params)
    table = decision_table(JointMN(n, m) if swap else policy)
    rhs = conservation_rhs(rates)
    rung, previous_gap, rounds = max(16, 2 * table.cap_q), np.inf, 0
    # the first rung whose bound (1 + eta) eta^(c - t) on the band is below
    # the tolerance, but none past the caps
    t, eta = (m if swap else n), rates.lambda_q / rates.mu_q
    while (t != UNBOUNDED and (1 + eta) * eta ** (rung - t) >= TAIL_TOLERANCE
           and _fits(2 * rung, table.cap_u)):
        rung *= 2
    c = rung
    if t != UNBOUNDED and UNBOUNDED in (m, n):
        # Query-k and Update-k of finite k: the first c from 2 cap_q on whose
        # band bound, times pi_hat >= pi(N >= t - 1), is below the band
        # tolerance and the gap's share (the module docstring), and never
        # past the rung
        mass = rates.rho ** (t - 1) if rates.mu_u == rates.mu_q else 1.0
        bound = min(TAIL_TOLERANCE, GAP_TOLERANCE * (1 - rates.rho) * rates.rho_u / 3)
        c = 2 * table.cap_q
        while c < rung and (1 + eta) * eta ** (c - t) * mass >= bound:
            c += 1
    while True:
        _check_size(c, table.cap_u)
        nq, direct, band, residual, n_states = _solve_qbd(rates, table, c)
        rounds += 1
        nu = rates.mu_u * (rhs - nq / rates.mu_q)
        gap = abs(direct - nu)
        if band < TAIL_TOLERANCE and gap < GAP_TOLERANCE * nu:
            break
        # once the band has converged, a doubling shrinks a truncation error
        # in the gap by orders of magnitude; a gap that holds is round-off,
        # which 1 / (1 - rho) amplifies near rho = 1, and no c removes it
        if band < TAIL_TOLERANCE and not gap < previous_gap / 2:
            raise NoConvergence(
                f"relative conservation gap {gap / nu:.3g} stopped shrinking at phase "
                f"truncation {c} (band mass {band:.3g}); the tolerance is {GAP_TOLERANCE:g}")
        c, previous_gap = 2 * c, gap
    truncation = (c, UNBOUNDED)
    if swap:
        nq, nu, truncation = nu, nq, (UNBOUNDED, c)
    t_u = nu / params.lambda_u
    return ExactResult(policy_columns(policy)[0], nq / params.lambda_q, t_u,
                       paoi_from_update_system_time(params, t_u), nq, nu,
                       tail_mass=band, residual=residual, conservation_gap=gap,
                       truncation=truncation, n_states=n_states, rounds=rounds)
