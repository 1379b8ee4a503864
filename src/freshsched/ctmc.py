"""Truncated continuous-time Markov chain for the thresholded policies.

States are (n_q, n_u, z) with z = 0 empty/idle, z = 1 serving the query queue,
z = 2 serving the update queue. Transitions are generated through the shared
policy decision table, so the chain and the simulator cannot drift apart.
Arrivals that would cross the truncation boundary are dropped (reflection).
`solve` picks the truncation: each queue's side grows on its own until the
mass on the boundary bands is below TAIL_TOLERANCE.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .model import UNBOUNDED, Fcfs, ModelParams, stability_guard
from .policy import (ARRIVE_Q, ARRIVE_U, DEPART_Q, DEPART_U, Z_IDLE, Z_QUERY, Z_UPDATE,
                     decision_table, thresholds)

TAIL_TOLERANCE = 1e-8
RESIDUAL_TOLERANCE = 1e-10
# A truncation has about c_q * c_u states. The sparse solve peaks at 10 KB per
# state on a square truncation and at 25 KB on a long thin one, so this cap
# keeps one chain under about 1.6 GB.
MAX_STATES = 2 ** 16


class TruncationTooSmall(ValueError):
    """Truncation bounds too tight for the threshold region (or the tail)."""


class NoConvergence(RuntimeError):
    """The stationary solve did not reach the residual tolerance."""


class Reducible(RuntimeError):
    """The represented state space is not a single recurrent class."""


@dataclass(frozen=True)
class CtmcSpec:
    params: ModelParams
    policy: "QueryK | UpdateK | JointMN"
    c_q: int
    c_u: int

    def __post_init__(self):
        if isinstance(self.policy, Fcfs):
            raise ValueError("FCFS has no chain on queue counts: it serves by arrival order")
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
    cap_q, cap_u, table = decision_table(spec.policy)
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
    tail_mass: float
    # mass on each side's boundary band (n_q >= c_q - 1, n_u >= c_u - 1);
    # tail_mass is the mass of their union
    tail_mass_q: float = 0.0
    tail_mass_u: float = 0.0

    def probability(self, state: Tuple[int, int, int]) -> float:
        idx = self.rates.index.get(state)
        return 0.0 if idx is None else float(self.probabilities[idx])


def _check_recurrent(qt: sp.csr_matrix, target: int) -> None:
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
    band_q = rates.state_array[:, 0] >= spec.c_q - 1
    band_u = rates.state_array[:, 1] >= spec.c_u - 1
    return CtmcSolution(rates, pi, residual, float(pi[band_q | band_u].sum()),
                        float(pi[band_q].sum()), float(pi[band_u].sum()))


def expected_queue_lengths(solution: CtmcSolution) -> Tuple[float, float]:
    """Direct first moments (E[N_q], E[N_u]) of the stationary distribution."""
    states = solution.rates.state_array
    pi = solution.probabilities
    return float(states[:, 0].astype(float) @ pi), float(states[:, 1].astype(float) @ pi)


def solve(params: ModelParams, policy) -> CtmcSolution:
    """Stationary solve on a truncation that each side grows on its own until
    the tail mass is below ``TAIL_TOLERANCE``."""
    stability_guard(params)
    m, n = thresholds(policy)
    cap_q, cap_u, _ = decision_table(policy)
    # a queue whose threshold alone is finite is the prioritized, short one
    # and starts at twice its threshold region; every other queue starts at a
    # length that grows with the load, and at least at the table's cap
    low = max(64, math.ceil(8.0 / (1.0 - params.rho)))
    c_q = max(16, 2 * (n + 1)) if n != UNBOUNDED == m else max(low, cap_q)
    c_u = max(16, 2 * (m + 1)) if m != UNBOUNDED == n else max(low, cap_u)
    while True:
        spec = CtmcSpec(params, policy, c_q, c_u)
        solution = solve_stationary(build_ctmc(spec))
        if solution.tail_mass < TAIL_TOLERANCE:
            return solution
        # the union is at most the sum of the bands, so one side always grows
        half = TAIL_TOLERANCE / 2
        if solution.tail_mass_q >= half:
            c_q *= 2
        if solution.tail_mass_u >= half:
            c_u *= 2
        if c_q * c_u > MAX_STATES:
            raise NoConvergence(
                f"tail mass {solution.tail_mass:g} still above {TAIL_TOLERANCE:g} "
                f"at truncation {spec.c_q} x {spec.c_u}; {c_q} x {c_u} would pass "
                f"the cap of {MAX_STATES} states")
