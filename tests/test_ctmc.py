import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from freshsched import ctmc
from freshsched.ctmc import (
    MAX_TRUNCATION,
    Z_IDLE,
    Z_QUERY,
    Z_UPDATE,
    CtmcRates,
    CtmcSpec,
    NoConvergence,
    Reducible,
    TruncationTooSmall,
    build_ctmc,
    expected_queue_lengths,
    solve_stationary,
)
from freshsched.analytic import conservation_rhs, query1_metrics
from freshsched.model import Fcfs, JointMN, QueryK, UpdateK, validate_params


def chain_from_edges(states, edges):
    index = {s: i for i, s in enumerate(states)}
    transitions = [(index[a], index[b], rate) for a, b, rate in edges]
    return CtmcRates(None, list(states), index, transitions)


class TestSolveStationary:
    def test_two_state_birth_death(self):
        empty, busy = (0, 0, Z_IDLE), (1, 0, Z_QUERY)
        rates = chain_from_edges([empty, busy],
                                 [(empty, busy, 1.0), (busy, empty, 1.0)])
        sol = solve_stationary(rates)
        assert sol.probability(empty) == pytest.approx(0.5, abs=1e-12)
        assert sol.probability(busy) == pytest.approx(0.5, abs=1e-12)
        assert sol.residual <= 1e-10

    def test_single_queue_geometric_law(self):
        # birth rate 0.5, death rate 1, truncated at 60: pi_j ~ 0.5^j / 2
        cap = 60
        states = [(j, 0, Z_IDLE if j == 0 else Z_QUERY) for j in range(cap + 1)]
        edges = []
        for j in range(cap):
            edges.append((states[j], states[j + 1], 0.5))
            edges.append((states[j + 1], states[j], 1.0))
        sol = solve_stationary(chain_from_edges(states, edges))
        nq, _ = expected_queue_lengths(sol)
        assert nq == pytest.approx(1.0, abs=1e-6)
        assert sol.probability(states[3]) == pytest.approx(0.5 ** 3 * 0.5, abs=1e-9)

    def test_point_mass_moments(self):
        only = (2, 3, Z_QUERY)
        # self-loop-free absorbing pair keeps the chain irreducible
        other = (0, 0, Z_IDLE)
        sol = solve_stationary(chain_from_edges(
            [other, only], [(other, only, 1e6), (only, other, 1e-6)]))
        nq, nu = expected_queue_lengths(sol)
        assert nq == pytest.approx(2.0, rel=1e-6)
        assert nu == pytest.approx(3.0, rel=1e-6)

    def test_disconnected_chain_rejected(self):
        a, b, c = (0, 0, Z_IDLE), (1, 0, Z_QUERY), (2, 0, Z_QUERY)
        # c has no path back to the empty state
        rates = chain_from_edges([a, b, c], [(a, b, 1.0), (b, a, 1.0), (b, c, 1.0)])
        with pytest.raises(Reducible):
            solve_stationary(rates)


class TestCtmcSpec:
    def test_truncation_below_threshold_region_rejected(self):
        p = validate_params(0.5, 1, 0.1, 1)
        with pytest.raises(TruncationTooSmall):
            CtmcSpec(p, QueryK(5), 4, 64)
        with pytest.raises(TruncationTooSmall):
            CtmcSpec(p, UpdateK(5), 64, 4)
        CtmcSpec(p, QueryK(5), 7, 64)  # k+2 exactly is allowed
        with pytest.raises(TruncationTooSmall):
            CtmcSpec(p, JointMN(3, 5), 64, 4)  # c_u below m + 2
        CtmcSpec(p, JointMN(3, 5), 7, 5)

    def test_fcfs_rejected(self):
        with pytest.raises(ValueError):
            CtmcSpec(validate_params(0.5, 1, 0.1, 1), Fcfs(), 64, 64)

    def test_max_truncation_is_sane(self):
        assert MAX_TRUNCATION >= 1024

    def test_build_beyond_state_cap_raises(self, monkeypatch):
        monkeypatch.setattr(ctmc, "MAX_STATES", 100)
        p = validate_params(0.5, 1, 0.1, 1)
        with pytest.raises(NoConvergence):
            build_ctmc(CtmcSpec(p, QueryK(1), 16, 16))
        build_ctmc(CtmcSpec(p, QueryK(1), 10, 10))  # exactly at the cap


class TestBuildCtmc:
    def setup_method(self):
        self.params = validate_params(0.5, 1, 0.1, 1)
        self.spec = CtmcSpec(self.params, QueryK(2), 8, 8)
        self.rates = build_ctmc(self.spec)
        self.targets = {}
        for si, ti, rate in self.rates.transitions:
            self.targets.setdefault(self.rates.states[si], []).append(
                (self.rates.states[ti], rate))

    def test_threshold_switch_transitions(self):
        outs = dict(self.targets[(1, 2, Z_UPDATE)])
        assert outs[(2, 2, Z_QUERY)] == self.params.lambda_q  # threshold hit
        assert outs[(1, 3, Z_UPDATE)] == self.params.lambda_u
        assert outs[(1, 1, Z_UPDATE)] == self.params.mu_u

    def test_update_exhaustion_switch(self):
        outs = dict(self.targets[(1, 1, Z_UPDATE)])
        assert outs[(1, 0, Z_QUERY)] == self.params.mu_u

    def test_empty_state_arrivals(self):
        outs = dict(self.targets[(0, 0, Z_IDLE)])
        assert outs[(0, 1, Z_UPDATE)] == self.params.lambda_u
        assert outs[(1, 0, Z_QUERY)] == self.params.lambda_q

    def test_no_update_service_beyond_query_threshold(self):
        # rule: with n_q >= k the server cannot be at the update queue
        for (i, _j, z) in self.rates.states:
            if z == Z_UPDATE:
                assert i < 2

    def test_boundary_arrivals_dropped(self):
        for state, outs in self.targets.items():
            i, j, _z = state
            for (ti, tj, _tz), _rate in outs:
                assert ti <= 8 and tj <= 8


def reference_stationary(rates):
    """The per-transition assembly and solve that solve_stationary vectorises."""
    n = len(rates.states)
    rows, cols, vals = [], [], []
    for si, ti, rate in rates.transitions:
        rows += [ti, si]
        cols += [si, si]
        vals += [rate, -rate]
    qt = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    keep = qt.tocoo()
    mask = keep.row != 0
    a = sp.coo_matrix((np.concatenate([keep.data[mask], np.ones(n)]),
                       (np.concatenate([keep.row[mask], np.zeros(n, dtype=int)]),
                        np.concatenate([keep.col[mask], np.arange(n)]))),
                      shape=(n, n)).tocsc()
    b = np.zeros(n)
    b[0] = 1.0
    pi = np.clip(spla.spsolve(a, b), 0.0, None)
    return pi / pi.sum()


class TestEndToEnd:
    @pytest.mark.parametrize("policy", [QueryK(3), UpdateK(2)])
    def test_vectorised_assembly_is_bit_identical(self, policy):
        p = validate_params(0.6, 1, 0.3, 1)
        rates = build_ctmc(CtmcSpec(p, policy, 24, 40))
        sol = solve_stationary(rates)
        assert np.array_equal(sol.probabilities, reference_stationary(rates))

    def test_boundary_bands_bound_the_tail(self):
        p = validate_params(0.6, 1, 0.3, 1)
        sol = solve_stationary(build_ctmc(CtmcSpec(p, QueryK(1), 12, 40)))
        states = np.array(sol.rates.states)
        pi = sol.probabilities
        assert sol.tail_mass_q == pytest.approx(pi[states[:, 0] >= 11].sum(), rel=1e-12)
        assert sol.tail_mass_u == pytest.approx(pi[states[:, 1] >= 39].sum(), rel=1e-12)
        assert max(sol.tail_mass_q, sol.tail_mass_u) <= sol.tail_mass
        assert sol.tail_mass <= sol.tail_mass_q + sol.tail_mass_u
        # the prioritized queue is the short one
        assert sol.tail_mass_q < sol.tail_mass_u

    def test_k1_chain_matches_priority_closed_form(self):
        p = validate_params(0.5, 1, 0.1, 1)
        sol = solve_stationary(build_ctmc(CtmcSpec(p, QueryK(1), 64, 64)))
        nq, nu = expected_queue_lengths(sol)
        exact = query1_metrics(p)
        assert nq == pytest.approx(exact.expected_nq, rel=1e-6)
        assert nu == pytest.approx(exact.expected_nu, rel=1e-6)

    def test_conservation_residual(self):
        p = validate_params(0.5, 1, 0.1, 1)
        sol = solve_stationary(build_ctmc(CtmcSpec(p, QueryK(3), 96, 96)))
        nq, nu = expected_queue_lengths(sol)
        lhs = nq / p.mu_q + nu / p.mu_u
        assert abs(lhs - conservation_rhs(p)) < 1e-6

    def test_truncation_monotone_convergence(self):
        p = validate_params(0.5, 1, 0.1, 1)
        sol_small = solve_stationary(build_ctmc(CtmcSpec(p, QueryK(3), 48, 48)))
        sol_large = solve_stationary(build_ctmc(CtmcSpec(p, QueryK(3), 96, 96)))
        nq_small, _ = expected_queue_lengths(sol_small)
        nq_large, _ = expected_queue_lengths(sol_large)
        assert sol_large.tail_mass < sol_small.tail_mass
        assert abs(nq_large - nq_small) < max(sol_small.tail_mass, 1e-12)

    def test_probabilities_normalized_and_nonnegative(self):
        p = validate_params(1 / 3, 1, 1 / 3, 1)
        sol = solve_stationary(build_ctmc(CtmcSpec(p, UpdateK(4), 64, 64)))
        assert sol.probabilities.min() >= 0.0
        assert sol.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        assert sol.residual <= 1e-10
