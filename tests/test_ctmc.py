import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from freshsched import ctmc
from freshsched.ctmc import (
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
from freshsched.analytic import query1_metrics
from freshsched.model import (UNBOUNDED, Fcfs, JointMN, QueryK, UpdateK, conservation_rhs,
                              validate_params)
from freshsched.policy import decision_table


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
        band = (states[:, 0] >= 11) | (states[:, 1] >= 39)
        assert sol.tail_mass == pytest.approx(pi[band].sum(), rel=1e-12)
        assert 0 < sol.tail_mass < 1

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


class TestQbdSolve:
    @pytest.mark.parametrize("policy", [
        QueryK(3), UpdateK(3), JointMN(3, 3), JointMN(1, 5), JointMN(UNBOUNDED, 3),
        JointMN(3, UNBOUNDED), JointMN(63, 3)], ids=repr)
    def test_matches_the_truncated_chain(self, policy):
        p = validate_params(0.4, 1, 0.2, 1)
        reference = solve_stationary(build_ctmc(CtmcSpec(p, policy, 65, 65)))
        assert reference.tail_mass < 1e-12
        nq, nu = expected_queue_lengths(reference)
        qbd = ctmc.solve(p, policy)
        assert qbd.expected_nq == pytest.approx(nq, rel=1e-7)
        assert qbd.expected_nu == pytest.approx(nu, rel=1e-7)
        assert qbd.residual <= ctmc.RESIDUAL_TOLERANCE

    def test_fcfs_rejected(self):
        # FCFS's thresholds are (inf, inf), whose chain is not FCFS's: solved,
        # it gave E[N_q] = 0.557 at (0.3, 0.3), where FCFS's is 0.75
        with pytest.raises(ValueError, match="FCFS"):
            ctmc.solve(validate_params(0.3, 1, 0.3, 1), Fcfs())

    def test_lost_query_arrival_still_switches_the_server(self):
        # above both thresholds only a query arrival moves the server from the
        # updates to the queries; at n_q = c that arrival is lost, and if it
        # were dropped, (c, update) would trap the server: Joint-(5, 8) at
        # (0.2, 0.7) then failed the drift check at c = 320
        p = validate_params(0.2, 1, 0.7, 1)
        table = decision_table(JointMN(5, 8))
        c, level = 20, table.cap_u + 1
        src, dst, rate, _i, _j = ctmc._generator(p, table, c, level + 2)
        start = int(ctmc._level_start(level, c))
        serving_updates, serving_queries = start + 2 * c, start + c - 1  # n_q = c

        def entry(source, target):
            return rate[(src == source) & (dst == target)].tolist()

        assert entry(serving_updates, serving_queries) == [p.lambda_q]
        assert entry(serving_updates, serving_updates) == [-(p.lambda_q + p.lambda_u + p.mu_u)]

    def test_upward_drift_rejected(self):
        # one phase: up at rate 2, down at rate 1
        with pytest.raises(NoConvergence, match="drifts up"):
            ctmc._check_drift(np.array([[2.0]]), np.array([[-3.0]]), np.array([[1.0]]))

    def test_a_stalled_conservation_gap_stops_the_doubling(self, monkeypatch):
        # at rho = 0.99999 the band is below 1e-9 from c = 32 on, but round-off,
        # which 1 / (1 - rho) amplifies, holds the relative gap near 1.5e-6 from
        # c = 64 on: 1.45e-6 there, and 1.64e-6 at c = 128, where `freshsched
        # solve` stops; doubling on to the phase cap took over two minutes
        inner, rounds = ctmc._solve_qbd, []

        def counted(params, table, c):
            rounds.append(c)
            assert len(rounds) <= 4, f"solved again at c = {c} after the gap stalled"
            return inner(params, table, c)

        monkeypatch.setattr(ctmc, "_solve_qbd", counted)
        with pytest.raises(NoConvergence, match="stopped shrinking"):
            ctmc.solve(validate_params(0.5, 1, 0.49999, 1), QueryK(2))


def last_blocks(monkeypatch, params, policy):
    """The full repeating blocks (a0, a1, a2) of the last truncation `solve`
    tries, after the class swap."""
    blocks, inner = [], ctmc._check_drift

    def capture(a0, a1, a2):
        blocks[:] = a0, a1, a2
        inner(a0, a1, a2)

    monkeypatch.setattr(ctmc, "_check_drift", capture)
    ctmc.solve(params, policy)
    return blocks


class TestLivePhases:
    @pytest.mark.parametrize("rates, policy", [
        ((0.09, 0.9), QueryK(1)), ((0.1, 0.75), UpdateK(3)),
        ((1 / 3, 1 / 3), JointMN(3, 3)), ((1 / 3, 1 / 3), JointMN(1, 5))], ids=repr)
    def test_the_live_phases_give_the_full_rate_matrix(self, monkeypatch, rates, policy):
        a0, a1, a2 = last_blocks(monkeypatch, validate_params(rates[0], 1, rates[1], 1), policy)
        r = ctmc._live_rate_matrix(a0, a1, a2)
        full = ctmc._rate_matrix(a0, a1, a2, a0)
        assert np.max(np.abs(r - full)) <= 1e-12
        entered = a0.any(axis=0) | a2.any(axis=0) | (a1 - np.diag(np.diag(a1))).any(axis=0)
        assert not r[:, ~entered].any()

    @pytest.mark.parametrize("policy", [QueryK(1), QueryK(3), QueryK(12), UpdateK(1),
                                        UpdateK(3), UpdateK(12)], ids=repr)
    @pytest.mark.parametrize("rates", [(1 / 3, 1 / 3), (0.55, 0.3), (0.1, 0.75)])
    def test_query_k_and_update_k_reduce_c_plus_k_phases(self, monkeypatch, rates, policy):
        # Query-k never serves an update with n_q >= k; Update-k is solved as
        # Query-k with the classes swapped
        inner, phases = ctmc._rate_matrix, []

        def counted(a0, a1, a2, entering):
            phases.append((len(a0), len(entering)))
            return inner(a0, a1, a2, entering)

        monkeypatch.setattr(ctmc, "_rate_matrix", counted)
        ctmc.solve(validate_params(rates[0], 1, rates[1], 1), policy)
        assert phases and all(live == (level - 1) // 2 + policy.k for live, level in phases)


def phase_marginal(policy, params, column):
    """The reference chain's marginal law of n_q (column 0) or n_u (column 1)."""
    solution = solve_stationary(build_ctmc(CtmcSpec(params, policy, 64, 64)))
    assert solution.tail_mass < 1e-10
    return np.bincount(solution.rates.state_array[:, column],
                       weights=solution.probabilities)


def tail_ratios(marginal, t, floor):
    """pi(N = i + 1) / pi(N = i) for every i >= t - 1 whose mass is above floor."""
    return np.array([marginal[i + 1] / marginal[i] for i in range(t - 1, len(marginal) - 1)
                     if marginal[i] > floor])


def spied_truncations(monkeypatch):
    """The list that the phase truncations `solve` tries go into, in order."""
    inner, rounds = ctmc._solve_qbd, []

    def counted(params, table, c):
        rounds.append(c)
        return inner(params, table, c)

    monkeypatch.setattr(ctmc, "_solve_qbd", counted)
    return rounds


class TestPredictedTruncation:
    @pytest.mark.parametrize("policy, params, column, eta", [
        (QueryK(3), validate_params(1 / 3, 1, 1 / 3, 1), 0, 1 / 3),
        (QueryK(1), validate_params(0.5, 1, 0.3, 1.5), 0, 0.2),
        (UpdateK(3), validate_params(1 / 3, 1, 1 / 3, 1), 1, 1 / 3)], ids=repr)
    def test_the_phase_queue_is_geometric_above_its_threshold(self, policy, params,
                                                              column, eta):
        # from the threshold t on, the prioritized class is always served, so
        # the cut between N = i and N = i + 1 balances lambda pi_i = mu pi_{i+1}
        # for i >= t - 1: the premise of the start that `solve` predicts
        marginal = phase_marginal(policy, params, column)
        t = policy.k
        # the sparse solve leaves about 1e-16 on a marginal, 1e-9 of a mass of
        # 1e-7, and up to 1.1e-15 on a state of the far corner (Update-3's
        # (64, 63, update), whose exact mass is near 1e-60); below 1e-7 the
        # cut is checked to that round-off
        assert tail_ratios(marginal, t, 1e-7) == pytest.approx(eta, rel=1e-9)
        deep = marginal[t:] - eta * marginal[t - 1:-1]
        assert np.max(np.abs(deep)) < 1e-14

    @pytest.mark.parametrize("policy, params, column", [
        (QueryK(3), validate_params(1 / 3, 1, 1 / 3, 1), 0),
        (QueryK(5), validate_params(0.45, 2, 0.8, 2), 0),
        (UpdateK(4), validate_params(0.2, 0.5, 0.1, 0.5), 1)], ids=repr)
    def test_the_phase_queue_lies_below_the_total_count(self, policy, params, column):
        # at equal service rates the total count of a work-conserving
        # preempt-resume system is that of M/M/1, P(N >= i) = rho^i, and the
        # phase count lies below it: the premise of pi(N >= t - 1) <=
        # rho^(t - 1) in the start that `solve` predicts
        marginal = phase_marginal(policy, params, column)
        at_least = np.cumsum(marginal[::-1])[::-1]
        levels = np.arange(len(marginal))
        assert np.all(at_least <= params.rho ** levels + 1e-15)
        assert at_least[policy.k - 1] > 0.1 * params.rho ** (policy.k - 1)

    def test_a_joint_phase_queue_decays_slower_than_its_rate_ratio(self):
        # under Joint-(m, n) the queries also wait behind updates, so their
        # tail is heavier than eta's and the predicted rung is only a start
        marginal = phase_marginal(JointMN(3, 3), validate_params(0.3, 1, 0.3, 1), 0)
        ratios = tail_ratios(marginal, 3, 1e-10)
        assert np.all(ratios > 1.15 * 0.3)
        assert ratios[-1] > 0.48

    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("kind", [QueryK, UpdateK])
    def test_one_round_on_the_predicted_rung(self, monkeypatch, kind, k):
        # the first c whose bound (4/3) 3^-(c - k) (2/3)^(k - 1) is below
        # 1e-9 (1/3) (1/3) / 3, below the rung max(16, 2 (k + 2)) 2^j of 32
        # for k <= 6 and 4 (k + 2) above
        rounds = spied_truncations(monkeypatch)
        result = ctmc.solve(validate_params(1 / 3, 1, 1 / 3, 1), kind(k))
        assert rounds == [[24, 24, 25, 26, 26, 27, 27, 28, 29, 29, 30, 31][k - 1]]
        assert result.rounds == 1

    @pytest.mark.parametrize("policy, rates", [
        (QueryK(1), (0.09, 0.9)), (UpdateK(1), (0.9, 0.09))], ids=repr)
    def test_rho_099_solves_one_round(self, monkeypatch, policy, rates):
        # the doubling solved 16, 32, 64, 128 and 256
        rounds = spied_truncations(monkeypatch)
        result = ctmc.solve(validate_params(rates[0], 1, rates[1], 1), policy)
        assert rounds == [256]
        assert result.rounds == 1 and result.tail_mass < ctmc.TAIL_TOLERANCE

    def test_joint_doubles_on_from_the_predicted_rung(self, monkeypatch):
        # the doubling solved 16, 32 and 64
        rounds = spied_truncations(monkeypatch)
        result = ctmc.solve(validate_params(1 / 3, 1, 1 / 3, 1), JointMN(3, 3))
        assert rounds == [32, 64]
        assert result.rounds == 2

    @pytest.mark.parametrize("policy", [QueryK(11), QueryK(12), UpdateK(11), UpdateK(12)],
                             ids=repr)
    def test_a_start_past_the_doubling_matches_the_truncated_chain(self, policy):
        # these start at c = 30 and 31, below their rungs of 52 and 56
        p = validate_params(1 / 3, 1, 1 / 3, 1)
        reference = solve_stationary(build_ctmc(CtmcSpec(p, policy, 65, 65)))
        assert reference.tail_mass < 1e-12
        nq, nu = expected_queue_lengths(reference)
        qbd = ctmc.solve(p, policy)
        assert qbd.expected_nq == pytest.approx(nq, rel=1e-7)
        assert qbd.expected_nu == pytest.approx(nu, rel=1e-7)

    @pytest.mark.parametrize("mu_u", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("share", [0.1, 0.5])
    @pytest.mark.parametrize("rho", [0.6, 0.95, 0.99])
    @pytest.mark.parametrize("kind", [QueryK, UpdateK])
    def test_the_start_never_costs_a_round(self, monkeypatch, kind, rho, share, mu_u):
        # the phase class carries `share` of the load rho, and mu_q = 1
        phase = share * rho
        level = rho - phase
        params = (validate_params(level * mu_u, mu_u, phase, 1) if kind is QueryK
                  else validate_params(phase * mu_u, mu_u, level, 1))
        k, eta = 3, phase
        # the oracle: the first rung max(16, 2 (k + 2)) 2^j whose bound
        # (1 + eta) eta^(c - k) is below the band tolerance
        rung = 16
        while (1 + eta) * eta ** (rung - k) >= ctmc.TAIL_TOLERANCE:
            rung *= 2
        inner, calls = ctmc._solve_qbd, []

        def counted(rates, table, c):
            calls.append((rates, table, c))
            return inner(rates, table, c)

        monkeypatch.setattr(ctmc, "_solve_qbd", counted)
        result = ctmc.solve(params, kind(k))
        assert calls[0][2] <= rung
        moment = result.expected_nu if kind is QueryK else result.expected_nq
        assert result.tail_mass < ctmc.TAIL_TOLERANCE
        assert result.conservation_gap < ctmc.GAP_TOLERANCE * moment
        if len(calls) == 1:
            return  # one round at or below the rung can lose nothing
        # the doubling from the rung, with the tolerances and the stall stop
        # of `solve`, and at most four rounds
        rates, table, c = calls[0][0], calls[0][1], rung
        rhs, previous_gap = conservation_rhs(rates), np.inf
        for rounds in range(1, 5):
            nq, direct, band, _, _ = inner(rates, table, c)
            nu = rates.mu_u * (rhs - nq / rates.mu_q)
            gap = abs(direct - nu)
            if band < ctmc.TAIL_TOLERANCE and gap < ctmc.GAP_TOLERANCE * nu:
                break
            assert not (band < ctmc.TAIL_TOLERANCE and gap >= previous_gap / 2), \
                f"the doubling from the rung stalls at c = {c}"
            c, previous_gap = 2 * c, gap
        else:
            pytest.fail("the doubling from the rung needs more than four rounds")
        assert result.rounds <= rounds
        assert calls[-1][2] <= c

    @pytest.mark.parametrize("kind", [QueryK, UpdateK])
    @pytest.mark.parametrize("params, rounds", [
        ((1 / 3, 1, 1 / 3, 1), [16, 32, 64]), ((0.5, 2, 1 / 3, 1), [16, 32])], ids=repr)
    def test_an_unbounded_threshold_starts_on_the_first_rung(self, monkeypatch, kind,
                                                             params, rounds):
        # with t infinite the band has no bound, so the start is max(16, 2 * 2)
        # and the doubling alone finds c, at equal and at unequal service rates
        spied = spied_truncations(monkeypatch)
        result = ctmc.solve(validate_params(*params), kind(UNBOUNDED))
        assert spied == rounds
        assert result.rounds == len(rounds)

    @pytest.mark.parametrize("cap, value, message", [
        ("MAX_PHASES", 2 * 32 + 1, "129 phases"), ("MAX_STATES", 300, "581 states")])
    def test_the_start_stays_inside_the_caps(self, monkeypatch, cap, value, message):
        # Query-1 at (0.09, 0.9) predicts c = 256; the largest rung the caps
        # accept is 32, and the doubling after it fails as it did from 16
        monkeypatch.setattr(ctmc, cap, value)
        rounds = spied_truncations(monkeypatch)
        with pytest.raises(NoConvergence, match=message):
            ctmc.solve(validate_params(0.09, 1, 0.9, 1), QueryK(1))
        assert rounds == [32]

    def test_the_closed_forms_count_no_rounds(self):
        assert query1_metrics(validate_params(0.5, 1, 0.1, 1)).rounds is None
