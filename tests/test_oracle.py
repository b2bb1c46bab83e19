import numpy as np
import pytest

from arraymend import (
    AngularRegion,
    BudgetExceededError,
    FailureScenario,
    InfeasibleError,
    MetricSpec,
    apply_failures,
    evaluate_metric,
    exhaustive_min,
    solve_constrained_l1,
    uniform_positions,
)
from arraymend import oracle
from arraymend.solver import _CERT_MARGIN
from conftest import TOY_REGION, TOY_TARGET_DB, TOY_WEIGHTS

TC1_WINNER = (0, 3, 15)     # elements 1, 4 and 16


@pytest.fixture
def toy():
    geometry = uniform_positions(4, 0.5)
    weights = np.array(TOY_WEIGHTS)
    scenario = FailureScenario.from_indices(4, [2])
    metric = MetricSpec(region=AngularRegion(np.array(TOY_REGION)), target_db=TOY_TARGET_DB)
    return geometry, weights, scenario, metric


class TestExhaustiveMin:
    def test_toy_minimum_is_one(self, toy):
        geometry, weights, scenario, metric = toy
        result = exhaustive_min(geometry, weights, scenario, metric, max_support=2)
        assert result.feasible
        assert result.min_support == 1
        assert result.support == (3,)
        assert result.achieved_phi_db <= TOY_TARGET_DB + 0.02
        assert np.all(result.delta[scenario.mask] == 0)

    def test_infeasible_up_to_limit(self, toy):
        geometry, weights, scenario, _ = toy
        hopeless = MetricSpec(region=AngularRegion(np.array(TOY_REGION)), target_db=-100.0)
        result = exhaustive_min(geometry, weights, scenario, hopeless, max_support=3)
        assert not result.feasible
        assert result.support == ()
        assert result.min_support is None
        assert result.searched_up_to == 3
        assert result.n_supports == 8  # empty set + 3 singles + 3 pairs + 1 triple
        assert result.n_certified == result.n_supports

    def test_every_rejection_of_test_case_1_is_certified(self, tc1_oracle):
        result, _ = tc1_oracle
        assert result.support == (1, 4, 16)
        assert result.n_supports == 103
        assert result.n_certified == 102  # the minimum 3 is proven

    def test_empty_support_when_target_already_met(self):
        geometry = uniform_positions(8, 0.5)
        weights = np.ones(8)
        scenario = FailureScenario(mask=np.zeros(8, dtype=bool))
        metric = MetricSpec(region=AngularRegion(np.array([-0.6, 0.6])), target_db=-3.0)
        result = exhaustive_min(geometry, weights, scenario, metric, max_support=1)
        assert result.feasible
        assert result.support == ()
        assert result.n_solves == 1

    def test_budget_exceeded(self, toy, monkeypatch):
        geometry, weights, scenario, metric = toy
        hopeless = MetricSpec(region=AngularRegion(np.array(TOY_REGION)), target_db=-100.0)
        monkeypatch.setattr(oracle, "DEFAULT_SUPPORT_CAP", 2)
        with pytest.raises(BudgetExceededError, match="more than 2 supports"):
            exhaustive_min(geometry, weights, scenario, hopeless, max_support=3)

    def test_rejects_bad_max_support(self, toy):
        geometry, weights, scenario, metric = toy
        with pytest.raises(ValueError):
            exhaustive_min(geometry, weights, scenario, metric, max_support=4)

    def test_rejects_a_scenario_of_another_length(self, toy):
        geometry, weights, _, metric = toy
        with pytest.raises(ValueError, match="scenario length"):
            exhaustive_min(geometry, weights, FailureScenario.from_indices(5, [2]), metric)

    def test_winner_is_independently_feasible(self, toy):
        geometry, weights, scenario, metric = toy
        result = exhaustive_min(geometry, weights, scenario, metric, max_support=2)
        w_faulty = weights.copy()
        w_faulty[scenario.mask] = 0
        assert evaluate_metric(metric, geometry, w_faulty + result.delta) <= TOY_TARGET_DB + 0.02


def _proof_margin(geometry, w_faulty, metric, support, lam, tau=None):
    """
    Smallest eigenvalue, less the rounding guard 4*d*m*eps, of
    P(lam) - tau*(1 + margin)*conj(h) h^T scaled by P's diagonal, for a solve
    restricted to the 0-based elements in support: g_u = (their steering
    entries, F_base(u)) and h = (1, F0_base), rebuilt from the array factor
    with numpy alone. A positive value proves that no correction on support
    meets tau, by default the metric's target.
    """
    u = metric.region.samples
    a = np.exp(2j * np.pi * np.outer(u, geometry.positions))
    cols = list(support)
    g = np.column_stack([a[:, cols], a @ w_faulty])
    h = np.append(np.ones(len(cols)), np.sum(w_faulty))
    p = (g.conj().T * lam) @ g
    tau = 10.0 ** (metric.target_db / 10.0) if tau is None else tau
    unit = 1.0 / np.sqrt(np.diag(p).real)
    scaled = (p - tau * (1.0 + _CERT_MARGIN) * np.outer(h.conj(), h)) * np.outer(unit, unit)
    return float(np.linalg.eigvalsh(scaled).min()) - 4.0 * len(h) * u.size * np.finfo(float).eps


@pytest.fixture(scope="module")
def tc1_pooled(tc1_parts):
    """test_case_1's oracle up to support 3, with each pooled rejection's subset and weights."""
    geometry, weights, scenario, metric, _ = tc1_parts
    rejections = []
    rejects = oracle._ProofPool.rejects

    def recording(pool, subset):
        lam = rejects(pool, subset)
        if lam is not None:
            rejections.append((tuple(int(i) for i in subset), lam))
        return lam

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle._ProofPool, "rejects", recording)
        result = exhaustive_min(geometry, weights, scenario, metric, max_support=3)
    return result, rejections, apply_failures(weights, scenario)


class TestProofPool:
    """exhaustive_min rejects supports with the proofs that earlier solves' errors carried."""

    def test_every_pooled_rejection_is_independently_proven(self, tc1_parts, tc1_pooled):
        geometry, _, _, metric, _ = tc1_parts
        result, rejections, w_faulty = tc1_pooled
        assert len(rejections) == result.n_supports - result.n_solves > 0
        for support, lam in rejections:
            assert np.all(lam >= 0) and np.isclose(lam.sum(), 1.0)
            assert _proof_margin(geometry, w_faulty, metric, support, lam) > 0, support

    def test_no_pooled_proof_rejects_the_winner(self, tc1_parts, tc1_pooled):
        geometry, _, _, metric, _ = tc1_parts
        result, rejections, w_faulty = tc1_pooled
        assert result.support == tuple(i + 1 for i in TC1_WINNER)
        pool = oracle._ProofPool(geometry, w_faulty, metric)
        for lam in {id(lam): lam for _, lam in rejections}.values():
            assert _proof_margin(geometry, w_faulty, metric, TC1_WINNER, lam) < 0
            pool.add(lam)
        assert pool.rejects(TC1_WINNER) is None

    def test_pool_and_solve_agree(self, tc1_parts, tc1_pooled):
        geometry, _, _, metric, _ = tc1_parts
        _, rejections, w_faulty = tc1_pooled
        for support, _ in rejections[::8]:
            mask = np.ones(geometry.n, dtype=bool)
            mask[list(support)] = False
            with pytest.raises(InfeasibleError) as err:
                solve_constrained_l1(geometry, w_faulty, metric, mask)
            assert err.value.certified, support

    def test_pool_keeps_the_certificate_margin(self, tc1_parts, tc1_pooled):
        # A target between tau*(1 - margin) and tau*(1 + margin) of where a
        # pooled proof stops proving: the pool must not reject there.
        geometry, _, _, metric, _ = tc1_parts
        _, rejections, w_faulty = tc1_pooled
        support, lam = rejections[0]
        a = np.exp(2j * np.pi * np.outer(metric.region.samples, geometry.positions))
        g = np.column_stack([a[:, list(support)], a @ w_faulty])
        h = np.append(np.ones(len(support)), np.sum(w_faulty))
        p = (g.conj().T * lam) @ g
        edge = 1.0 / np.real(h @ np.linalg.solve(p, h.conj()))     # P - edge*conj(h) h^T is singular
        for share, proven in ((0.5, False), (-1.0, True)):
            tau = edge * (1.0 + share * _CERT_MARGIN) / (1.0 + _CERT_MARGIN)
            at = MetricSpec(region=metric.region, target_db=10.0 * np.log10(tau))
            pool = oracle._ProofPool(geometry, w_faulty, at)
            pool.add(lam)
            assert (pool.rejects(support) is not None) == proven, share
            assert (_proof_margin(geometry, w_faulty, at, support, lam) > 0) == proven, share
        # the target between them is proven at tau*(1 - margin): the check discriminates
        tau = edge * (1.0 + 0.5 * _CERT_MARGIN) / (1.0 + _CERT_MARGIN)
        flipped = tau * (1.0 - _CERT_MARGIN) / (1.0 + _CERT_MARGIN)
        assert _proof_margin(geometry, w_faulty, metric, support, lam, tau=flipped) > 0
