import numpy as np
import pytest

from arraymend import (
    AngularRegion,
    BudgetExceededError,
    FailureScenario,
    MetricSpec,
    evaluate_metric,
    exhaustive_min,
    uniform_positions,
)
from conftest import TOY_REGION, TOY_TARGET_DB, TOY_WEIGHTS


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
        assert result.n_solves == 8  # empty set + 3 singles + 3 pairs + 1 triple
        assert result.n_certified == result.n_solves

    def test_every_rejection_of_test_case_1_is_certified(self, tc1_oracle):
        result, _ = tc1_oracle
        assert result.support == (1, 4, 16)
        assert result.n_solves == 103
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

    def test_budget_exceeded(self, toy):
        geometry, weights, scenario, metric = toy
        hopeless = MetricSpec(region=AngularRegion(np.array(TOY_REGION)), target_db=-100.0)
        with pytest.raises(BudgetExceededError):
            exhaustive_min(geometry, weights, scenario, hopeless, max_support=3, max_solves=2)

    def test_rejects_bad_max_support(self, toy):
        geometry, weights, scenario, metric = toy
        with pytest.raises(ValueError):
            exhaustive_min(geometry, weights, scenario, metric, max_support=4)

    def test_winner_is_independently_feasible(self, toy):
        geometry, weights, scenario, metric = toy
        result = exhaustive_min(geometry, weights, scenario, metric, max_support=2)
        w_faulty = weights.copy()
        w_faulty[scenario.mask] = 0
        assert evaluate_metric(metric, geometry, w_faulty + result.delta) <= TOY_TARGET_DB + 0.02
