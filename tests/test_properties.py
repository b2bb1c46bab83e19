"""Invariant and randomized-instance checks (seeded, deterministic)."""

import numpy as np
import pytest

from arraymend import (
    AngularRegion,
    beamwidth,
    dolph_chebyshev,
    dynamic_range,
    max_sll,
    pattern_db,
    sidelobe_region,
    steering_matrix,
    uniform_positions,
)
from conftest import check_trace_invariants


class TestPatternAlgebra:
    def test_factor_linear_in_weights(self):
        rng = np.random.default_rng(11)
        g = uniform_positions(9, 0.5)
        for _ in range(20):
            w1 = rng.normal(size=9) + 1j * rng.normal(size=9)
            w2 = rng.normal(size=9) + 1j * rng.normal(size=9)
            c = complex(rng.normal(), rng.normal())
            a = steering_matrix(g, [float(rng.uniform(-1, 1))])
            lhs = (a @ (w1 + w2))[0]
            rhs = (a @ w1)[0] + (a @ w2)[0]
            assert lhs == pytest.approx(rhs, abs=1e-10)
            assert (a @ (c * w1))[0] == pytest.approx(c * (a @ w1)[0], abs=1e-10)

    def test_sll_scale_invariant(self):
        rng = np.random.default_rng(12)
        g = uniform_positions(7, 0.5)
        for _ in range(20):
            w = rng.normal(size=7) + 1j * rng.normal(size=7)
            if abs(np.sum(w)) < 1e-6:
                continue
            c = complex(rng.normal(), rng.normal())
            if abs(c) < 1e-6:
                continue
            u = [float(rng.uniform(-1, 1))]
            assert pattern_db(g, c * w, u)[0] == pytest.approx(pattern_db(g, w, u)[0], abs=1e-9)

    def test_symmetric_weights_even_pattern(self):
        rng = np.random.default_rng(13)
        g = uniform_positions(10, 0.5)
        half = rng.uniform(0.2, 1.0, size=5)
        w = np.concatenate([half, half[::-1]])
        u = rng.uniform(0, 1, size=40)
        assert np.allclose(pattern_db(g, w, u), pattern_db(g, w, -u), atol=1e-9)

    def test_beamwidth_monotone_in_threshold(self):
        g = uniform_positions(16, 0.5)
        w = dolph_chebyshev(16, -15.0)
        widths = [beamwidth(g, w, t) for t in (-1.0, -3.01, -9.0, -15.0)]
        assert widths == sorted(widths)

    def test_max_sll_monotone_in_region(self):
        rng = np.random.default_rng(14)
        g = uniform_positions(12, 0.5)
        w = dolph_chebyshev(12, -22.0)
        big = sidelobe_region(12.0, 801)
        for _ in range(10):
            keep = rng.random(big.size) < 0.4
            if not keep.any():
                continue
            small = AngularRegion(big.samples[keep])
            assert max_sll(g, w, small) <= max_sll(g, w, big) + 1e-12

    def test_dynamic_range_at_least_one(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            w = rng.normal(size=8) + 1j * rng.normal(size=8)
            assert dynamic_range(w) >= 1.0


class TestTaperConsistency:
    @pytest.mark.parametrize("n", [8, 16, 25, 50, 100])
    def test_design_level_is_realized(self, n):
        g = uniform_positions(n, 0.5)
        w = dolph_chebyshev(n, -25.0 if n >= 25 else -15.0)
        design = -25.0 if n >= 25 else -15.0
        bw = beamwidth(g, w, design)
        measured = max_sll(g, w, sidelobe_region(bw, 8001))
        assert measured == pytest.approx(design, abs=0.05)


class TestDominance:
    def test_oracle_never_beaten(self, dominance_results):
        assert len(dominance_results) == 20
        feasible = [r for r in dominance_results if r["feasible"]]
        assert feasible, "all randomized instances were infeasible; generator is broken"
        for r in feasible:
            assert r["oracle_feasible"], f"oracle missed a solution for {r['instance']}"
            assert r["oracle_min"] <= r["n_corrections"], r["instance"]

    def test_infeasible_instances_agree(self, dominance_results):
        for r in dominance_results:
            if not r["feasible"]:
                assert not r["oracle_feasible"], (
                    f"{r['instance']}: correction loop said infeasible, oracle disagreed")

    def test_loop_invariants_hold(self, dominance_results):
        for r in dominance_results:
            if r["feasible"]:
                check_trace_invariants(r["result"], r["metric"], r["geometry"],
                                       _scenario_of(r), r["w_faulty"])


def _scenario_of(entry):
    from arraymend import FailureScenario
    n, _, faults = entry["instance"]
    return FailureScenario.from_indices(n, list(faults))
