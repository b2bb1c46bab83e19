import numpy as np
import pytest

from arraymend import (
    FailureScenario,
    apply_failures,
    beamwidth,
    dolph_chebyshev,
    dynamic_range,
    max_sll,
    sidelobe_region,
    uniform_positions,
)


def measured_peak_sidelobe(n, sll_db):
    """Max pattern level outside the design mainlobe, on a dense grid."""
    g = uniform_positions(n, 0.5)
    w = dolph_chebyshev(n, sll_db)
    bw = beamwidth(g, w, sll_db)
    return max_sll(g, w, sidelobe_region(bw, 8001))


class TestDolphChebyshev:
    def test_reference_16(self):
        assert measured_peak_sidelobe(16, -15.0) == pytest.approx(-15.0, abs=0.05)
        g = uniform_positions(16, 0.5)
        assert beamwidth(g, dolph_chebyshev(16, -15.0), -15.0) == pytest.approx(11.70, abs=0.05)

    def test_reference_50_dynamic_range(self):
        assert dynamic_range(dolph_chebyshev(50, -25.0)) == pytest.approx(3.86, abs=0.05)

    @pytest.mark.parametrize("n", [8, 25, 100])
    def test_self_consistency(self, n):
        assert measured_peak_sidelobe(n, -15.0) == pytest.approx(-15.0, abs=0.05)

    def test_large_array_stability(self):
        # the DFT-based synthesis must not degrade at hundreds of elements
        assert measured_peak_sidelobe(500, -25.0) == pytest.approx(-25.0, abs=0.05)

    @pytest.mark.parametrize("n", [7, 16, 33, 50])
    def test_exact_symmetry(self, n):
        w = dolph_chebyshev(n, -20.0)
        assert np.array_equal(w, w[::-1])
        assert np.max(w.real) == pytest.approx(1.0)
        assert np.all(w.real > 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            dolph_chebyshev(2, -20.0)
        with pytest.raises(ValueError):
            dolph_chebyshev(16, 3.0)


class TestApplyFailures:
    def test_illustrative_seven(self):
        w = np.array([1, 2, 3, 4, 3, 2, 1], dtype=float)
        sc = FailureScenario.from_indices(7, [3])
        assert np.array_equal(apply_failures(w, sc).real, [1, 2, 0, 4, 3, 2, 1])

    def test_no_failures_identity(self):
        w = np.array([1.0, 2.0, 3.0])
        sc = FailureScenario(mask=np.zeros(3, dtype=bool))
        assert np.array_equal(apply_failures(w, sc), w)

    def test_idempotent(self):
        w = np.array([1, 2, 3, 4, 3, 2, 1], dtype=float)
        sc = FailureScenario.from_indices(7, [2, 5])
        once = apply_failures(w, sc)
        assert np.array_equal(apply_failures(once, sc), once)


class TestCorrectedWeights:
    # The corrected excitations are apply_failures(w, scenario) + delta, as
    # the runners compose them.
    def test_toy_composition(self):
        sc = FailureScenario.from_indices(4, [2])
        delta = np.array([0.0, 0.0, 1.09, 0.0])
        corrected = apply_failures([1.0, 0.419, 0.419, 1.0], sc) + delta
        assert np.allclose(corrected.real, [1.0, 0.0, 1.509, 1.0])

    def test_zero_delta(self):
        sc = FailureScenario.from_indices(4, [2])
        w_faulty = np.array([1.0, 0.0, 0.419, 1.0])
        assert np.array_equal(apply_failures([1.0, 0.419, 0.419, 1.0], sc) + np.zeros(4), w_faulty)

    def test_restores_working_elements(self):
        w = dolph_chebyshev(9, -17.0)
        sc = FailureScenario.from_indices(9, [4, 7])
        w_faulty = apply_failures(w, sc)
        delta = np.where(sc.mask, 0.0, w - w_faulty)
        restored = w_faulty + delta
        assert np.allclose(restored[~sc.mask], w[~sc.mask])
        assert np.all(restored[sc.mask] == 0)
