"""Pattern-model unit tests. dB anchors are checked against independent
brute-force evaluations computed inside the tests."""

import sys
import threading

import numpy as np
import pytest

from arraymend import (
    AngularRegion,
    ArrayGeometry,
    DegenerateBroadsideError,
    FailureScenario,
    MetricSpec,
    NoMainlobeError,
    apply_failures,
    beamwidth,
    dolph_chebyshev,
    dynamic_range,
    evaluate_metric,
    max_sll,
    model,
    pattern_db,
    sidelobe_region,
    solve_constrained_l1,
    steering_matrix,
    uniform_grid,
    uniform_positions,
)
from arraymend.bench import ScenarioSpec, resolve_scenario
from arraymend.model import _mainlobe_width
from conftest import SCENARIO_DIR, load_spec


def brute_factor(positions, weights, u):
    """Independent array-factor oracle: plain complex summation."""
    total = 0j
    for x, w in zip(positions, weights):
        total += w * np.exp(2j * np.pi * x * u)
    return total


class TestGeometry:
    def test_two_elements_symmetric(self):
        g = uniform_positions(2, 0.5)
        assert np.allclose(g.positions, [-0.25, 0.25])

    def test_four_elements(self):
        g = uniform_positions(4, 0.5)
        assert np.allclose(g.positions, [-0.75, -0.25, 0.25, 0.75])

    def test_odd_count_center_at_zero(self):
        g = uniform_positions(3, 0.5)
        assert g.positions[1] == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            uniform_positions(1, 0.5)
        with pytest.raises(ValueError):
            uniform_positions(8, 0.0)
        with pytest.raises(ValueError):
            ArrayGeometry(positions=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="at least 2"):
            ArrayGeometry(positions=np.array([0.0]))


class TestArrayFactor:
    # The far field F(u) = sum_n w_n exp(j*2*pi*x_n*u) is steering_matrix(g, u) @ w.
    def test_broadside_sums_weights(self):
        g = uniform_positions(2, 0.5)
        assert (steering_matrix(g, [0.0]) @ np.array([1.0, 1.0]))[0] == pytest.approx(2.0 + 0j)

    def test_corrected_toy_magnitude(self):
        # oracle: direct summation of the corrected toy excitations
        g = uniform_positions(4, 0.5)
        w = np.array([1.0, 0.0, 1.509, 1.0])
        expected = brute_factor(g.positions, w, 0.7)
        got, broadside = steering_matrix(g, [0.7, 0.0]) @ w
        assert got == pytest.approx(expected, abs=1e-12)
        assert abs(got) == pytest.approx(1.8635, abs=1e-3)
        assert abs(broadside) == pytest.approx(3.509)

    def test_conjugate_symmetry_real_weights(self):
        g = uniform_positions(5, 0.5)
        w = np.array([0.4, 0.8, 1.0, 0.8, 0.4])
        for u in (0.13, 0.71):
            minus, plus = steering_matrix(g, [-u, u]) @ w
            assert minus == pytest.approx(np.conj(plus))

    def test_length_mismatch(self):
        g = uniform_positions(4, 0.5)
        with pytest.raises(ValueError):
            pattern_db(g, [1.0, 1.0], [0.3])

    @pytest.mark.parametrize("weights, named", [
        ([[1.0, 0.5, 0.5, 1.0]], "1-D"),
        ([1.0, np.nan, 0.5, 1.0], "finite"),
        ([1.0, 0.5, np.inf, 1.0], "finite"),
    ])
    def test_rejects_malformed_excitations(self, weights, named):
        with pytest.raises(ValueError, match=named):
            pattern_db(uniform_positions(4, 0.5), weights, [0.3])


class TestLevels:
    def test_broadside_is_zero_db(self):
        g = uniform_positions(8, 0.5)
        assert pattern_db(g, np.ones(8), [0.0])[0] == 0.0

    def test_toy_corrected_level(self):
        g = uniform_positions(4, 0.5)
        assert pattern_db(g, [1.0, 0.0, 1.509, 1.0], [0.7])[0] == pytest.approx(-5.5, abs=0.05)

    def test_uniform8_first_sidelobe(self):
        # oracle: dense scan of the independent summation outside the first null
        g = uniform_positions(8, 0.5)
        w = np.ones(8)
        u = np.linspace(2.0 / 8 + 1e-3, 1.0, 20000)
        level = 20 * np.log10(np.abs(brute_factor(g.positions, w, u)) / 8.0)
        peak = float(level.max())
        assert peak == pytest.approx(-12.797, abs=5e-3)
        assert max_sll(g, w, AngularRegion(u)) == pytest.approx(peak, abs=1e-9)

    def test_degenerate_broadside(self):
        g = uniform_positions(2, 0.5)
        with pytest.raises(DegenerateBroadsideError):
            pattern_db(g, [1.0, -1.0], [0.3])

    def test_max_sll_toy_initial_correction(self):
        g = uniform_positions(4, 0.5)
        w_faulty = [1.0, 0.0, 0.419, 1.0]
        delta = [-0.438, 0.0, 0.593, -9.72e-6]
        region = AngularRegion(np.array([-0.7, -0.5, 0.5, 0.7]))
        corrected = np.asarray(w_faulty) + np.asarray(delta)
        assert max_sll(g, corrected, region) == pytest.approx(-5.5, abs=0.05)

    def test_max_sll_symmetric_region(self):
        g = uniform_positions(6, 0.5)
        w = dolph_chebyshev(6, -20.0)
        assert max_sll(g, w, AngularRegion(np.array([0.5]))) == pytest.approx(
            max_sll(g, w, AngularRegion(np.array([-0.5]))))

    def test_empty_region_rejected(self):
        g = uniform_positions(6, 0.5)
        with pytest.raises(ValueError):
            max_sll(g, np.ones(6), AngularRegion(np.array([])))

    def test_zero_pattern_hits_floor(self):
        # two-element pair has a null at u = 1.0; level clamps to the floor
        g = uniform_positions(2, 0.5)
        w = np.array([1.0, 1.0])
        assert abs((steering_matrix(g, [1.0]) @ w)[0]) < 1e-12
        assert pattern_db(g, w, [1.0])[0] == -300.0
        assert max_sll(g, w, AngularRegion(np.array([1.0]))) == -300.0


class TestBeamwidth:
    def test_dc16_reference_width(self):
        g = uniform_positions(16, 0.5)
        w = dolph_chebyshev(16, -15.0)
        assert beamwidth(g, w, -15.0) == pytest.approx(11.70, abs=0.05)

    def test_dc16_faulty_width(self):
        g = uniform_positions(16, 0.5)
        w = apply_failures(dolph_chebyshev(16, -15.0), FailureScenario.from_indices(16, [2, 3, 9]))
        assert beamwidth(g, w, -15.0) == pytest.approx(11.83, abs=0.05)

    def test_dc13_reference_width(self):
        g = uniform_positions(13, 0.5)
        w = dolph_chebyshev(13, -15.0)
        assert beamwidth(g, w, -15.0) == pytest.approx(14.6, abs=0.1)

    def test_hpbw_uniform_100(self):
        # dense-grid value, consistent with the classical 0.886 lambda/(N d) width
        g = uniform_positions(100, 0.5)
        got = beamwidth(g, np.ones(100), -3.01)
        assert got == pytest.approx(1.0147, abs=0.01)
        classical = np.rad2deg(0.886 / 50.0)
        assert got == pytest.approx(classical, abs=0.02)

    def test_hpbw_within_wider_threshold(self):
        g = uniform_positions(16, 0.5)
        w = dolph_chebyshev(16, -15.0)
        assert beamwidth(g, w, -3.01) <= beamwidth(g, w, -15.0)

    def test_scaling_invariance(self):
        g = uniform_positions(12, 0.5)
        w = dolph_chebyshev(12, -18.0)
        assert beamwidth(g, w, -3.01) == pytest.approx(beamwidth(g, 3.7j * w, -3.01))

    def test_no_mainlobe_when_grid_misses_it(self):
        g = uniform_positions(16, 0.5)
        w = dolph_chebyshev(16, -15.0)
        u = np.linspace(0.4, 0.9, 101)
        with pytest.raises(NoMainlobeError):
            _mainlobe_width(u, pattern_db(g, w, u), -3.01)

    def test_window_gives_the_whole_grid_width(self, monkeypatch):
        # beamwidth evaluates the pattern on a window around broadside, grown
        # until both crossings are inside it. The width must be the whole
        # grid's, exactly: on every catalog scenario's reference taper (as
        # default_bw_target measures it), on the toy at its target, and on the
        # toy at -200 dB, whose window grows to the whole grid.
        grid = uniform_grid()
        cases = []
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            spec = ScenarioSpec.from_file(path)
            if isinstance(spec.taper, dict) and "dolph_chebyshev" in spec.taper:
                n, sll = spec.n_elements - len(spec.faulty_indices), spec.taper["dolph_chebyshev"]["sll_db"]
                cases.append((uniform_positions(n, spec.spacing_wavelengths), dolph_chebyshev(n, sll), sll))
        assert len(cases) == 23
        toy = resolve_scenario(load_spec("toy"))
        cases += [(toy.geometry, toy.weights, toy.metric.target_db), (toy.geometry, toy.weights, -200.0)]
        windows = []
        evaluate = model.pattern_db

        def counted(geometry, weights, u):
            windows.append(np.size(u))
            return evaluate(geometry, weights, u)

        for geometry, weights, threshold in cases:
            monkeypatch.setattr(model, "pattern_db", counted)
            windows.clear()
            width = beamwidth(geometry, weights, threshold)
            monkeypatch.undo()
            assert max(windows) < grid.size or threshold == -200.0
            assert width == _mainlobe_width(grid, pattern_db(geometry, weights, grid), threshold)
        assert windows[-1] == grid.size

    def test_threshold_is_checked_before_the_pattern(self):
        # [1, -1] is zero at broadside, so building its pattern would raise
        # DegenerateBroadsideError (itself a ValueError) first.
        g = uniform_positions(2, 0.5)
        for threshold in (0.0, 3.0):
            with pytest.raises(ValueError, match="threshold must be negative") as raised:
                beamwidth(g, [1.0, -1.0], threshold)
            assert raised.type is ValueError


class TestDynamicRange:
    def test_uniform_is_one(self):
        assert dynamic_range(np.ones(10)) == 1.0

    def test_dc50_reference(self):
        assert dynamic_range(dolph_chebyshev(50, -25.0)) == pytest.approx(3.86, abs=0.05)

    def test_skips_failed_elements(self):
        w = np.array([1.0, 0.0, 2.0, 2.0])
        assert dynamic_range(w) == 1.0  # only the (2, 2) pair is active-adjacent

    def test_no_adjacent_pair(self):
        assert dynamic_range(np.array([1.0, 0.0, 5.0])) == 1.0

    def test_needs_two_active(self):
        with pytest.raises(ValueError):
            dynamic_range(np.array([0.0, 3.0, 0.0]))

    def test_never_below_one(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            w = rng.normal(size=9) + 1j * rng.normal(size=9)
            assert dynamic_range(w) >= 1.0

    def test_does_not_depend_on_the_units(self):
        # a dead element is one at or below ZERO_THRESHOLD of the largest
        w = dolph_chebyshev(50, -25.0)
        assert dynamic_range(w * 2.0 ** -60) == dynamic_range(w)


class TestSidelobeRegion:
    def test_full_exclusion_rejected(self):
        with pytest.raises(ValueError, match="beamwidth target"):
            sidelobe_region(180.0, 101)

    def test_widest_exclusion_keeps_the_grid_ends(self):
        # sin(bw/2) <= 1 for bw below 180 degrees, and the grid's ends are exactly -1 and 1
        region = sidelobe_region(np.nextafter(180.0, 0.0), 101)
        assert region.samples.tolist() == [-1.0, 1.0]

    def test_tc1_exclusion_edge(self):
        region = sidelobe_region(14.6, 2001)
        edge = np.sin(np.deg2rad(14.6 / 2))
        assert edge == pytest.approx(0.1271, abs=5e-4)
        assert np.min(np.abs(region.samples)) >= edge
        assert np.min(np.abs(region.samples)) < edge + 2.0 / 2000

    def test_symmetric(self):
        region = sidelobe_region(10.0, 1001)
        assert set(np.round(-region.samples, 12)) == set(np.round(region.samples, 12))

    def test_region_monotone_max(self):
        g = uniform_positions(16, 0.5)
        w = dolph_chebyshev(16, -15.0)
        wide = sidelobe_region(11.7, 2001)
        narrow = AngularRegion(wide.samples[np.abs(wide.samples) > 0.4])
        assert max_sll(g, w, narrow) <= max_sll(g, w, wide) + 1e-12

    def test_rejects_non_finite_samples(self):
        for bad in ([np.nan, 0.5], [0.2, np.inf], [-np.inf], [np.nan]):
            with pytest.raises(ValueError):
                AngularRegion(np.array(bad))


def phasors(geometry, u):
    return np.exp(2j * np.pi * np.outer(u, geometry.positions))


class TestSteeringMemo:
    def test_region_samples_share_one_readonly_matrix(self):
        g = uniform_positions(12, 0.5)
        region = sidelobe_region(20.0, 401)
        first = steering_matrix(g, region.samples)
        assert steering_matrix(g, region.samples) is first
        assert not first.flags.writeable
        assert np.array_equal(first, phasors(g, region.samples))

    def test_writeable_u_is_built_fresh(self):
        g = uniform_positions(5, 0.5)
        u = np.linspace(-1.0, 1.0, 9)
        first = steering_matrix(g, u)
        u[2] = 0.123
        second = steering_matrix(g, u)
        assert second is not first and second.flags.writeable
        assert np.array_equal(second, phasors(g, u))

    def test_readonly_view_of_writeable_data_is_built_fresh(self):
        g = uniform_positions(5, 0.5)
        u = np.linspace(-1.0, 1.0, 9)
        view = u[:]
        view.flags.writeable = False
        steering_matrix(g, view)
        u[2] = 0.123
        assert np.array_equal(steering_matrix(g, view), phasors(g, u))

    def test_alternating_regions_never_swap(self):
        g = uniform_positions(12, 0.5)
        other = uniform_positions(12, 0.6)
        regions = [sidelobe_region(20.0, 401), sidelobe_region(30.0, 401),
                   AngularRegion(np.array([-0.7, 0.5])), AngularRegion(np.array([-0.6, 0.4]))]
        for _ in range(3):
            for region in regions:
                for geometry in (g, other):
                    assert np.array_equal(steering_matrix(geometry, region.samples),
                                          phasors(geometry, region.samples))

    def test_threads_sharing_a_geometry_get_their_own_region(self):
        g = uniform_positions(8, 0.5)
        regions = [AngularRegion(np.array([-0.7, 0.5])), AngularRegion(np.array([-0.6, 0.4]))]
        expected = [phasors(g, r.samples) for r in regions]
        wrong = []

        def work(k):
            for i in range(2000):
                which = (i + k) % 2
                if not np.array_equal(steering_matrix(g, regions[which].samples), expected[which]):
                    wrong.append((k, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []


class TestSteeringBuild:
    def test_matches_the_exponential_form(self):
        # The matrix is built as cos and sin of the phase, written into its two
        # parts; it must stay the phasors exp(j*2*pi*x*u) to within 2 ulps, on
        # every catalog scenario's region, the metric grid and random samples.
        rng = np.random.default_rng(72)
        cases = []
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            res = resolve_scenario(ScenarioSpec.from_file(path))
            cases += [(res.geometry, res.metric.region.samples), (res.geometry, uniform_grid(4001))]
        cases += [(uniform_positions(n, d), rng.uniform(-1.0, 1.0, 777)) for n, d in ((20, 0.5), (100, 0.45))]
        for geometry, u in cases:
            got, ref = steering_matrix(geometry, u), phasors(geometry, u)
            np.testing.assert_array_max_ulp(got.real, ref.real, maxulp=2)
            np.testing.assert_array_max_ulp(got.imag, ref.imag, maxulp=2)


class TestMetricLevel:
    def test_largest_ratio_converted_alone_is_the_largest_level(self):
        # evaluate_metric converts only the largest power ratio to dB; it must
        # equal the largest level of pattern_db exactly, on every catalog
        # scenario's faulty excitations and its first solve's corrected ones.
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            res = resolve_scenario(ScenarioSpec.from_file(path))
            w_faulty = apply_failures(res.weights, res.scenario)
            delta = solve_constrained_l1(res.geometry, w_faulty, res.metric, res.scenario.mask,
                                         config=res.config)
            for w in (w_faulty, w_faulty + delta):
                level = float(np.max(pattern_db(res.geometry, w, res.metric.region.samples)))
                assert evaluate_metric(res.metric, res.geometry, w) == level


class TestScenarioAndMetric:
    def test_from_indices(self):
        sc = FailureScenario.from_indices(7, [3])
        assert sc.n_failed == 1
        assert sc.n_controllable == 6
        assert sc.faulty_indices() == [3]
        assert np.array_equal(sc.admissible, ~sc.mask)

    def test_rejects_no_working_elements(self):
        with pytest.raises(ValueError):
            FailureScenario.from_indices(2, [1, 2])

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            FailureScenario.from_indices(4, [0])
        with pytest.raises(ValueError):
            FailureScenario.from_indices(4, [2, 2])

    def test_integer_mask_becomes_a_bool_mask(self):
        sc = FailureScenario(mask=[0, 1, 0])
        assert sc.mask.dtype == bool
        assert sc.mask.tolist() == [False, True, False]
        assert not sc.mask.flags.writeable

    def test_rejects_a_2d_mask(self):
        with pytest.raises(ValueError, match="1-D"):
            FailureScenario(mask=np.zeros((2, 2), dtype=bool))

    def test_rejects_integer_mask_entries_other_than_0_and_1(self):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            FailureScenario(mask=[0, 2, 0])

    def test_metric_validation(self):
        region = AngularRegion(np.array([0.5]))
        with pytest.raises(ValueError):
            MetricSpec(region=region, target_db=np.inf)

    def test_grid_contains_zero(self):
        assert 0.0 in uniform_grid(4001)

    def test_pattern_db_normalized(self):
        g = uniform_positions(9, 0.5)
        w = dolph_chebyshev(9, -22.0)
        p = pattern_db(g, w, np.array([0.0, 0.4]))
        assert p[0] == pytest.approx(0.0, abs=1e-12)
        assert p[1] < 0.0
