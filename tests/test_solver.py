import dataclasses
import itertools

import numpy as np
import pytest

from arraymend import (
    AngularRegion,
    ArrayGeometry,
    FailureScenario,
    InfeasibleError,
    MetricSpec,
    SolverConfig,
    apply_failures,
    dolph_chebyshev,
    evaluate_metric,
    l0_norm,
    l1_norm,
    sidelobe_region,
    solve_constrained_l1,
    uniform_positions,
)
from arraymend.bench import ScenarioSpec, default_bw_target, resolve_scenario
from arraymend.solver import (
    _BARRIER_START,
    _MIN_STEP,
    _SMOOTH_START,
    _STAGE_STEPS,
    ZERO_THRESHOLD,
    _certificate,
    _feasibility_phase,
    _Landscape,
    _newton_stage,
    _stage_fun,
    _stage_hessian,
    _violation,
)
from conftest import load_spec

INITIAL_SOLVE_REF = np.array([-0.438, 0.0, 0.593, -9.72e-6])


@pytest.fixture
def toy():
    geometry = uniform_positions(4, 0.5)
    w_faulty = apply_failures(np.array([1.0, 0.419, 0.419, 1.0]),
                              FailureScenario.from_indices(4, [2]))
    metric = MetricSpec(region=AngularRegion(np.array([-0.7, -0.5, 0.5, 0.7])), target_db=-5.5)
    mask = np.array([False, True, False, False])
    return geometry, w_faulty, metric, mask


class TestNorms:
    def test_l1_single_entry(self):
        assert l1_norm([0.0, 0.0, 1.09, 0.0]) == pytest.approx(1.09)

    def test_l1_initial_solution(self):
        assert l1_norm(INITIAL_SOLVE_REF) == pytest.approx(1.031, abs=0.005)

    def test_l1_zero(self):
        assert l1_norm(np.zeros(5)) == 0.0

    def test_l0_counts_tiny_entries(self):
        assert l0_norm(INITIAL_SOLVE_REF, 1e-12) == 3

    def test_l0_threshold_arithmetic(self):
        assert l0_norm(INITIAL_SOLVE_REF, 1e-5) == 2
        assert l0_norm(np.zeros(4), 1e-12) == 0

    def test_l0_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            l0_norm(INITIAL_SOLVE_REF, -1.0)


class TestSolveToy:
    def test_reproduces_initial_solution(self, toy):
        geometry, w_faulty, metric, mask = toy
        delta = solve_constrained_l1(geometry, w_faulty, metric, mask)
        assert delta[1] == 0.0
        assert abs(delta[0] - (-0.438)) < 0.02
        assert abs(delta[2] - 0.593) < 0.02
        assert l1_norm(delta) == pytest.approx(1.031, abs=0.02)
        assert evaluate_metric(metric, geometry, w_faulty + delta) <= -5.5 + 0.02
        assert l0_norm(delta, 1e-12) == 3  # the fourth entry stays tiny but nonzero

    def test_zero_is_returned_when_admissible(self, toy):
        geometry, w_faulty, _, mask = toy
        loose = MetricSpec(region=AngularRegion(np.array([-0.7, -0.5, 0.5, 0.7])), target_db=-1.0)
        delta = solve_constrained_l1(geometry, w_faulty, loose, mask)
        assert np.all(delta == 0)

    def test_unreachable_target_is_infeasible(self, toy):
        geometry, w_faulty, _, mask = toy
        hopeless = MetricSpec(region=AngularRegion(np.array([-0.7, -0.5, 0.5, 0.7])), target_db=-100.0)
        with pytest.raises(InfeasibleError, match="^certified") as info:
            solve_constrained_l1(geometry, w_faulty, hopeless, mask)
        assert info.value.certified

    def test_single_free_element_resolve(self, toy):
        geometry, w_faulty, metric, _ = toy
        mask = np.array([True, True, False, True])
        start = np.array([0.0, 0.0, 0.593, 0.0], dtype=complex)
        delta = solve_constrained_l1(geometry, w_faulty, metric, mask, start=start)
        assert abs(delta[2] - 1.09) < 0.02
        assert delta[0] == 0.0 and delta[1] == 0.0 and delta[3] == 0.0
        assert evaluate_metric(metric, geometry, w_faulty + delta) == pytest.approx(-5.5, abs=0.05)

    def test_masked_entries_exactly_zero(self, toy):
        geometry, w_faulty, metric, mask = toy
        delta = solve_constrained_l1(geometry, w_faulty, metric, mask)
        assert delta[mask].tolist() == [0.0]

    def test_deterministic(self, toy):
        geometry, w_faulty, metric, mask = toy
        a = solve_constrained_l1(geometry, w_faulty, metric, mask)
        b = solve_constrained_l1(geometry, w_faulty, metric, mask)
        assert np.array_equal(a, b)

    def test_feasible_start_never_worsens(self, toy):
        geometry, w_faulty, metric, mask = toy
        start = np.array([-0.438, 0.0, 0.593, 0.0], dtype=complex)  # already feasible
        delta = solve_constrained_l1(geometry, w_faulty, metric, mask, start=start)
        assert l1_norm(delta) <= l1_norm(start) + 1e-9

    def test_rejects_start_violating_mask(self, toy):
        geometry, w_faulty, metric, mask = toy
        start = np.array([0.0, 0.5, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            solve_constrained_l1(geometry, w_faulty, metric, mask, start=start)

    def test_rejects_wrong_mask_length(self, toy):
        geometry, w_faulty, metric, _ = toy
        with pytest.raises(ValueError):
            solve_constrained_l1(geometry, w_faulty, metric, np.array([True, False]))

    def test_all_masked_infeasible(self, toy):
        geometry, w_faulty, metric, _ = toy
        with pytest.raises(InfeasibleError) as info:
            solve_constrained_l1(geometry, w_faulty, metric, np.ones(4, dtype=bool))
        assert info.value.certified       # nothing to solve for: the exact zero check


class TestSolverConfig:
    def test_defaults_positive(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["constraint_tol_db"]
        assert SolverConfig().constraint_tol_db == pytest.approx(0.02)
        assert ZERO_THRESHOLD == 1e-12

    def test_overrides(self):
        cfg = dataclasses.replace(SolverConfig(), constraint_tol_db=0.05)
        assert cfg.constraint_tol_db == 0.05
        assert SolverConfig().constraint_tol_db == pytest.approx(0.02)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -0.5, np.nan, np.inf, -np.inf, "abc", None, True):
            with pytest.raises(ValueError, match="constraint_tol_db"):
                SolverConfig(constraint_tol_db=bad)


# The gradient and Hessian formulas as first written, with explicit conjugate
# copies of the steering matrix and an explicit broadside block; the solver's
# kernels must agree with them.

def reference_violation_grad(land, z, push=1e-6):
    f, f0 = land.fields(z)
    p0 = abs(f0) ** 2
    tau = land.tau * (1.0 - push)
    q = np.abs(f) ** 2
    r = q / (tau * p0) - 1.0
    hinge = np.maximum(r, 0.0)
    c = 2.0 * hinge / (tau * p0)
    gamma = float(np.sum(c * q)) / p0
    return 2.0 * (land.A.conj().T @ (c * f)) - 2.0 * gamma * f0


def reference_stage_grad(land, z, t, mu):
    tau = land.tau
    f0 = land.F0_base + np.sum(z)
    f = land.F_base + land.A @ z
    b = tau * abs(f0) ** 2 - np.abs(f) ** 2
    s = np.sqrt(np.abs(z) ** 2 + mu * mu)
    c = 1.0 / b
    return z / s + (2.0 * (land.A.conj().T @ (c * f)) - tau * float(np.sum(c)) * 2.0 * f0) / t


def reference_stage_hessian(land, z, t, mu):
    nfree = z.size
    tau = land.tau
    f0 = land.F0_base + np.sum(z)
    f = land.F_base + land.A @ z
    q = np.abs(f) ** 2
    b = tau * abs(f0) ** 2 - q
    s = np.sqrt(np.abs(z) ** 2 + mu * mu)
    inv_s = 1.0 / s
    a_re, a_im = z.real, z.imag
    h = np.zeros((2 * nfree, 2 * nfree))
    i = np.arange(nfree)
    h[i, i] = inv_s - a_re * a_re * inv_s ** 3
    h[nfree + i, nfree + i] = inv_s - a_im * a_im * inv_s ** 3
    h[i, nfree + i] = h[nfree + i, i] = -a_re * a_im * inv_s ** 3
    c = 1.0 / b
    csum = float(np.sum(c))
    p = land.A.conj().T @ (land.A * c[:, None])
    h += 2.0 * np.block([[p.real, -p.imag], [p.imag, p.real]]) / t
    gb = 2.0 * f[:, None] * np.conj(land.A) - 2.0 * tau * f0
    v = np.concatenate([gb.real, gb.imag], axis=1)
    h += (v * (c ** 2)[:, None]).T @ v / t
    ones = np.ones(nfree)
    jblock = np.zeros((2 * nfree, 2 * nfree))
    jblock[:nfree, :nfree] = np.outer(ones, ones)
    jblock[nfree:, nfree:] = np.outer(ones, ones)
    h -= 2.0 * tau * csum * jblock / t
    return h


def _toy_problem():
    geometry = uniform_positions(4, 0.5)
    w_faulty = apply_failures(np.array([1.0, 0.419, 0.419, 1.0]),
                              FailureScenario.from_indices(4, [2]))
    region = AngularRegion(np.array([-0.7, -0.5, 0.5, 0.7]))
    free = np.array([True, False, True, True])
    z = np.array([-0.3 + 0.05j, 0.4 - 0.02j, 0.01 + 0.03j])
    return geometry, w_faulty, region, free, z


def _jittered_positions(n, seed=5):
    """Half-wavelength positions moved by up to 0.05 wavelengths: not a lattice."""
    jitter = np.random.default_rng(seed).uniform(-0.05, 0.05, n)
    return ArrayGeometry(uniform_positions(n, 0.5).positions + jitter)


def _seeded_problem(geometry=None):
    rng = np.random.default_rng(20)
    geometry = uniform_positions(20, 0.5) if geometry is None else geometry
    scenario = FailureScenario.from_indices(20, [3, 11, 12])
    w_faulty = apply_failures(dolph_chebyshev(20, -25.0), scenario)
    region = sidelobe_region(16.0, 401)
    free = scenario.admissible.copy()
    free[[0, 7, 15]] = False                    # frozen working elements
    z = 0.05 * (rng.standard_normal(free.sum()) + 1j * rng.standard_normal(free.sum()))
    return geometry, w_faulty, region, free, z


def _landscape(problem, margin_db):
    """Landscape whose target sits margin_db above the worst level at z."""
    geometry, w_faulty, region, free, z = problem
    probe = _Landscape(geometry, w_faulty, MetricSpec(region=region, target_db=0.0), free)
    worst_db = 10.0 * np.log10(probe.worst_ratio(z))
    land = _Landscape(geometry, w_faulty,
                      MetricSpec(region=region, target_db=worst_db + margin_db), free)
    return land, z


PROBLEMS = {
    "toy": _toy_problem,
    "seeded_n20": _seeded_problem,
    "seeded_n20_spacing045": lambda: _seeded_problem(uniform_positions(20, 0.45)),
    "seeded_n20_jittered": lambda: _seeded_problem(_jittered_positions(20)),
}
ON_LATTICE = {"toy": True, "seeded_n20": True, "seeded_n20_spacing045": True,
              "seeded_n20_jittered": False}
T, MU = 10.0, 1e-2


@pytest.mark.parametrize("name", PROBLEMS)
class TestKernels:
    def test_violation_gradient_matches_reference(self, name):
        land, z = _landscape(PROBLEMS[name](), -3.0)  # some samples violate
        value, grad = _violation(land, z, True)
        assert value > 0
        np.testing.assert_allclose(grad, reference_violation_grad(land, z), rtol=1e-12)

    def test_stage_gradient_matches_reference(self, name):
        land, z = _landscape(PROBLEMS[name](), 3.0)   # strictly inside the barrier domain
        value, grad = _stage_fun(land, T, MU, 1.0)(z, *land.fields(z), True)
        assert np.isfinite(value)
        np.testing.assert_allclose(grad, reference_stage_grad(land, z, T, MU), rtol=1e-12)

    def test_stage_hessian_matches_reference(self, name):
        land, z = _landscape(PROBLEMS[name](), 3.0)
        assert (land.lags is not None) == ON_LATTICE[name]    # Toeplitz gather or dense syrk
        h = _stage_hessian(land, z, *land.fields(z), T, MU)
        ref = reference_stage_hessian(land, z, T, MU)
        # The Grams sum in another order than the reference, so entries that
        # cancel differ at rounding level: compare against the largest entry.
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_stage_hessian_matches_gradient_differences(self, name):
        land, z = _landscape(PROBLEMS[name](), 3.0)
        fun = _stage_fun(land, T, MU, 1.0)
        n = z.size
        step = 1e-6

        def real_grad(x):
            zx = x[:n] + 1j * x[n:]
            g = fun(zx, *land.fields(zx), True)[1]
            return np.concatenate([g.real, g.imag])

        x = np.concatenate([z.real, z.imag])
        fd = np.empty((2 * n, 2 * n))
        for k in range(2 * n):
            e = np.zeros(2 * n)
            e[k] = step
            fd[:, k] = (real_grad(x + e) - real_grad(x - e)) / (2 * step)
        h = _stage_hessian(land, z, *land.fields(z), T, MU)
        np.testing.assert_allclose(fd, h, rtol=1e-5, atol=1e-5 * np.abs(h).max())


def _assert_carried_fields_exact(land, z, f, f0):
    exact, exact0 = land.fields(z)
    tol = 1e-12 * np.max(np.abs(exact))
    assert np.max(np.abs(f - exact)) <= tol
    assert abs(f0 - exact0) <= tol


class TestCarriedFields:
    """A Newton stage carries F and F(0) along its steps; they must stay exact."""

    def test_seeded_landscape_through_the_stages(self):
        land, z = _landscape(_seeded_problem(), 3.0)
        for t, mu in ((1.0, 1e-2), (10.0, 1e-3), (100.0, 1e-4), (1e3, 1e-5), (1e4, 1e-6)):
            z_next, f, f0 = _newton_stage(land, z, t, mu, 20, 1e-10, 1e-12)
            assert not np.array_equal(z_next, z)
            z = z_next
            _assert_carried_fields_exact(land, z, f, f0)

    def test_first_solve_of_size_scan_n100_row3(self):
        res = resolve_scenario(load_spec("size_scan_n100_row3"))
        w_faulty = apply_failures(res.weights, res.scenario)
        land = _Landscape(res.geometry, w_faulty, res.metric, res.scenario.admissible)
        z = _feasibility_phase(land, np.zeros(land.A.shape[1], dtype=complex))
        z_next, f, f0 = _newton_stage(land, z, _BARRIER_START, _SMOOTH_START, _STAGE_STEPS,
                                      _MIN_STEP, 1e-4)   # the shrink phase's first stage
        assert not np.array_equal(z_next, z)
        _assert_carried_fields_exact(land, z_next, f, f0)

    def test_non_lattice_solve_meets_target_on_full_grid(self):
        geometry = _jittered_positions(16)
        scenario = FailureScenario.from_indices(16, [2, 3, 9])
        w_faulty = apply_failures(dolph_chebyshev(16, -20.0), scenario)
        # the default 4001-sample grid: the full grid the metric is judged on
        metric = MetricSpec(region=sidelobe_region(default_bw_target(13, -20.0)), target_db=-16.0)
        assert _Landscape(geometry, w_faulty, metric, scenario.admissible).lags is None
        assert evaluate_metric(metric, geometry, w_faulty) > -16.0 + 4.0
        delta = solve_constrained_l1(geometry, w_faulty, metric, scenario.mask)
        assert np.all(delta[scenario.mask] == 0)
        assert evaluate_metric(metric, geometry, w_faulty + delta) <= -16.0 + 0.02


def _support_landscape(geometry, w_faulty, metric, support):
    """Landscape of a solve restricted to the 0-based elements in support."""
    free = np.zeros(geometry.n, dtype=bool)
    free[list(support)] = True
    return _Landscape(geometry, w_faulty, metric, free)


def _certified_min_eig(geometry, w_faulty, metric, support, lam, homogeneous=False):
    """
    Smallest eigenvalue of sum_u lam_u conj(g_u) g_u^T - tau * conj(h) h^T,
    rebuilt from the array factor without the package's steering matrix.
    A positive value proves that no correction over support meets the target.
    """
    a = np.exp(2j * np.pi * np.outer(metric.region.samples, geometry.positions))
    cols = list(support)
    if homogeneous:       # unknowns x = z + w_free, pattern A x, broadside sum(x)
        g, h = a[:, cols], np.ones(len(cols))
    else:                 # unknowns (z, 1), pattern A z + F_base, broadside sum(z) + F0_base
        g = np.column_stack([a[:, cols], a @ w_faulty])
        h = np.append(np.ones(len(cols)), np.sum(w_faulty))
    tau = 10.0 ** (metric.target_db / 10.0)
    p = (g.conj().T * lam) @ g
    return float(np.linalg.eigvalsh(p - tau * np.outer(h.conj(), h)).min())


def _unreachable():
    """test_case_2_sll22 asked for -30 dB: no correction reaches it."""
    spec = load_spec("test_case_2_sll22").to_dict()
    spec.update(name="unreachable", metric={"kind": "max_sll", "target_db": -30.0})
    res = resolve_scenario(ScenarioSpec.from_dict(spec))
    w_faulty = apply_failures(res.weights, res.scenario)
    support = np.flatnonzero(res.scenario.admissible)
    return res.geometry, w_faulty, res.metric, support


class TestCertificate:
    def test_every_small_support_of_test_case_1_is_certified(self, tc1_parts):
        geometry, weights, scenario, metric, _ = tc1_parts
        w_faulty = apply_failures(weights, scenario)
        working = np.flatnonzero(scenario.admissible)
        for size in (1, 2):
            for support in itertools.combinations(working, size):
                land = _support_landscape(geometry, w_faulty, metric, support)
                lam = _certificate(land)
                assert lam is not None, support
                assert np.all(lam >= 0) and np.isclose(lam.sum(), 1.0)
                assert _certified_min_eig(geometry, w_faulty, metric, support, lam) > 0, support

    def test_feasible_problems_are_not_certified(self, toy, tc1_parts):
        geometry, w_faulty, metric, mask = toy
        assert _certificate(_Landscape(geometry, w_faulty, metric, ~mask)) is None
        geometry, weights, scenario, metric, _ = tc1_parts
        w_faulty = apply_failures(weights, scenario)
        first_solve = _Landscape(geometry, w_faulty, metric, scenario.admissible)
        assert first_solve.homogeneous
        assert _certificate(first_solve) is None
        winner = _support_landscape(geometry, w_faulty, metric, (0, 3, 15))   # elements 1, 4, 16
        assert _certificate(winner) is None

    def test_unreachable_target_is_certified_on_the_homogeneous_form(self):
        geometry, w_faulty, metric, support = _unreachable()
        land = _support_landscape(geometry, w_faulty, metric, support)
        assert land.homogeneous       # the faulty excitations all sit on free elements
        lam = _certificate(land)
        assert lam is not None
        assert _certified_min_eig(geometry, w_faulty, metric, support, lam, homogeneous=True) > 0

    def test_singular_form_is_never_certified(self, toy):
        # Read as inhomogeneous (z, 1) problems, these unreachable targets have
        # an exact null vector (z = -w_free): any proof of them rests on rounding.
        geometry, w_faulty, metric, support = _unreachable()
        lands = [_support_landscape(geometry, w_faulty, metric, support)]
        geometry, w_faulty, metric, mask = toy
        for target_db in np.arange(-60.0, -20.0, 2.0):
            hopeless = MetricSpec(region=metric.region, target_db=float(target_db))
            lands.append(_Landscape(geometry, w_faulty, hopeless, ~mask))
        for land in lands:
            assert land.homogeneous
            land.homogeneous = False
            assert _certificate(land) is None

    def test_margin_keeps_barely_feasible_problem_uncertified(self):
        # One free element carries the whole array, so every correction gives
        # |F(u)|^2 = |F(0)|^2 on every sample: a worst ratio of 1 - 5e-7, which
        # meets the bound even as the feasibility descent tightens it (1 - 1e-7).
        geometry = uniform_positions(2, 0.5)
        region = AngularRegion(np.array([-0.9, -0.5, 0.5, 0.9]))
        metric = MetricSpec(region=region, target_db=-10.0 * np.log10(1.0 - 5e-7))
        land = _Landscape(geometry, np.array([0.0, 1.0]), metric, np.array([False, True]))
        assert land.worst_ratio(np.array([0.3 + 0.1j])) == pytest.approx(1.0 - 5e-7, abs=1e-12)
        assert _certificate(land) is None

    def test_never_certifies_where_an_inscribed_polygon_lp_is_feasible(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(7)
        sides = 16
        counts = {"lp_feasible": 0, "certified": 0}
        for _ in range(3):
            n = int(rng.integers(10, 17))
            faults = sorted(int(i) for i in rng.choice(np.arange(1, n + 1), int(rng.integers(1, 4)),
                                                       replace=False))
            design = float(rng.uniform(-25.0, -15.0))
            geometry = uniform_positions(n, 0.5)
            scenario = FailureScenario.from_indices(n, faults)
            w_faulty = apply_failures(dolph_chebyshev(n, design), scenario)
            region = sidelobe_region(default_bw_target(scenario.n_controllable, design), 1001)
            metric = MetricSpec(region=region, target_db=design + float(rng.uniform(0.0, 3.0)))
            working = np.flatnonzero(scenario.admissible)
            supports = [tuple(working), *itertools.combinations(working, 2)]
            for support in supports:
                land = _support_landscape(geometry, w_faulty, metric, support)
                z = _polygon_lp_point(optimize, land, sides)
                lam = _certificate(land)
                if z is not None and land.worst_ratio(z) <= 1.0:
                    counts["lp_feasible"] += 1
                    assert lam is None, (n, faults, support)
                counts["certified"] += lam is not None
        assert counts["lp_feasible"] > 0 and counts["certified"] > 0, counts


def _polygon_lp_point(optimize, land, sides):
    """
    A correction meeting |F(u)| <= sqrt(tau) Re F(0) through the inscribed
    polygon Re(exp(-j theta_k) F(u)) <= sqrt(tau) cos(pi/sides) Re F(0), or None.
    """
    f = land.A.shape[1]
    rot = np.exp(-2j * np.pi * np.arange(sides) / sides)
    lhs = (rot[:, None, None] * land.A[None]).reshape(-1, f)       # rows (k, u)
    rhs_const = (rot[:, None] * land.F_base[None]).reshape(-1)
    r = np.sqrt(land.tau) * np.cos(np.pi / sides)
    # Re(lhs z) + Re(rhs_const) <= r * (Re F0_base + sum Re z)
    a_ub = np.hstack([lhs.real - r, -lhs.imag])
    b_ub = r * land.F0_base.real - rhs_const.real
    res = optimize.linprog(np.zeros(2 * f), A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    return res.x[:f] + 1j * res.x[f:] if res.status == 0 else None
