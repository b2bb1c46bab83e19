import copy
import dataclasses
import itertools
import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from arraymend import (
    AngularRegion,
    ArrayGeometry,
    FailureScenario,
    InfeasibleError,
    MetricSpec,
    NumericalFailureError,
    SolverConfig,
    apply_failures,
    dolph_chebyshev,
    evaluate_metric,
    l0_norm,
    l1_norm,
    max_sll,
    minimize_corrections,
    sidelobe_region,
    solve_constrained_l1,
    steering_matrix,
    uniform_positions,
)
from arraymend import solver
from arraymend.bench import ScenarioSpec, default_bw_target, resolve_scenario
from arraymend.solver import (
    _IPM_GAP,
    _IPM_RESIDUAL,
    _J,
    ZERO_THRESHOLD,
    _apply_weights,
    _certificate,
    _cone_ipm,
    _exchange,
    _jdiv,
    _jnorm,
    _jprod,
    _Landscape,
    _lin,
    _lin_adjoint,
    _lobe_stride,
    _max_step,
    _mirrored,
    _newton_solver,
    _normal_matrix,
    _Scaling,
    _start_rows,
    _weighted_gram,
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
        assert l0_norm(INITIAL_SOLVE_REF) == 3

    def test_l0_threshold_arithmetic(self):
        assert np.count_nonzero(np.abs(INITIAL_SOLVE_REF) > 1e-5) == 2
        assert l0_norm(np.zeros(4)) == 0


class TestSolveToy:
    def test_reproduces_initial_solution(self, toy):
        geometry, w_faulty, metric, mask = toy
        delta = solve_constrained_l1(geometry, w_faulty, metric, mask)
        assert delta[1] == 0.0
        assert abs(delta[0] - (-0.438)) < 0.02
        assert abs(delta[2] - 0.593) < 0.02
        assert l1_norm(delta) == pytest.approx(1.031, abs=0.02)
        assert evaluate_metric(metric, geometry, w_faulty + delta) <= -5.5 + 0.02
        assert l0_norm(delta) == 3  # the fourth entry stays tiny but nonzero

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
        # The start's F(0) is real, so it is a point of the cone program
        # |F(u)| <= sqrt(tau) Re F(0) too; a start with a complex F(0) may break
        # that cone and beat its optimum.
        geometry, w_faulty, metric, mask = toy
        start = np.array([-0.44, 0.0, 0.595, 0.0], dtype=complex)   # meets the bound exactly
        assert evaluate_metric(metric, geometry, w_faulty + start) <= -5.5
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

    def test_optimal_answer_breaking_the_bound_is_a_numerical_failure(self, toy, monkeypatch):
        # The final check reads every region sample and trusts no verdict: an
        # "optimal" answer that misses the target (here the zero correction)
        # raises instead of being returned.
        geometry, w_faulty, metric, mask = toy
        monkeypatch.setattr(solver, "_exchange",
                            lambda land, rows: (np.zeros(land.A.shape[1]), {"verdict": "optimal"}))
        with pytest.raises(NumericalFailureError, match="left the constraint violated"):
            solve_constrained_l1(geometry, w_faulty, metric, mask)


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


def _below_faulty(problem):
    """Landscape whose target sits 2 dB below the faulty array's worst level."""
    geometry, w_faulty, region, free, _ = problem
    probe = _Landscape(geometry, w_faulty, MetricSpec(region=region, target_db=0.0), free)
    worst_db = 10.0 * np.log10(probe.worst_ratio(np.zeros(int(free.sum()), dtype=complex)))
    return _Landscape(geometry, w_faulty, MetricSpec(region=region, target_db=worst_db - 2.0), free)


def _start(problem, land, z=None):
    """The working-set start that solve_constrained_l1 takes from the correction z (zero by default)."""
    z = np.zeros(land.A.shape[1], dtype=complex) if z is None else z
    return _start_rows(land.ratios(z), _lobe_stride(problem[0], problem[2].samples))


def _mirror(lam, m):
    """
    Weights on the half of a mirrored region (its last lam.size samples) as
    the whole region's: u and -u take half of lam_u each.
    """
    whole = np.zeros(m)
    whole[m - lam.size:] = lam
    return 0.5 * (whole + whole[::-1])


def _cone_points(k, seed):
    """k random points strictly inside the three-dimensional second-order cone, as a (3, k) array."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, k))
    x[0] = np.hypot(x[1], x[2]) + rng.uniform(0.05, 2.0, k)
    return x


def _random_weights(land):
    """W^-2 of each cone for a scaling between random points inside the cones."""
    k = land.A.shape[1] + land.m
    return _Scaling(_cone_points(k, 1), _cone_points(k, 2)).weights()


def _assert_close(got, ref):
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _dense_system(land, mm):
    """An explicit G over x = (t, Re z, Im z), with -G x = _lin, and blockdiag(mm)."""
    f, m = land.A.shape[1], land.m
    g = np.zeros((3 * (f + m), 3 * f))
    for n in range(f):                              # l1 cones (t_n, Re z_n, Im z_n)
        g[3 * n, n] = g[3 * n + 1, f + n] = g[3 * n + 2, 2 * f + n] = -1.0
    rows = 3 * f + 3 * np.arange(m)                 # sample cones (sqrt(tau) Re F(0), Re F, Im F)
    g[rows, f:2 * f] = -np.sqrt(land.tau)
    g[rows + 1, f:2 * f], g[rows + 1, 2 * f:] = -land.A.real, land.A.imag
    g[rows + 2, f:2 * f], g[rows + 2, 2 * f:] = -land.A.imag, -land.A.real
    blocks = np.zeros((3 * (f + m), 3 * (f + m)))
    for k in range(f + m):
        blocks[3 * k:3 * k + 3, 3 * k:3 * k + 3] = mm[:, :, k]
    return g, blocks


def _dense_normal_matrix(land, mm):
    """G^T blockdiag(mm) G from _dense_system, with t eliminated."""
    f = land.A.shape[1]
    g, blocks = _dense_system(land, mm)
    h = g.T @ blocks @ g
    return h[f:, f:] - h[f:, :f] @ np.linalg.solve(h[:f, :f], h[:f, f:])


@pytest.mark.parametrize("name", PROBLEMS)
class TestKernels:
    def test_weighted_gram_matches_reference(self, name):
        # The certificate's P(lam), on the region, on a working set of it and on
        # the halves of mirrored regions (an odd one too, whose u = 0 is its own
        # mirror), against the sum over samples of lam_u conj(g_u) g_u^T; on a
        # half the sum runs over the whole region with lam mirrored.
        geometry, w_faulty, region, free, z = PROBLEMS[name]()
        land, _ = _landscape((geometry, w_faulty, region, free, z), 0.0)
        odd = _Landscape(geometry, w_faulty, MetricSpec(AngularRegion(0.05 * np.arange(-18, 19)), 0.0), free)
        assert land.mirrored and odd.mirrored and odd.m % 2 == 1
        cases = [(land, land), (land.restricted(np.arange(0, land.m, 3)),) * 2,
                 (land.half(), land), (odd.half(), odd)]
        for sub, whole in cases:
            lam = np.random.default_rng(3).uniform(0.0, 1.0, sub.m)
            lam[::4] = 0.0                  # the search zeroes small weights
            lam /= lam.sum()
            weights = _mirror(lam, whole.m) if sub.real else lam
            for homogeneous in (True, False):
                form = copy.copy(sub)
                form.homogeneous = homogeneous
                g = whole.A if homogeneous else np.column_stack([whole.A, whole.F_base])
                ref = (g.conj().T * weights) @ g
                assert np.max(np.abs(_weighted_gram(form, lam) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_stacked_operator_is_a_over_re_and_im(self, name):
        # stacked() is A as a real operator: over (Re z, Im z) on a complex
        # landscape, over Re z alone on half(); its transpose maps (y1, y2) to
        # (Re, Im) of A^H (y1 + i y2), or to the Re part alone.
        land, z = _landscape(PROBLEMS[name](), 3.0)
        rng = np.random.default_rng(11)
        for sub, x in ((land, z), (land.half(), z.real)):
            b, a, m, f = sub.stacked(), sub.A, sub.m, z.size
            assert b.shape == (2 * m, f if sub.real else 2 * f)
            ax = a @ x
            unknowns = x if sub.real else np.concatenate([x.real, x.imag])
            _assert_close(b @ unknowns, np.concatenate([ax.real, ax.imag]))
            y = rng.standard_normal(2 * m)
            ahy = a.conj().T @ (y[:m] + 1j * y[m:])
            _assert_close(b.T @ y, ahy.real if sub.real else np.concatenate([ahy.real, ahy.imag]))

    # Each IPM step solves a Newton system with the Hessian G^T W^-2 G of the
    # quadratic x^T G^T W^-2 G x / 2 (the normal matrix, t eliminated), over
    # the real unknowns of stacked(): (t, Re z, Im z), or (t, Re z) on a half.
    # The step refines against the assembled normal matrix; its gradient in
    # operator form, _lin_adjoint(W^-2 _lin(x)), is the reference both must
    # agree with, as must an explicit G.

    def test_stage_gradient_matches_reference(self, name):
        land, z = _landscape(PROBLEMS[name](), 3.0)
        mm = _random_weights(land)
        t, x = np.abs(z) + 0.1, np.concatenate([z.real, z.imag])
        grad_t, grad_x = _lin_adjoint(land, _apply_weights(mm, _lin(land, t, x)))
        g, blocks = _dense_system(land, mm)
        ref = g.T @ blocks @ g @ np.concatenate([t, x])
        got = np.concatenate([grad_t, grad_x])
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_stage_hessian_matches_reference(self, name):
        land, _ = _landscape(PROBLEMS[name](), 3.0)
        assert (land.lags is not None) == ON_LATTICE[name]    # on a lattice or not, as named
        mm = _random_weights(land)
        h = _normal_matrix(land, mm)
        ref = _dense_normal_matrix(land, mm)
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_real_kernels_are_the_re_z_part(self, name):
        # On the half of a mirrored region z is real and the unknowns are
        # (t, Re z): the normal matrix is the Re z block of the complex one on
        # the same samples (t eliminated), and the gradient its Re z part.
        land, z = _landscape(PROBLEMS[name](), 3.0)
        assert land.mirrored
        half = land.half()
        whole = copy.copy(half)
        whole.whole = None                  # the same samples, solved for a complex z
        f = z.size
        mm = _random_weights(half)
        ref = _dense_normal_matrix(whole, mm)[:f, :f]
        assert np.max(np.abs(_normal_matrix(half, mm) - ref)) <= 1e-12 * np.max(np.abs(ref))
        t = np.abs(z) + 0.1
        grad_t, grad_x = _lin_adjoint(half, _apply_weights(mm, _lin(half, t, z.real)))
        ref_t, ref_x = _lin_adjoint(whole, _apply_weights(mm, _lin(whole, t, np.append(z.real, np.zeros(f)))))
        assert grad_x.shape == (f,)
        assert np.max(np.abs(grad_t - ref_t)) <= 1e-12 * np.max(np.abs(ref_t))
        assert np.max(np.abs(grad_x - ref_x[:f])) <= 1e-12 * np.max(np.abs(ref_x[:f]))

    def test_newton_solve_meets_the_operator_form(self, name):
        # A solve refined against the assembled normal matrix meets the
        # operator form of H, over (Re z, Im z) and over Re z on the half.
        land, z = _landscape(PROBLEMS[name](), 3.0)
        assert (land.lags is not None) == ON_LATTICE[name]
        rng = np.random.default_rng(7)
        for sub, k in ((land, 2), (land.half(), 1)):
            mm = _random_weights(sub)
            bt, bx = rng.standard_normal(z.size), rng.standard_normal(k * z.size)
            dt, dx = _newton_solver(sub, mm)(bt, bx)
            assert dx.shape == bx.shape
            ot, ox = _lin_adjoint(sub, _apply_weights(mm, _lin(sub, dt, dx)))
            residual = np.sqrt(np.sum((ot - bt) ** 2) + np.sum((ox - bx) ** 2))
            assert residual <= 1e-10 * np.sqrt(np.sum(bt ** 2) + np.sum(bx ** 2))

    def test_stage_hessian_matches_gradient_differences(self, name):
        land, z = _landscape(PROBLEMS[name](), 3.0)
        mm = _random_weights(land)
        m00, m01, m02 = mm[0, :, :z.size]
        n = z.size
        step = 1e-3

        def real_grad(x):
            # t at the minimum of the quadratic for this x, as the IPM eliminates it
            t = -(m01 * x[:n] + m02 * x[n:]) / m00
            return _lin_adjoint(land, _apply_weights(mm, _lin(land, t, x)))[1]

        x = np.concatenate([z.real, z.imag])
        fd = np.empty((2 * n, 2 * n))
        for k in range(2 * n):
            e = np.zeros(2 * n)
            e[k] = step
            fd[:, k] = (real_grad(x + e) - real_grad(x - e)) / (2 * step)
        h = _normal_matrix(land, mm)
        assert np.max(np.abs(fd - h)) <= 1e-11 * np.max(np.abs(h))

    def test_solve_meets_gap_and_residual_targets(self, name):
        land = _below_faulty(PROBLEMS[name]())
        z, info = _cone_ipm(land)
        assert info["verdict"] == "optimal", info
        assert info["gap"] <= _IPM_GAP
        assert info["primal"] <= _IPM_RESIDUAL and info["dual"] <= _IPM_RESIDUAL
        assert info["kappa"] <= _IPM_GAP * info["tau"]       # the embedding's optimal end: kappa -> 0
        assert land.worst_ratio(z) <= 1.0 + 1e-9
        field, f0 = land.fields(z)
        assert np.sqrt(land.tau) * f0.real >= np.max(np.abs(field)) * (1.0 - 1e-9)   # the cone's own bound

    def test_zero_and_feasible_starts_agree(self, name):
        # The start correction only seeds the working set: from the zero
        # correction and from the optimum itself the exchange reaches one l1.
        problem = PROBLEMS[name]()
        land = _below_faulty(problem)
        from_zero, info = _exchange(land, _start(problem, land))
        from_start, _ = _exchange(land, _start(problem, land, from_zero))
        assert info["verdict"] == "optimal"
        l1_zero, l1_start = np.sum(np.abs(from_zero)), np.sum(np.abs(from_start))
        assert abs(l1_zero - l1_start) <= 1e-6 * l1_start


class TestScaling:
    """The Nesterov-Todd scaling of each cone, and its update along a step."""

    @staticmethod
    def _dense(w):
        return [b * (2.0 * np.outer(v, v) - np.diag(_J)) for b, v in zip(w.beta, w.v.T)]

    def test_maps_z_and_s_to_the_same_point(self):
        s, z = _cone_points(200, 3), _cone_points(200, 4)
        w = _Scaling(s, z)
        for k, wk in enumerate(self._dense(w)):
            np.testing.assert_allclose(wk @ z[:, k], w.lam[:, k], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(np.linalg.solve(wk, s[:, k]), w.lam[:, k], rtol=1e-12, atol=1e-12)
            inv = np.linalg.inv(wk)
            np.testing.assert_allclose(w.weights()[:, :, k], inv @ inv, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(w.lam_j, _J @ (w.lam * w.lam), rtol=1e-10)

    def test_step_matches_a_fresh_scaling(self):
        s, z = _cone_points(200, 5), _cone_points(200, 6)
        w = _Scaling(s, z)
        rng = np.random.default_rng(7)
        ds, dz = rng.standard_normal((2, 200, 3)).transpose(0, 2, 1) * 0.1 * np.abs(w.lam[0])
        a = 0.5
        s_new, z_new = s + a * w.apply(ds), z + a * w.apply_inverse(dz)
        w.step(np.stack([ds, dz], axis=1), a)
        fresh = _Scaling(s_new, z_new)
        for name in ("v", "beta", "lam", "lam_j"):
            np.testing.assert_allclose(getattr(w, name), getattr(fresh, name), rtol=1e-10, atol=1e-12)


CONE_RTOL = 1e-12      # relative agreement of each cone kernel with its per-cone loop


def _first_exit(lam, d):
    """Smallest a > 0 with (lam + a d)^T J (lam + a d) = 0 for one cone's 3-vectors, inf when none."""
    qa, qb, qc = d @ (_J * d), 2.0 * lam @ (_J * d), lam @ (_J * lam)
    if qa == 0.0:
        roots = [-qc / qb] if qb != 0.0 else []
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            return np.inf
        q = -0.5 * (qb + np.copysign(np.sqrt(disc), qb))     # the quadratic's stable form
        roots = [q / qa, qc / q]
    return min([r for r in roots if r > 0.0], default=np.inf)


def _close(got, ref):
    return np.max(np.abs(np.asarray(got) - ref)) <= CONE_RTOL * np.max(np.abs(ref))


class TestConeKernels:
    """The (3, k) cone kernels against a plain loop over the cones' 3-vectors."""

    def test_jordan_norm_product_and_division(self):
        x, y = _cone_points(300, 11), _cone_points(300, 12)
        y[:, ::3] = np.random.default_rng(13).standard_normal((3, 100))   # any y for the product
        norm = _jnorm(x)
        prod, div = _jprod(x, y), _jdiv(x, norm ** 2, y)
        for k in range(x.shape[1]):
            xk, yk = x[:, k], y[:, k]
            assert _close(norm[k], np.sqrt(xk[0] ** 2 - xk[1] ** 2 - xk[2] ** 2))
            assert _close(prod[:, k], np.concatenate([[xk @ yk], xk[0] * yk[1:] + yk[0] * xk[1:]]))
            arrow = np.array([[xk[0], xk[1], xk[2]], [xk[1], xk[0], 0.0], [xk[2], 0.0, xk[0]]])
            assert _close(div[:, k], np.linalg.solve(arrow, yk))      # x o u = y

    def test_max_step_single_and_stacked(self):
        rng = np.random.default_rng(14)
        lam = _cone_points(200, 15)
        lam_j = _jnorm(lam) ** 2
        ds, dd = rng.standard_normal((2, 3, 200))
        ds[:, ::4] = _cone_points(50, 16)       # directions into the cone never reach its boundary
        dd[:, 1::4] = 0.5 * lam[:, 1::4]
        for d in (ds, dd):
            steps = [_first_exit(lam[:, k], d[:, k]) for k in range(200)]
            assert np.isinf(steps[::4] if d is ds else steps[1::4]).all()
            for k in range(200):
                got = _max_step(lam[:, [k]], lam_j[[k]], d[:, [k]])
                assert got == steps[k] if np.isinf(steps[k]) else _close(got, steps[k])
            assert _close(_max_step(lam, lam_j, d), min(steps))
        # stacked as (3, 2, k): the step of whichever direction exits first
        far = _cone_points(200, 17)
        for first, other in ((ds, far), (far, dd)):
            ref = min(_first_exit(lam[:, k], d[:, k]) for d in (first, other) for k in range(200))
            assert _close(_max_step(lam, lam_j, np.stack([first, other], axis=1)), ref)
        assert _max_step(lam, lam_j, np.stack([far, far], axis=1)) == np.inf

    def test_scaling_apply_and_weights(self):
        s, z = _cone_points(200, 18), _cone_points(200, 19)
        x = np.random.default_rng(20).standard_normal((3, 200))
        w = _Scaling(s, z)
        applied, inverse, mm = w.apply(x), w.apply_inverse(x), w.weights()
        for k in range(200):
            v = w.v[:, k]
            wk = w.beta[k] * (2.0 * np.outer(v, v) - np.diag(_J))
            inv = np.linalg.inv(wk)
            assert _close(applied[:, k], wk @ x[:, k])
            assert _close(inverse[:, k], inv @ x[:, k])
            assert _close(mm[:, :, k], inv @ inv)


def _polygon_lp_l1(optimize, land, sides, inner):
    """
    Least sum(t) of the cone program with each disc |w| <= r replaced by a polygon.

    The polygon Re(exp(-j theta_k) w) <= r for theta_k = 2 pi k / sides contains
    the disc, so the LP is a relaxation (outer); scaling r by cos(pi / sides)
    puts the polygon inside the disc, so the LP is a restriction (inner). Both
    bound |F(u)| by sqrt(tau) Re F(0) as the cone program does. Sample
    constraints are added in rounds, most violated first, until the LP point
    meets them on every sample. None when the LP has no point.
    """
    f = land.A.shape[1]
    theta = 2.0 * np.pi * np.arange(sides) / sides
    rot = np.exp(-1j * theta)
    shrink = np.cos(np.pi / sides) if inner else 1.0
    rt = shrink * np.sqrt(land.tau)
    l1_rows = np.zeros((sides * f, 3 * f))         # variables (Re z, Im z, t)
    for n in range(f):
        rows = slice(n * sides, (n + 1) * sides)
        l1_rows[rows, n], l1_rows[rows, f + n] = np.cos(theta), np.sin(theta)
        l1_rows[rows, 2 * f + n] = -shrink
    cost = np.concatenate([np.zeros(2 * f), np.ones(f)])
    active = np.argsort(-np.abs(land.F_base))[:20]
    for _ in range(30):
        ra = rot[:, None, None] * land.A[active][None]             # (sides, samples, f)
        rows = np.concatenate([ra.real - rt, -ra.imag, np.zeros(ra.shape)], axis=2).reshape(-1, 3 * f)
        rhs = (rt * land.F0_base.real - (rot[:, None] * land.F_base[active][None]).real).reshape(-1)
        res = optimize.linprog(cost, A_ub=np.vstack([l1_rows, rows]),
                               b_ub=np.concatenate([np.zeros(sides * f), rhs]),
                               bounds=(None, None), method="highs")
        if res.status == 2:         # infeasible on these samples, so on the region
            return None
        assert res.status == 0, res.message
        z = res.x[:f] + 1j * res.x[f:2 * f]
        field, f0 = land.fields(z)
        excess = np.max((rot[:, None] * field[None]).real, axis=0) - rt * f0.real
        worst = np.argsort(-excess)
        new = [u for u in worst[:200] if excess[u] > 1e-9 * abs(f0) and u not in set(active)]
        if not new:
            return float(res.fun)
        active = np.concatenate([active, new])
    raise AssertionError("polygon LP did not settle")


def _below_faulty_metric(problem):
    """The metric of _below_faulty: 2 dB below the faulty array's worst level."""
    return MetricSpec(region=problem[2], target_db=10.0 * np.log10(_below_faulty(problem).tau))


@pytest.mark.parametrize("name", ["toy", "seeded_n20"])
def test_answer_scales_with_the_weights(name):
    # The problem is homogeneous in the weights: scaling them scales the
    # answer, and no verdict may depend on their units.
    problem = PROBLEMS[name]()
    geometry, w_faulty, _, free, _ = problem
    metric = _below_faulty_metric(problem)
    base = solve_constrained_l1(geometry, w_faulty, metric, ~free)
    l1 = l1_norm(base)
    for k in (1e6, 1e-6):
        delta = solve_constrained_l1(geometry, k * w_faulty, metric, ~free) / k
        assert abs(l1_norm(delta) - l1) <= 1e-8 * l1
        assert np.max(np.abs(delta - base)) <= 1e-6 * l1
    # a power of two rescales exactly
    assert np.array_equal(solve_constrained_l1(geometry, 1024.0 * w_faulty, metric, ~free) / 1024.0, base)


class TestConeIpm:
    @pytest.mark.parametrize("problem", ["toy", "test_case_1", "seeded_n20"])
    def test_polygon_lps_bracket_the_optimum(self, problem, toy, tc1_parts):
        optimize = pytest.importorskip("scipy.optimize")
        if problem == "toy":
            geometry, w_faulty, metric, mask = toy
            land = _Landscape(geometry, w_faulty, metric, ~mask)
        elif problem == "test_case_1":
            geometry, weights, scenario, metric, _ = tc1_parts
            land = _Landscape(geometry, apply_failures(weights, scenario), metric, scenario.admissible)
        else:
            land = _below_faulty(PROBLEMS[problem]())
        z, info = _cone_ipm(land)
        assert info["verdict"] == "optimal", info
        l1 = float(np.sum(np.abs(z)))
        outer = _polygon_lp_l1(optimize, land, 64, inner=False)
        inner = _polygon_lp_l1(optimize, land, 64, inner=True)
        assert outer <= l1 * (1.0 + 1e-6)
        assert l1 <= inner * (1.0 + 1e-6)
        assert inner - outer <= 0.05 * l1        # the bracket is tight enough to mean something

    def test_solve_is_logged(self, toy, caplog):
        geometry, w_faulty, metric, mask = toy
        with caplog.at_level(logging.DEBUG, logger="arraymend.solver"):
            solve_constrained_l1(geometry, w_faulty, metric, mask)
        (message,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("cone IPM")]
        assert message.startswith("cone IPM: optimal after 1 rounds on 4 of 4 region samples")
        for field in ("iterations", "relative gap", "primal residual", "dual residual", "tau", "kappa"):
            assert field in message
        tau, kappa = (float(re.search(rf"{name} ([^,]+)", message).group(1)) for name in ("tau", "kappa"))
        assert kappa <= _IPM_GAP * tau

    def test_stall_meeting_only_the_tolerance_is_no_answer(self, toy, monkeypatch):
        # A whole-region stall far from its targets whose point meets the
        # 0.02 dB tolerance but breaks the exact bound (here the optimum of a
        # target 0.01 dB looser) is no answer. Its weights seed the
        # certificate, which proves nothing on this feasible problem, so the
        # solve raises uncertified.
        geometry, w_faulty, metric, mask = toy
        looser = 10.0 ** (0.01 / 10.0)

        def stalls_above_the_bound(sub):
            loose = copy.copy(sub)
            loose.tau = sub.tau * looser
            answer, info = _cone_ipm(loose)
            assert 1.0 + 1e-7 < sub.worst_ratio(answer) <= 10.0 ** (SolverConfig().constraint_tol_db / 10.0)
            return answer, {**info, "verdict": "undecided", "gap": 1e-2}

        monkeypatch.setattr(solver, "_cone_ipm", stalls_above_the_bound)
        with pytest.raises(InfeasibleError, match="ended undecided at relative gap 1.00e-02") as err:
            solve_constrained_l1(geometry, w_faulty, metric, mask)
        assert not err.value.certified

    def test_random_s23_0_solves_without_overflow(self):
        # The benchmark's oracle_certify instance random_s23_0 (seed 23, instance 0).
        res = resolve_scenario(ScenarioSpec.from_dict({
            "name": "random_s23_0", "n_elements": 16, "faulty_indices": [1, 3],
            "taper": {"dolph_chebyshev": {"sll_db": -19.08}},
            "metric": {"kind": "max_sll", "target_db": -17.809, "region_density": 1001}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = minimize_corrections(res.geometry, res.weights, res.scenario, res.metric, res.config)
        assert result.n_corrections == 1

    def test_complex_excitations_need_no_real_broadside(self):
        # Phase errors make F(0) complex. The cone |F(u)| <= sqrt(tau) Re F(0)
        # needs no real F(0), so the first solve corrects one or two elements;
        # a solve that forces F(0) real spreads over all 23 working elements.
        geometry, weights, scenario, metric = _phase_error_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delta = solve_constrained_l1(geometry, apply_failures(weights, scenario), metric, scenario.mask)
        assert np.count_nonzero(np.abs(delta) > 1e-8) <= 2
        assert l1_norm(delta) < 0.05

    def test_certificate_is_logged(self, toy, caplog):
        geometry, w_faulty, metric, mask = toy
        hopeless = MetricSpec(region=metric.region, target_db=-40.0)
        with caplog.at_level(logging.DEBUG, logger="arraymend.solver"):
            solve_constrained_l1(geometry, w_faulty, metric, mask)
            with pytest.raises(InfeasibleError):
                solve_constrained_l1(geometry, w_faulty, hopeless, mask)
        messages = [r.getMessage() for r in caplog.records if r.getMessage().startswith("certificate")]
        assert len(messages) == 2                       # one record per search
        for message in messages:
            assert re.search(r"after \d+ updates on 4 of 4 region samples", message)
        assert messages[0].startswith(("certificate: no proof on the set", "certificate: trend"))
        assert messages[1].startswith("certificate: proof")


def _phase_error_problem():
    """A 25-element -25 dB Dolph-Chebyshev taper with U(-0.3, 0.3) rad phase errors (seed 4), faults 2 and 17."""
    geometry = uniform_positions(25, 0.5)
    weights = dolph_chebyshev(25, -25.0) * np.exp(1j * np.random.default_rng(4).uniform(-0.3, 0.3, 25))
    region = sidelobe_region(9.6, 1001)
    metric = MetricSpec(region=region, target_db=max_sll(geometry, weights, region) + 0.5)
    return geometry, weights, FailureScenario.from_indices(25, [2, 17]), metric


def _recorded_removal(name, free):
    """A catalog scenario's solve over the 1-based elements in free: its resolved spec, faults and mask."""
    res = resolve_scenario(load_spec(name))
    mask = np.ones(res.geometry.n, dtype=bool)
    mask[np.asarray(free) - 1] = False
    return res, apply_failures(res.weights, res.scenario), mask


# removals whose outer 64-gon LP has no point: scenario -> 1-based free elements
OUTER_INFEASIBLE = {"fail_rate_n50_row1": [1, 6, 46], "size_scan_n100_row2": [1, 9, 83, 93, 100]}
# removals whose whole-region solve stalls far from its targets: scenario -> 1-based free elements
STALLED = {"fail_rate_n50_row3": [1, 6, 8, 9, 10, 15, 16, 17, 18, 19, 20, 26, 43, 44, 48, 49, 50],
           "size_scan_n50_row3": [5, 8, 14, 50]}


class TestRecordedVerdicts:
    """
    Removals of the catalog's removal loop that a feasibility descent once
    left undecided, rebuilt from their masks and decided offline by the
    64-gon polygon LPs over every region sample.
    """

    def test_inscribed_feasible_removal_is_accepted(self):
        optimize = pytest.importorskip("scipy.optimize")
        res, w_faulty, mask = _recorded_removal("fail_rate_n100_row4",
                                                [1, 11, 13, 19, 27, 33, 44, 52, 86, 89, 100])
        inner = _polygon_lp_l1(optimize, _Landscape(res.geometry, w_faulty, res.metric, ~mask), 64, inner=True)
        assert inner is not None                        # the restriction has a point
        delta = solve_constrained_l1(res.geometry, w_faulty, res.metric, mask, config=res.config)
        assert l1_norm(delta) <= inner * (1.0 + 1e-6)
        phi = evaluate_metric(res.metric, res.geometry, w_faulty + delta)
        assert phi <= res.metric.target_db + res.config.constraint_tol_db

    @pytest.mark.parametrize("name", OUTER_INFEASIBLE)
    def test_outer_infeasible_removal_ends_with_a_ray_or_a_proof(self, name):
        optimize = pytest.importorskip("scipy.optimize")
        res, w_faulty, mask = _recorded_removal(name, OUTER_INFEASIBLE[name])
        land = _Landscape(res.geometry, w_faulty, res.metric, ~mask)
        assert _polygon_lp_l1(optimize, land, 64, inner=False) is None   # the relaxation has none
        with pytest.raises(InfeasibleError) as err:
            solve_constrained_l1(res.geometry, w_faulty, res.metric, mask, config=res.config)
        # the certificate proves the first at once; the second ends the exchange
        # with a ray, whose sample weights seed the proof
        assert err.value.certified, err.value

    def test_ray_ends_the_embedding_at_tau_near_zero(self):
        # On an infeasible program the embedding's tau falls to 0 while kappa
        # stays: x / tau diverges and the dual iterate is the ray.
        res, w_faulty, mask = _recorded_removal("size_scan_n100_row2", OUTER_INFEASIBLE["size_scan_n100_row2"])
        land = _Landscape(res.geometry, w_faulty, res.metric, ~mask)
        _, info = _exchange(land, _start_rows(land.ratios(np.zeros(land.A.shape[1], dtype=complex)),
                                              _lobe_stride(res.geometry, res.metric.region.samples)))
        assert info["verdict"] == "ray"
        assert info["tau"] <= 1e-3 * info["kappa"]

    @pytest.mark.parametrize("name", STALLED)
    def test_stall_weights_seed_a_proof(self, name, monkeypatch):
        # The removal's exchange ends with a stall on the whole region whose
        # point breaks the exact bound. The stall's final sample weights seed
        # a proof on the half region which, mirrored onto the whole region,
        # an eigenvalue check rebuilt from the array factor confirms.
        res, w_faulty, mask = _recorded_removal(name, STALLED[name])
        ends, searches = [], []
        exchange, certificate = solver._exchange, solver._certificate

        def recording_exchange(land, rows):
            z, info = exchange(land, rows)
            ends.append((info["verdict"], bool(info["rows"].all()), z is None))
            return z, info

        def recording_certificate(land, rows, weights=None):
            lam = certificate(land, rows, weights)
            searches.append((weights is not None, lam))
            return lam

        monkeypatch.setattr(solver, "_exchange", recording_exchange)
        monkeypatch.setattr(solver, "_certificate", recording_certificate)
        with pytest.raises(InfeasibleError) as err:
            solve_constrained_l1(res.geometry, w_faulty, res.metric, mask, config=res.config)
        assert err.value.certified
        assert ends == [("undecided", True, True)]
        (_, before), (seeded, lam) = searches
        assert before is None and seeded and lam is not None
        land = _Landscape(res.geometry, w_faulty, res.metric, ~mask)
        support = np.flatnonzero(~mask)
        assert _certified_min_eig(res.geometry, w_faulty, res.metric, support, _mirror(lam, land.m)) > 0

    def test_ray_weights_seed_a_proof(self):
        # The certificate started from the ray's sample weights on the
        # exchange's final working set proves the free-phase problem infeasible,
        # as an eigenvalue check rebuilt from the array factor confirms.
        name = "size_scan_n100_row2"
        res, w_faulty, mask = _recorded_removal(name, OUTER_INFEASIBLE[name])
        land = _Landscape(res.geometry, w_faulty, res.metric, ~mask)
        rows = _start_rows(land.ratios(np.zeros(land.A.shape[1], dtype=complex)),
                           _lobe_stride(res.geometry, res.metric.region.samples))
        assert _certificate(land, rows) is None         # the start alone proves nothing
        _, info = _exchange(land, rows)
        assert info["verdict"] == "ray" and info["weights"].size == info["rows"].sum()
        assert _certificate(land, info["rows"]) is None     # uniform weights on that set do not
        lam = _certificate(land, info["rows"], info["weights"])
        assert lam is not None
        support = np.flatnonzero(~mask)
        assert _certified_min_eig(res.geometry, w_faulty, res.metric, support, lam) > 0


def _first_solve(name):
    """A catalog scenario's first solve: its resolved spec, faulty weights, landscape and start rows."""
    res = resolve_scenario(load_spec(name))
    w_faulty = apply_failures(res.weights, res.scenario)
    land = _Landscape(res.geometry, w_faulty, res.metric, res.scenario.admissible)
    rows = _start_rows(land.ratios(np.zeros(land.A.shape[1], dtype=complex)),
                       _lobe_stride(res.geometry, res.metric.region.samples))
    return res, w_faulty, land, rows


def _exchange_case(name):
    """A solve's landscape and the working set the exchange starts from at the zero correction."""
    if name == "size_scan_n100_row3":
        return _first_solve(name)[2:]
    problem = PROBLEMS[name]()
    land = _below_faulty(problem)
    return land, _start(problem, land)


class TestExchange:
    """The cone program on a working set of region samples, grown until met everywhere."""

    @pytest.mark.parametrize("name", [*PROBLEMS, "size_scan_n100_row3"])
    def test_matches_the_full_region_solve(self, name):
        land, rows = _exchange_case(name)
        z, info = _exchange(land, rows)
        full, full_info = _cone_ipm(land)
        assert info["verdict"] == full_info["verdict"] == "optimal"
        l1, l1_full = np.sum(np.abs(z)), np.sum(np.abs(full))
        assert abs(l1 - l1_full) <= 1e-6 * l1_full
        assert np.max(land.ratios(z)) <= 1.0 + 1e-7      # every region sample, not the set
        assert info["rounds"] <= 2

    def test_working_set_is_a_small_share_of_the_region(self):
        land, rows = _exchange_case("size_scan_n100_row3")
        assert not rows.all()
        _, info = _exchange(land, rows)
        assert info["rows"].sum() < land.m / 2

    def test_unconverged_round_widens_to_the_full_region(self, monkeypatch):
        # A first round that stalls on a point breaking the bound (here the
        # faulty array itself) widens the set to the whole region.
        land, rows = _exchange_case("seeded_n20")
        sizes = []

        def first_round_fails(sub):
            answer, info = _cone_ipm(sub)
            sizes.append(sub.m)
            if len(sizes) == 1:
                return np.zeros_like(answer), {**info, "verdict": "undecided"}
            return answer, info

        monkeypatch.setattr(solver, "_cone_ipm", first_round_fails)
        z, info = _exchange(land, rows)
        assert sizes[0] < land.m and sizes[1:] == [land.m]
        assert info["rounds"] == 2 and info["rows"].sum() == land.m and info["verdict"] == "optimal"
        assert land.worst_ratio(z) <= 1.0 + 1e-9

    def test_stalled_round_far_from_its_targets_widens(self, monkeypatch):
        # A stall whose point meets every sample but whose gap is far above its
        # target may sit well above the set's optimum: the set widens.
        land, rows = _exchange_case("seeded_n20")           # one round when not stalled
        sizes = []

        def first_round_stalls_early(sub):
            answer, info = _cone_ipm(sub)
            sizes.append(sub.m)
            if len(sizes) == 1:
                return answer, {**info, "verdict": "undecided", "gap": 1e-2}
            return answer, info

        monkeypatch.setattr(solver, "_cone_ipm", first_round_stalls_early)
        _, info = _exchange(land, rows)
        assert sizes[0] < land.m and sizes[1:] == [land.m]
        assert info["rounds"] == 2 and info["verdict"] == "optimal"

    def test_stalled_round_meeting_every_sample_ends_the_loop(self, monkeypatch):
        # A stall whose point meets the bound on every region sample needs no
        # wider set when it is near its targets (its l1 is within its gap of
        # the set's optimum, which the region's cannot undercut), or when its
        # set is the whole region, however far it is from its targets.
        land, start = _exchange_case("seeded_n20")          # one round when not stalled
        full, _ = _cone_ipm(land)
        for rows, far in ((start, {}), (np.ones_like(start), {"gap": 1e-2})):
            sizes = []

            def stalls(sub):
                answer, info = _cone_ipm(sub)
                sizes.append(sub.m)
                return answer, {**info, "verdict": "undecided", **far}

            monkeypatch.setattr(solver, "_cone_ipm", stalls)
            z, info = _exchange(land, rows)
            samples = info["rows"].sum()
            assert sizes == [samples] == [rows.sum()] and info["verdict"] == "undecided"
            assert np.max(land.ratios(z)) <= 1.0 + 1e-7
            assert abs(np.sum(np.abs(z)) - np.sum(np.abs(full))) <= 1e-6 * np.sum(np.abs(full))
        assert start.sum() < land.m


def _exchanged_landscapes(monkeypatch):
    """The landscapes that solve_constrained_l1 hands to _exchange, recorded in a list."""
    seen = []
    exchange = solver._exchange

    def recording(land, rows):
        seen.append(land)
        return exchange(land, rows)

    monkeypatch.setattr(solver, "_exchange", recording)
    return seen


class TestMirror:
    """
    Real faulty excitations on a mirrored region: F(-u; w + conj(z)) =
    conj F(u; w + z), so the cone program has a real optimum, and the cone
    phase runs on the u >= 0 half with Re z as its only unknowns.
    """

    @pytest.mark.parametrize("density", [801, 1001, 4001])
    def test_sidelobe_grids_qualify(self, density, tc1_parts):
        geometry, weights, scenario, metric, bw_target = tc1_parts
        region = sidelobe_region(bw_target, density)
        u = region.samples
        assert np.max(np.abs(u + u[::-1])) <= np.finfo(float).eps     # 1 ulp off a mirror
        land = _Landscape(geometry, apply_failures(weights, scenario),
                          MetricSpec(region=region, target_db=metric.target_db), scenario.admissible)
        assert land.mirrored and not land.real
        half = land.half()
        assert half.real and half.whole == land.m and half.m == land.m - land.m // 2
        assert np.all(u[land.m - half.m:] > 0)
        for name in ("F_base", "full"):    # slices of the whole region's arrays, not copies
            assert np.shares_memory(getattr(half, name), getattr(land, name))
        assert land._A is None and half._A is None      # neither has gathered its free columns

    def test_asymmetric_region_runs_the_complex_path(self, toy, monkeypatch, caplog):
        geometry, w_faulty, metric, mask = toy
        skewed = MetricSpec(region=AngularRegion(np.array([-0.7, -0.5, 0.5, 0.8])), target_db=metric.target_db)
        assert not _mirrored(skewed.region.samples)
        seen = _exchanged_landscapes(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="arraymend.solver"):
            delta = solve_constrained_l1(geometry, w_faulty, skewed, mask)
        (land,) = seen
        assert not land.real and land.m == 4
        assert np.any(delta != 0)
        (message,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("cone IPM")]
        assert "on 4 of 4 region samples, mirror reduction off" in message

    def test_complex_taper_runs_the_complex_path(self, monkeypatch):
        geometry, weights, scenario, metric = _phase_error_problem()
        assert _mirrored(metric.region.samples)         # the weights alone rule the reduction out
        seen = _exchanged_landscapes(monkeypatch)
        solve_constrained_l1(geometry, apply_failures(weights, scenario), metric, scenario.mask)
        assert seen and all(not land.real and land.m == metric.region.size for land in seen)

    @pytest.mark.parametrize("name", ["toy", "test_case_1", "test_case_2_sll22"])
    def test_half_region_matches_the_whole_complex_region(self, name, monkeypatch, caplog):
        res, w_faulty, land, rows = _first_solve(name)
        whole, whole_info = _exchange(land, rows)
        half = land.half()
        z, info = _exchange(half, rows[land.m - half.m:])
        assert info["verdict"] == whole_info["verdict"] == "optimal"
        assert np.isrealobj(z)
        l1, l1_whole = np.sum(np.abs(z)), np.sum(np.abs(whole))
        assert abs(l1 - l1_whole) <= 1e-8 * l1_whole
        assert info["rows"].size == half.m
        assert half.counts(info["rows"]) == (2 * info["rows"].sum(), land.m)   # as the records count it
        seen = _exchanged_landscapes(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="arraymend.solver"):
            delta = solve_constrained_l1(res.geometry, w_faulty, res.metric, res.scenario.mask,
                                         config=res.config)
        assert seen[0].real and np.all(delta.imag == 0)
        message = next(r.getMessage() for r in caplog.records if r.getMessage().startswith("cone IPM"))
        assert re.search(rf"on \d+ of {land.m} region samples, mirror reduction on", message)

    def test_mirrored_ray_weights_seed_a_proof(self):
        # size_scan_n100_row2's outer-infeasible removal ends the half region's
        # exchange with a ray; its weights seed a proof on the half which,
        # mirrored onto the whole region, proves the free-phase problem
        # infeasible there.
        name = "size_scan_n100_row2"
        res, w_faulty, mask = _recorded_removal(name, OUTER_INFEASIBLE[name])
        land = _Landscape(res.geometry, w_faulty, res.metric, ~mask)
        rows = _start_rows(land.ratios(np.zeros(land.A.shape[1], dtype=complex)),
                           _lobe_stride(res.geometry, res.metric.region.samples))
        half = land.half()
        _, info = _exchange(half, rows[land.m - half.m:])
        assert info["verdict"] == "ray"
        assert info["rows"].size == half.m and info["weights"].size == info["rows"].sum()
        lam = _certificate(half, info["rows"], info["weights"])
        assert lam is not None and lam.size == half.m
        support = np.flatnonzero(~mask)
        assert _certified_min_eig(res.geometry, w_faulty, res.metric, support, _mirror(lam, land.m)) > 0

    def test_half_counts_u_0_once(self, toy):
        # An odd mirrored region holds u = 0, the one sample that is its own
        # mirror image: a half working set counts it once.
        geometry, w_faulty, metric, mask = toy
        odd = AngularRegion(np.array([-0.6, -0.3, 0.0, 0.3, 0.6]))
        land = _Landscape(geometry, w_faulty, MetricSpec(region=odd, target_db=metric.target_db), ~mask)
        assert land.mirrored
        half = land.half()
        assert half.m == 3 and half.whole == 5            # u = 0, 0.3 and 0.6
        for rows, count in (([True, False, False], 1), ([True, True, False], 3),
                            ([False, True, True], 4), ([True, True, True], 5)):
            assert half.counts(np.array(rows)) == (count, 5)

    def test_certificate_guard_counts_the_whole_region(self, tc1_parts, monkeypatch):
        # The rounding guard 4*d*m*eps takes the whole region's m on the half
        # too: the half's count would halve a proof's safety margin. Read it
        # off the singularity test's matrix, P scaled to a unit diagonal less
        # the guard, on test_case_1's first solve (feasible, so no proof).
        geometry, weights, scenario, metric, _ = tc1_parts
        land = _Landscape(geometry, apply_failures(weights, scenario), metric, scenario.admissible)
        diagonals = []
        positive_definite = solver._positive_definite

        def recording(s):
            diagonals.append(np.diag(s).real)
            return positive_definite(s)

        monkeypatch.setattr(solver, "_positive_definite", recording)
        guard = 4.0 * land.A.shape[1] * land.m * np.finfo(float).eps    # homogeneous: d = f
        for form in (land, land.half()):
            diagonals.clear()
            assert _certificate(form, np.ones(form.m, dtype=bool)) is None
            assert 1.0 - diagonals[1] == pytest.approx(np.full(land.A.shape[1], guard), rel=1e-3)


class TestLandscapeMemory:
    @pytest.mark.parametrize("name", ["fail_rate_n50_row1", "size_scan_n100_row3"])
    def test_first_solve_holds_less_than_the_region_columns(self, name):
        # A solve gathers the free columns of the region's steering matrix only
        # on the rows its working sets read. With the region's shared matrix
        # built beforehand, its traced peak stays below one m x f complex copy
        # of those columns.
        res = resolve_scenario(load_spec(name))
        w_faulty = apply_failures(res.weights, res.scenario)
        steering_matrix(res.geometry, res.metric.region.samples)    # kept on the geometry
        columns = res.metric.region.size * res.scenario.n_controllable * 16
        tracemalloc.start()
        try:
            solve_constrained_l1(res.geometry, w_faulty, res.metric, res.scenario.mask, config=res.config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < columns


class TestCarriedFields:
    """
    The cone IPM carries its cone array s, whose sample cones are
    (sqrt(tau) Re F(0), Re F, Im F) at the embedding's scale tau, along its
    steps, and its primal residual is their distance from cones computed
    afresh. It must stay exact.
    """

    @staticmethod
    def _through_the_stages(land):
        z, info = _cone_ipm(land)
        assert info["verdict"] == "optimal", info
        assert info["primal"] <= _IPM_RESIDUAL
        assert land.worst_ratio(z) <= 1.0 + 1e-9
        return z

    def test_seeded_landscape_through_the_stages(self):
        self._through_the_stages(_below_faulty(_seeded_problem()))

    def test_first_solve_of_size_scan_n100_row3(self):
        res = resolve_scenario(load_spec("size_scan_n100_row3"))
        w_faulty = apply_failures(res.weights, res.scenario)
        z = self._through_the_stages(_Landscape(res.geometry, w_faulty, res.metric, res.scenario.admissible))
        # this problem's l1 optimum
        assert np.sum(np.abs(z)) == pytest.approx(1.1097, abs=1e-3)

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


def _certify(geometry, metric, land, half=False):
    """
    _certificate as the feasibility phase runs it from the zero correction, on
    land or, for half, on the half of its mirrored region with the weights
    mirrored back onto the whole region.
    """
    start = _start_rows(land.ratios(np.zeros(land.A.shape[1], dtype=complex)),
                        _lobe_stride(geometry, metric.region.samples))
    if not half:
        return _certificate(land, start)
    assert land.mirrored
    cone = land.half()
    lam = _certificate(cone, start[land.m - cone.m:])
    return None if lam is None else _mirror(lam, land.m)


class TestCertificate:
    def test_every_small_support_of_test_case_1_is_certified(self, tc1_parts):
        geometry, weights, scenario, metric, _ = tc1_parts
        w_faulty = apply_failures(weights, scenario)
        working = np.flatnonzero(scenario.admissible)
        zero_shares = []
        for size in (1, 2):
            for support in itertools.combinations(working, size):
                land = _support_landscape(geometry, w_faulty, metric, support)
                for half in (False, True):      # the whole region's search and the half's
                    lam = _certify(geometry, metric, land, half)
                    assert lam is not None, (support, half)
                    assert np.all(lam >= 0) and np.isclose(lam.sum(), 1.0)
                    assert _certified_min_eig(geometry, w_faulty, metric, support, lam) > 0, (support, half)
                    zero_shares.append(np.mean(lam == 0))
        assert max(zero_shares) > 0.5          # proofs found on a working set hold for the region

    def test_proof_rides_on_the_error(self, tc1_parts):
        # test_case_1's solves run on the half region; the proof comes back
        # mirrored onto the whole region.
        geometry, weights, scenario, metric, _ = tc1_parts
        w_faulty = apply_failures(weights, scenario)
        mask = np.ones(geometry.n, dtype=bool)
        mask[[0, 3]] = False
        with pytest.raises(InfeasibleError) as err:
            solve_constrained_l1(geometry, w_faulty, metric, mask)
        lam = err.value.weights
        assert err.value.certified
        assert lam.size == metric.region.samples.size
        assert np.all(lam >= 0) and np.isclose(lam.sum(), 1.0) and np.array_equal(lam, lam[::-1])
        assert _certified_min_eig(geometry, w_faulty, metric, (0, 3), lam) > 0

    def test_exact_check_carries_no_weights(self, toy):
        geometry, w_faulty, metric, _ = toy
        with pytest.raises(InfeasibleError) as err:
            solve_constrained_l1(geometry, w_faulty, metric, np.ones(4, dtype=bool))
        assert err.value.certified and err.value.weights is None

    def test_feasible_problems_are_not_certified(self, toy, tc1_parts):
        geometry, w_faulty, metric, mask = toy
        assert _certify(geometry, metric, _Landscape(geometry, w_faulty, metric, ~mask)) is None
        geometry, weights, scenario, metric, _ = tc1_parts
        w_faulty = apply_failures(weights, scenario)
        first_solve = _Landscape(geometry, w_faulty, metric, scenario.admissible)
        assert first_solve.homogeneous
        assert _certify(geometry, metric, first_solve) is None
        winner = _support_landscape(geometry, w_faulty, metric, (0, 3, 15))   # elements 1, 4, 16
        assert _certify(geometry, metric, winner) is None

    @pytest.mark.parametrize("kind", ["stride", "start", "whole"])
    def test_proof_is_zero_off_the_given_rows(self, tc1_parts, kind):
        # Small supports are proven on any of these sets. The minimum's support
        # 0.1 dB below its target is infeasible only just: its proof needs the
        # binding peaks, which the stride and the zero correction's start leave
        # out, so only the whole region proves it.
        geometry, weights, scenario, metric, _ = tc1_parts
        w_faulty = apply_failures(weights, scenario)
        stride = _lobe_stride(geometry, metric.region.samples)
        for support, below_db in [((0,), 0.0), ((4, 7), 0.0), ((0, 3, 15), 0.1)]:
            tight = MetricSpec(region=metric.region, target_db=metric.target_db - below_db)
            land = _support_landscape(geometry, w_faulty, tight, support)
            rows = {"stride": np.arange(land.m) % stride == 0,
                    "start": _start_rows(land.ratios(np.zeros(len(support), dtype=complex)), stride),
                    "whole": np.ones(land.m, dtype=bool)}[kind]
            lam = _certificate(land, rows)
            assert (lam is not None) == (below_db == 0.0 or kind == "whole"), support
            if lam is not None:
                assert np.all(lam[~rows] == 0), support
                assert _certified_min_eig(geometry, w_faulty, tight, support, lam) > 0, support

    def test_minimum_support_meets_its_target(self, tc1_parts):
        geometry, weights, scenario, metric, _ = tc1_parts
        w_faulty = apply_failures(weights, scenario)
        mask = np.ones(geometry.n, dtype=bool)
        mask[[0, 3, 15]] = False                # elements 1, 4, 16
        delta = solve_constrained_l1(geometry, w_faulty, metric, mask)
        assert np.all(delta[mask] == 0) and np.any(delta != 0)
        land = _Landscape(geometry, w_faulty, metric, ~mask)
        assert land.worst_ratio(delta[~mask]) <= 1.0 + 1e-7

    def test_minimum_support_below_its_target_is_certified_by_the_exchange(self, tc1_parts):
        # The up-front search on the start set cannot prove it (above); the
        # exchange grows its set to the binding peaks and ends with no answer,
        # and the second search, on that set, proves it.
        geometry, weights, scenario, metric, _ = tc1_parts
        w_faulty = apply_failures(weights, scenario)
        metric = MetricSpec(region=metric.region, target_db=metric.target_db - 0.1)
        mask = np.ones(geometry.n, dtype=bool)
        mask[[0, 3, 15]] = False
        with pytest.raises(InfeasibleError) as err:
            solve_constrained_l1(geometry, w_faulty, metric, mask)
        assert err.value.certified
        assert _certified_min_eig(geometry, w_faulty, metric, (0, 3, 15), err.value.weights) > 0

    def test_unreachable_target_is_certified_on_the_homogeneous_form(self):
        geometry, w_faulty, metric, support = _unreachable()
        land = _support_landscape(geometry, w_faulty, metric, support)
        assert land.homogeneous       # the faulty excitations all sit on free elements
        lam = _certify(geometry, metric, land)
        assert lam is not None
        assert _certified_min_eig(geometry, w_faulty, metric, support, lam, homogeneous=True) > 0

    def test_start_with_no_broadside_field_uses_the_stride(self):
        # At z = -w_free the array is all zero: F(0) = 0 leaves the start's ratio undefined.
        geometry, w_faulty, metric, support = _unreachable()
        land = _support_landscape(geometry, w_faulty, metric, support)
        z = -w_faulty[support]
        assert land.fields(z)[1] == 0
        stride = _lobe_stride(geometry, metric.region.samples)
        mask = np.ones(geometry.n, dtype=bool)
        mask[support] = False
        start = np.zeros(geometry.n, dtype=complex)
        start[support] = z
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = _start_rows(land.ratios(z), stride)
            lam = _certificate(land, rows)
            with pytest.raises(InfeasibleError) as err:
                solve_constrained_l1(geometry, w_faulty, metric, mask, start=start)
        assert np.array_equal(np.flatnonzero(rows), np.arange(0, land.m, stride))
        assert lam is not None and err.value.certified
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
            assert _certificate(land, np.ones(land.m, dtype=bool)) is None

    def test_non_finite_weights_never_prove(self, toy):
        # np.linalg.cholesky factors a NaN matrix without raising, and a
        # stalled solve's weights seed the search: a proof must be finite.
        geometry, w_faulty, metric, mask = toy
        hopeless = MetricSpec(region=metric.region, target_db=-100.0)
        land = _Landscape(geometry, w_faulty, hopeless, ~mask)
        rows = np.ones(land.m, dtype=bool)
        assert _certificate(land, rows) is not None
        assert _certificate(land, rows, np.full(land.m, np.nan)) is None

    def test_margin_keeps_barely_feasible_problem_uncertified(self):
        # One free element carries the whole array, so every correction gives
        # |F(u)|^2 = |F(0)|^2 on every sample: a worst ratio of 1 - 5e-7, which
        # meets the bound by less than the certificate's margin.
        geometry = uniform_positions(2, 0.5)
        region = AngularRegion(np.array([-0.9, -0.5, 0.5, 0.9]))
        metric = MetricSpec(region=region, target_db=-10.0 * np.log10(1.0 - 5e-7))
        land = _Landscape(geometry, np.array([0.0, 1.0]), metric, np.array([False, True]))
        assert land.worst_ratio(np.array([0.3 + 0.1j])) == pytest.approx(1.0 - 5e-7, abs=1e-12)
        assert _certify(geometry, metric, land) is None

    def test_never_certifies_where_an_inscribed_polygon_lp_is_feasible(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(7)
        sides = 16
        counts = {"lp_feasible": 0, "certified": 0, "certified_on_the_half": 0}
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
                lam = _certify(geometry, metric, land)
                lam_half = _certify(geometry, metric, land, half=True)
                if z is not None and land.worst_ratio(z) <= 1.0:
                    counts["lp_feasible"] += 1
                    assert lam is None and lam_half is None, (n, faults, support)
                counts["certified"] += lam is not None
                counts["certified_on_the_half"] += lam_half is not None
                if lam_half is not None:
                    assert _certified_min_eig(geometry, w_faulty, metric, support, lam_half) > 0
        assert all(counts.values()), counts


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
