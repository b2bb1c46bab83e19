"""
Constrained minimum-l1 search for excitation corrections.

Solves, over the unmasked entries of a correction vector dw,

    minimize    sum_n |dw_n|
    subject to  |F(u; w + dw)|^2 <= ratio * |F(0; w + dw)|^2   for u in region
                dw_n = 0 on masked elements

with ratio = 10^(target_db / 10). The unknowns are the real and imaginary
parts of the free entries; everything is deterministic.

Two phases:

* feasibility phase: first a search for a dual certificate of
  infeasibility, a weighting of the region samples whose weighted sidelobe
  power exceeds the bound for every correction (Elfving's c-optimal-design
  duality over the convex cone form of Lebret & Boyd). A certificate raises
  InfeasibleError(certified=True) at once; it exists only when the descent
  below could never succeed, so it changes no verdict. Otherwise
  Barzilai-Borwein gradient descent with a nonmonotone backtracking line
  search on the squared hinge of the per-sample relative violations (exact
  gradients, including the broadside-growth term) runs until the bound
  holds strictly. Failure to reach the feasible region then raises an
  uncertified InfeasibleError: the descent stalled, which proves nothing.
* shrink phase: log-barrier stages over the per-sample constraints
  ratio*|F(0)|^2 - |F(u)|^2 > 0, each stage minimized by damped Newton
  steps (analytic Hessian, ridge-escalated Cholesky). The l1 objective is
  smoothed as sqrt(|dw|^2 + mu^2) with mu annealed toward zero while the
  barrier weight grows geometrically; the barrier domain keeps every
  iterate feasible. The Hessian's barrier curvature is one Hermitian Gram
  A^H diag(w) A, a Toeplitz gather of a single matrix-vector product when
  the elements sit on a lattice x_n = x_0 + n*d (a dense real product
  otherwise), one symmetric rank-m product B^T B, and rank-one terms. Each
  stage computes the fields F(u), F(0) exactly once at its start and then
  carries them: a Newton step costs one product A @ step, and every
  line-search candidate is priced in O(m).

SolverConfig holds the one setting callers change, constraint_tol_db. The
rest are module constants: _FEASIBILITY_STEPS, _MIN_STEP, _MAX_STAGES,
_STAGE_STEPS, _OPTIMALITY_TOL, _SMOOTH_*, _BARRIER_* and ZERO_THRESHOLD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericalFailureError
from .model import ArrayGeometry, MetricSpec, as_weights, steering_matrix

_ARMIJO = 1e-4
_STEP_GROW = 2.0
_STEP_MAX = 1e12
_NONMONOTONE_WINDOW = 10
_STALL_WINDOW = 120
_CERT_MARGIN = 1e-6     # a certificate bounds the sidelobe power this far above the target
_CERT_ITERATIONS = 200  # weight updates before the certificate search gives up
_CERT_TREND = 10        # updates over which the search's progress is extrapolated
_CERT_BLOCK = 8192      # entries (samples x unknowns) per block of the weighted Gram matrix
_LATTICE_ULPS = 16     # relative position error, in ulps, that a lattice Gram tolerates
_FEASIBILITY_STEPS = 2000  # descent-step budget of the feasibility phase
_MIN_STEP = 1e-10          # smallest accepted line-search step
_MAX_STAGES = 500          # cap on barrier stages
_STAGE_STEPS = 20          # Newton-step cap of one barrier stage
_OPTIMALITY_TOL = 1e-6     # first-order stationarity target
_SMOOTH_START = 1e-2       # l1 smoothing anneal
_SMOOTH_FLOOR = 1e-8
_SMOOTH_DECAY = 0.1
_BARRIER_START = 1.0       # barrier weight anneal
_BARRIER_GROWTH = 10.0
ZERO_THRESHOLD = 1e-12  # correction magnitudes at or below this do not count as changes


@dataclass(frozen=True)
class SolverConfig:
    """The solve's one result-changing setting."""

    constraint_tol_db: float = 0.02  # accepted overshoot of the dB target

    def __post_init__(self):
        tol = self.constraint_tol_db
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < np.inf:
            raise ValueError(f"constraint_tol_db must be a positive finite number, got {tol!r}")


def l1_norm(delta) -> float:
    """Sum of complex magnitudes of the correction entries."""
    return float(np.sum(np.abs(as_weights(delta))))


def l0_norm(delta, zero_threshold: float) -> int:
    """Number of correction entries with magnitude above the threshold."""
    if zero_threshold < 0:
        raise ValueError("zero_threshold must be non-negative")
    return int(np.count_nonzero(np.abs(as_weights(delta)) > zero_threshold))


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    # Euclidean inner product of the underlying real parameter vectors.
    return float(np.real(np.vdot(a, b)))


def _lattice_lags(positions: np.ndarray, free: np.ndarray) -> np.ndarray | None:
    """
    Lag gather index of the free columns' Gram when x_n = x_0 + n*d, else None.

    On such a lattice, sum_u w_u conj(A_uk) A_un depends only on the lag
    n - k, so lags[k, n] = n - k + N - 1 indexes a vector of the 2N - 1 lags.
    """
    n = positions.size
    d = (positions[-1] - positions[0]) / (n - 1)
    off = positions - (positions[0] + d * np.arange(n))
    if np.max(np.abs(off)) > _LATTICE_ULPS * np.finfo(float).eps * np.max(np.abs(positions)):
        return None
    idx = np.flatnonzero(free)
    return idx[None, :] - idx[:, None] + (n - 1)


class _Landscape:
    """Pattern pieces of one solve: fixed faulty fields plus free-column steering."""

    def __init__(self, geometry: ArrayGeometry, w_faulty: np.ndarray,
                 metric: MetricSpec, free: np.ndarray):
        full = steering_matrix(geometry, metric.region.samples)
        self.A = full[:, free]
        self.full = full            # the geometry's shared matrix, not a copy
        self.lags = _lattice_lags(geometry.positions, free)
        self.F_base = full @ w_faulty
        self.F0_base = complex(np.sum(w_faulty))
        self.tau = 10.0 ** (metric.target_db / 10.0)
        self.m = int(metric.region.samples.size)
        # The faulty excitations sit on free elements only, so the pattern is
        # linear in x = z + w_free and x = 0 (an all-zero array) is reachable.
        self.homogeneous = not np.any(w_faulty[~free])

    def fields(self, z: np.ndarray):
        return self.F_base + self.A @ z, self.F0_base + np.sum(z)

    def worst_ratio(self, z: np.ndarray) -> float:
        """max |F(u)|^2 / (ratio * |F(0)|^2); feasible iff <= 1."""
        f, f0 = self.fields(z)
        p0 = abs(f0) ** 2
        if p0 == 0.0:
            return np.inf
        return float(np.max(np.abs(f) ** 2) / (self.tau * p0))


def _descend(fun, z, max_steps: int, min_step: float, grad_tol: float, success=None):
    """
    Gradient descent with BB step seeding and backtracking.

    fun(z, with_grad) returns the objective value (np.inf outside the
    domain) and, when asked, the gradient packed as a complex vector
    (d/dRe + i*d/dIm). The sufficient-decrease test is nonmonotone
    (against the worst of the last few accepted values) so the BB step
    length is rarely truncated. Returns (z, value, steps_used, status)
    with status one of "met", "converged", "stalled", "tiny", "budget".
    """
    value, grad = fun(z, True)
    if not np.isfinite(value):
        raise NumericalFailureError("descent started outside the domain")
    alpha = 1.0 / max(1.0, np.sqrt(_real_dot(grad, grad)))
    prev_z = prev_grad = None
    recent = [value]
    best_z, best_value = z, value
    best_step = 0
    steps = 0
    while steps < max_steps:
        if success is not None and success(value, z):
            return z, value, steps, "met"
        if steps - best_step > _STALL_WINDOW:
            return best_z, best_value, steps, "stalled"
        gnorm2 = _real_dot(grad, grad)
        if np.sqrt(gnorm2) <= grad_tol:
            return z, value, steps, "converged"
        if prev_z is not None:
            s = z - prev_z
            y = grad - prev_grad
            sy = _real_dot(s, y)
            alpha = _real_dot(s, s) / sy if sy > 0 else alpha * _STEP_GROW
        alpha = float(np.clip(alpha, 1e-18, _STEP_MAX))
        bound = max(recent)
        t = alpha
        z_new = v_new = None
        while t >= min_step:
            cand = z - t * grad
            v_cand, _ = fun(cand, False)
            if v_cand <= bound - _ARMIJO * t * gnorm2:
                z_new, v_new = cand, v_cand
                break
            t *= 0.5
        if z_new is None:
            return (best_z, best_value, steps, "tiny") if best_value < value else (z, value, steps, "tiny")
        prev_z, prev_grad = z, grad
        z, value = z_new, v_new
        _, grad = fun(z, True)
        if not (np.isfinite(value) and np.all(np.isfinite(grad))):
            raise NumericalFailureError("non-finite objective or gradient")
        recent.append(value)
        if len(recent) > _NONMONOTONE_WINDOW:
            recent.pop(0)
        if best_value - value > 1e-12 * max(1.0, abs(best_value)):
            best_z, best_value, best_step = z, value, steps
        steps += 1
    if best_value < value:
        return best_z, best_value, steps, "budget"
    return z, value, steps, "budget"


def _adjoint(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # a^H x without materializing a conjugate copy of a.
    return np.conj(a.T @ np.conj(x))


def _violation(land: _Landscape, z: np.ndarray, with_grad: bool, push: float = 1e-6):
    """Squared hinge of the relative constraint violations and its gradient.

    The bound is tightened by the relative push so that a zero residual
    leaves the iterate strictly inside the true feasible region.
    """
    f, f0 = land.fields(z)
    p0 = abs(f0) ** 2
    if p0 <= 0.0:
        return np.inf, None
    tau = land.tau * (1.0 - push)
    q = np.abs(f) ** 2
    r = q / (tau * p0) - 1.0
    hinge = np.maximum(r, 0.0)
    value = float(np.sum(hinge ** 2))
    if not with_grad:
        return value, None
    c = 2.0 * hinge / (tau * p0)
    gamma = float(np.sum(c * q)) / p0
    grad = 2.0 * _adjoint(land.A, c * f) - 2.0 * gamma * f0
    return value, grad


def _weighted_gram(land: _Landscape, lam: np.ndarray) -> np.ndarray:
    """P = sum_u lam_u conj(g_u) g_u^T over g_u = (A_u, F_base_u), or A_u when homogeneous."""
    f = land.A.shape[1]
    d = f if land.homogeneous else f + 1
    p = np.zeros((d, d), dtype=complex)
    rows = np.flatnonzero(lam)
    step = max(1, _CERT_BLOCK // d)
    # blocks of samples keep every temporary small next to the m x f steering columns
    for r in range(0, rows.size, step):
        i = rows[r:r + step]
        a, w = land.A[i], lam[i]
        p[:f, :f] += _adjoint(a, a * w[:, None])
        if not land.homogeneous:
            fb = land.F_base[i]
            p[:f, f] += _adjoint(a, w * fb)
            p[f, f] += np.sum(w * np.abs(fb) ** 2)
    if not land.homogeneous:
        p[f, :f] = np.conj(p[:f, f])
    return p


def _positive_definite(s: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return False
    return True


def _certificate(land: _Landscape) -> np.ndarray | None:
    """
    Region-sample weights proving that no correction meets the bound, or None.

    Write F(u) = g_u^T y and F(0) = h^T y with y = (z, 1). Weights lam >= 0
    summing to 1 for which P(lam) - tau*(1 + margin)*conj(h) h^T is positive
    definite, P(lam) = sum_u lam_u conj(g_u) g_u^T, give
    sum_u lam_u |F(u)|^2 > tau*(1 + margin)*|F(0)|^2 for every z, so some
    sample exceeds the bound by more than the margin. When the landscape is
    homogeneous the proof runs on x = z + w_free (g_u = A_u, h = 1) instead:
    there x = 0 is an exact null vector of the (z, 1) form, and the all-zero
    array it stands for has F(0) = 0, which no correction can use.

    The weights follow the multiplicative c-optimal-design update
    lam_u <- lam_u * |g_u^T v| with v = P^-1 conj(h) (Elfving's duality);
    weights below 1e-12 of the largest are set to zero so that they cost no
    Gram rows. The search gives up
    - when P is singular;
    - when v meets the bound itself, since then no weighting can exclude it;
    - when 1/(h^T v), the least sum_u lam_u |F(u)|^2 / |F(0)|^2 these
      weights allow, would still be below the target at the update cap if
      it kept the pace of its last few updates (the pace slows as the
      weights converge, so this extrapolation is optimistic);
    - at the update cap.
    Positive definiteness is tested on the matrix scaled by P's diagonal,
    less 4*d*m*eps: each entry of the scaled P carries at most about m*eps of
    rounding, so the test cannot pass on rounding alone.
    """
    f = land.A.shape[1]
    d = f if land.homogeneous else f + 1
    h = np.ones(d, dtype=complex)
    if not land.homogeneous:
        h[f] = land.F0_base
    tau = land.tau * (1.0 + _CERT_MARGIN)
    bound = tau * np.outer(np.conj(h), h)
    guard = 4.0 * d * land.m * np.finfo(float).eps * np.eye(d)
    lam = np.full(land.m, 1.0 / land.m)
    lows = []
    for it in range(_CERT_ITERATIONS):
        p = _weighted_gram(land, lam)
        inv = 1.0 / np.sqrt(np.diag(p).real)
        unit = np.outer(inv, inv)
        if _positive_definite((p - bound) * unit - guard):
            return lam
        if not _positive_definite(p * unit - guard):
            return None
        v = np.linalg.solve(p, np.conj(h))
        gv = np.abs(land.A @ v[:f] + (0.0 if land.homogeneous else land.F_base * v[f]))
        if land.tau * abs(h @ v) ** 2 >= np.max(gv) ** 2:
            return None
        lows.append(1.0 / (h @ v).real)
        if it >= _CERT_TREND:
            rate = (lows[-1] - lows[-1 - _CERT_TREND]) / _CERT_TREND
            if lows[-1] + (_CERT_ITERATIONS - it) * rate < tau:
                return None
        lam = lam * gv
        lam[lam < 1e-12 * np.max(lam)] = 0.0
        lam /= np.sum(lam)
    return None


def _feasibility_phase(land: _Landscape, z: np.ndarray) -> np.ndarray:
    if _certificate(land) is not None:
        raise InfeasibleError(
            "certified: a weighting of the region samples keeps the sidelobe power "
            "above the bound for every correction", certified=True,
        )
    strict = 1.0 - 1e-7

    def fun(x, with_grad):
        return _violation(land, x, with_grad)

    def success(value, x):
        return land.worst_ratio(x) <= strict

    z, value, _, status = _descend(
        fun, z, _FEASIBILITY_STEPS, _MIN_STEP, grad_tol=1e-14, success=success,
    )
    if status != "met" and land.worst_ratio(z) > strict:
        raise InfeasibleError(
            f"no point satisfying the sidelobe bound found ({status}, residual {value:.3e})"
        )
    return z


def _stage_fun(land: _Landscape, t: float, mu: float, scale: float):
    """Barrier objective of one stage, given z and its fields f = F(u), f0 = F(0)."""
    tau = land.tau

    def fun(z, f, f0, with_grad):
        b = tau * abs(f0) ** 2 - np.abs(f) ** 2
        if np.any(b <= 0.0):
            return np.inf, None
        s = np.sqrt(np.abs(z) ** 2 + mu * mu)
        value = float(np.sum(s)) + float(np.sum(-np.log(b / scale))) / t
        if not with_grad:
            return value, None
        c = 1.0 / b
        grad = z / s + (2.0 * _adjoint(land.A, c * f) - tau * float(np.sum(c)) * 2.0 * f0) / t
        return value, grad

    return fun


def _gram(land: _Landscape, w: np.ndarray) -> np.ndarray:
    """A^H diag(w) A for real w > 0: a Toeplitz gather on a lattice, else a real syrk."""
    if land.lags is not None:
        lag = (w * np.conj(land.full[:, 0])) @ land.full    # lags 0 .. N-1
        return np.concatenate([np.conj(lag[:0:-1]), lag])[land.lags]
    m, nfree = land.A.shape
    v = np.empty((m, 2 * nfree))
    root = np.sqrt(w)[:, None]
    np.multiply(land.A.real, root, out=v[:, :nfree])
    np.multiply(land.A.imag, root, out=v[:, nfree:])
    vv = v.T @ v
    re, im = vv[:nfree], vv[nfree:]
    return (re[:, :nfree] + im[:, nfree:]) + 1j * (re[:, nfree:] - im[:, :nfree])


def _stage_hessian(land: _Landscape, z: np.ndarray, f: np.ndarray, f0: complex,
                   t: float, mu: float) -> np.ndarray:
    """
    Hessian of the stage objective in stacked (Re z, Im z) coordinates.

    The barrier part is (RB(P) + S(G)/2) / t with RB(P) = [[Re P, -Im P],
    [Im P, Re P]] and S(G) = [[Re G, Im G], [Im G, -Re G]], where, with
    c = 1/b, k = 2*tau*F0, r = A^H (c^2 F) and B = diag(c F) conj(A),
        P = A^H diag(2c + 2c^2|F|^2) A - conj(k) r 1^T - k 1 r^H
            + |k|^2 sum(c^2) / 2 - 2 tau sum(c)
        G = 4 B^T B - 2k (r 1^T + 1 r^T) + k^2 sum(c^2).
    They are the curvature of each |F(u)|^2, the outer products of the
    constraint gradients 2 conj(A_u) F(u) - k (split into a Hermitian and a
    symmetric part) and the broadside-power curvature, the nonconvex part.
    """
    nfree = z.size
    tau = land.tau
    b = tau * abs(f0) ** 2 - np.abs(f) ** 2

    s = np.sqrt(np.abs(z) ** 2 + mu * mu)
    inv_s = 1.0 / s
    a_re, a_im = z.real, z.imag
    h = np.zeros((2 * nfree, 2 * nfree))
    i = np.arange(nfree)
    h[i, i] = inv_s - a_re * a_re * inv_s ** 3
    h[nfree + i, nfree + i] = inv_s - a_im * a_im * inv_s ** 3
    h[i, nfree + i] = h[nfree + i, i] = -a_re * a_im * inv_s ** 3

    c = 1.0 / b
    cf = c * f
    c2sum = float(np.sum(c * c))
    k = 2.0 * tau * f0
    r = _adjoint(land.A, c * cf)
    p = _gram(land, 2.0 * c + 2.0 * np.abs(cf) ** 2)
    p -= np.conj(k) * r[:, None] + k * np.conj(r)[None, :]
    p += 0.5 * abs(k) ** 2 * c2sum - 2.0 * tau * float(np.sum(c))
    bm = land.A * np.conj(cf)[:, None]   # conj(B), the one m x f temporary: it sets the peak memory
    g = 4.0 * np.conj(bm.T @ bm)         # B^T B from one symmetric rank-m product (syrk)
    del bm
    g -= 2.0 * k * (r[:, None] + r[None, :])
    g += k * k * c2sum
    g *= 0.5
    h[:nfree, :nfree] += (p.real + g.real) / t
    h[:nfree, nfree:] += (g.imag - p.imag) / t
    h[nfree:, :nfree] += (p.imag + g.imag) / t
    h[nfree:, nfree:] += (p.real - g.real) / t
    return h


def _newton_stage(land: _Landscape, z: np.ndarray, t: float, mu: float,
                  max_iters: int, min_step: float, tol: float):
    """
    Damped Newton minimization of one barrier stage; returns (z, F(u), F(0)).

    The fields are computed exactly at the start and then carried: a step
    costs one product A @ step, and each line-search candidate F + alpha*dF
    is priced in O(m).
    """
    nfree = z.size
    f, f0 = land.fields(z)
    scale = land.tau * abs(f0) ** 2
    fun = _stage_fun(land, t, mu, scale)

    value, grad = fun(z, f, f0, True)
    if not np.isfinite(value):
        raise NumericalFailureError("barrier stage started outside the domain")
    for _ in range(max_iters):
        g_real = np.concatenate([grad.real, grad.imag])
        gnorm = float(np.linalg.norm(g_real))
        if gnorm <= tol:
            break
        h = _stage_hessian(land, z, f, f0, t, mu)
        diag = np.arange(2 * nfree)
        base = max(1.0, float(np.trace(h)) / (2 * nfree))
        step_real = None
        ridge = 1e-12 * base
        for _ in range(25):
            try:
                hc = h.copy()
                hc[diag, diag] += ridge
                np.linalg.cholesky(hc)  # positive-definiteness check
                step_real = np.linalg.solve(hc, -g_real)
                break
            except np.linalg.LinAlgError:
                ridge *= 100.0
        if step_real is None:
            step_real = -g_real
        step = step_real[:nfree] + 1j * step_real[nfree:]
        slope = float(g_real @ step_real)
        if slope >= 0:  # not a descent direction; fall back to steepest descent
            step = -grad
            slope = -gnorm ** 2
        d_f = land.A @ step
        d_f0 = np.sum(step)

        alpha = 1.0
        accepted = False
        while alpha >= min_step:
            cand, f_cand, f0_cand = z + alpha * step, f + alpha * d_f, f0 + alpha * d_f0
            v_cand, _ = fun(cand, f_cand, f0_cand, False)
            if v_cand <= value + _ARMIJO * alpha * slope:
                z, f, f0, value = cand, f_cand, f0_cand, v_cand
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        _, grad = fun(z, f, f0, True)
        if not np.all(np.isfinite(grad)):
            raise NumericalFailureError("non-finite gradient in barrier stage")
    return z, f, f0


def _shrink_phase(land: _Landscape, z: np.ndarray) -> np.ndarray:
    t = _BARRIER_START
    mu = _SMOOTH_START
    for _ in range(_MAX_STAGES):
        stage_tol = max(_OPTIMALITY_TOL, 1e-4 / np.sqrt(t))
        z = _newton_stage(land, z, t, mu, _STAGE_STEPS, _MIN_STEP, stage_tol)[0]
        gap_ok = land.m / t <= _OPTIMALITY_TOL * max(1.0, float(np.sum(np.abs(z))))
        mu_ok = mu <= _SMOOTH_FLOOR * (1.0 + 1e-12)
        if gap_ok and mu_ok:
            break
        if not gap_ok:
            t *= _BARRIER_GROWTH
        mu = max(mu * _SMOOTH_DECAY, _SMOOTH_FLOOR)
    return z


def solve_constrained_l1(geometry: ArrayGeometry, w_faulty, metric: MetricSpec,
                         mask, start=None, config: SolverConfig | None = None) -> np.ndarray:
    """
    Smallest-l1 correction of the faulty excitations meeting the metric target.

    mask marks elements whose correction entry is pinned to zero (failed
    elements plus any entries the caller has frozen). The returned vector is
    exactly zero there. Raises InfeasibleError when no correction within the
    mask can meet the target (its certified flag tells a proof from a stalled
    search), NumericalFailureError on non-finite values.
    """
    cfg = config if config is not None else SolverConfig()
    w = as_weights(w_faulty, geometry.n)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (geometry.n,):
        raise ValueError("mask length must match the array size")
    free = ~mask
    nfree = int(free.sum())
    land = _Landscape(geometry, w, metric, free)

    tol_ratio = 10.0 ** (cfg.constraint_tol_db / 10.0)
    zero_free = np.zeros(nfree, dtype=complex)

    # The zero correction is l1-optimal whenever it is admissible.
    if land.worst_ratio(zero_free) <= tol_ratio:
        return np.zeros(geometry.n, dtype=complex)
    if nfree == 0:
        raise InfeasibleError("no free elements and the zero correction misses the target",
                              certified=True)

    if start is None:
        z = zero_free
        start_l1 = None
    else:
        s = as_weights(start, geometry.n)
        if np.any(s[mask] != 0):
            raise ValueError("start vector must be zero on masked elements")
        z = s[free].copy()
        start_l1 = float(np.sum(np.abs(z))) if land.worst_ratio(z) <= tol_ratio else None

    if land.worst_ratio(z) > 1.0 - 1e-7:
        try:
            z = _feasibility_phase(land, z)
        except InfeasibleError:
            if start_l1 is not None:
                # the warm start already met the toleranced bound; keep it
                delta = np.zeros(geometry.n, dtype=complex)
                delta[free] = as_weights(start, geometry.n)[free]
                return delta
            raise
    z = _shrink_phase(land, z)

    if land.worst_ratio(z) > tol_ratio:
        raise NumericalFailureError("shrink phase left the constraint violated")
    if start_l1 is not None and float(np.sum(np.abs(z))) > start_l1:
        z = as_weights(start, geometry.n)[free].copy()

    delta = np.zeros(geometry.n, dtype=complex)
    delta[free] = z
    return delta
