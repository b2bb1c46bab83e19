"""
Constrained minimum-l1 search for excitation corrections.

Solves, over the unmasked entries of a correction vector dw,

    minimize    sum_n |dw_n|
    subject to  |F(u; w + dw)|^2 <= ratio * |F(0; w + dw)|^2   for u in region
                dw_n = 0 on masked elements

with ratio = 10^(target_db / 10). The unknowns are the real and imaginary
parts of the free entries (the cone phase keeps only the real parts for real
excitations on a mirrored region, below); everything is deterministic.

A solve returns a correction that meets the bound, or raises; a certified
InfeasibleError carries its proof, a certificate's weights on the whole
region's samples, proved for the elements outside the caller's mask, so
that a caller can test the same weights on other supports (proves). The
problem is homogeneous in the excitations, and a solve runs in units of the
power of two nearest their largest magnitude times the phase of their
broadside field (an exact rescaling and rotation; below), so the absolute
floors below mean the same whatever the weights' units. A solve takes four
steps:

* the zero correction is returned when it meets the toleranced target; with
  no free element left, a miss is certified infeasible.
* certificate (skipped when the start correction meets the bound, and run
  again when the exchange has no answer): a search for a dual certificate of
  infeasibility, a weighting of the region samples whose weighted sidelobe
  power exceeds the bound for every correction (Elfving's c-optimal-design
  duality over the convex cone form of Lebret & Boyd). A certificate raises
  InfeasibleError(certified=True) at once, with its weights mirrored back
  onto the whole region when they were found on the half (below). It covers
  the free-phase problem above, which the cone program below only restricts.
  The first search runs on the working set the exchange below starts from,
  built from the solve's start correction; the second on the exchange's
  final working set, seeded with its last round's weights. A search never
  widens its set (the exchange is the one loop that grows a set of region
  samples): a proof's weights are zero off it, and as they still weight
  the region, a proof found there holds for the whole region. Its weighted
  Gram matrix is a Toeplitz gather on a lattice (_gram). Each search
  is logged at DEBUG, with its outcome, updates and working set.
* cone phase: a primal-dual interior-point method in the homogeneous
  self-dual model (Ye, Todd & Mizuno, Math. Oper. Res. 1994; for second-order
  cones as in ECOS, Domahidi, Chu & Boyd, ECC 2013), with Nesterov-Todd
  scaling and Mehrotra's predictor-corrector (Vandenberghe, "The CVXOPT
  linear and quadratic cone program solvers", 2010), for the cone program of
  Lebret & Boyd (IEEE TSP 1997):

      minimize    sum_n t_n
      subject to  |dw_n| <= t_n,  |F(u)| <= sqrt(ratio) Re F(0).

  As Re F(0) <= |F(0)|, this is a convex restriction of the problem above.
  It fixes the phase of F(0) at 0, as Lebret & Boyd do, where the problem
  above is invariant under a global phase of the excitations. So the solve's
  units carry the phase of the faulty F(0): the restriction is taken about
  the faulty pattern's own phase, and a taper times e^(j theta) gets the
  real taper's answer times e^(j theta), within the solve's tolerances (on
  test_case_1 at theta = 0.3, l1 within 1e-10 relative). A real F(0) keeps
  the phase exactly 1, or -1 when it is negative, so a real taper stays
  real. A rotated real taper keeps imaginary parts at rounding level; when
  they are at most _LATTICE_ULPS ulps of the largest magnitude they are set
  to 0, so it takes the real taper's program (the mirror reduction below)
  and its steps. Proofs need no rotation: rotating the faulty fields and F(0)
  together turns P(lam) - tau' conj(h) h^T into a congruent matrix. The
  embedding adds the scalars tau and kappa: it starts from the central point
  (x = 0, s = z = e, tau = kappa = 1), needs no feasible point, and ends
  with one of three verdicts.
  - optimal: the duality gap relative to max(1, |primal objective|,
    |dual objective|) and the relative primal and dual residuals are all at
    most 1e-8; the answer is x / tau.
  - ray: the dual iterate is a Farkas ray showing that no x of norm below
    1e4 (in the solve's units) meets the cone program's constraints. It
    proves only the restriction infeasible.
  - undecided: the solve stalled or reached its iteration cap; its point is
    its best iterate.
  Each iteration builds one normal matrix G^T W^-2 G: two real products
  over one stacked real operator from the unknowns to (Re F, Im F)
  (_Landscape.stacked; a complex program is the same real program over
  (Re z, Im z)), rank-one terms, and each l1 cone's W^-2 (a 3x3 matrix per
  cone, held as a (3, 3, f + m) array) with t eliminated. Its
  inverse serves three KKT solves per iteration (the tau column, the
  predictor and the corrector), each refined twice against the assembled
  normal matrix itself, not against the operator form (_newton_solver). The
  scaling is carried from step to step in the scaled frame, where the
  iterates stay well inside the cones. Every cone quantity (h, s, the dual
  iterate, the scaled point lam, the directions and the scaling) is a
  (3, f + m) array, one contiguous row per cone component, so each per-cone
  product is a few operations on whole rows. Entries at or below
  ZERO_THRESHOLD, in the solve's units, are returned as exact zeros.

  The IPM runs inside an exchange loop (Hettich & Kortanek, "Semi-infinite
  programming", SIAM Review 1993): an optimum meets the bound at a few dozen
  peaks among thousands of region samples. The working set starts with
  about four samples per sidelobe width 1/(x_max - x_min) in u, plus a
  window of two samples on each side of every local maximum of the start
  correction's ratio |F|^2 / (ratio |F(0)|^2) that reaches half its maximum.
  Each round solves on the working set, then checks every region sample
  with one product. A round's point is the answer when it exceeds the bound
  by at most 1e-7 (relative) on every sample and the round ended within 100
  times the IPM's targets (1e-6; every optimal round does) or on the whole
  region, where no wider set is left: the set's program is a relaxation, so
  its optimum, or a point within its gap of it, is the region's. An optimal
  round that breaks the bound outside the set adds those samples and windows
  around every local maximum of its ratio at or above 0.5; any other round,
  and the eighth, widen the set to the whole region, whose solve is the
  last. A ray (on the set, it holds for the region) and a whole-region round
  whose point breaks the bound leave no answer: the last round's sample-cone
  weights z_u0 then seed the certificate on the final working set, and
  without a proof an uncertified InfeasibleError names the verdict and the
  gap. Each solve is logged at DEBUG, with its verdict, rounds, final
  working set and region size (counted on the whole region), whether the
  mirror reduction ran, iterations, gap, residuals, tau and kappa.

  Mirror reduction. When the faulty excitations are real and the region's
  sorted samples mirror each other (u_k = -u_(m-1-k) to within
  _LATTICE_ULPS), F(-u; w + conj(z)) = conj F(u; w + z), so the cone program
  is invariant under (z, u) -> (conj(z), -u). It is convex, so the average
  of an optimum and its conjugate is a real optimum (the group-averaging
  argument of Gatermann & Parrilo, J. Pure Appl. Algebra 2004), and a real z
  has |F(-u)| = |F(u)|. The exchange and the IPM then run on the u >= 0 half
  of the region (slices of the whole region's arrays) with Re z as the only
  unknowns: the l1 cones keep their third components at exactly 0, and the
  normal matrix is its f x f Re z block. Both certificate searches run on
  the same half. The free-phase problem is not convex, but its
  certificates are: the weights lam >= 0 with P(lam) - tau' conj(h) h^T
  positive definite form a convex set. As g_(-u) = conj(g_u) and h is
  real, mirroring lam conjugates P(lam) and keeps the set, so averaging
  turns any proof into a mirrored one, whose P(lam) is the real part of the
  half's Gram (u and -u each taking half of lam_u). A real
  P(lam) - tau' h h^T that is positive definite is a positive-definite
  Hermitian form over complex y too, so a proof on the half covers the
  free-phase problem on the half and its mirror image. That image is the
  region's other half to within _LATTICE_ULPS, a shift of P far below the
  certificate's margin and guard. The final check reads every region
  sample, so it does not rest on the mirror being exact.
* final check: the answer must meet the toleranced target on every region
  sample, or the solve raises NumericalFailureError.

SolverConfig holds the one setting callers change, constraint_tol_db. The
rest are module constants: _CERT_*, _IPM_*, _EXCHANGE_* and _LATTICE_ULPS,
and model's ZERO_THRESHOLD.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, NumericalFailureError
from .model import ZERO_THRESHOLD, ArrayGeometry, MetricSpec, as_weights, steering_matrix

_log = logging.getLogger(__name__)

_CERT_MARGIN = 1e-6     # a certificate bounds the sidelobe power this far above the target
_CERT_ITERATIONS = 200  # weight updates before the certificate search gives up
_CERT_TREND = 10        # updates over which the search's progress is extrapolated
_LATTICE_ULPS = 16     # relative position error, in ulps, that a lattice Gram or a mirrored region tolerates
_IPM_GAP = 1e-8            # relative duality gap at which the cone IPM stops
_IPM_RESIDUAL = 1e-8       # relative primal and dual residuals it must reach too
_IPM_ITERATIONS = 100      # iteration cap of the cone IPM
_IPM_STEP = 0.99           # share of the way to the cone boundary a step may go
_IPM_STALL = 5             # iterations without progress after which the cone IPM stops
_IPM_REFINEMENTS = 2       # refinements of each KKT solve against the assembled normal matrix
_IPM_RAY = 1e-4            # a Farkas ray must rule out every x = (t, z) of norm below 1/_IPM_RAY
_EXCHANGE_PER_LOBE = 4     # start samples per sidelobe width 1/(x_max - x_min) in u
_EXCHANGE_WINDOW = 2       # samples added on each side of a ratio peak
_EXCHANGE_PEAK = 0.5       # a peak gets a window from this share of the start's top ratio, then of 1
_EXCHANGE_SLACK = 1e-7     # ratio above 1 that marks a sample outside the working set violated
_EXCHANGE_ROUNDS = 8       # rounds after which the working set becomes the whole region
_EXCHANGE_NEAR = 100       # an undecided round within this factor of the IPM's targets may end the loop


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


def l0_norm(delta) -> int:
    """
    Number of nonzero correction entries. A solve returns its zeros exactly,
    so this counts the elements whose excitation a correction changes,
    whatever the excitations' units.
    """
    return int(np.count_nonzero(as_weights(delta)))


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


def _mirrored(u: np.ndarray) -> bool:
    """Whether the sorted samples u mirror each other, u_k = -u_(m-1-k), to within _LATTICE_ULPS."""
    return bool(np.max(np.abs(u + u[::-1])) <= _LATTICE_ULPS * np.finfo(float).eps * np.max(np.abs(u)))


class _Landscape:
    """
    Pattern pieces of one solve: fixed faulty fields plus free-column steering.

    full holds the landscape's rows of the region's steering matrix: the
    geometry's shared matrix on the whole region, a view of its rows on
    half(), and a gathered copy of the working set's rows on restricted(),
    kept there only for the lattice Gram. cols indexes the free elements.
    A, the free columns of full, is gathered once per landscape: eagerly by
    restricted(), which the IPM and the certificate read, and on first use
    on the whole (or half) region, which reads it only when a working set
    widens to all of it. The fields of the whole or half region are one
    product with full, so neither needs A.
    """

    def __init__(self, geometry: ArrayGeometry, w_faulty: np.ndarray,
                 metric: MetricSpec, free: np.ndarray):
        self.full = steering_matrix(geometry, metric.region.samples)   # shared, not a copy
        self.cols = np.flatnonzero(free)
        self.lags = _lattice_lags(geometry.positions, free)
        self.F_base = self.full @ w_faulty
        self.F0_base = complex(np.sum(w_faulty))
        self.tau = 10.0 ** (metric.target_db / 10.0)
        self.m = int(metric.region.samples.size)
        # The faulty excitations sit on free elements only, so the pattern is
        # linear in x = z + w_free and x = 0 (an all-zero array) is reachable.
        self.homogeneous = not np.any(w_faulty[~free])
        # Real faulty excitations on a mirrored region: the cone phase may run on
        # half() (the module docstring has the argument).
        self.mirrored = not np.any(np.imag(w_faulty)) and _mirrored(metric.region.samples)
        self.whole = None           # on half(), the whole region's sample count
        self._A = None              # A, once gathered
        self._stacked = None        # stacked(), once built

    @property
    def real(self) -> bool:
        """Whether the unknowns are Re z only: the u >= 0 half of a mirrored region."""
        return self.whole is not None

    @property
    def A(self) -> np.ndarray:
        """The free columns of full, an (m, f) complex array gathered on first use."""
        if self._A is None:
            self._A = self.full[:, self.cols]
        return self._A

    def half(self) -> _Landscape:
        """The u >= 0 half of a mirrored region (samples m // 2 on, as views), for a real z."""
        k0 = self.m // 2
        sub = copy.copy(self)
        sub.F_base, sub.full, sub._A = self.F_base[k0:], self.full[k0:], None
        sub.m, sub.whole, sub._stacked = self.m - k0, self.m, None
        return sub

    def counts(self, rows: np.ndarray):
        """A working set's size and the region's, counted on the whole region (u and -u) on half()."""
        if not self.real:
            return int(rows.sum()), self.m
        return int(2 * rows.sum() - (self.whole % 2 and rows[0])), self.whole   # u = 0 counts once

    def restricted(self, rows: np.ndarray) -> _Landscape:
        """The same solve on the region samples in rows only (itself when rows are all of them)."""
        if rows.size == self.m:
            return self
        sub = copy.copy(self)
        sub._A = self.full[np.ix_(rows, self.cols)]
        sub.F_base, sub.m, sub._stacked = self.F_base[rows], int(rows.size), None
        sub.full = self.full[rows] if self.lags is not None else None   # read by the lattice Gram only
        return sub

    def stacked(self) -> np.ndarray:
        """
        A as one real operator from the unknowns to (Re Az, Im Az), built on
        first use: [Re A; Im A], a (2m, f) array, for a real z, and
        [Re A, -Im A; Im A, Re A], a (2m, 2f) array over (Re z, Im z), for a
        complex one.
        """
        if self._stacked is None:
            a = self.A
            if self.real:
                self._stacked = np.concatenate([a.real, a.imag])
            else:
                self._stacked = np.block([[a.real, -a.imag], [a.imag, a.real]])
        return self._stacked

    def fields(self, z: np.ndarray):
        """F(u) on the landscape's samples and F(0), for the correction z of the free elements."""
        x = np.zeros(self.full.shape[1], dtype=complex)
        x[self.cols] = z
        return self.F_base + self.full @ x, self.F0_base + np.sum(z)

    def ratios(self, z: np.ndarray) -> np.ndarray:
        """|F(u)|^2 / (ratio * |F(0)|^2) on every sample, inf where F(0) = 0."""
        f, f0 = self.fields(z)
        p0 = abs(f0) ** 2
        if p0 == 0.0:
            return np.full(f.size, np.inf)
        return np.abs(f) ** 2 / (self.tau * p0)

    def worst_ratio(self, z: np.ndarray) -> float:
        """max of ratios(z); feasible iff <= 1."""
        return float(np.max(self.ratios(z)))


def _adjoint(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # a^H x without materializing a conjugate copy of a.
    return np.conj(a.T @ np.conj(x))


def _gram(land: _Landscape, w: np.ndarray) -> np.ndarray:
    """
    A^H diag(w) A for real w >= 0, the certificate's Gram: a Toeplitz gather
    of one matrix-vector product on a lattice, else a real syrk.
    """
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


def _weighted_gram(land: _Landscape, lam: np.ndarray) -> np.ndarray:
    """
    P = sum_u lam_u conj(g_u) g_u^T over g_u = (A_u, F_base_u), or A_u when
    homogeneous: the A block from _gram, the F_base column from one adjoint
    product and the corner from one sum. On half() it is the whole region's
    P for lam mirrored (u and -u each taking half of lam_u): as
    g_(-u) = conj(g_u), that is the real part of the half's.
    """
    if land.homogeneous:
        p = _gram(land, lam)
    else:
        f = land.cols.size
        p = np.empty((f + 1, f + 1), dtype=complex)
        p[:f, :f] = _gram(land, lam)
        p[:f, f] = _adjoint(land.A, lam * land.F_base)
        p[f, :f] = np.conj(p[:f, f])
        p[f, f] = np.sum(lam * np.abs(land.F_base) ** 2)
    return p.real if land.real else p


def _positive_definite(s: np.ndarray) -> bool:
    try:    # a NaN entry passes the factorization, not the finiteness check
        return bool(np.all(np.isfinite(np.linalg.cholesky(s))))
    except np.linalg.LinAlgError:
        return False


def proves(p: np.ndarray, h: np.ndarray, tau: float, m: int) -> bool:
    """
    Whether P - tau*(1 + _CERT_MARGIN)*conj(h) h^T is positive definite
    beyond rounding, for P = P(lam) of dimension d over a region of m
    samples (_certificate has the argument; tau = 0 tests P alone). The test
    runs on the matrix scaled by P's diagonal, less 4*d*m*eps: each entry of
    the scaled P carries at most about m*eps of rounding, so the test cannot
    pass on rounding alone.
    """
    d = p.shape[0]
    inv = 1.0 / np.sqrt(np.diag(p).real)
    if tau:
        p = p - tau * (1.0 + _CERT_MARGIN) * (np.conj(h)[:, None] * h)
    scaled = p * (inv[:, None] * inv)
    scaled.reshape(-1)[::d + 1] -= 4.0 * d * m * np.finfo(float).eps    # the guard, on the diagonal
    return _positive_definite(scaled)


def _certificate(land: _Landscape, rows: np.ndarray,
                 weights: np.ndarray | None = None) -> np.ndarray | None:
    """
    Region-sample weights proving that no correction meets the bound, or None.

    Write F(u) = g_u^T y and F(0) = h^T y with y = (z, 1). Weights lam >= 0
    summing to 1 for which P(lam) - tau*(1 + margin)*conj(h) h^T is positive
    definite (proves), P(lam) = sum_u lam_u conj(g_u) g_u^T, give
    sum_u lam_u |F(u)|^2 > tau*(1 + margin)*|F(0)|^2 for every z, so some
    sample exceeds the bound by more than the margin. When the landscape is
    homogeneous the proof runs on x = z + w_free (g_u = A_u, h = 1) instead:
    there x = 0 is an exact null vector of the (z, 1) form, and the all-zero
    array it stands for has F(0) = 0, which no correction can use.

    The search runs on the region samples in the boolean mask rows and never
    widens that set (the exchange is the loop that grows working sets), so a
    proof's weights are zero off rows: a weighting of some samples is a
    weighting of the region, and a proof found there holds for the whole
    region. lam starts proportional to weights (positive, one per sample of
    the set) or uniform, and follows the multiplicative c-optimal-design
    update lam_u <- lam_u * |g_u^T v| over the set, with v = P^-1 conj(h)
    (Elfving's duality); weights below 1e-12 of the largest are set to zero.
    The search returns None
    - when P is singular;
    - when no weighting of the set can prove infeasibility: by minimax
      duality the best ratio sum_u lam_u |F(u)|^2 / |F(0)|^2 that a
      weighting of the set proves is at most max_u |g_u^T v|^2 / |h^T v|^2
      over the set (v's own ratio), and a proof needs more than
      tau*(1 + margin), so the search stops once v's ratio is at or below
      it ("no proof on the set");
    - when 1/(h^T v), the least sum_u lam_u |F(u)|^2 / |F(0)|^2 these
      weights allow, would still be below the target at the update cap if
      it kept the pace of its last few updates (the pace slows as the
      weights converge, so this extrapolation is optimistic);
    - at the update cap.
    On half() P is real (_weighted_gram) and lam is returned on the half's
    samples; mirrored, u and -u each taking half of lam_u, it is a proof on
    the whole region. proves counts m as the whole region's samples, on
    half() too. Each search is logged at DEBUG.
    """
    f = land.cols.size
    d = f if land.homogeneous else f + 1
    h = np.ones(d, dtype=float if land.real else complex)
    if not land.homogeneous:
        h[f] = land.F0_base.real if land.real else land.F0_base
    tau = land.tau * (1.0 + _CERT_MARGIN)
    m = land.whole or land.m

    idx = np.flatnonzero(rows)
    sub = land.restricted(idx)
    lam = np.full(idx.size, 1.0 / idx.size) if weights is None else weights / np.sum(weights)
    lows = []
    proof, outcome, it = None, "update cap", 0
    while it < _CERT_ITERATIONS:
        p = _weighted_gram(sub, lam)
        if proves(p, h, land.tau, m):
            proof, outcome = np.zeros(land.m), "proof"
            proof[idx] = lam
            break
        if not proves(p, h, 0.0, m):
            outcome = "singular P"
            break
        v = np.linalg.solve(p, np.conj(h))
        gv = np.abs(sub.A @ v[:f] + (0.0 if land.homogeneous else sub.F_base * v[f]))
        if np.max(gv) ** 2 <= tau * (h @ v).real ** 2:
            outcome = "no proof on the set"
            break
        lows.append(1.0 / (h @ v).real)
        if len(lows) > _CERT_TREND:
            rate = (lows[-1] - lows[-1 - _CERT_TREND]) / _CERT_TREND
            if lows[-1] + (_CERT_ITERATIONS - it) * rate < tau:
                outcome = "trend"
                break
        lam = lam * gv
        lam[lam < 1e-12 * np.max(lam)] = 0.0
        lam /= np.sum(lam)
        it += 1
    _log.debug("certificate: %s after %d updates on %d of %d region samples",
               outcome, it, *land.counts(rows))
    return proof


# The cone program. With x = (t, z), t the f l1 bounds and z the correction,
#
#     minimize c^T x = sum(t)  s.t.  s = h - G x in K;
#
# its dual is to maximize -h^T z subject to G^T z + c = 0 and z in K.
# K is f + m three-dimensional second-order cones {(s0, s1, s2): s0 >= |(s1, s2)|},
# held as the columns of (3, f + m) arrays, one contiguous row per cone
# component, so that a per-cone product is a few operations on whole rows: the
# l1 cones (t_n, Re z_n, Im z_n) first, then one cone
# (sqrt(tau) Re F(0), Re F(u), Im F(u)) per region sample. The map -G x is
# _lin, and h is _lin's value at x = 0 plus the faulty fields.

_J = np.array([1.0, -1.0, -1.0])
_JCOL = _J[:, None]     # J on the rows of a (3, k) array


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^T y of each cone (column)."""
    return np.add.reduce(x * y)


def _jdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^T J y of each cone; y may stack directions as (3, j, k)."""
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2]


def _jnorm(x: np.ndarray) -> np.ndarray:
    """sqrt(x^T J x) of each cone, for cones inside it."""
    r = np.hypot(x[1], x[2])
    return np.sqrt((x[0] - r) * (x[0] + r))


def _jprod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Jordan product x o y = (x^T y, x0 y1 + y0 x1) of each cone."""
    out = x[0] * y + y[0] * x
    out[0] = _dot(x, y)
    return out


def _jdiv(lam: np.ndarray, lam_j: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The u with lam o u = x, for each cone; lam_j is lam^T J lam."""
    u = np.empty_like(x)
    u[0] = _jdot(lam, x) / lam_j
    u[1:] = (x[1:] - u[0] * lam[1:]) / lam[0]
    return u


def _max_step(lam: np.ndarray, lam_j: np.ndarray, d: np.ndarray) -> float:
    """
    Largest a with every cone of lam + a*d inside, for lam inside (inf if
    none); d is one direction (3, k) or a stack of them (3, j, k).
    """
    b = 2.0 * _jdot(lam, d)
    a = _jdot(d, d)
    disc = b * b - 4.0 * a * lam_j
    # the first positive root of c + b a + a a^2 (c = lam_j), written to avoid
    # cancellation: 2 c / (sqrt(disc) - b), where disc >= 0 and that is positive
    den = np.sqrt(np.maximum(disc, 0.0)) - b
    den[disc < 0.0] = 0.0
    steps = np.full(den.shape, np.inf)
    np.divide(2.0 * lam_j, den, out=steps, where=den > 0.0)
    return float(np.min(steps))


class _Scaling:
    """
    Nesterov-Todd scaling of each cone: W = beta (2 v v^T - J) with
    W z = W^-1 s = lam, v a (3, f + m) array and beta one entry per cone.

    With s' = s / sqrt(s^T J s) and z' = z / sqrt(z^T J z),
    g = sqrt((1 + z'^T s') / 2), w = (s' + J z') / (2 g),
    v = (w + e) / sqrt(2 (w0 + 1)) and beta = (s^T J s / z^T J z)^(1/4).
    Near the optimum s and z approach the cone boundary together, so their
    J-norms cancel to rounding; step() therefore moves W and lam from the
    scaled step, where lam stays well inside the cone (Vandenberghe 2010).
    """

    def __init__(self, s: np.ndarray, z: np.ndarray):
        sn, zn = _jnorm(s), _jnorm(z)
        s1, z1 = s / sn, z / zn
        g = np.sqrt(0.5 * (1.0 + _dot(s1, z1)))
        w = (s1 + z1 * _JCOL) / (2.0 * g)
        w[0] += 1.0
        self.v = w / np.sqrt(2.0 * w[0])
        self.beta = np.sqrt(sn / zn)
        self.lam = self.apply(z)
        self.lam_j = sn * zn    # lam^T J lam, exact where lam's own entries would cancel

    def step(self, dirs: np.ndarray, a: float):
        """
        Rescale for s + a W ds and z + a W^-1 dz, given the scaled directions
        stacked as dirs = (ds, dz) along axis 1, a (3, 2, f + m) array.
        """
        x = a * dirs
        x += self.lam[:, None]                  # lam + a ds and lam + a dz
        norms = _jnorm(x)
        x /= norms
        (sn, zn), s, z = norms, x[:, 0], x[:, 1]
        g = np.sqrt(0.5 * (1.0 + _dot(s, z)))
        v = self.v
        vs, vz = _dot(v, s), _jdot(v, z)
        g2 = 2.0 * g
        vq, vu = (vs + vz) / g2, vs - vz
        w1 = 2.0 * v[0] * vq - (s[0] + z[0]) / g2 + 1.0
        d = (v[0] * vu - 0.5 * s[0] + 0.5 * z[0]) / w1
        dg = 0.5 * d / g
        self.lam_j = sn * zn
        lam = np.empty_like(s)
        lam[0] = g
        lam[1:] = (vu - 2.0 * d * vq) * v[1:] + (0.5 - dg) * s[1:] + (0.5 + dg) * z[1:]
        lam *= np.sqrt(self.lam_j)
        self.lam = lam
        w = np.empty_like(s)        # w + e, then v
        w[0] = w1
        w[1:] = 2.0 * vq * v[1:] + (s[1:] - z[1:]) / g2
        w /= np.sqrt(2.0 * w1)
        self.v = w
        self.beta = self.beta * np.sqrt(sn / zn)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W x."""
        v = self.v
        return self.beta * (2.0 * v * _dot(v, x) - x * _JCOL)

    def apply_inverse(self, x: np.ndarray) -> np.ndarray:
        """W^-1 x = (2 Jv (Jv)^T - J) x / beta."""
        u = self.v * _JCOL
        return (2.0 * u * _dot(u, x) - x * _JCOL) / self.beta

    def weights(self) -> np.ndarray:
        """
        W^-2 of each cone as a (3, 3, f + m) array, entry (i, j) of cone k at [i, j, k].

        With n = 4 v^T v: M_ij = ((n + 4) v_i v_j + d_ij) / beta^2 for i, j >= 1,
        M_0j = -n v_0 v_j / beta^2 and M_00 = ((n - 4) v_0^2 + 1) / beta^2.
        """
        v = self.v
        n = 4.0 * _dot(v, v)
        n4 = n + 4.0
        mm = np.empty((3,) + v.shape)
        np.multiply(n4 * v[1], v[1:], out=mm[1, 1:])
        np.multiply(n4 * v[2], v[1:], out=mm[2, 1:])
        np.multiply(-n * v[0], v[1:], out=mm[0, 1:])
        mm[1:, 0] = mm[0, 1:]
        mm[0, 0] = (n - 4.0) * v[0] ** 2
        mm.reshape(9, -1)[::4] += 1.0           # the diagonal (0, 0), (1, 1), (2, 2)
        mm /= self.beta ** 2
        return mm


def _lin(land: _Landscape, t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """-G x for x = (t, z): the cones that x alone contributes, as a (3, f + m) array."""
    f = t.size
    out = np.empty((3, f + land.m))
    out[0, :f], out[1, :f], out[2, :f] = t, z.real, z.imag
    out[0, f:] = np.sqrt(land.tau) * np.add.reduce(z).real
    x = z if land.real else np.concatenate([z.real, z.imag])
    out[1:, f:] = (land.stacked() @ x).reshape(2, land.m)
    return out


def _lin_adjoint(land: _Landscape, y: np.ndarray):
    """(-G)^T y as (t part, z part packed as d/dRe + i d/dIm; d/dRe alone for a real z)."""
    f = land.cols.size
    field = land.stacked().T @ y[1:, f:].reshape(-1)    # (Re, Im) of A^H (y1 + i y2), Re alone for a real z
    re = y[1, :f] + np.sqrt(land.tau) * np.add.reduce(y[0, f:]) + field[:f]
    if land.real:
        return y[0, :f], re
    return y[0, :f], re + 1j * (y[2, :f] + field[f:])


def _apply_weights(mm: np.ndarray, y: np.ndarray) -> np.ndarray:
    """W^-2 y, cone by cone."""
    return np.einsum("ijk,jk->ik", mm, y)


def _normal_matrix(land: _Landscape, mm: np.ndarray) -> np.ndarray:
    """
    G^T W^-2 G over (Re z, Im z), or Re z alone for a real z, t eliminated:
    the IPM's normal matrix.

    mm holds W^-2 of each cone (_Scaling.weights). With B = _Landscape.stacked,
    whose rows map the unknowns to Re F(u) and then Im F(u), and M the
    sample cones' W^-2, those cones give Br^T diag(M11) Br +
    Bi^T diag(M22) Bi + C + C^T for C = Br^T diag(M12) Bi, plus
    sqrt(tau) (a0 b^T + b a0^T) with b = Br^T M01 + Bi^T M02, plus
    tau sum(M00) a0 a0^T, where a0 is 1 on Re z and 0 on Im z (the rows and
    columns :f). The l1 cones' W^-2 couple each (t_n, Re z_n, Im z_n) only;
    eliminating t_n leaves a 2x2 Schur complement on (Re z_n, Im z_n), of
    which a real z keeps the Re z entry (the third components stay 0).
    """
    f = land.cols.size
    ml, mu = mm[:, :, :f], mm[:, :, f:]
    b, m = land.stacked(), land.m
    v = b * np.sqrt(mu[1:, 1:].diagonal().T.reshape(-1))[:, None]
    h = v.T @ v                          # a symmetric product (syrk)
    c = b[:m].T @ (mu[1, 2][:, None] * b[m:])
    h += c
    h += c.T
    h[:f, :f] += land.tau * np.add.reduce(mu[0, 0])
    bq = np.sqrt(land.tau) * (mu[0, 1:].reshape(-1) @ b)
    h[:f] += bq
    h[:, :f] += bq[:, None]
    k = h.shape[0] // f                 # 1 for a real z, 2 over (Re z, Im z)
    schur = ml[1:k + 1, 1:k + 1] - ml[1:k + 1, :1] * ml[:1, 1:k + 1] / ml[0, 0]
    n = np.arange(k * f).reshape(k, f)  # the Re z_n rows, then the Im z_n rows
    h[n[:, None], n] += schur
    return h


def _newton_solver(land: _Landscape, mm: np.ndarray):
    """
    The solve (bt, bz) -> (dt, dz) of H dx = (bt, bz), with H = G^T W^-2 G
    over x = (t, z) and mm holding W^-2 of each cone.

    t_n enters only its own l1 cone, so it is eliminated cone by cone, leaving
    the normal matrix's system hm d = r over (Re z, Im z), or Re z alone for
    a real z (_normal_matrix). hm is inverted once, equilibrated by its
    diagonal, which spans many decades; each solve refines d
    _IPM_REFINEMENTS times against the assembled hm, d += hm^-1 (r - hm d),
    then recovers t; without the refinements most solves stall short of
    their targets. Raises LinAlgError when hm is singular.
    """
    f = land.cols.size
    hm = _normal_matrix(land, mm)
    unit = 1.0 / np.sqrt(np.diag(hm))
    scale = np.outer(unit, unit)
    kinv = np.linalg.inv(hm * scale) * scale
    m00, m01, m02 = mm[0, :, :f]

    def solve(bt, bz):
        if land.real:
            r = bz - m01 / m00 * bt
        else:
            r = np.concatenate([bz.real - m01 / m00 * bt, bz.imag - m02 / m00 * bt])
        d = kinv @ r
        for _ in range(_IPM_REFINEMENTS):
            d += kinv @ (r - hm @ d)
        if land.real:
            return (bt - m01 * d) / m00, d
        dt = (bt - m01 * d[:f] - m02 * d[f:]) / m00
        return dt, d[:f] + 1j * d[f:]

    return solve


def _cone_ipm(land: _Landscape):
    """
    The cone program in the homogeneous self-dual model, from the central point.

    The iterates (x, s, z, tau, kappa) need not be feasible: the residuals
    of G x + s = h tau, G^T z + c tau = 0 and kappa = -(c^T x + h^T z) shrink
    at the pace of the complementarity (s^T z + tau kappa) / (f + m + 1).
    Returns (z, info) with z the correction x / tau; info holds the
    iterations, the relative gap, the relative primal and dual residuals, the
    final tau and kappa, and the verdict:
    - "optimal": gap and residuals all met their targets;
    - "ray": z in K and ||G^T z|| <= _IPM_RAY * -h^T z, a Farkas ray: every
      feasible x has (G^T z)^T x <= h^T z, so none has a norm below 1 / _IPM_RAY;
    - "undecided": the solve stalled or hit its iteration cap, and z and info
      are its best iterate's.
    info["weights"] holds the final dual iterate's sample-cone weights z_u0,
    on a ray the weights it puts on each sample.
    """
    f = land.cols.size
    h = np.zeros((3, f + land.m))
    h[0, f:] = np.sqrt(land.tau) * land.F0_base.real
    h[1, f:], h[2, f:] = land.F_base.real, land.F_base.imag
    h_norm = max(1.0, float(np.linalg.norm(h)))

    t, z, tau, kappa = np.zeros(f), np.zeros(f, dtype=float if land.real else complex), 1.0, 1.0
    s = np.zeros_like(h)
    s[0] = 1.0
    dual = s.copy()
    w = _Scaling(s, dual)
    degree = f + land.m + 1
    best, best_score, best_progress, best_it, verdict = None, np.inf, np.inf, 0, "undecided"
    for it in range(_IPM_ITERATIONS + 1):
        rz = s - tau * h - _lin(land, t, z)              # G x + s - h tau
        ray_t, ray_z = (-a for a in _lin_adjoint(land, dual))   # G^T z
        rx_t, rx_z = ray_t + tau, ray_z                   # G^T z + c tau
        hz = float(np.vdot(h, dual))                      # h^T z
        pobj = float(np.add.reduce(t))                    # c^T x
        rt = kappa + pobj + hz
        lam, lam_j = w.lam, w.lam_j
        gap = float(np.vdot(lam, lam))                    # s^T z
        now = {"gap": gap / (tau * max(tau, abs(pobj), abs(hz))),
               "primal": float(np.linalg.norm(rz)) / (tau * h_norm),
               "dual": float(np.sqrt(rx_t @ rx_t + np.vdot(rx_z, rx_z).real)) / (tau * np.sqrt(f)),
               "tau": tau, "kappa": kappa}
        residual = max(now["primal"], now["dual"]) / _IPM_RESIDUAL
        score = max(now["gap"] / _IPM_GAP, residual)
        ray = np.inf
        if hz < 0.0 and np.all(dual[0] > np.hypot(dual[1], dual[2])):
            ray = float(np.sqrt(ray_t @ ray_t + np.vdot(ray_z, ray_z).real)) / (-hz * _IPM_RAY)
        if not np.isfinite(score):
            break
        if score < best_score:
            best, best_score = (z / tau, now), score
        # Progress: the embedding shrinks the complementarity mu and the residuals
        # (not divided by tau, which falls to 0 on an infeasible program) at one
        # pace. Near the end the normal matrix loses digits and one of them stalls:
        # a few iterations without a tenth less end the solve undecided, on its
        # best iterate.
        progress = max((gap + tau * kappa) / degree, tau * now["primal"], tau * now["dual"])
        if progress < 0.9 * best_progress:
            best_progress, best_it = progress, it
        if score <= 1.0:
            verdict = "optimal"
            break
        if ray <= 1.0:
            best, verdict = (z / tau, now), "ray"
            break
        if it == _IPM_ITERATIONS or it - best_it >= _IPM_STALL:
            break
        mm = w.weights()
        try:
            solve = _newton_solver(land, mm)
        except np.linalg.LinAlgError:
            break

        def kkt(bt, bz, gc):
            # G^T dz = (bt, bz), G dx - W^2 dz = W^2 gc, through H dx = (bt, bz) - (-G)^T gc
            gt, gz = _lin_adjoint(land, gc)
            dt, dz = solve(bt - gt, bz - gz)
            return dt, dz, -_apply_weights(mm, _lin(land, dt, dz)) - gc

        # the tau column: (dx, dz) per unit of dtau
        col = kkt(-np.ones(f), np.zeros_like(z), _apply_weights(mm, h))
        col_c = float(np.add.reduce(col[0])) + float(np.vdot(h, col[2]))   # c^T dx + h^T dz

        def direction(eta, wl, xi):
            # Newton direction with residuals scaled by eta, scaled complementarity
            # lam o (W dz + W^-1 ds) = xi given as wl = W^-1 (lam \ xi), and
            # kappa dtau + tau dkappa = xi.
            dt, dz, dd = kkt(-eta * rx_t, -eta * rx_z, -eta * _apply_weights(mm, rz) - wl)
            c1 = float(np.add.reduce(dt)) + float(np.vdot(h, dd))
            dtau = (-eta * rt - xi / tau - c1) / (col_c - kappa / tau)
            dt, dz, dd = dt + dtau * col[0], dz + dtau * col[1], dd + dtau * col[2]
            ds = _lin(land, dt, dz) + dtau * h - eta * rz
            return dt, dz, dtau, (xi - kappa * dtau) / tau, ds, dd

        def scaled(ds, dd):
            # W^-1 ds and W dd, stacked as (3, 2, f + m)
            pair = np.empty((3, 2, f + land.m))
            pair[:, 0], pair[:, 1] = w.apply_inverse(ds), w.apply(dd)
            return pair

        def max_step(pair, dtau, dkappa):
            # the longest step keeping the scaled cones, tau and kappa inside their cones
            ends = [-tau / dtau if dtau < 0 else np.inf, -kappa / dkappa if dkappa < 0 else np.inf]
            return min(_max_step(lam, lam_j, pair), *ends)

        # affine predictor, xi = -lam o lam, seen in the scaled frame
        _, _, dtau, dkappa, ds, dd = direction(1.0, -dual, -tau * kappa)
        pair = scaled(ds, dd)
        step = min(1.0, max_step(pair, dtau, dkappa))
        mu = (gap + tau * kappa) / degree
        sigma = min(1.0, max(0.0, 1.0 - step + (float(np.vdot(pair[:, 0], pair[:, 1])) + dtau * dkappa)
                             / (mu * degree) * step ** 2)) ** 3
        centre = -_jprod(pair[:, 0], pair[:, 1])
        centre[0] += sigma * mu
        del ds, dd, pair
        # combined direction: centring plus the predictor's second-order term
        dt, dz, dtau, dkappa, ds, dd = direction(
            1.0 - sigma, w.apply_inverse(_jdiv(lam, lam_j, centre)) - dual,
            -tau * kappa - dtau * dkappa + sigma * mu)
        del centre
        pair = scaled(ds, dd)
        step = min(1.0, _IPM_STEP * max_step(pair, dtau, dkappa))
        t, z = t + step * dt, z + step * dz
        tau, kappa = tau + step * dtau, kappa + step * dkappa
        s += step * ds
        dual += step * dd
        del ds, dd
        w.step(pair, step)
        del pair

    z, now = best
    return z, {"iterations": it, **now, "verdict": verdict, "weights": dual[0, f:]}


def _lobe_stride(geometry: ArrayGeometry, u: np.ndarray) -> int:
    """Region-sample stride that puts about _EXCHANGE_PER_LOBE samples on each sidelobe."""
    if u.size < 2:
        return 1
    aperture = float(np.ptp(geometry.positions))    # positive: positions strictly increase
    spacing = float(np.median(np.diff(u)))
    return max(1, int(1.0 / (aperture * spacing * _EXCHANGE_PER_LOBE)))


def _peak_windows(ratio: np.ndarray, level: float) -> np.ndarray:
    """The samples within _EXCHANGE_WINDOW of a local maximum of ratio at or above level."""
    padded = np.concatenate([[-np.inf], ratio, [-np.inf]])
    peak = (ratio >= padded[:-2]) & (ratio >= padded[2:]) & (ratio >= level)
    peaks = np.flatnonzero(peak)
    near = np.zeros(ratio.size, dtype=bool)
    for k in range(-_EXCHANGE_WINDOW, _EXCHANGE_WINDOW + 1):
        near[np.clip(peaks + k, 0, ratio.size - 1)] = True
    return near


def _start_rows(ratio: np.ndarray, stride: int) -> np.ndarray:
    """
    A working set's start from the ratios of a correction (_Landscape.ratios):
    every stride-th region sample, plus the samples within _EXCHANGE_WINDOW of
    each local maximum of the ratio at or above _EXCHANGE_PEAK of its largest.
    Where F(0) = 0 the ratio is infinite, and the stride alone is the start.
    """
    top = np.max(ratio)
    rows = _peak_windows(ratio, _EXCHANGE_PEAK * top) if top < np.inf else np.zeros(ratio.size, dtype=bool)
    rows[::stride] = True
    return rows


def _exchange(land: _Landscape, rows: np.ndarray):
    """
    The cone program on a working set of region samples, started from the
    boolean mask rows and grown until a round's answer is the solve's (the
    module docstring has the rule).

    Returns (z, info) as _cone_ipm does, with the iterations summed over the
    rounds, plus the rounds and the final working set (a boolean mask, "rows"),
    all on land's samples; on a half() landscape z is real, and it is None
    when the loop ends with no answer.
    """
    rounds = iterations = 0
    while True:
        rounds += 1
        sub = land.restricted(np.flatnonzero(rows))
        answer, info = _cone_ipm(sub)
        del sub                     # free this round's rows before the next round gathers its own
        iterations += info["iterations"]
        if info["verdict"] == "ray":    # a ray on a relaxation holds for the region
            answer = None
            break
        ratio = land.ratios(answer)
        violated = ratio > 1.0 + _EXCHANGE_SLACK
        # within _EXCHANGE_NEAR of the IPM's targets, as every optimal round is
        near = max(info["gap"] / _IPM_GAP, info["primal"] / _IPM_RESIDUAL,
                   info["dual"] / _IPM_RESIDUAL) <= _EXCHANGE_NEAR
        if not violated.any() and (near or rows.all()):
            break
        if rows.all():
            answer = None
            break
        if info["verdict"] == "optimal" and rounds < _EXCHANGE_ROUNDS and np.any(violated & ~rows):
            rows = rows | violated | _peak_windows(ratio, _EXCHANGE_PEAK)
        else:
            rows = np.ones_like(rows)
    info = {**info, "iterations": iterations, "rounds": rounds, "rows": rows}

    _log.debug("cone IPM: %s after %d rounds on %d of %d region samples, mirror reduction %s, "
               "%d iterations, relative gap %.2e, primal residual %.2e, dual residual %.2e, "
               "tau %.2e, kappa %.2e", info["verdict"], rounds, *land.counts(rows),
               "on" if land.real else "off", iterations, info["gap"], info["primal"], info["dual"],
               info["tau"], info["kappa"])
    return answer, info


def solve_constrained_l1(geometry: ArrayGeometry, w_faulty, metric: MetricSpec,
                         mask, start=None, config: SolverConfig | None = None) -> np.ndarray:
    """
    Smallest-l1 correction of the faulty excitations meeting the metric target.

    mask marks elements whose correction entry is pinned to zero (failed
    elements plus any entries the caller has frozen). The returned vector is
    exactly zero there and meets the bound on every region sample (to the
    exchange's 1e-7). start, a correction that is zero on the mask, only
    seeds the working sets with the peaks of its pattern. Raises
    InfeasibleError when the exchange ends with no answer, certified=True
    when a certificate proves that no correction within the mask meets the
    target (the error then carries the certificate's weights on the whole
    region and the free mask); NumericalFailureError when the answer, with
    its dust entries zeroed, breaks the toleranced target on the region.
    """
    cfg = config if config is not None else SolverConfig()
    w = as_weights(w_faulty, geometry.n)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (geometry.n,):
        raise ValueError("mask length must match the array size")
    free = ~mask
    nfree = int(free.sum())
    # The cone IPM's floors (the ray's norm bound, the 1 in its gap's and
    # residuals' scales) are absolute, and the problem is homogeneous in w. So
    # the solve runs in units of the power of two nearest the largest
    # excitation magnitude: an exact rescaling that makes its verdicts and
    # answers independent of the weights' units.
    peak = float(np.max(np.abs(w)))
    unit = 2.0 ** np.round(np.log2(peak)) if peak > 0.0 else 1.0
    # The unit carries the faulty F(0)'s phase too, so the cone program's
    # Re F(0) is |F(0)| at the start (the module docstring has the argument).
    f0 = complex(np.sum(w))
    if f0.imag != 0.0:
        unit = unit * np.exp(1j * np.angle(f0))
    elif f0.real < 0.0:
        unit = -unit
    w = w / unit
    # A real taper times e^(j theta) keeps imaginary parts at rounding level
    # after the rotation: it is taken as real, so the mirror reduction runs.
    if np.max(np.abs(w.imag)) <= _LATTICE_ULPS * np.finfo(float).eps * np.max(np.abs(w)):
        w.imag = 0.0
    land = _Landscape(geometry, w, metric, free)

    tol_ratio = 10.0 ** (cfg.constraint_tol_db / 10.0)
    z = np.zeros(nfree, dtype=complex)
    ratio = land.ratios(z)

    # The zero correction is l1-optimal whenever it is admissible.
    if np.max(ratio) <= tol_ratio:
        return np.zeros(geometry.n, dtype=complex)
    if nfree == 0:
        raise InfeasibleError("no free elements and the zero correction misses the target", certified=True)
    if start is not None:
        s = as_weights(start, geometry.n)
        if np.any(s[mask] != 0):
            raise ValueError("start vector must be zero on masked elements")
        z = s[free] / unit
        ratio = land.ratios(z)

    cone = land.half() if land.mirrored else land
    rows = _start_rows(ratio, _lobe_stride(geometry, metric.region.samples))[land.m - cone.m:]
    # A start that meets the bound shows that no certificate exists.
    proof = _certificate(cone, rows) if np.max(ratio) > 1.0 else None
    if proof is None:
        z, info = _exchange(cone, rows)
        # With no answer, the last round's sample weights (a ray's or a stall's)
        # seed a search for a proof on the exchange's final working set.
        if z is None:
            proof = _certificate(cone, info["rows"], info["weights"])
    if proof is not None:
        weights = np.zeros(land.m)
        weights[land.m - cone.m:] = proof
        if cone.real:       # a proof on half(): u and -u each take half of lam_u
            weights = 0.5 * (weights + weights[::-1])
        raise InfeasibleError(
            "certified: a weighting of the region samples keeps the sidelobe power "
            "above the bound for every correction", certified=True, weights=weights,
        )
    if z is None:
        raise InfeasibleError(f"the cone IPM ended {info['verdict']} at relative gap {info['gap']:.2e} "
                              "with no point meeting the bound and no certificate")
    z = np.where(np.abs(z) <= ZERO_THRESHOLD, 0.0, z)   # the IPM leaves its zeros near 1e-13
    if not land.worst_ratio(z) <= tol_ratio:
        raise NumericalFailureError("the cone IPM left the constraint violated")

    delta = np.zeros(geometry.n, dtype=complex)
    delta[free] = z * unit
    return delta
