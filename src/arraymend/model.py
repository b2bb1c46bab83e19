"""
Linear-array geometry, far-field evaluation, and pattern metrics.

Positions are expressed in wavelengths, so the phase of element n seen
from direction u = sin(theta) is 2*pi*x_n*u and no explicit wavenumber is
carried around; the far field over u samples is steering_matrix(g, u) @ w.
All level metrics are power ratios in dB relative to broadside (u = 0):
pattern_db over any samples, max_sll over a region, beamwidth at a dB
threshold. ZERO_THRESHOLD is a share of the largest magnitude: an excitation
at or below it is dead for dynamic_range, and a solve returns a correction
entry at or below it, in the solve's units (the power of two nearest the
largest faulty excitation), as an exact zero. Nothing else applies it: a
count of corrections counts the nonzero entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBroadsideError, NoMainlobeError

DB_FLOOR = -300.0
"""Reported dB level for an exactly zero power ratio (keeps metrics finite)."""

DEFAULT_GRID_DENSITY = 4001
"""Default number of uniform u samples over [-1, 1] for metric evaluation."""

ZERO_THRESHOLD = 1e-12  # magnitudes at or below this share of the largest count as zero

_PATTERN_BLOCK = 1024   # u samples per block when a pattern is evaluated over a grid
_BEAM_WINDOW = 16       # grid samples on each side of broadside in beamwidth's first window


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def as_weights(weights, n: int | None = None) -> np.ndarray:
    """Validate and return an excitation vector as a complex ndarray."""
    w = np.asarray(weights, dtype=complex)
    if w.ndim != 1:
        raise ValueError(f"excitations must be a 1-D vector, got shape {w.shape}")
    if n is not None and w.size != n:
        raise ValueError(f"expected {n} excitations, got {w.size}")
    if not np.all(np.isfinite(w)):
        raise ValueError("excitations must be finite")
    return w


@dataclass(frozen=True)
class ArrayGeometry:
    """Element positions of a linear array along the x axis, in wavelengths."""

    positions: np.ndarray
    # (u, steering matrix) of the last read-only u seen by steering_matrix
    _steering: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 1 or pos.size < 2:
            raise ValueError("geometry needs at least 2 element positions")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if not np.all(np.diff(pos) > 0):
            raise ValueError("positions must be strictly increasing")
        object.__setattr__(self, "positions", _readonly(pos))

    @property
    def n(self) -> int:
        return int(self.positions.size)


def uniform_positions(n: int, spacing: float = 0.5) -> ArrayGeometry:
    """
    Uniformly spaced array of n elements centered on the origin.

    Element n (1-based) sits at (n - (N+1)/2) * spacing wavelengths, so the
    layout is symmetric about x = 0 for both parities of N.
    """
    if n < 2:
        raise ValueError("need at least 2 elements")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    idx = np.arange(1, n + 1, dtype=float)
    return ArrayGeometry(positions=(idx - (n + 1) / 2.0) * spacing)


@dataclass(frozen=True)
class FailureScenario:
    """Binary mask of dead elements. mask[n] is True when element n+1 failed."""

    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask)
        if m.dtype != bool:
            vals = np.asarray(m)
            if not np.all((vals == 0) | (vals == 1)):
                raise ValueError("failure mask entries must be 0 or 1")
            m = vals.astype(bool)
        if m.ndim != 1:
            raise ValueError("failure mask must be a 1-D vector")
        if int(m.size - m.sum()) < 1:
            raise ValueError("at least one element must remain controllable")
        object.__setattr__(self, "mask", _readonly(m))

    @classmethod
    def from_indices(cls, n: int, faulty_indices) -> "FailureScenario":
        """Build a scenario from 1-based element indices."""
        idx = [int(i) for i in faulty_indices]
        if len(set(idx)) != len(idx):
            raise ValueError("faulty indices must be unique")
        mask = np.zeros(n, dtype=bool)
        for i in idx:
            if not 1 <= i <= n:
                raise ValueError(f"faulty index {i} outside 1..{n}")
            mask[i - 1] = True
        return cls(mask=mask)

    @property
    def n(self) -> int:
        return int(self.mask.size)

    @property
    def n_failed(self) -> int:
        return int(self.mask.sum())

    @property
    def n_controllable(self) -> int:
        return self.n - self.n_failed

    @property
    def admissible(self) -> np.ndarray:
        """Mask of elements that can still be driven (complement of failures)."""
        return ~self.mask

    def faulty_indices(self) -> list[int]:
        return [int(i) + 1 for i in np.flatnonzero(self.mask)]


@dataclass(frozen=True)
class AngularRegion:
    """A finite set of u = sin(theta) samples, sorted and deduplicated."""

    samples: np.ndarray

    def __post_init__(self):
        u = np.unique(np.asarray(self.samples, dtype=float))
        if not np.all(np.isfinite(u)):
            raise ValueError("region samples must be finite")
        if u.size and (u[0] < -1.0 or u[-1] > 1.0):
            raise ValueError("region samples must lie in [-1, 1]")
        object.__setattr__(self, "samples", _readonly(u))

    @property
    def size(self) -> int:
        return int(self.samples.size)


def uniform_grid(density: int = DEFAULT_GRID_DENSITY) -> np.ndarray:
    """Uniform u grid over [-1, 1]. Odd densities include u = 0 exactly."""
    if density < 3:
        raise ValueError("grid density must be at least 3")
    return np.linspace(-1.0, 1.0, int(density))


def sidelobe_region(bw_target_deg: float, grid_density: int = DEFAULT_GRID_DENSITY) -> AngularRegion:
    """
    All u samples of a uniform grid outside a mainlobe of the given width.

    The excluded zone is the open interval |u| < sin(bw_target_deg / 2). Its
    edge is at most 1, and the grid's ends are exactly -1 and 1, so the
    region always keeps them.
    """
    if not 0.0 < bw_target_deg < 180.0:
        raise ValueError("beamwidth target must be in (0, 180) degrees")
    u = uniform_grid(grid_density)
    edge = np.sin(np.deg2rad(bw_target_deg / 2.0))
    return AngularRegion(samples=u[np.abs(u) >= edge])


@dataclass(frozen=True)
class MetricSpec:
    """The maximum sidelobe level over a region of u samples, and its target in dB."""

    region: AngularRegion
    target_db: float

    def __post_init__(self):
        if not np.isfinite(self.target_db):
            raise ValueError("metric target must be finite")
        if self.region.size == 0:
            raise ValueError("metric region must be non-empty")


def steering_matrix(geometry: ArrayGeometry, u) -> np.ndarray:
    """
    Matrix of element phasors exp(j*2*pi*x_n*u), one row per u sample.

    A read-only u that owns its data, such as the samples of an
    AngularRegion, is taken to be immutable: the matrix built for it is kept
    on the geometry (one at a time) and the same read-only matrix is returned
    while later calls pass that same u object. Any other u is built fresh.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    memo = geometry._steering  # read once: a concurrent replacement only costs a rebuild
    if memo is not None and memo[0] is u:
        return memo[1]
    # exp(j*phase) as cos and sin written into the result's two parts: one
    # real temporary, the phase, scaled in place
    phase = np.outer(u, geometry.positions)
    phase *= 2.0 * np.pi
    a = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=a.real)
    np.sin(phase, out=a.imag)
    if not u.flags.writeable and u.flags.owndata:
        object.__setattr__(geometry, "_steering", (u, _readonly(a)))
    return a


def _power_db(power_ratio: np.ndarray) -> np.ndarray:
    ratio = np.asarray(power_ratio, dtype=float)
    out = np.full(ratio.shape, DB_FLOOR)
    positive = ratio > 0
    np.log10(ratio, out=out, where=positive)
    out[positive] *= 10.0
    return np.maximum(out, DB_FLOOR)

def _broadside_power(f0) -> float:
    """|F(0)|^2 of the broadside field F(0) = sum of the excitations."""
    p0 = abs(f0) ** 2
    if p0 == 0.0:
        raise DegenerateBroadsideError("pattern is zero at broadside")
    return p0


def _patterns_db(geometry: ArrayGeometry, weight_sets, u) -> list[np.ndarray]:
    """
    pattern_db of each excitation vector in weight_sets over the same u
    samples, building each block of the steering matrix once for all of them.
    """
    ws = [as_weights(w, geometry.n) for w in weight_sets]
    p0 = [_broadside_power(np.sum(w)) for w in ws]
    u = np.atleast_1d(np.asarray(u, dtype=float))
    fields = [np.empty(u.size, dtype=complex) for _ in ws]
    if u.size <= _PATTERN_BLOCK or (not u.flags.writeable and u.flags.owndata):
        step = max(u.size, 1)   # small, or a region's shared matrix: one block, u itself
    else:   # a grid in blocks: its whole matrix would be a short-lived multi-MB temporary
        step = _PATTERN_BLOCK
    for i in range(0, u.size, step):
        block = steering_matrix(geometry, u if step >= u.size else u[i:i + step])
        for f, w in zip(fields, ws):
            f[i:i + step] = block @ w
        del block               # dropped before the next block is built
    return [_power_db(np.abs(f) ** 2 / q) for f, q in zip(fields, p0)]


def pattern_db(geometry: ArrayGeometry, weights, u) -> np.ndarray:
    """Normalized power pattern 10*log10(|F(u)|^2 / |F(0)|^2) over the u samples."""
    return _patterns_db(geometry, [weights], u)[0]


def peak_level_db(field: np.ndarray, f0) -> float:
    """
    Largest level of a sampled field relative to its broadside field F(0),
    in dB: max |F|^2 / |F(0)|^2, converted alone. Raises
    DegenerateBroadsideError when F(0) is zero.
    """
    return float(_power_db(np.max(np.abs(field) ** 2) / _broadside_power(f0)))


def max_sll(geometry: ArrayGeometry, weights, region: AngularRegion) -> float:
    """
    Maximum sidelobe level over the region samples, in dB: the largest power
    ratio, converted alone (the dB map is monotone, so it is the largest
    level of pattern_db).
    """
    if region.size == 0:
        raise ValueError("region must be non-empty")
    w = as_weights(weights, geometry.n)
    return peak_level_db(steering_matrix(geometry, region.samples) @ w, np.sum(w))


def evaluate_metric(metric: MetricSpec, geometry: ArrayGeometry, weights) -> float:
    """Evaluate the metric functional on the given excitations (dB)."""
    return max_sll(geometry, weights, metric.region)


def _crossing(u0: float, u1: float, p0: float, p1: float, threshold: float) -> float:
    # Linear interpolation of the dB pattern between two grid samples, p0 >= threshold > p1.
    return u0 + (u1 - u0) * (p0 - threshold) / (p0 - p1)


def beamwidth(geometry: ArrayGeometry, weights, threshold_db: float) -> float:
    """
    Width in degrees of the mainlobe interval where the pattern stays above
    a dB threshold (at -3.01 dB, the half-power beamwidth).

    The contiguous interval around u = 0 with pattern >= threshold_db is
    located on the default metric grid, uniform_grid(); both boundaries are
    refined by linear interpolation of the dB values, then converted through
    theta = asin(u). The pattern is evaluated on a window of the grid around
    broadside, _BEAM_WINDOW samples on each side and grown fourfold until it
    holds a sample below the threshold on each side of broadside or reaches
    the grid's ends. A pattern row does not depend on the rows evaluated
    with it, so the width is the one the whole grid's pattern gives.
    """
    if threshold_db >= 0:       # checked before the pattern is built
        raise ValueError("threshold must be negative dB")
    u = uniform_grid()
    center = int(np.argmin(np.abs(u)))
    reach = _BEAM_WINDOW
    while True:
        lo, hi = max(center - reach, 0), min(center + reach + 1, u.size)
        p = pattern_db(geometry, weights, u[lo:hi])
        below, c = p < threshold_db, center - lo
        if below[c] or ((lo == 0 or below[:c].any()) and (hi == u.size or below[c + 1:].any())):
            return _mainlobe_width(u[lo:hi], p, threshold_db)
        reach *= 4


def _mainlobe_width(u: np.ndarray, p: np.ndarray, threshold_db: float) -> float:
    """
    beamwidth of the dB pattern p sampled on the grid u, for a caller that
    already holds p. A threshold at or above 0 dB raises NoMainlobeError:
    the pattern is 0 dB at broadside, so nothing lies above it.
    """
    if threshold_db >= 0:
        raise NoMainlobeError(f"pattern is 0 dB at broadside, not above {threshold_db} dB")
    center = int(np.argmin(np.abs(u)))
    if p[center] < threshold_db:
        raise NoMainlobeError(f"pattern is below {threshold_db} dB at broadside")

    hi = 1.0
    for i in range(center + 1, u.size):
        if p[i] < threshold_db:
            hi = _crossing(u[i - 1], u[i], p[i - 1], p[i], threshold_db)
            break
    lo = -1.0
    for i in range(center - 1, -1, -1):
        if p[i] < threshold_db:
            lo = _crossing(u[i + 1], u[i], p[i + 1], p[i], threshold_db)
            break
    return float(np.rad2deg(np.arcsin(hi) - np.arcsin(lo)))


def dynamic_range(weights) -> float:
    """
    Largest adjacent-element excitation magnitude ratio.

    Pairs containing a dead element (magnitude at or below ZERO_THRESHOLD
    times the largest magnitude, so the answer does not depend on the
    excitations' units) are skipped, and each surviving pair contributes
    max(|a|/|b|, |b|/|a|), so the result is always >= 1. Arrays whose active
    elements are never adjacent report 1.
    """
    mag = np.abs(as_weights(weights))
    active = mag > ZERO_THRESHOLD * np.max(mag)
    if int(active.sum()) < 2:
        raise ValueError("need at least 2 active elements")
    both = active[:-1] & active[1:]
    if not np.any(both):
        return 1.0
    a = mag[:-1][both]
    b = mag[1:][both]
    return float(np.max(np.maximum(a / b, b / a)))
