"""
Backtracking reduction of a correction vector to a minimal set of element
changes.

Starting from the smallest-l1 correction over all controllable elements,
the loop repeatedly guesses the least important remaining correction
(smallest nonzero magnitude is expected to perturb the pattern least),
removes it, and re-solves the l1 problem with that element frozen. When
the removal cannot be repaired the guess is undone and the element is
marked required; required marks are cleared after every successful
removal, so an element is only final once no removable correction is left.
Two bool vectors track the state: `non_required` for removals that held,
`required` for removals that had to be restored. An element whose
correction an accepted solve left at zero counts as removed too, so a
re-solve never brings it back and the support never grows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .model import ArrayGeometry, FailureScenario, MetricSpec, as_weights, peak_level_db, steering_matrix
from .solver import _EXCHANGE_SLACK, SolverConfig, l0_norm, l1_norm, solve_constrained_l1
from .taper import apply_failures


@dataclass(frozen=True)
class TraceEntry:
    """One event of the removal loop. Metrics are filled for accepted bests."""

    k: int
    step: int                    # 0 initial solve, 1 convergence, 2 removal, 3 backtrack
    event: str                   # "accepted" | "backtracked" | "converged"
    n_least: int | None = None   # 1-based element whose correction was tried
    l0: int | None = None
    l1: float | None = None
    phi_db: float | None = None


@dataclass(frozen=True)
class CorrectionResult:
    delta: np.ndarray
    n_corrections: int
    l1: float
    achieved_phi_db: float
    k_opt: int
    required: np.ndarray
    non_required: np.ndarray
    trace: tuple[TraceEntry, ...]
    elapsed_s: float

    @property
    def corrected_elements(self) -> list[int]:
        """1-based indices of the elements whose excitation was changed."""
        return [int(i) + 1 for i in np.flatnonzero(self.delta != 0)]


def least_important(delta, required) -> int | None:
    """
    1-based position of the smallest correction still worth trying to drop.

    Considers the nonzero entries that are not marked required: a solve
    returns its zeros exactly, so every entry it left nonzero is a correction
    the loop tries to drop. Ties go to the lowest index. None means every
    remaining correction is required (or zero), which is the convergence
    signal.
    """
    mag = np.abs(as_weights(delta))
    req = np.asarray(required, dtype=bool)
    if req.shape != mag.shape:
        raise ValueError("required mask length must match the correction vector")
    candidates = np.flatnonzero((mag != 0) & ~req)
    if candidates.size == 0:
        return None
    return int(candidates[np.argmin(mag[candidates])]) + 1


def make_trial(delta, n_least: int) -> np.ndarray:
    """Copy of the correction vector with the n_least-th entry removed."""
    d = as_weights(delta).copy()
    if not 1 <= n_least <= d.size:
        raise ValueError(f"element index {n_least} outside 1..{d.size}")
    d[n_least - 1] = 0.0
    return d


def minimize_corrections(geometry: ArrayGeometry, original, scenario: FailureScenario,
                         metric: MetricSpec, config: SolverConfig | None = None) -> CorrectionResult:
    """
    Minimal-cardinality excitation correction restoring the metric target.

    Runs the full removal loop described in the module docstring and returns
    the last accepted correction with its trace. Raises InfeasibleError when
    even the initial solve over all controllable elements cannot meet the
    target.
    """
    t0 = time.perf_counter()
    if scenario.n != geometry.n:
        raise ValueError("scenario length must match the array size")
    w_faulty = apply_failures(original, scenario)
    omega = scenario.mask

    # The metric's region field F = A(w_faulty + delta) and broadside field
    # F(0) of the current correction: a removal trial updates them by one
    # column, and only an accepted re-solve takes a product.
    a = steering_matrix(geometry, metric.region.samples)

    def field_of(delta: np.ndarray) -> tuple[np.ndarray, complex]:
        w = w_faulty + delta
        return a @ w, np.sum(w)

    # The bound that every solve and certificate answers, within the
    # exchange's slack: a trial accepted without a re-solve meets it too.
    feasible_db = metric.target_db + 10.0 * np.log10(1.0 + _EXCHANGE_SLACK)
    required = np.zeros(geometry.n, dtype=bool)
    non_required = np.zeros(geometry.n, dtype=bool)
    trace: list[TraceEntry] = []

    best = solve_constrained_l1(geometry, w_faulty, metric, mask=omega, config=config)
    field = field_of(best)
    best_phi = peak_level_db(*field)
    non_required[(best == 0) & ~omega] = True
    trace.append(TraceEntry(k=0, step=0, event="accepted",
                            l0=l0_norm(best), l1=l1_norm(best), phi_db=best_phi))

    def accept(k: int, n: int, delta: np.ndarray, delta_field, phi: float) -> None:
        nonlocal best, field, best_phi
        best, field, best_phi = delta, delta_field, phi
        required[:] = False
        non_required[(delta == 0) & ~omega] = True
        trace.append(TraceEntry(k=k, step=2, event="accepted", n_least=n,
                                l0=l0_norm(delta), l1=l1_norm(delta), phi_db=phi))

    k = 0
    hard_cap = 4 * geometry.n * geometry.n + 64
    while True:
        k += 1
        if k > hard_cap:
            raise RuntimeError("removal loop exceeded its iteration guard")
        n = least_important(best, required)
        if n is None:
            trace.append(TraceEntry(k=k, step=1, event="converged",
                                    l0=l0_norm(best), l1=l1_norm(best), phi_db=best_phi))
            break
        non_required[n - 1] = True
        trial = make_trial(best, n)
        removed = best[n - 1]
        trial_field = (field[0] - removed * a[:, n - 1], field[1] - removed)
        trial_phi = peak_level_db(*trial_field)
        if trial_phi <= feasible_db:
            # Removal already holds; no re-solve needed.
            accept(k, n, trial, trial_field, trial_phi)
            continue
        try:
            solved = solve_constrained_l1(geometry, w_faulty, metric,
                                          mask=omega | non_required, start=trial, config=config)
        except InfeasibleError:
            non_required[n - 1] = False
            required[n - 1] = True
            trace.append(TraceEntry(k=k, step=3, event="backtracked", n_least=n))
            continue
        solved_field = field_of(solved)
        accept(k, n, solved, solved_field, peak_level_db(*solved_field))

    return CorrectionResult(
        delta=best,
        n_corrections=l0_norm(best),
        l1=l1_norm(best),
        achieved_phi_db=best_phi,
        k_opt=k,
        required=required,
        non_required=non_required,
        trace=tuple(trace),
        elapsed_s=time.perf_counter() - t0,
    )
