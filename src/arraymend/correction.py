"""
Backtracking reduction of a correction vector to a minimal set of element
changes.

Starting from the smallest-l1 correction over all controllable elements,
the loop tries to remove the corrections of the current answer one at a
time, smallest magnitude first (the smallest is expected to perturb the
pattern least). A removal either holds as it is or is repaired by a
re-solve of the l1 problem that freezes exactly the trial's zeros; the
answer it gives starts the next round of trials. A removal that cannot be
repaired is undone and the next correction is tried. The loop has
converged when every correction of the answer was tried and undone.

The answer is the loop's only state. Since a re-solve freezes every zero of
its trial, and a solve returns exact zeros wherever it is frozen, every
accepted removal shrinks the support by at least the removed correction; and
since an undone trial leaves the answer as it was, the next candidate is the
next entry in the same order. So the loop ends after at most
N_C(N_C + 1)/2 trials, for N_C working elements.
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
    """
    The last accepted correction of the removal loop, with its trace.

    Each element of its support (corrected_elements) was tried for removal
    and restored since the last accepted removal.
    """

    delta: np.ndarray
    n_corrections: int
    l1: float
    achieved_phi_db: float
    k_opt: int
    trace: tuple[TraceEntry, ...]
    elapsed_s: float

    @property
    def corrected_elements(self) -> list[int]:
        """1-based indices of the elements whose excitation was changed."""
        return [int(i) + 1 for i in np.flatnonzero(self.delta != 0)]


def removal_order(delta) -> list[int]:
    """
    1-based positions of the nonzero corrections, smallest magnitude first.

    A solve returns its zeros exactly, so every entry it left nonzero is a
    correction the loop tries to drop, and exact zeros are skipped. Ties go
    to the lowest index. An empty list means there is nothing left to try.
    """
    mag = np.abs(as_weights(delta))
    nonzero = np.flatnonzero(mag)
    return [int(i) + 1 for i in nonzero[np.argsort(mag[nonzero], kind="stable")]]


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
    trace: list[TraceEntry] = []

    best = solve_constrained_l1(geometry, w_faulty, metric, mask=scenario.mask, config=config)
    field = field_of(best)
    best_phi = peak_level_db(*field)
    trace.append(TraceEntry(k=0, step=0, event="accepted",
                            l0=l0_norm(best), l1=l1_norm(best), phi_db=best_phi))

    k = 0
    while True:
        for n in removal_order(best):
            k += 1
            trial = make_trial(best, n)
            removed = best[n - 1]
            trial_field = (field[0] - removed * a[:, n - 1], field[1] - removed)
            trial_phi = peak_level_db(*trial_field)
            if trial_phi > feasible_db:
                # The removal alone misses: re-solve with the trial's zeros frozen.
                try:
                    trial = solve_constrained_l1(geometry, w_faulty, metric,
                                                 mask=trial == 0, start=trial, config=config)
                except InfeasibleError:
                    trace.append(TraceEntry(k=k, step=3, event="backtracked", n_least=n))
                    continue
                trial_field = field_of(trial)
                trial_phi = peak_level_db(*trial_field)
            best, field, best_phi = trial, trial_field, trial_phi
            trace.append(TraceEntry(k=k, step=2, event="accepted", n_least=n,
                                    l0=l0_norm(best), l1=l1_norm(best), phi_db=best_phi))
            break
        else:       # every correction was tried and restored
            break
    k += 1
    trace.append(TraceEntry(k=k, step=1, event="converged",
                            l0=l0_norm(best), l1=l1_norm(best), phi_db=best_phi))

    return CorrectionResult(
        delta=best,
        n_corrections=l0_norm(best),
        l1=l1_norm(best),
        achieved_phi_db=best_phi,
        k_opt=k,
        trace=tuple(trace),
        elapsed_s=time.perf_counter() - t0,
    )
