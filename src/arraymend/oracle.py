"""
Ground-truth minimum-correction search by support enumeration.

For growing support size m, every size-m subset of the working elements is
tried in lexicographic index order: the l1 solve is restricted to that
subset and the first subset admitting a feasible correction wins. Each
rejection the inner solve proves (by a dual certificate of infeasibility,
or the empty subset's exact zero-correction check) counts in n_certified.
The returned support size is proven minimal when
n_certified == n_solves - 1, that is when every rejected subset was proven
infeasible rather than given up on. Intended for small instances; the
solve count grows as sum_m C(N_C, m).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InfeasibleError
from .model import ArrayGeometry, FailureScenario, MetricSpec, as_weights, evaluate_metric
from .solver import ZERO_THRESHOLD, SolverConfig, l0_norm, l1_norm, solve_constrained_l1
from .taper import apply_failures

DEFAULT_SOLVE_CAP = 2_000_000


@dataclass(frozen=True)
class OracleResult:
    feasible: bool
    support: tuple[int, ...]     # 1-based corrected elements of the winning subset
    delta: np.ndarray | None
    n_corrections: int | None
    l1: float | None
    achieved_phi_db: float | None
    searched_up_to: int          # largest support size examined
    n_solves: int
    n_certified: int             # rejected subsets whose infeasibility is proven
    elapsed_s: float

    @property
    def min_support(self) -> int | None:
        return len(self.support) if self.feasible else None


def exhaustive_min(geometry: ArrayGeometry, original, scenario: FailureScenario,
                   metric: MetricSpec, config: SolverConfig | None = None,
                   max_support: int | None = None,
                   max_solves: int = DEFAULT_SOLVE_CAP) -> OracleResult:
    """
    Smallest support size whose best correction meets the metric target.

    Stops at the first feasible subset of the smallest size (ties resolved
    by lexicographic order; the correction returned for the winner is the
    inner solver's and may differ between solver configurations). When no
    subset up to max_support is feasible the result reports that bound with
    feasible=False. Raises BudgetExceededError when max_solves inner solves
    are exhausted first.
    """
    t0 = time.perf_counter()
    cfg = config if config is not None else SolverConfig()
    w = as_weights(original, geometry.n)
    if scenario.n != geometry.n:
        raise ValueError("scenario length must match the array size")
    w_faulty = apply_failures(w, scenario)
    working = np.flatnonzero(scenario.admissible)

    limit = scenario.n_controllable if max_support is None else int(max_support)
    if not 0 <= limit <= scenario.n_controllable:
        raise ValueError("max_support must be within 0..N_C")

    solves = certified = 0
    for m in range(limit + 1):
        for subset in itertools.combinations(working, m):
            solves += 1
            if solves > max_solves:
                raise BudgetExceededError(f"oracle exceeded {max_solves} inner solves")
            mask = np.ones(geometry.n, dtype=bool)
            mask[list(subset)] = False
            try:
                delta = solve_constrained_l1(geometry, w_faulty, metric, mask=mask, config=cfg)
            except InfeasibleError as err:
                certified += err.certified
                continue
            return OracleResult(
                feasible=True,
                support=tuple(int(i) + 1 for i in subset),
                delta=delta,
                n_corrections=l0_norm(delta, ZERO_THRESHOLD),
                l1=l1_norm(delta),
                achieved_phi_db=evaluate_metric(metric, geometry, w_faulty + delta),
                searched_up_to=m,
                n_solves=solves,
                n_certified=certified,
                elapsed_s=time.perf_counter() - t0,
            )
    return OracleResult(
        feasible=False, support=(), delta=None, n_corrections=None, l1=None,
        achieved_phi_db=None, searched_up_to=limit, n_solves=solves,
        n_certified=certified, elapsed_s=time.perf_counter() - t0,
    )
