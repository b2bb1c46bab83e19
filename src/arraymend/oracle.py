"""
Ground-truth minimum-correction search by support enumeration.

For growing support size m, every size-m subset of the working elements is
examined in lexicographic index order, and the first subset admitting a
feasible correction wins. A subset is first tested against a pool of the
proofs that earlier rejections carried (_ProofPool); a proof that covers it
rejects it with no solve. Otherwise the l1 solve is restricted to it. Each
proven rejection, by the pool, by a dual certificate of the solve or by the
empty subset's exact zero-correction check, counts in n_certified; n_solves
counts the solves and n_supports the subsets examined. The returned support
size is proven minimal when n_certified == n_supports - 1, that is when
every rejected subset was proven infeasible rather than given up on.
Intended for small instances: the subsets grow as sum_m C(N_C, m).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InfeasibleError
from .model import ArrayGeometry, FailureScenario, MetricSpec, evaluate_metric
from .solver import SolverConfig, _Landscape, l0_norm, l1_norm, proves, solve_constrained_l1
from .taper import apply_failures

DEFAULT_SUPPORT_CAP = 2_000_000


@dataclass(frozen=True)
class OracleResult:
    feasible: bool
    support: tuple[int, ...]     # 1-based corrected elements of the winning subset
    delta: np.ndarray | None
    n_corrections: int | None
    l1: float | None
    achieved_phi_db: float | None
    searched_up_to: int          # largest support size examined
    n_supports: int              # subsets examined
    n_solves: int                # subsets solved (the others the pool rejected)
    n_certified: int             # rejected subsets whose infeasibility is proven
    elapsed_s: float

    @property
    def min_support(self) -> int | None:
        return len(self.support) if self.feasible else None


class _ProofPool:
    """
    The proofs of earlier rejections, most recently useful first.

    A proof is a weighting lam of the region samples. The pool keeps a
    solver._Landscape with every element free, whose steering rows full and
    faulty fields F_base give g_u = (full_u, F_base_u); a proof's
    P(lam) = sum_u lam_u conj(g_u) g_u^T is built once. A subset S is
    rejected when proves holds for the principal submatrix of P(lam) on
    S and the base column with h = (1_S, F0_base): that is the test
    solver._certificate makes for a solve restricted to S. The test also
    covers every subset of a proof's free set, since a principal submatrix
    of a positive-definite matrix is positive definite.
    """

    def __init__(self, geometry: ArrayGeometry, w_faulty: np.ndarray, metric: MetricSpec):
        self.land = _Landscape(geometry, w_faulty, metric, np.ones(geometry.n, dtype=bool))
        self.proofs = []    # (weights, P(weights)), move-to-front

    def add(self, weights: np.ndarray) -> None:
        nz = np.flatnonzero(weights)
        g = np.column_stack([self.land.full[nz], self.land.F_base[nz]])
        self.proofs.insert(0, (weights, (np.conj(g).T * weights[nz]) @ g))

    def rejects(self, subset) -> np.ndarray | None:
        """The weights of a pooled proof that no correction on subset meets the target, or None."""
        land = self.land
        cols = [*subset, land.full.shape[1]]
        block = np.ix_(cols, cols)
        h = np.append(np.ones(len(subset)), land.F0_base)
        for k, (weights, p) in enumerate(self.proofs):
            if proves(p[block], h, land.tau, land.m):
                self.proofs.insert(0, self.proofs.pop(k))
                return weights
        return None


def exhaustive_min(geometry: ArrayGeometry, original, scenario: FailureScenario,
                   metric: MetricSpec, config: SolverConfig | None = None,
                   max_support: int | None = None) -> OracleResult:
    """
    Smallest support size whose best correction meets the metric target.

    Stops at the first feasible subset of the smallest size (ties resolved
    by lexicographic order; the correction returned for the winner is the
    inner solver's and may differ between solver configurations). When no
    subset up to max_support is feasible the result reports that bound with
    feasible=False. Raises BudgetExceededError when more than
    DEFAULT_SUPPORT_CAP subsets would be examined, whether solved or
    rejected by the pool.
    """
    t0 = time.perf_counter()
    if scenario.n != geometry.n:
        raise ValueError("scenario length must match the array size")
    w_faulty = apply_failures(original, scenario)
    working = np.flatnonzero(scenario.admissible)

    limit = scenario.n_controllable if max_support is None else int(max_support)
    if not 0 <= limit <= scenario.n_controllable:
        raise ValueError("max_support must be within 0..N_C")

    pool = _ProofPool(geometry, w_faulty, metric)
    supports = solves = certified = 0
    for m in range(limit + 1):
        for subset in itertools.combinations(working, m):
            supports += 1
            if supports > DEFAULT_SUPPORT_CAP:
                raise BudgetExceededError(f"oracle examined more than {DEFAULT_SUPPORT_CAP} supports")
            if pool.rejects(subset) is not None:
                certified += 1
                continue
            solves += 1
            mask = np.ones(geometry.n, dtype=bool)
            mask[list(subset)] = False
            try:
                delta = solve_constrained_l1(geometry, w_faulty, metric, mask=mask, config=config)
            except InfeasibleError as err:
                certified += err.certified
                if err.weights is not None:
                    pool.add(err.weights)
                continue
            return OracleResult(
                feasible=True,
                support=tuple(int(i) + 1 for i in subset),
                delta=delta,
                n_corrections=l0_norm(delta),
                l1=l1_norm(delta),
                achieved_phi_db=evaluate_metric(metric, geometry, w_faulty + delta),
                searched_up_to=m,
                n_supports=supports,
                n_solves=solves,
                n_certified=certified,
                elapsed_s=time.perf_counter() - t0,
            )
    return OracleResult(
        feasible=False, support=(), delta=None, n_corrections=None, l1=None,
        achieved_phi_db=None, searched_up_to=limit, n_supports=supports,
        n_solves=solves, n_certified=certified, elapsed_s=time.perf_counter() - t0,
    )
