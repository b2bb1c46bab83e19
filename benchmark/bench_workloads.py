"""
Workloads, correctness checks and metrics of the arraymend benchmark.

Three workloads, each driving a different layer hardest:

* correct_catalog: `run_scenario` over a fixed catalog with N from 4 to
  100. Feasible l1 solves dominate, then removal-loop trial evaluations.
* oracle_certify: `exhaustive_min` on test_case_1 (known minimum 3) and on
  seeded random instances with N from 10 to 16. Infeasible l1 solves of a
  few milliseconds dominate, and the steering matrix is rebuilt per solve.
* batch_parallel: `batch_run` with two threads over a generated directory
  holding two scenarios that backtrack often, two light ones, one unreachable
  target and one malformed file. Exercises the removal loop's backtracking,
  dispatch, export and contention for the interpreter lock.

All inputs are built before any timing. End-to-end numbers come from
untraced passes; per-layer numbers come from a separate traced run (see
bench_trace).
"""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from arraymend import bench as am_bench
from arraymend import correction, model, oracle, solver, taper
from arraymend.errors import InfeasibleError

from bench_trace import Tracer, self_time, span_cost

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Passes run up to twice as slow on a loaded 2-core machine, and every run of
# every workload must fit the benchmark's time budget even then. So the
# catalog stops at N = 100 (size_scan_n150_row3 alone takes 15-30 s), and the
# batch leaves out the backtrack-heavy fail_rate_n50_row3 and
# size_scan_n25_row2 (18-32 s each).
CATALOG = ("toy", "test_case_1", "test_case_2_sll22", "size_scan_n100_row3")

# The first two backtrack on most removals; all four contend for the
# interpreter lock when two threads run them.
BATCH_SCENARIOS = ("test_case_2_sll24", "size_scan_n25_row3", "fail_rate_n50_row1",
                   "size_scan_n50_row1")
BATCH_UNREACHABLE = "test_case_2_unreachable"   # test_case_2 at -30 dB
BATCH_MALFORMED = "malformed"
BATCH_PARALLELISM = 2
# Problems with a problem.<name>.s metric; a workload that skips one reports 0.
PROBLEMS = CATALOG + BATCH_SCENARIOS + (BATCH_UNREACHABLE,)

ORACLE_PROBLEM = "test_case_1"
ORACLE_KNOWN_MIN = 3
ORACLE_MAX_SUPPORT = 3
ORACLE_INSTANCES = 4

CHECK_GRID = 4001       # full metric grid of the exported patterns
SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import arraymend; "
                "print(time.perf_counter() - t)")


# -- inputs ------------------------------------------------------------------

def generate_instances(seed: int, count: int = ORACLE_INSTANCES) -> list[dict]:
    """
    Random oracle_certify scenarios: N in 10..16, 1-3 failures, design SLL
    in [-25, -15] dB, target 0-3 dB looser, default region at 1001 samples.
    """
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        n = rng.randint(10, 16)
        faults = sorted(rng.sample(range(1, n + 1), rng.randint(1, 3)))
        design = round(rng.uniform(-25.0, -15.0), 3)
        target = round(design + rng.uniform(0.0, 3.0), 3)
        specs.append({
            "name": f"random_s{seed}_{i}",
            "n_elements": n,
            "faulty_indices": faults,
            "taper": {"dolph_chebyshev": {"sll_db": design}},
            "metric": {"kind": "max_sll", "target_db": target, "region_density": 1001},
        })
    return specs


def load_spec(root: Path, name: str) -> am_bench.ScenarioSpec:
    return am_bench.ScenarioSpec.from_file(root / "scenarios" / f"{name}.json")


# -- correctness checks --------------------------------------------------------

class Checker:
    """Counts checked operations and the ones that failed any check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")


def _check_samples(res) -> np.ndarray:
    """
    The metric region on the full grid (explicit sample regions as given).

    A region sampled coarser than the full grid starts at its first sample
    outside the mainlobe, not at the mainlobe edge itself: the scenario asks
    for nothing in the sliver between, where the mainlobe skirt rises steeply.
    Every full-grid point between two region samples is checked.
    """
    samples = res.metric.region.samples
    if res.bw_target_deg is None:
        return samples
    u = np.linspace(-1.0, 1.0, CHECK_GRID)
    return u[np.abs(u) >= np.min(np.abs(samples)) - 1e-12]


def _limit_db(res) -> float:
    return res.metric.target_db + res.config.constraint_tol_db


def pattern_problems(res, delta, what: str) -> list[str]:
    """Recompute the corrected pattern independently and test it on the full grid."""
    w = np.where(res.scenario.mask, 0.0, res.weights) + delta
    u = _check_samples(res)
    f = np.exp(2j * np.pi * np.outer(u, res.geometry.positions)) @ w
    worst = 10.0 * np.log10(np.max(np.abs(f) ** 2) / abs(np.sum(w)) ** 2)
    if not worst <= _limit_db(res) + 1e-9:
        return [f"{what} pattern peaks at {worst:.6g} dB above {_limit_db(res):.6g} dB"]
    return []


def exported_pattern_problems(res, path: Path) -> list[str]:
    """Test the corrected column of an exported pattern file on the full grid."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 3), ndmin=2)
    u, samples = data[:, 0], np.sort(_check_samples(res))
    i = np.searchsorted(samples, u)
    gap = np.minimum(np.abs(u - samples[np.maximum(i - 1, 0)]),
                     np.abs(u - samples[np.minimum(i, samples.size - 1)]))
    if not np.any(gap < 1e-9):
        return ["exported pattern holds no sample of the metric region"]
    worst = float(np.max(data[gap < 1e-9, 1]))
    # The file holds 6 significant digits.
    if not worst <= _limit_db(res) + 1e-4:
        return [f"exported pattern peaks at {worst:.6g} dB above {_limit_db(res):.6g} dB"]
    return []


def _unexpected(err: BaseException) -> list[str]:
    return [f"unexpected {type(err).__name__}: {err}"]


# -- tracing -------------------------------------------------------------------

def _spec_name(args, kwargs) -> str:
    return (args[0] if args else kwargs["spec"]).name


def _correction_attrs(span, result) -> None:
    steps = [e.step for e in result.trace]
    span.attrs.update(accepted=steps.count(2), backtracked=steps.count(3),
                      l1_first=result.trace[0].l1)


def _oracle_attrs(span, result) -> None:
    span.attrs.update(n_solves=result.n_solves, feasible=result.feasible)


def install(tracer: Tracer) -> None:
    """Span every layer boundary the per-layer metrics need."""
    tracer.wrap(model, "steering_matrix", "model.steering_matrix")
    tracer.wrap(model, "evaluate_metric", "model.evaluate_metric")
    tracer.wrap(taper, "dolph_chebyshev", "taper.dolph_chebyshev")
    tracer.wrap(solver, "solve_constrained_l1", "solver.solve")
    tracer.wrap(correction, "minimize_corrections", "correction.minimize_corrections",
                on_result=_correction_attrs)
    tracer.wrap(oracle, "exhaustive_min", "oracle.exhaustive_min", on_result=_oracle_attrs)
    tracer.wrap(am_bench, "resolve_scenario", "bench.resolve_scenario")
    tracer.wrap(am_bench, "_base_record", "bench.record")
    tracer.wrap(am_bench, "_write_json", "bench.export")
    tracer.wrap(am_bench, "_write_csv", "bench.export")
    tracer.wrap(am_bench, "run_scenario", "bench.run_scenario", problem_of=_spec_name)
    tracer.wrap(am_bench, "run_oracle", "bench.run_oracle", problem_of=_spec_name)
    tracer.wrap(am_bench, "batch_run", "bench.batch_run")


def _ratio(num: float, den: float) -> float:
    # Layers a workload does not reach report 0.
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer counts, seconds and ratios from one traced pass."""
    children = defaultdict(list)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def seconds(items) -> float:
        return sum(s.duration for s in items)

    def solves_under(items):
        return [c for s in items for c in children[s.id] if c.name == "solver.solve"]

    def is_ok(s) -> bool:
        return "error" not in s.attrs

    def is_infeasible(s) -> bool:
        return s.attrs.get("error") == InfeasibleError.__name__

    out = {}
    for name in ("model.steering_matrix", "model.evaluate_metric"):
        out[f"{name}.calls"] = len(named[name])
        out[f"{name}.s"] = seconds(named[name])
    out["taper.dolph_chebyshev.s"] = seconds(named["taper.dolph_chebyshev"])
    out["bench.resolve_scenario.s"] = seconds(named["bench.resolve_scenario"])

    solves = named["solver.solve"]
    for label, keep in (("solve_ok", is_ok), ("solve_infeasible", is_infeasible)):
        chosen = [s for s in solves if keep(s)]
        out[f"solver.{label}.calls"] = len(chosen)
        out[f"solver.{label}.s"] = seconds(chosen)
        out[f"solver.{label}.mean_ms"] = 1e3 * _ratio(seconds(chosen), len(chosen))

    done = [s for s in named["correction.minimize_corrections"] if is_ok(s)]
    out["solver.l1_first_total"] = sum(s.attrs["l1_first"] for s in done)
    minimize = named["correction.minimize_corrections"]
    accepted = sum(s.attrs["accepted"] for s in done)
    backtracked = sum(s.attrs["backtracked"] for s in done)
    # Every accepted removal after the initial solve that needed a solve.
    resolved = sum(sum(1 for c in children[s.id] if c.name == "solver.solve" and is_ok(c)) - 1
                   for s in done)
    out["correction.minimize_corrections.self_s"] = sum(self_time(s, children[s.id]) for s in minimize)
    out["correction.removals"] = accepted + backtracked
    out["correction.accepted_no_resolve"] = accepted - resolved
    out["correction.accepted_resolve"] = resolved
    out["correction.backtracked"] = backtracked
    out["correction.useful_ratio"] = _ratio(accepted, accepted + backtracked)
    out["correction.backtrack_share"] = _ratio(
        seconds(s for s in solves_under(minimize) if is_infeasible(s)), seconds(minimize))

    searches = named["oracle.exhaustive_min"]
    oracle_solves = solves_under(searches)
    out["oracle.exhaustive_min.s"] = seconds(searches)
    out["oracle.solves"] = sum(s.attrs.get("n_solves", 0) for s in searches)
    out["oracle.useful_ratio"] = _ratio(sum(1 for s in oracle_solves if is_ok(s)), len(oracle_solves))
    out["oracle.solve_mean_ms"] = 1e3 * _ratio(seconds(oracle_solves), len(oracle_solves))

    out["bench.run_scenario.self_s"] = sum(self_time(s, children[s.id])
                                           for s in named["bench.run_scenario"])
    out["trace.spans"] = len(spans)
    return out


def problem_seconds(spans, passes: int = 1) -> dict:
    """Seconds per pass spent in the top-level runner calls of each problem."""
    totals = dict.fromkeys(PROBLEMS, 0.0)
    for s in spans:
        if s.name in ("bench.run_scenario", "bench.run_oracle") and s.problem:
            totals[s.problem] = totals.get(s.problem, 0.0) + s.duration
    return {f"problem.{name}.s": t / passes for name, t in totals.items()}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- workloads -----------------------------------------------------------------

class Workload:
    """Fixed inputs plus one timed pass; subclasses define the pass."""

    name = ""
    min_passes = 1

    def __init__(self, work: Path, specs):
        self.work = work
        self._dirs = 0
        self.specs = list(specs)
        self.resolved = {s.name: am_bench.resolve_scenario(s) for s in self.specs}

    def out_dir(self) -> Path:
        self._dirs += 1
        return self.work / f"pass{self._dirs}"

    def one_pass(self, checker: Checker) -> tuple[float, int]:
        """Seconds of one timed pass and the corrections it made."""
        raise NotImplementedError

    def untraced(self, checker: Checker, seconds: float) -> dict:
        """Repeat passes while another is expected to end within `seconds`."""
        start = time.perf_counter()
        walls, totals = [], []
        while (len(walls) < self.min_passes
               or time.perf_counter() - start + statistics.median(walls) <= seconds):
            wall, total = self.one_pass(checker)
            walls.append(wall)
            totals.append(total)
        return {"wall_s": statistics.median(walls), "corrections_total": totals[0],
                "passes": len(walls)}

    def traced(self, checker: Checker, tracer: Tracer) -> dict:
        raise NotImplementedError


class CorrectCatalog(Workload):
    name = "correct_catalog"

    def __init__(self, root: Path, seed: int, work: Path, problems=CATALOG):
        super().__init__(work, [load_spec(root, name) for name in problems])

    def _pass(self, checker: Checker, out: Path) -> tuple[float, int]:
        outcomes = []
        t0 = time.perf_counter()
        for spec in self.specs:
            try:
                outcomes.append(am_bench.run_scenario(spec, out)[1])
            except Exception as err:  # counted as a failed operation below
                outcomes.append(err)
        wall = time.perf_counter() - t0
        total = 0
        for spec, outcome in zip(self.specs, outcomes):
            if isinstance(outcome, Exception):
                checker.op(spec.name, _unexpected(outcome))
                continue
            total += outcome.n_corrections
            checker.op(spec.name, pattern_problems(self.resolved[spec.name], outcome.delta,
                                                   "corrected"))
        return wall, total

    def one_pass(self, checker):
        return self._pass(checker, self.out_dir())

    def traced(self, checker, tracer):
        out = self.out_dir()
        with tracer:
            install(tracer)
            wall, _ = self._pass(checker, out)
        spans = tracer.spans()
        return {**layer_metrics(spans), **problem_seconds(spans),
                "bench.export_bytes": _dir_bytes(out), "trace.wall_s": wall}


class OracleCertify(Workload):
    name = "oracle_certify"
    min_passes = 5
    traced_passes = 2

    def __init__(self, root: Path, seed: int, work: Path, instances: int = ORACLE_INSTANCES):
        self.known = load_spec(root, ORACLE_PROBLEM)
        self.instances = [am_bench.ScenarioSpec.from_dict(d)
                          for d in generate_instances(seed, instances)]
        super().__init__(work, [self.known, *self.instances])

    @staticmethod
    def _certify(spec, out: Path, max_support: int | None):
        try:
            heuristic = am_bench.run_scenario(spec, out)[1]
        except InfeasibleError:
            heuristic = None
        if max_support is None:
            max_support = (ORACLE_MAX_SUPPORT if heuristic is None
                           else min(heuristic.n_corrections, ORACLE_MAX_SUPPORT))
        return heuristic, am_bench.run_oracle(spec, out, max_support=max_support)[1]

    def _check(self, checker: Checker, spec, outcome, known_min=None) -> int:
        """Check one certification; returns the heuristic's correction count."""
        if isinstance(outcome, Exception):
            checker.op(spec.name, _unexpected(outcome))
            return 0
        heuristic, found = outcome
        res = self.resolved[spec.name]
        problems = []
        if heuristic is not None:
            problems += pattern_problems(res, heuristic.delta, "heuristic")
        if found.feasible:
            problems += pattern_problems(res, found.delta, "oracle")
            if heuristic is None:
                problems.append(f"oracle found support {found.min_support} "
                                "where the heuristic claimed infeasibility")
            elif found.min_support > heuristic.n_corrections:
                problems.append(f"oracle minimum {found.min_support} above the "
                                f"heuristic count {heuristic.n_corrections}")
        elif heuristic is not None and heuristic.n_corrections <= found.searched_up_to:
            problems.append(f"oracle found no support up to {found.searched_up_to} but the "
                            f"heuristic used {heuristic.n_corrections}")
        if known_min is not None and found.min_support != known_min:
            problems.append(f"oracle minimum {found.min_support}, expected {known_min}")
        checker.op(spec.name, problems)
        return 0 if heuristic is None else heuristic.n_corrections

    def _timed(self, spec, max_support=None):
        out = self.out_dir()
        t0 = time.perf_counter()
        try:
            outcome = self._certify(spec, out, max_support)
        except Exception as err:  # counted as a failed operation by _check
            outcome = err
        return time.perf_counter() - t0, outcome

    def one_pass(self, checker):
        wall, outcome = self._timed(self.known, ORACLE_MAX_SUPPORT)
        return wall, self._check(checker, self.known, outcome, ORACLE_KNOWN_MIN)

    def run_instances(self, checker: Checker) -> None:
        for spec in self.instances:
            self._check(checker, spec, self._timed(spec)[1])

    def untraced(self, checker, seconds):
        start = time.perf_counter()
        self.run_instances(checker)
        return super().untraced(checker, seconds - (time.perf_counter() - start))

    def traced(self, checker, tracer):
        with tracer:
            install(tracer)
            walls = [self.one_pass(checker)[0] for _ in range(self.traced_passes)]
            known_spans = tracer.spans()
            self.run_instances(checker)
        return {**layer_metrics(tracer.spans()),
                **problem_seconds(known_spans, self.traced_passes),
                "bench.export_bytes": _dir_bytes(self.work),
                "trace.wall_s": statistics.median(walls)}


class BatchParallel(Workload):
    name = "batch_parallel"

    def __init__(self, root: Path, seed: int, work: Path, scenarios=BATCH_SCENARIOS):
        self.spec_dir = work / "specs"
        self.spec_dir.mkdir(parents=True)
        specs = [load_spec(root, name) for name in scenarios]
        unreachable = load_spec(root, "test_case_2_sll22").to_dict()
        unreachable.update(name=BATCH_UNREACHABLE, metric={"kind": "max_sll", "target_db": -30.0})
        specs.append(am_bench.ScenarioSpec.from_dict(unreachable))
        for spec in specs:
            (self.spec_dir / f"{spec.name}.json").write_text(json.dumps(spec.to_dict()),
                                                             encoding="utf-8")
        (self.spec_dir / f"{BATCH_MALFORMED}.json").write_text('{"name": "malformed", "n_elements": ',
                                                               encoding="utf-8")
        super().__init__(work, specs)
        self.expected = {s.name: "ok" for s in specs}
        self.expected[BATCH_UNREACHABLE] = "infeasible"
        self.expected[BATCH_MALFORMED] = "error"

    def _pass(self, checker: Checker, out: Path, parallelism: int) -> tuple[float, int, float]:
        t0 = time.perf_counter()
        try:
            records = am_bench.batch_run(self.spec_dir, out, parallelism=parallelism)
        except Exception as err:  # every row counts as failed below
            records = err
        wall = time.perf_counter() - t0
        if isinstance(records, Exception):
            for name in self.expected:
                checker.op(name, _unexpected(records))
            return wall, 0, 0.0
        rows = {r.get("name"): r for r in records}
        total = 0
        for name, expect in self.expected.items():
            row = rows.get(name)
            status = "" if row is None else str(row.get("status"))
            if not status.startswith(expect):
                checker.op(name, [f"status {status!r}, expected {expect!r}"])
                continue
            problems = []
            if expect == "ok":
                total += int(row["n_corrections"])
                problems = exported_pattern_problems(self.resolved[name],
                                                     out / f"{name}_pattern.csv")
            checker.op(name, problems)
        return wall, total, _summary_elapsed(out / "summary.csv")

    def one_pass(self, checker):
        wall, total, _ = self._pass(checker, self.out_dir(), BATCH_PARALLELISM)
        return wall, total

    def traced(self, checker, tracer):
        out = self.out_dir()
        with tracer:
            install(tracer)
            wall, _, parallel_sum = self._pass(checker, out, BATCH_PARALLELISM)
        _, _, serial_sum = self._pass(checker, self.out_dir(), 1)
        spans = tracer.spans()
        return {**layer_metrics(spans), **problem_seconds(spans),
                "bench.export_bytes": _dir_bytes(out), "trace.wall_s": wall,
                "bench.batch.scenario_s_sum": parallel_sum,
                "bench.batch.contention": _ratio(parallel_sum, serial_sum)}


def _summary_elapsed(path: Path) -> float:
    """Sum of the elapsed_s column (the last one) of a batch summary."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0].split(",")[-1] != "elapsed_s":
        raise ValueError("summary.csv no longer ends with elapsed_s")
    return sum(float(v) for v in (line.split(",")[-1] for line in lines[1:]) if v)


WORKLOADS = {w.name: w for w in (CorrectCatalog, OracleCertify, BatchParallel)}


# -- a run ---------------------------------------------------------------------

def environment(seed: int, loadavg) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg),
    }


def measure_setup(root: Path, specs) -> float:
    """Median import time in fresh interpreters plus median time to resolve every spec."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    imports = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        imports.append(float(done.stdout.split()[-1]))
    resolves = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        for spec in specs:
            am_bench.resolve_scenario(spec)
        resolves.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(resolves)


def traced_metrics(wl: Workload, checker: Checker, tracer: Tracer) -> dict:
    """Every per-layer metric of one traced run of a workload."""
    # Layers a workload does not reach report 0.
    metrics = {"bench.batch.scenario_s_sum": 0.0, "bench.batch.contention": 0.0}
    metrics.update(wl.traced(checker, tracer))
    metrics["trace.overhead_s"] = metrics["trace.spans"] * span_cost()
    return metrics


def run(workload: str, root: Path, seed: int, seconds: float, trace: bool, loadavg) -> dict:
    """Run one workload; returns metrics, operation counts, failures and environment."""
    work_root = root / ".bench_work"
    work = work_root / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checker = Checker()
    try:
        wl = WORKLOADS[workload](root, seed, work)
        if trace:
            tracer = Tracer()
            metrics = traced_metrics(wl, checker, tracer)
            tracer.write(work_root / f"{workload}-seed{seed}-spans.json")
            passes = None
        else:
            e2e = wl.untraced(checker, seconds)
            passes = e2e.pop("passes")
            metrics = dict(e2e, setup_s=measure_setup(root, wl.specs),
                           peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": workload,
        "trace": trace,
        "passes": passes,
        "metrics": metrics,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failures": checker.failures,
        "env": environment(seed, loadavg),
    }
