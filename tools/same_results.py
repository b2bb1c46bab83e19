"""
Check that two arraymend source trees give bit-for-bit the same results.

    python3 tools/same_results.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the `arraymend` package, such as a
checkout's `src/`. Each tree runs in its own interpreter with
one BLAS thread, pinned before numpy loads, because the thread count changes
results. Both run `minimize_corrections` on every catalog scenario under
scenarios/ (read from this checkout), on the batch's unreachable row
(`BATCH_UNREACHABLE` of benchmark/bench_workloads.py: test_case_2_sll22 at
-30 dB), on test_case_1 and fail_rate_n50_row1 with their tapers times
e^{0.3j} (items complex:<name>: no catalog scenario reaches the cone program
over (Re z, Im z), and these do), on test_case_1 with its taper times -1
(item negated:test_case_1: a real taper whose broadside field is negative),
on test_case_1 and test_case_2_sll22 with their tapers times 2^-10 (items
scaled:<name>: an answer must not depend on the excitations' units), and
the test_case_1 oracle up to support 3. The script compares each
correction vector exactly (which elements it changes, and so which
corrections the loop kept, is a function of it), plus the correction
count, l1, k_opt, the removal trace and the removal loop's backtracks
tallied by the certified flag of the InfeasibleError behind each (a proof,
as against a ray or a stall; the collecting process wraps
`arraymend.correction`'s `solve_constrained_l1` to see them), and the
oracle's support, the supports it examined (n_supports) and its count of
proven rejections (n_certified). It also wraps
`arraymend.solver._exchange` and compares each item's exchange verdicts
(optimal, ray, undecided), cone IPM iterations and exchange rounds, and
wraps `arraymend.solver._certificate` to compare each item's certificate
searches and the proofs they found. Both trees also run the benchmark
generator's oracle_certify instances for seeds 1-10 (`generate_instances` of
benchmark/bench_workloads.py) as that workload does: the heuristic, then
`exhaustive_min` up to the heuristic's count or 3, whichever is smaller.
Each instance is compared by its heuristic count (or the error it raised),
the oracle's support, n_supports and n_certified. An item that raises is
compared by the error's class and its certified flag, not by its message.
An oracle's solve count (n_solves) and, for the test_case_1 oracle, its
exchange and certificate tallies are reported but not compared: the
oracle's proof pool rejects supports without a solve, so a change to the
pool moves them while every answer stays. It prints one line per item;
under each item that differs, or whose reported counts moved, a second
line gives parent -> change for the correction count, k_opt, the
backtrack, verdict, iteration, round and certificate tallies and the
oracle's support, solve and proven-rejection counts, and the relative
change of l1. Five lines sum those counts, parent -> change: one over the
real correction items, one over the complex ones, one over the negated one,
one over the scaled ones and one over the generated instances.

Each tree then runs the runners and writes their files: `run_scenario` on
toy and test_case_1, `run_oracle` on toy up to support 2, `tradeoff_sweep`
on fail_rate_n50_row1 at -20, -22 and -40 dB, and `batch_run` over toy,
test_case_1, the unreachable row and a malformed file. Every written file
is compared, JSON records as values and CSV files line by line, with the
`elapsed_s` field and column dropped. It prints one line per file and exits
1 on any difference in an item or a file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ORACLE_PROBLEM = "test_case_1"
ORACLE_MAX_SUPPORT = 3
INSTANCE_SEEDS = range(1, 11)                         # of the benchmark's instance generator
COMPLEX = ("test_case_1", "fail_rate_n50_row1")       # run again with their tapers times e^{j PHASE}
PHASE = 0.3
NEGATED = ("test_case_1",)                            # run again with their tapers times -1
SCALED = ("test_case_1", "test_case_2_sll22")          # run again with their tapers times 2^SCALE
SCALE = -10
RUN_PROBLEMS = ("toy", "test_case_1")
RUNNER_ORACLE = ("toy", 2)                            # problem, largest support
SWEEP = ("fail_rate_n50_row1", (-20.0, -22.0, -40.0))  # problem, targets loosest first
BACKTRACKS = ("backtracks_certified", "backtracks_uncertified")
VERDICTS = ("optimal", "ray", "undecided")    # of the exchange, tallied as exchange_<verdict>
SOLVER = (*(f"exchange_{v}" for v in VERDICTS), "ipm_iterations", "exchange_rounds",
            "certificate_searches", "certificate_proofs")
SHOWN = ("n_corrections", "k_opt", *BACKTRACKS, "support", "n_supports", "n_solves", "n_certified",
         "error", "certified")  # printed per item
# parent -> change when an item differs, and summed over the correction items
MOVED = ("n_corrections", "k_opt", *BACKTRACKS, *SOLVER, "n_supports", "n_solves", "n_certified")
REPORTED = ("n_solves", *SOLVER)    # of the oracle items: reported, not compared
ORACLE_KINDS = ("oracle", "instance")


def _complex_list(a) -> list:
    # float repr round-trips exactly through JSON
    return None if a is None else [[float(v.real), float(v.imag)] for v in a]


def _supports(o) -> int:
    # an oracle without a proof pool solved every support it examined
    return getattr(o, "n_supports", o.n_solves)


def read_output(path: Path):
    """A written file with its elapsed_s dropped: a JSON value, or a CSV file's lines."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        record = json.loads(text)
        record.pop("elapsed_s", None)
        return record
    lines = text.splitlines()
    if lines[0].endswith(",elapsed_s"):  # the last column; statuses may hold commas
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return lines


def runner_files(bw, unreachable: dict) -> dict:
    """Every file the runners write in this interpreter, keyed by runner and file name."""
    am = bw.am_bench
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name in RUN_PROBLEMS:
            am.run_scenario(bw.load_spec(ROOT, name), out / "run")
        name, max_support = RUNNER_ORACLE
        am.run_oracle(bw.load_spec(ROOT, name), out / "oracle", max_support=max_support)
        name, targets = SWEEP
        am.tradeoff_sweep(bw.load_spec(ROOT, name), targets, out / "sweep")
        specs = out / "specs"
        specs.mkdir()
        for data in [bw.load_spec(ROOT, n).to_dict() for n in RUN_PROBLEMS] + [unreachable]:
            (specs / f"{data['name']}.json").write_text(json.dumps(data), encoding="utf-8")
        (specs / f"{bw.BATCH_MALFORMED}.json").write_text('{"name": "malformed", "n_elements": ',
                                                          encoding="utf-8")
        am.batch_run(specs, out / "batch")
        return {str(p.relative_to(out)): read_output(p)
                for p in sorted(out.glob("*/*")) if p.parent != specs}


def collect() -> dict:
    """Results of every item and written file in this interpreter, as exact JSON values."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    from dataclasses import asdict, replace

    import bench_workloads as bw
    from arraymend import correction, solver
    from arraymend.errors import InfeasibleError
    from arraymend.oracle import exhaustive_min

    def resolved(name):
        return bw.am_bench.resolve_scenario(bw.load_spec(ROOT, name))

    unreachable = bw.load_spec(ROOT, "test_case_2_sll22").to_dict()  # as the batch builds it
    unreachable.update(name=bw.BATCH_UNREACHABLE, metric={"kind": "max_sll", "target_db": -30.0})
    problems = {p.stem: resolved(p.stem) for p in sorted((ROOT / "scenarios").glob("*.json"))}
    problems[bw.BATCH_UNREACHABLE] = bw.am_bench.resolve_scenario(
        bw.am_bench.ScenarioSpec.from_dict(unreachable))
    for name in COMPLEX:
        res = problems[name]
        problems[f"complex:{name}"] = replace(res, weights=res.weights * np.exp(1j * PHASE))
    for name in NEGATED:
        problems[f"negated:{name}"] = replace(problems[name], weights=-problems[name].weights)
    for name in SCALED:
        problems[f"scaled:{name}"] = replace(problems[name], weights=problems[name].weights * 2.0 ** SCALE)

    raised = []  # certified flags of the InfeasibleErrors that the removal loop's solves raise
    solve = correction.solve_constrained_l1

    def tallied(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except InfeasibleError as err:
            raised.append(err.certified)
            raise

    tallies = dict.fromkeys(SOLVER, 0)   # the exchange's and the certificate's tallies over one item
    exchange = solver._exchange

    def counted(*args, **kwargs):
        z, info = exchange(*args, **kwargs)
        tallies[f"exchange_{info['verdict']}"] += 1
        tallies["ipm_iterations"] += info["iterations"]
        tallies["exchange_rounds"] += info["rounds"]
        return z, info

    certificate = solver._certificate

    def searched(*args, **kwargs):
        proof = certificate(*args, **kwargs)
        tallies["certificate_searches"] += 1
        tallies["certificate_proofs"] += proof is not None
        return proof

    correction.solve_constrained_l1, solver._exchange, solver._certificate = tallied, counted, searched
    out = {}
    for name, res in problems.items():
        raised.clear()
        tallies.update(dict.fromkeys(SOLVER, 0))
        try:
            r = correction.minimize_corrections(res.geometry, res.weights, res.scenario, res.metric,
                                                res.config)
        except Exception as err:  # a raised error is a result to compare too
            out[name] = {"error": type(err).__name__, "certified": getattr(err, "certified", None),
                         **tallies}
            continue
        out[name] = {"delta": _complex_list(r.delta), "n_corrections": r.n_corrections,
                     "l1": r.l1, "k_opt": r.k_opt, "trace": [asdict(e) for e in r.trace],
                     "backtracks_certified": sum(raised),
                     "backtracks_uncertified": len(raised) - sum(raised), **tallies}
    correction.solve_constrained_l1 = solve
    res = resolved(ORACLE_PROBLEM)
    tallies.update(dict.fromkeys(SOLVER, 0))
    o = exhaustive_min(res.geometry, res.weights, res.scenario, res.metric, res.config,
                       max_support=ORACLE_MAX_SUPPORT)
    out[f"oracle:{ORACLE_PROBLEM}"] = {"delta": _complex_list(o.delta), "support": list(o.support),
                                       "n_supports": _supports(o), "n_solves": o.n_solves,
                                       "n_certified": o.n_certified, "l1": o.l1, **tallies}
    solver._exchange, solver._certificate = exchange, certificate
    for seed in INSTANCE_SEEDS:
        for data in bw.generate_instances(seed):
            spec = bw.am_bench.ScenarioSpec.from_dict(data)
            out[f"instance:{spec.name}"] = instance(bw, bw.am_bench.resolve_scenario(spec))
    return {"items": out, "files": runner_files(bw, unreachable)}


def instance(bw, res) -> dict:
    """One generated instance certified as oracle_certify does: the heuristic, then the oracle."""
    from arraymend.correction import minimize_corrections
    from arraymend.oracle import exhaustive_min

    try:
        heuristic = minimize_corrections(res.geometry, res.weights, res.scenario, res.metric,
                                         res.config).n_corrections
        item = {"n_corrections": heuristic}
    except Exception as err:  # a raised error is a result to compare too
        heuristic, item = None, {"error": type(err).__name__, "certified": getattr(err, "certified", None)}
    limit = bw.ORACLE_MAX_SUPPORT if heuristic is None else min(heuristic, bw.ORACLE_MAX_SUPPORT)
    o = exhaustive_min(res.geometry, res.weights, res.scenario, res.metric, res.config, max_support=limit)
    return {**item, "support": list(o.support), "n_supports": _supports(o), "n_solves": o.n_solves,
            "n_certified": o.n_certified}


def run_tree(src: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in BLAS_THREAD_VARS})
    return subprocess.Popen([sys.executable, __file__, "--collect"], env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)


def differences(name: str, a: dict, b: dict) -> list[str]:
    """Names of the compared fields that differ between two results of one item."""
    def same(key):
        if key == "delta" and a.get(key) is not None and b.get(key) is not None:
            return np.array_equal(np.array(a[key]), np.array(b[key]))
        return a.get(key) == b.get(key)
    skipped = REPORTED if name.partition(":")[0] in ORACLE_KINDS else ()
    return sorted(k for k in a.keys() | b.keys() if k not in skipped and not same(k))


def moved(a: dict, b: dict) -> str:
    """Parent -> change of one differing item's counts, and the relative change of its l1."""
    parts = [f"{k} {a.get(k)} -> {b.get(k)}" for k in MOVED if k in a or k in b]
    if a.get("l1") and b.get("l1") is not None:
        parts.append(f"l1 {(b['l1'] - a['l1']) / a['l1']:+.3e} relative")
    return ", ".join(parts)


def totals(items: dict, kind: str = "") -> dict:
    """Each MOVED count summed over the items of one kind: "" (real corrections), "complex", "negated", "scaled"
    or "instance"."""
    rows = [v for k, v in items.items() if k.rpartition(":")[0] == kind]
    return {k: sum(r.get(k, 0) for r in rows) for k in MOVED if any(k in r for r in rows)}


def main(argv) -> int:
    if argv == ["--collect"]:
        print(json.dumps(collect()))
        return 0
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    srcs = [Path(p).resolve() for p in argv]
    for src in srcs:
        if not (src / "arraymend" / "__init__.py").is_file():
            print(f"error: no arraymend package under {src}", file=sys.stderr)
            return 2
    procs = [run_tree(src) for src in srcs]
    outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        print("error: a tree failed to run", file=sys.stderr)
        return 2
    results = [json.loads(o) for o in outs]
    parent, change = (r["items"] for r in results)
    parent_files, change_files = (r["files"] for r in results)
    names = list(dict.fromkeys([*parent, *change]))
    bad = 0
    for name in names:
        a, b = parent.get(name, {}), change.get(name, {})
        diff = differences(name, a, b)
        bad += bool(diff)
        shown = {k: v for k, v in b.items() if k in SHOWN}
        print(f"{name:28s} {'DIFFERS in ' + ', '.join(diff) if diff else 'same':40s} {shown}")
        if diff or any(a.get(k) != b.get(k) for k in MOVED):
            print(f"{'':28s} {moved(a, b)}")
    print(f"{bad} of {len(names)} items differ")
    for kind in ("", "complex", "negated", "scaled", "instance"):
        sums = [totals(parent, kind), totals(change, kind)]
        print(f"{kind or 'correction'} totals: " + ", ".join(f"{k} {sums[0].get(k)} -> {sums[1].get(k)}"
                                                            for k in MOVED if k in sums[0] or k in sums[1]))
    files = sorted(parent_files.keys() | change_files.keys())
    bad_files = 0
    for name in files:
        same = parent_files.get(name) == change_files.get(name)
        bad_files += not same
        print(f"{name:44s} {'same' if same else 'DIFFERS'}")
    print(f"{bad_files} of {len(files)} files differ")
    return 1 if bad or bad_files else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
