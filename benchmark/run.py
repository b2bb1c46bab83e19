"""
Layered benchmark of arraymend: correction, oracle and batch paths.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload correct_catalog --seed 1 --seconds 20 --trace 0

With --trace 0 it times untraced passes and reports the end-to-end metrics
of BENCHMARK.json; with --trace 1 it runs a traced pass and reports the
per-layer metrics. Every pass is checked for correctness. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The full result (environment, failures) and, for traced runs, the spans go
to .bench_work/ in the checkout.
"""

import os

# BLAS threads change results and timings; pin them before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        help="correct_catalog, oracle_certify or batch_parallel")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; untraced runs repeat passes while they fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    declared = ROOT / "BENCHMARK.json"
    for needed in (src / "arraymend" / "__init__.py", ROOT / "scenarios", declared):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from an arraymend "
                  "source checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads(declared.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = bench_workloads.run(args.workload, ROOT, args.seed, args.seconds,
                                 bool(args.trace), loadavg)
    measured = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    out = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}")
    print("env " + json.dumps(result["env"]))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']!r:>24} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':44s} {failed / max(attempted, 1)!r:>24} ({failed}/{attempted})")
    for line in result["failures"]:
        print(f"FAILED {line}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
