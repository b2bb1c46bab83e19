"""Command-line front end for scenario runs, oracle checks, and sweeps."""

from __future__ import annotations

import argparse
import sys

from .bench import ScenarioSpec, batch_run, run_oracle, run_scenario, scale_failure_scenario, tradeoff_sweep
from .errors import BudgetExceededError, InfeasibleError, NumericalFailureError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="arraymend",
        description="Minimum-change excitation corrections for faulty linear arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("spec", help="scenario JSON file: the run's only input (its solver "
                                    "object holds the accepted overshoot, constraint_tol_db)")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")

    p_run = sub.add_parser("run", help="run the correction on one scenario file")
    add_common(p_run)

    p_oracle = sub.add_parser("oracle", help="exhaustive minimum-support search")
    add_common(p_oracle)
    p_oracle.add_argument("--max-support", type=int, default=None, metavar="M",
                          help="largest support size to enumerate (default: all working elements)")

    p_sweep = sub.add_parser("sweep", help="corrections over a ladder of targets")
    add_common(p_sweep)
    p_sweep.add_argument("--targets", required=True,
                         help="comma-separated dB targets, loosest first, each replacing the "
                              "file's target_db; use the = form for negative values "
                              "(e.g. --targets=-22.4,-23.5,-24.5)")

    p_scale = sub.add_parser("scale", help="grow a failure layout onto a larger array")
    p_scale.add_argument("--base", required=True, help="comma-separated seed fault indices")
    p_scale.add_argument("--base-n", type=int, required=True, help="seed array size")
    p_scale.add_argument("--factor", type=int, required=True, help="array-size multiplier")
    p_scale.add_argument("--count", type=int, required=True, help="faults emitted per seed")

    p_batch = sub.add_parser("batch", help="run every scenario file in a directory")
    p_batch.add_argument("spec_dir", help="directory of scenario JSON files, each its run's only input")
    p_batch.add_argument("--out", default="out", help="output directory (default: ./out)")

    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "run":
            record, _ = run_scenario(ScenarioSpec.from_file(args.spec), args.out)
            print(f"{record['name']}: corrections={record['n_corrections']} "
                  f"sll={record['sll_corrected_db']:.6g} dB "
                  f"(target {record['target_db']:.6g} dB)")
        elif args.command == "oracle":
            record, result = run_oracle(ScenarioSpec.from_file(args.spec), args.out, args.max_support)
            if result.feasible:
                rejected = result.n_supports - 1
                proof = ("minimum proven" if result.n_certified == rejected else
                         f"{result.n_certified} of {rejected} rejections proven")
                print(f"{record['name']}: minimum support={result.min_support} "
                      f"elements={list(result.support)} ({proof})")
            else:
                print(f"{record['name']}: infeasible up to support {result.searched_up_to}")
                return EXIT_INFEASIBLE
        elif args.command == "sweep":
            targets = [float(t) for t in args.targets.split(",") if t.strip()]
            rows = tradeoff_sweep(ScenarioSpec.from_file(args.spec), targets, args.out)
            for row in rows:
                if row["status"] == "ok":
                    print(f"target {row['target_db']:.6g}: corrections={row['n_corrections']} "
                          f"achieved={row['achieved_sll_db']:.6g} dB")
                else:
                    print(f"target {row['target_db']:.6g}: infeasible")
        elif args.command == "scale":
            base = [int(x) for x in args.base.split(",") if x.strip()]
            scaled = scale_failure_scenario(base, args.base_n, args.factor, args.count)
            print(",".join(str(i) for i in scaled))
        elif args.command == "batch":
            records = batch_run(args.spec_dir, args.out)
            for record in records:
                print(f"{record.get('name')}: {record.get('status')}")
    except InfeasibleError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, ValueError, BudgetExceededError, NumericalFailureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
