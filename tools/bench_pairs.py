"""
Paired benchmark runs of two arraymend source trees.

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --seed S --pairs N --tag T

Each root is a source tree. Make it a clone of a commit or a
`git worktree add --detach` of it, so that the file records the commit: a
root that is not itself the top of a git checkout (an extracted archive,
even one inside another checkout) records none. For
every workload that CHANGE_ROOT's BENCHMARK.json declares, the script runs

    python3 benchmark/run.py --workload W --seed S --seconds SECONDS --trace 0

in each tree, N pairs of runs, alternating which tree goes first (the parent
in even pairs), with SECONDS the declared run_seconds. It writes
BENCH_<tag>.json at the root of this checkout: for each workload the
attempted and failed operations summed over the runs, and for each
end-to-end metric each side's runs with their quartiles, the pairs in which
the change read lower, and the relative change of the medians (the schema of
the earlier BENCH_*.json files), then each side's minimum, the relative
change of the minima, and whether the medians differ by more than the
parent's interquartile range (`beyond_parent_iqr`). A reading that is not
beyond it cannot be told from run-to-run spread. A run that exits
non-zero, such as one whose workload check stops it, is listed under its
workload's "stopped" with its exit code and the tail of its stderr; its
pair is left out of the metrics, the remaining pairs are still measured,
the file is still written, and the script exits 1. --what and --claim fill
in the file's description of the change and of what it claims.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
_STDERR_LINES = 5           # lines of a stopped run's stderr kept in the file


def summarize(parent: list, change: list) -> dict:
    """
    One metric over paired runs (parent[i] with change[i]): each side's runs,
    quartiles and median (statistics.quantiles' default exclusive method),
    the pairs in which the change read lower, as "k/n", and the change of the
    medians relative to the parent's, to 4 decimals (None when that is 0).
    Beside those: each side's minimum, the change of the minima relative to
    the parent's (likewise), and beyond_parent_iqr, whether the medians
    differ by more than the parent's q3 - q1.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")

    def side(runs):
        q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else [runs[0]] * 3
        return {"q1": q1, "median": median, "q3": q3, "runs": list(runs)}

    def relative(new, base):
        return round((new - base) / base, 4) if base else None

    p, c = side(parent), side(change)
    lower = sum(b < a for a, b in zip(parent, change))
    return {"parent": p, "change": c, "change_lower_in": f"{lower}/{len(parent)}",
            "median_change": relative(c["median"], p["median"]),
            "parent_min": min(parent), "change_min": min(change),
            "min_change": relative(min(change), min(parent)),
            "beyond_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"]}


def workload_summary(pairs: list) -> dict:
    """
    One workload's record from its pairs, each a {"parent": ..., "change": ...}
    of the JSON objects that the two trees' benchmark/run.py printed last,
    or, for a run that stopped, of {"returncode": ..., "stderr_tail": ...}.
    Operations are summed over the runs that finished, and the metrics over
    the pairs in which both runs finished; "pairs" counts those.
    """
    done = [p for p in pairs if all("metrics" in p[s] for s in SIDES)]
    out = {"pairs": len(done),
           "failed": {s: sum(p[s]["failed"] for p in pairs if "metrics" in p[s]) for s in SIDES},
           "attempted": {s: sum(p[s]["attempted"] for p in pairs if "metrics" in p[s])
                         for s in SIDES}}
    stopped = {s: [{"pair": i + 1, **p[s]} for i, p in enumerate(pairs) if "metrics" not in p[s]]
               for s in SIDES}
    if any(stopped.values()):
        out["stopped"] = stopped
    for name, metric in (done[0]["change"]["metrics"].items() if done else ()):
        runs = {s: [p[s]["metrics"][name]["value"] for p in done] for s in SIDES}
        out[name] = {"unit": metric["unit"], **summarize(runs["parent"], runs["change"])}
    return out


def _commit(root: Path) -> str | None:
    """
    The root's short HEAD commit, or None unless the root is the top of a git
    checkout (a directory nested in another checkout would report that one's).
    """
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "--short", "HEAD"],
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    top, commit = done.stdout.splitlines()
    return commit if Path(top).resolve() == Path(root).resolve() else None


def _run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """
    One untraced run in a tree: the last JSON line it printed and its env
    line, or, when it exits non-zero, its exit code and stderr tail and {}.
    """
    done = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        return {"returncode": done.returncode,
                "stderr_tail": "\n".join(done.stderr.splitlines()[-_STDERR_LINES:])}, {}
    lines = done.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--tag", required=True, help="the file is written as BENCH_<tag>.json")
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--claim", default="", help="what the change claims")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    declared = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    workloads, env = {}, {s: {} for s in SIDES}
    for workload in (w["name"] for w in declared["workloads"]):
        pairs = []
        for i in range(args.pairs):
            pair = {}
            for s in (SIDES if i % 2 == 0 else SIDES[::-1]):
                pair[s], run_env = _run(roots[s], workload, args.seed, seconds)
                env[s] = env[s] or run_env
                got = pair[s]["metrics"]["wall_s"]["value"] if "metrics" in pair[s] else "stopped"
                print(f"{workload} pair {i + 1}/{args.pairs} {s}: wall_s {got}", file=sys.stderr)
            pairs.append(pair)
        workloads[workload] = workload_summary(pairs)

    record = {
        "tag": args.tag,
        "parent_commit": _commit(roots["parent"]),
        "change_commit": _commit(roots["change"]),
        "what": args.what,
        "command": (f"python3 benchmark/run.py --workload W --seed {args.seed} --seconds {seconds:g} "
                    f"--trace 0, {args.pairs} pairs per workload, alternating which side runs first "
                    "(tools/bench_pairs.py)"),
        "seed": args.seed,
        "env": env,                 # each side's, as its first finished run reported it
        "claim": args.claim,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 1 if any("stopped" in w for w in workloads.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
