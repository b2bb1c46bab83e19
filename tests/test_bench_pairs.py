import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _recorded_metrics():
    """(workload, metric, record) for each end-to-end metric of a bench file assembled by hand."""
    record = json.loads((ROOT / "BENCH_pr16.json").read_text(encoding="utf-8"))
    return [(w, name, m) for w, rec in record["workloads"].items()
            for name, m in rec.items() if isinstance(m, dict) and "unit" in m]


@pytest.mark.parametrize("workload, name, recorded", _recorded_metrics(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_summary_reproduces_a_recorded_bench_file(workload, name, recorded):
    got = bench_pairs.summarize(recorded["parent"]["runs"], recorded["change"]["runs"])
    for side in ("parent", "change"):
        assert got[side]["runs"] == recorded[side]["runs"]
        for key in ("q1", "median", "q3"):
            assert got[side][key] == pytest.approx(recorded[side][key], rel=1e-12)
    assert got["change_lower_in"] == recorded["change_lower_in"]
    assert got["median_change"] == recorded["median_change"]


def test_summary_counts_ties_for_neither_side():
    got = bench_pairs.summarize([2.0, 2.0, 4.0, 1.0], [1.0, 2.0, 5.0, 0.5])
    assert got["change_lower_in"] == "2/4"
    assert got["parent"]["median"] == 2.0 and got["change"]["median"] == 1.5
    assert got["median_change"] == -0.25


def test_summary_of_one_pair_and_a_zero_median():
    got = bench_pairs.summarize([0.0], [1.0])
    assert got["parent"] == {"q1": 0.0, "median": 0.0, "q3": 0.0, "runs": [0.0]}
    assert got["change_lower_in"] == "0/1" and got["median_change"] is None


def test_summary_reports_the_minima_and_a_change_beyond_the_parent_iqr():
    # parent quartiles 0.9 / 2.0 / 4.0 (exclusive method), an IQR of 3.1:
    # the change's median 0.5 lies 1.5 below the parent's, within that spread
    within = bench_pairs.summarize([3.0, 1.0, 2.0, 5.0, 0.8], [0.4, 0.5, 2.0, 0.3, 1.0])
    assert (within["parent"]["q1"], within["parent"]["q3"]) == (0.9, 4.0)
    assert within["parent_min"] == 0.8 and within["change_min"] == 0.3
    assert within["min_change"] == -0.625
    assert within["median_change"] == -0.75
    assert within["change_lower_in"] == "3/5"
    assert within["beyond_parent_iqr"] is False

    beyond = bench_pairs.summarize([2.0, 2.1, 1.9, 2.0], [1.0, 1.1, 0.9, 1.0])
    assert beyond["parent_min"] == 1.9 and beyond["change_min"] == 0.9
    assert beyond["beyond_parent_iqr"] is True and beyond["change_lower_in"] == "4/4"


def test_summary_of_equal_sides_is_not_beyond_the_parent_iqr():
    got = bench_pairs.summarize([0.0, 0.0], [0.0, 0.0])
    assert got["min_change"] is None and got["median_change"] is None
    assert got["beyond_parent_iqr"] is False


def test_summary_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [])


def test_workload_summary_sums_operations_and_keeps_units():
    def run(wall, attempted, failed):
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "corrections_total": {"value": 12, "unit": "count"}}}

    pairs = [{"parent": run(1.2, 60, 0), "change": run(0.8, 64, 1)},
             {"parent": run(1.0, 62, 0), "change": run(1.1, 61, 0)}]
    got = bench_pairs.workload_summary(pairs)
    assert got["pairs"] == 2
    assert got["attempted"] == {"parent": 122, "change": 125}
    assert got["failed"] == {"parent": 0, "change": 1}
    assert got["wall_s"]["unit"] == "s"
    assert got["wall_s"]["parent"]["runs"] == [1.2, 1.0] and got["wall_s"]["change"]["runs"] == [0.8, 1.1]
    assert got["wall_s"]["change_lower_in"] == "1/2"
    assert got["corrections_total"]["change_lower_in"] == "0/2"
    assert got["corrections_total"]["median_change"] == 0.0


def test_workload_summary_leaves_a_stopped_run_out_of_the_metrics():
    def run(wall):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    stop = {"returncode": 1, "stderr_tail": "FAILED check"}
    pairs = [{"parent": run(1.0), "change": run(0.5)},
             {"parent": run(2.0), "change": stop},
             {"parent": run(3.0), "change": run(1.5)}]
    got = bench_pairs.workload_summary(pairs)
    assert got["pairs"] == 2
    assert got["attempted"] == {"parent": 30, "change": 20}
    assert got["stopped"] == {"parent": [], "change": [{"pair": 2, **stop}]}
    assert got["wall_s"]["parent"]["runs"] == [1.0, 3.0] and got["wall_s"]["change"]["runs"] == [0.5, 1.5]

    none = bench_pairs.workload_summary([{"parent": stop, "change": stop}])
    assert none["pairs"] == 0 and "wall_s" not in none
    assert none["attempted"] == {"parent": 0, "change": 0}


_FAKE_RUN = '''
import json, sys
args = sys.argv[1:]
workload, seconds = args[args.index("--workload") + 1], float(args[args.index("--seconds") + 1])
if workload == "stops" and {stops}:
    print("Traceback\\nRuntimeError: the workload check failed", file=sys.stderr)
    raise SystemExit(1)
print("env " + json.dumps({{"tree": {tree!r}}}))
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {{"wall_s": {{"value": seconds, "unit": "s"}}}}}}))
'''


def _fake_tree(root, tree, stops):
    (root / "benchmark").mkdir(parents=True)
    (root / "benchmark" / "run.py").write_text(_FAKE_RUN.format(tree=tree, stops=stops), encoding="utf-8")
    declared = {"run_seconds": 7, "workloads": [{"name": "ok"}, {"name": "stops"}]}
    (root / "BENCHMARK.json").write_text(json.dumps(declared), encoding="utf-8")
    return root


def test_a_stopped_run_is_recorded_and_the_file_still_written(tmp_path, monkeypatch):
    # The change tree's run of "stops" exits 1; the script still measures
    # every pair, writes the file and exits 1. Each run gets the declared
    # run_seconds, which the fake run reports as its wall_s.
    parent = _fake_tree(tmp_path / "parent", "parent", stops=False)
    change = _fake_tree(tmp_path / "change", "change", stops=True)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    assert bench_pairs.main([str(parent), str(change), "--seed", "3", "--pairs", "2", "--tag", "t"]) == 1
    record = json.loads((tmp_path / "BENCH_t.json").read_text(encoding="utf-8"))
    assert record["env"] == {"parent": {"tree": "parent"}, "change": {"tree": "change"}}
    assert "--seconds 7 " in record["command"]
    ok, stops = record["workloads"]["ok"], record["workloads"]["stops"]
    assert ok["pairs"] == 2 and "stopped" not in ok
    assert ok["wall_s"]["parent"]["runs"] == ok["wall_s"]["change"]["runs"] == [7.0, 7.0]
    assert stops["pairs"] == 0 and stops["attempted"] == {"parent": 8, "change": 0}
    assert [s["pair"] for s in stops["stopped"]["change"]] == [1, 2] and stops["stopped"]["parent"] == []
    assert all(s["returncode"] == 1 and s["stderr_tail"].endswith("the workload check failed")
               for s in stops["stopped"]["change"])



def test_commit_is_reported_only_at_the_top_of_a_checkout(tmp_path):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@example.com"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "root"], check=True)
    head = subprocess.run(git + ["rev-parse", "--short", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()
    nested = tmp_path / "extracted"
    nested.mkdir()
    assert bench_pairs._commit(tmp_path) == head
    assert bench_pairs._commit(nested) is None
    assert bench_pairs._commit(tmp_path / "missing") is None
