"""Tests of the benchmark harness: input generation, tracing, and a toy-sized pass."""

import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_workloads as bw  # noqa: E402
from bench_trace import Span, Tracer, self_time  # noqa: E402

PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def _bindings():
    """Every function object bound in an arraymend module namespace."""
    return {(mod.__name__, key): value
            for mod in Tracer.modules() for key, value in vars(mod).items()
            if callable(value)}


def test_generator_is_deterministic_per_seed():
    first = bw.generate_instances(7)
    assert first == bw.generate_instances(7)
    assert first != bw.generate_instances(8)
    for spec in first:
        assert 10 <= spec["n_elements"] <= 16
        assert 1 <= len(spec["faulty_indices"]) <= 3
        design = spec["taper"]["dolph_chebyshev"]["sll_db"]
        assert -25.0 <= design <= -15.0
        assert design <= spec["metric"]["target_db"] <= design + 3.0


def test_wrappers_restore_originals():
    before = _bindings()
    with Tracer() as tracer:
        bw.install(tracer)
        patched = {k for k, v in _bindings().items() if before.get(k) is not v}
        assert ("arraymend.bench", "run_scenario") in patched
        assert ("arraymend.solver", "steering_matrix") in patched
        assert ("arraymend.model", "steering_matrix") in patched
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_the_union_of_children():
    parent = Span(0, "p", 0.0, 10.0, None, None, 1)
    kids = [Span(1, "a", 1.0, 4.0, 0, None, 2), Span(2, "b", 3.0, 6.0, 0, None, 3),
            Span(3, "c", 8.0, 12.0, 0, None, 2)]
    assert self_time(parent, kids) == 10.0 - (5.0 + 2.0)
    assert self_time(parent, []) == 10.0


def test_spans_of_worker_threads_hang_under_the_open_main_span():
    tracer = Tracer()
    outer = tracer._open("outer", "p1")
    worker = threading.Thread(target=lambda: tracer._close(tracer._open("inner", None)))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer._close(outer)
    inner = next(s for s in tracer.spans() if s.name == "inner")
    assert inner.parent == outer.id and inner.problem == "p1"


def _assert_smoke(metrics, checker, spans):
    assert checker.failures == []
    assert set(PER_LAYER) <= set(metrics)
    for span in spans:
        kids = [s for s in spans if s.parent == span.id]
        assert -1e-9 <= self_time(span, kids) <= span.duration


def test_toy_catalog_pass(tmp_path):
    wl = bw.CorrectCatalog(ROOT, 1, tmp_path, problems=("toy",))
    checker = bw.Checker()
    e2e = wl.untraced(checker, seconds=0.0)
    assert e2e["passes"] == 1 and e2e["corrections_total"] == 1 and e2e["wall_s"] > 0
    tracer = Tracer()
    metrics = bw.traced_metrics(wl, checker, tracer)
    _assert_smoke(metrics, checker, tracer.spans())
    assert metrics["solver.solve_ok.calls"] >= 1
    assert metrics["correction.removals"] == (metrics["correction.accepted_no_resolve"]
                                              + metrics["correction.accepted_resolve"]
                                              + metrics["correction.backtracked"])
    assert metrics["problem.toy.s"] > 0
    assert metrics["trace.overhead_s"] >= 0
    assert checker.attempted == 2


def test_toy_batch_pass_with_planted_rows(tmp_path):
    wl = bw.BatchParallel(ROOT, 1, tmp_path, scenarios=("toy",))
    checker = bw.Checker()
    tracer = Tracer()
    metrics = bw.traced_metrics(wl, checker, tracer)
    _assert_smoke(metrics, checker, tracer.spans())
    assert checker.attempted == 3 * 2       # toy, unreachable, malformed; two passes
    assert metrics["bench.batch.contention"] > 0
    assert metrics["solver.solve_infeasible.calls"] >= 1
