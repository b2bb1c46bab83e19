"""Shared fixtures: benchmark scenarios are run once per session."""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from arraymend import (
    AngularRegion,
    FailureScenario,
    InfeasibleError,
    MetricSpec,
    SolverConfig,
    apply_failures,
    dolph_chebyshev,
    evaluate_metric,
    exhaustive_min,
    minimize_corrections,
    sidelobe_region,
    uniform_positions,
)
from arraymend.bench import ScenarioSpec, default_bw_target, run_scenario, tradeoff_sweep

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

TOY_WEIGHTS = [1.0, 0.419, 0.419, 1.0]
TOY_REGION = [-0.7, -0.5, 0.5, 0.7]
TOY_TARGET_DB = -5.5


def load_spec(name: str) -> ScenarioSpec:
    return ScenarioSpec.from_file(SCENARIO_DIR / f"{name}.json")


def check_trace_invariants(result, metric, geometry, scenario, w_faulty, config=None):
    """Loop invariants every correction run must satisfy."""
    cfg = config if config is not None else SolverConfig()
    feasible_db = metric.target_db + cfg.constraint_tol_db

    accepted = [e for e in result.trace if e.event == "accepted"]
    l0s = [e.l0 for e in accepted]
    assert all(b < a for a, b in zip(l0s, l0s[1:])), "an accepted removal did not shrink the support"
    assert all(e.phi_db <= feasible_db + 1e-9 for e in accepted)
    for e in result.trace:
        if e.event == "backtracked":
            assert e.l0 is None and e.l1 is None and e.phi_db is None

    # mask discipline: exactly zero on failed elements
    assert np.all(result.delta[scenario.mask] == 0)

    phi = evaluate_metric(metric, geometry, w_faulty + result.delta)
    assert phi <= feasible_db + 1e-9
    assert result.k_opt <= 4 * geometry.n


@pytest.fixture(scope="session")
def toy_parts():
    geometry = uniform_positions(4, 0.5)
    weights = np.array(TOY_WEIGHTS)
    scenario = FailureScenario.from_indices(4, [2])
    metric = MetricSpec(region=AngularRegion(np.array(TOY_REGION)), target_db=TOY_TARGET_DB)
    return geometry, weights, scenario, metric


@pytest.fixture(scope="session")
def toy_result(toy_parts):
    geometry, weights, scenario, metric = toy_parts
    start = time.perf_counter()
    result = minimize_corrections(geometry, weights, scenario, metric)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def tc1_parts():
    geometry = uniform_positions(16, 0.5)
    weights = dolph_chebyshev(16, -15.0)
    scenario = FailureScenario.from_indices(16, [2, 3, 9])
    bw_target = default_bw_target(13, -15.0)
    metric = MetricSpec(region=sidelobe_region(bw_target, 4001), target_db=-15.0)
    return geometry, weights, scenario, metric, bw_target


@pytest.fixture(scope="session")
def tc1_run(tc1_parts):
    geometry, weights, scenario, metric, _ = tc1_parts
    start = time.perf_counter()
    result = minimize_corrections(geometry, weights, scenario, metric)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def tc1_oracle(tc1_parts):
    geometry, weights, scenario, metric, _ = tc1_parts
    start = time.perf_counter()
    result = exhaustive_min(geometry, weights, scenario, metric, max_support=3)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def bench_out(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="session")
def tc2_records(bench_out):
    records = {}
    for tag in ("sll22", "sll24"):
        spec = load_spec(f"test_case_2_{tag}")
        record, result = run_scenario(spec, bench_out / tag)
        records[tag] = (record, result)
    return records


SIZE_SCAN_REFERENCE_NC = {
    "size_scan_n25_row1": 6, "size_scan_n25_row2": 12, "size_scan_n25_row3": 13,
    "size_scan_n50_row1": 4, "size_scan_n50_row2": 7, "size_scan_n50_row3": 8,
    "size_scan_n100_row1": 3, "size_scan_n100_row2": 6, "size_scan_n100_row3": 6,
}


@pytest.fixture(scope="session")
def size_scan_records(bench_out):
    records = {}
    for name in SIZE_SCAN_REFERENCE_NC:
        spec = load_spec(name)
        record, _ = run_scenario(spec, bench_out / "size_scan")
        records[name] = record
    return records


@pytest.fixture(scope="session")
def sweep_rows(bench_out):
    spec = load_spec("fail_rate_n50_row4")
    return tradeoff_sweep(spec, [-22.4, -23.0, -23.5, -24.0, -24.5], bench_out / "sweep")


def random_instances(count: int = 20, seed: int = 20250808):
    """Deterministic small correction problems for the dominance suite."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(8, 13))
        sll = float(np.round(rng.uniform(-28.0, -12.0), 1))
        n_failed = int(rng.integers(1, 4))
        faults = sorted(int(i) for i in rng.choice(np.arange(1, n + 1), size=n_failed, replace=False))
        out.append((n, sll, faults))
    return out


@pytest.fixture(scope="session")
def dominance_results():
    """Correction vs oracle on the randomized small instances."""
    results = []
    for n, sll, faults in random_instances():
        geometry = uniform_positions(n, 0.5)
        weights = dolph_chebyshev(n, sll)
        scenario = FailureScenario.from_indices(n, faults)
        bw_target = default_bw_target(scenario.n_controllable, sll)
        metric = MetricSpec(region=sidelobe_region(bw_target, 1001), target_db=sll)
        w_faulty = apply_failures(weights, scenario)
        try:
            result = minimize_corrections(geometry, weights, scenario, metric)
        except InfeasibleError:
            oracle = exhaustive_min(geometry, weights, scenario, metric)
            results.append({
                "instance": (n, sll, tuple(faults)), "feasible": False,
                "oracle_feasible": oracle.feasible,
            })
            continue
        oracle = exhaustive_min(geometry, weights, scenario, metric,
                                max_support=result.n_corrections)
        results.append({
            "instance": (n, sll, tuple(faults)),
            "feasible": True,
            "n_corrections": result.n_corrections,
            "oracle_feasible": oracle.feasible,
            "oracle_min": oracle.min_support,
            "result": result,
            "metric": metric,
            "geometry": geometry,
            "w_faulty": w_faulty,
        })
    return results
