"""
Acceptance gate: one test per criterion, each printing a pass line when it
holds. Benchmark numbers are asserted at the tolerances fixed below.
"""

import json

import pytest

from arraymend import (
    FailureScenario,
    apply_failures,
    beamwidth,
    dolph_chebyshev,
    max_sll,
    sidelobe_region,
    uniform_positions,
)
from arraymend.bench import default_bw_target, run_scenario, scale_failure_scenario
from conftest import SIZE_SCAN_REFERENCE_NC, check_trace_invariants, load_spec


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS: {message}")


def test_criterion_1_toy_trace(toy_parts, toy_result):
    geometry, weights, scenario, metric = toy_parts
    result, elapsed = toy_result

    assert result.n_corrections == 1
    assert abs(result.delta[2]) == pytest.approx(1.09, abs=0.03)
    assert result.achieved_phi_db == pytest.approx(-5.5, abs=0.05)
    assert result.corrected_elements == [3]
    first = result.trace[0]
    assert first.l1 == pytest.approx(1.03, abs=0.03)
    assert first.l0 == 3
    assert elapsed < 5.0
    report(1, f"toy trace reproduced (|dw3|={abs(result.delta[2]):.3f}, "
              f"k0 l1={first.l1:.3f}, {elapsed:.2f}s)")


def test_criterion_2_oracle_optimality(tc1_parts, tc1_run, tc1_oracle):
    geometry, weights, scenario, metric, bw_target = tc1_parts
    result, t_run = tc1_run
    oracle, t_oracle = tc1_oracle

    assert result.n_corrections == 3
    w_corrected = apply_failures(weights, scenario) + result.delta
    sll = max_sll(geometry, w_corrected, metric.region)
    assert -15.5 <= sll <= -14.9
    bw = beamwidth(geometry, w_corrected, -15.0)
    assert bw <= 14.6
    assert result.l1 == pytest.approx(1.31, abs=0.1)
    assert oracle.feasible and oracle.min_support == 3
    assert t_run + t_oracle < 600.0
    report(2, f"correction count 3 matches the exhaustive minimum "
              f"(sll={sll:.2f} dB, bw={bw:.2f} deg, l1={result.l1:.3f}, "
              f"{t_run + t_oracle:.0f}s total)")


FAULTY_LEVEL_REFERENCES = [
    (50, [5, 45], -21.85),
    (50, [4, 5, 45, 46], -19.99),
    (50, [3, 4, 5, 45, 46, 47], -19.23),
    (50, [2, 3, 4, 5, 45, 46, 47, 48], -19.51),
    (100, [9, 10, 90, 91], -21.83),
    (100, [7, 8, 9, 10, 90, 91, 92, 93], -20.03),
]


def test_criterion_3_faulty_array_levels():
    g16 = uniform_positions(16, 0.5)
    faulty16 = apply_failures(dolph_chebyshev(16, -15.0),
                              FailureScenario.from_indices(16, [2, 3, 9]))
    region16 = sidelobe_region(default_bw_target(13, -15.0), 4001)
    assert max_sll(g16, faulty16, region16) == pytest.approx(-10.19, abs=0.1)

    for n, faults, expected in FAULTY_LEVEL_REFERENCES:
        geometry = uniform_positions(n, 0.5)
        scenario = FailureScenario.from_indices(n, faults)
        faulty = apply_failures(dolph_chebyshev(n, -25.0), scenario)
        region = sidelobe_region(default_bw_target(scenario.n_controllable, -25.0), 4001)
        assert max_sll(geometry, faulty, region) == pytest.approx(expected, abs=0.15), (n, faults)
    report(3, "all faulty-array sidelobe levels match the published values")


# Test case 2 (N=50, -25 dB Dolph-Chebyshev, elements 8, 13, 38 failed) as
# published, and as the exact taper gives it. The published level sits
# 0.42 dB above anything this scenario can produce; a -24.2 dB taper or the
# fault set [8, 14, 37] would come close to it, but the scenario is neither.
PUBLISHED_TC2_FAULTY_DB = -18.51
EXACT_TC2_FAULTY_DB = -18.93


def test_criterion_4_published_faulty_level(tc2_records):
    """
    Test case 2's faulty-array peak sidelobe equals the exact-taper value.

    The value is derived without this package: scipy's
    ``chebwin(50, 25)`` agrees with ``dolph_chebyshev(50, -25.0)`` to
    3.3e-16, and with elements 8, 13 and 38 zeroed a direct array-factor
    sum over 200 001 theta samples puts the peak sidelobe at -18.927 dB,
    at u = +-0.408, well outside the mainlobe edge near u = 0.05. The same
    level holds for element spacings from 0.45 to 0.7 wavelengths. A grid
    can only under-sample a peak, so no region reaches the published
    -18.51 dB.
    """
    record, _ = tc2_records["sll22"]
    measured = record["sll_faulty_db"]
    assert measured == pytest.approx(EXACT_TC2_FAULTY_DB, abs=0.05), (
        f"faulty level {measured:.2f} dB, exact taper gives {EXACT_TC2_FAULTY_DB} dB")
    report(4, f"faulty level {measured:.2f} dB matches the exact taper's "
              f"{EXACT_TC2_FAULTY_DB} dB (the published {PUBLISHED_TC2_FAULTY_DB} dB "
              f"lies {PUBLISHED_TC2_FAULTY_DB - EXACT_TC2_FAULTY_DB:.2f} dB above it)")


def test_criterion_4_fifty_element_corrections(tc2_records):
    rec22, _ = tc2_records["sll22"]
    assert rec22["sll_corrected_db"] <= -22.4 + 0.02 + 1e-9
    assert rec22["n_corrections"] <= 5

    rec24, _ = tc2_records["sll24"]
    assert rec24["sll_corrected_db"] <= -24.5 + 0.02 + 1e-9
    assert rec24["n_corrections"] <= 13
    assert rec24["dr_corrected"] <= 2.0
    report(4, f"50-element corrections: {rec22['n_corrections']} at -22.4 dB, "
              f"{rec24['n_corrections']} at -24.5 dB with amplitude ratio "
              f"{rec24['dr_corrected']:.2f}")


def test_criterion_5_size_scan_rows(size_scan_records):
    for name, reference_nc in SIZE_SCAN_REFERENCE_NC.items():
        record = size_scan_records[name]
        assert record["status"] == "ok", name
        assert record["sll_corrected_db"] <= record["target_db"] + 0.1, name
        assert record["bw_corrected_deg"] <= record["bw_target_deg"] + 0.05, name
        assert record["n_corrections"] <= reference_nc + 3, name
    counts = {name: size_scan_records[name]["n_corrections"] for name in SIZE_SCAN_REFERENCE_NC}
    report(5, f"all desk-scale rows within bounds: {counts}")


def test_criterion_6_tradeoff_frontier(sweep_rows):
    assert all(r["status"] == "ok" for r in sweep_rows)
    ordered = sorted(sweep_rows, key=lambda r: r["n_corrections"])
    levels = [r["achieved_sll_db"] for r in ordered]
    assert all(a >= b - 1e-9 for a, b in zip(levels, levels[1:])), "frontier not monotone"

    loose = sweep_rows[0]
    tight = sweep_rows[-1]
    assert loose["n_corrections"] == 1
    assert loose["achieved_sll_db"] == pytest.approx(-22.4, abs=0.3)
    assert tight["achieved_sll_db"] == pytest.approx(-24.5, abs=0.3)
    assert tight["n_corrections"] <= 11  # the removal loop may only improve on the reference count
    report(6, f"frontier monotone; endpoints ({loose['n_corrections']}, "
              f"{loose['achieved_sll_db']:.2f}) to ({tight['n_corrections']}, "
              f"{tight['achieved_sll_db']:.2f})")


def test_criterion_7_property_suite(toy_parts, toy_result, tc1_parts, tc1_run,
                                    dominance_results, tmp_path):
    # trace invariants on the two reference runs
    geometry, weights, scenario, metric = toy_parts
    check_trace_invariants(toy_result[0], metric, geometry, scenario,
                           apply_failures(weights, scenario))
    g1, w1, s1, m1, _ = tc1_parts
    check_trace_invariants(tc1_run[0], m1, g1, s1, apply_failures(w1, s1))

    # oracle dominance on the randomized instances
    assert len(dominance_results) == 20
    feasible = [r for r in dominance_results if r["feasible"]]
    assert feasible
    for r in feasible:
        assert r["oracle_feasible"] and r["oracle_min"] <= r["n_corrections"], r["instance"]
        check_trace_invariants(r["result"], r["metric"], r["geometry"],
                               FailureScenario.from_indices(r["instance"][0],
                                                            list(r["instance"][2])),
                               r["w_faulty"])
    for r in dominance_results:
        if not r["feasible"]:
            assert not r["oracle_feasible"], r["instance"]

    # synthesized tapers realize their design level
    for n in (8, 16, 25, 50, 100):
        design = -25.0 if n >= 25 else -15.0
        g = uniform_positions(n, 0.5)
        w = dolph_chebyshev(n, design)
        measured = max_sll(g, w, sidelobe_region(beamwidth(g, w, design), 8001))
        assert measured == pytest.approx(design, abs=0.05), n

    # determinism end to end
    run_scenario(load_spec("toy"), tmp_path / "a")
    run_scenario(load_spec("toy"), tmp_path / "b")
    rec_a = json.loads((tmp_path / "a" / "toy_result.json").read_text())
    rec_b = json.loads((tmp_path / "b" / "toy_result.json").read_text())
    rec_a.pop("elapsed_s"), rec_b.pop("elapsed_s")
    assert rec_a == rec_b
    assert ((tmp_path / "a" / "toy_pattern.csv").read_bytes()
            == (tmp_path / "b" / "toy_pattern.csv").read_bytes())

    n_feasible = len(feasible)
    report(7, f"invariants, dominance ({n_feasible}/20 feasible instances), "
              "taper consistency, and determinism all hold")


SCALED_N100_LAYOUTS = [
    [9, 10, 90, 91],
    [7, 8, 9, 10, 90, 91, 92, 93],
    [5, 6, 7, 8, 9, 10, 90, 91, 92, 93, 94, 95],
    [3, 4, 5, 6, 7, 8, 9, 10, 90, 91, 92, 93, 94, 95, 96, 97],
]


def test_criterion_8_failure_scaling_rule():
    for count, expected in zip((2, 4, 6, 8), SCALED_N100_LAYOUTS):
        assert scale_failure_scenario([5, 45], 50, 2, count) == expected
    report(8, "all four 100-element fault layouts reproduced from the 50-element seeds")
