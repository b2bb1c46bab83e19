import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import arraymend
from arraymend import (
    AngularRegion,
    FailureScenario,
    InfeasibleError,
    MetricSpec,
    apply_failures,
    evaluate_metric,
    exhaustive_min,
    minimize_corrections,
    uniform_positions,
)
from arraymend.bench import ScenarioSpec, resolve_scenario
from arraymend import correction
from arraymend.correction import make_trial, removal_order
from conftest import SCENARIO_DIR, check_trace_invariants

INITIAL_SOLVE_REF = np.array([-0.438, 0.0, 0.593, -9.72e-6])


class TestRemovalOrder:
    def test_smallest_first(self):
        assert removal_order(INITIAL_SOLVE_REF) == [4, 1, 3]

    def test_tie_goes_to_lowest_index(self):
        assert removal_order(np.array([0.5, 0.0, 0.5, 0.9])) == [1, 3, 4]

    def test_exact_zeros_are_skipped_and_dust_is_a_candidate(self):
        # A solve returns its zeros exactly, so any entry it left nonzero,
        # however small in the excitations' units, is a correction to try.
        assert removal_order(np.array([1e-13, 0.7, 0.0, 0.0])) == [1, 2]
        assert removal_order(np.array([0.0, 0.7, 0.0, 0.0])) == [2]

    def test_all_zero_correction_has_no_candidate(self):
        assert removal_order(np.zeros(4)) == []


class TestMakeTrial:
    def test_removes_entry(self):
        trial = make_trial(INITIAL_SOLVE_REF, 4)
        assert np.array_equal(trial, np.array([-0.438, 0.0, 0.593, 0.0]))

    def test_removing_zero_is_noop(self):
        trial = make_trial(np.array([1.0, 0.0, 2.0]), 2)
        assert np.array_equal(trial, np.array([1.0, 0.0, 2.0]))

    def test_single_support_goes_to_zero(self):
        assert np.all(make_trial(np.array([0.0, 0.0, 0.593, 0.0]), 3) == 0)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            make_trial(INITIAL_SOLVE_REF, 5)


class TestToyLoop:
    def test_full_trace(self, toy_parts, toy_result):
        geometry, weights, scenario, metric = toy_parts
        result, _ = toy_result

        assert result.n_corrections == 1
        assert abs(result.delta[2]) == pytest.approx(1.09, abs=0.03)
        assert result.achieved_phi_db == pytest.approx(-5.5, abs=0.05)
        assert result.k_opt == 4
        assert result.corrected_elements == [3]

        by_k = {e.k: e for e in result.trace}
        assert by_k[0].step == 0 and by_k[0].event == "accepted"
        assert by_k[0].l0 == 3 and by_k[0].l1 == pytest.approx(1.03, abs=0.03)
        assert by_k[1].event == "accepted" and by_k[1].n_least == 4
        assert by_k[2].event == "accepted" and by_k[2].n_least == 1
        assert by_k[2].l0 == 1 and by_k[2].l1 == pytest.approx(1.09, abs=0.03)
        assert by_k[3].event == "backtracked" and by_k[3].n_least == 3
        assert by_k[4].event == "converged"

        w_faulty = apply_failures(weights, scenario)
        check_trace_invariants(result, metric, geometry, scenario, w_faulty)

    def test_infeasible_target_propagates(self, toy_parts):
        geometry, weights, scenario, _ = toy_parts
        hopeless = MetricSpec(region=AngularRegion(np.array([-0.7, -0.5, 0.5, 0.7])),
                              target_db=-100.0)
        with pytest.raises(InfeasibleError):
            minimize_corrections(geometry, weights, scenario, hopeless)

    def test_deterministic(self, toy_parts, toy_result):
        geometry, weights, scenario, metric = toy_parts
        again = minimize_corrections(geometry, weights, scenario, metric)
        result, _ = toy_result
        assert np.array_equal(again.delta, result.delta)
        assert again.k_opt == result.k_opt
        assert [e.event for e in again.trace] == [e.event for e in result.trace]


class TestEdgeCases:
    def test_no_failures_compliant_array(self):
        geometry = uniform_positions(8, 0.5)
        weights = np.ones(8)
        scenario = FailureScenario(mask=np.zeros(8, dtype=bool))
        metric = MetricSpec(region=AngularRegion(np.array([-0.6, 0.6])), target_db=-3.0)
        result = minimize_corrections(geometry, weights, scenario, metric)
        assert result.n_corrections == 0
        assert np.all(result.delta == 0)
        assert result.k_opt == 1
        assert [e.event for e in result.trace] == ["accepted", "converged"]

    def test_one_sample_region(self, toy_parts):
        # A region of one sample has no spacing: the working set's stride is 1
        # (a median of no spacings would raise a RuntimeWarning, an error here).
        geometry, weights, scenario, _ = toy_parts
        metric = MetricSpec(region=AngularRegion(np.array([0.7])), target_db=-5.5)
        result = minimize_corrections(geometry, weights, scenario, metric)
        assert result.n_corrections == 1
        assert result.achieved_phi_db == pytest.approx(-5.578, abs=5e-4)
        check_trace_invariants(result, metric, geometry, scenario, apply_failures(weights, scenario))

    def test_mismatched_scenario_length(self, toy_parts):
        geometry, weights, _, metric = toy_parts
        with pytest.raises(ValueError):
            minimize_corrections(geometry, weights, FailureScenario.from_indices(5, [2]), metric)


class TestTc1Loop:
    def test_matches_reported_indexes(self, tc1_parts, tc1_run):
        geometry, weights, scenario, metric, _ = tc1_parts
        result, _ = tc1_run
        assert result.n_corrections == 3
        assert result.l1 == pytest.approx(1.31, abs=0.1)
        w_faulty = apply_failures(weights, scenario)
        check_trace_invariants(result, metric, geometry, scenario, w_faulty)


@pytest.mark.parametrize("name", ["test_case_1", "fail_rate_n50_row1", "test_case_2_sll24"])
def test_every_trial_level_is_the_metric_of_the_trial(name, monkeypatch):
    # The loop updates the region field by one column per removal trial; the
    # level it reads for each trial must be the metric of the trial itself.
    res = resolve_scenario(ScenarioSpec.from_file(SCENARIO_DIR / f"{name}.json"))
    w_faulty = apply_failures(res.weights, res.scenario)
    make, level = correction.make_trial, correction.peak_level_db
    pending, errors = [], []

    def make_trial(delta, n):
        pending.append(make(delta, n))
        return pending[-1]

    def peak_level_db(field, f0):
        got = level(field, f0)
        if pending:    # the level read right after a trial is made is the trial's
            errors.append(got - evaluate_metric(res.metric, res.geometry, w_faulty + pending.pop()))
        return got

    monkeypatch.setattr(correction, "make_trial", make_trial)
    monkeypatch.setattr(correction, "peak_level_db", peak_level_db)
    result = minimize_corrections(res.geometry, res.weights, res.scenario, res.metric, res.config)
    assert len(errors) == result.k_opt - 1          # every trial, none left unread
    assert np.max(np.abs(errors)) <= 1e-9
    assert result.achieved_phi_db == pytest.approx(
        evaluate_metric(res.metric, res.geometry, w_faulty + result.delta), abs=1e-9)


@pytest.mark.parametrize("name, restored_then_accepted", [("test_case_1", 0), ("size_scan_n25_row1", 1)])
def test_each_resolve_freezes_its_trial_zeros_and_trials_follow_the_removal_order(
        name, restored_then_accepted, monkeypatch):
    # The loop's only state is its answer: a re-solve freezes exactly the
    # zeros of the trial it starts from, and between two accepts the tried
    # corrections are the iterate's nonzero entries, smallest first, so a
    # restored trial is followed by the next entry of the same order.
    res = resolve_scenario(ScenarioSpec.from_file(SCENARIO_DIR / f"{name}.json"))
    solve, make = correction.solve_constrained_l1, correction.make_trial
    resolves, tried = [], []    # (mask, start) of each re-solve; (iterate, [n tried]) per iterate

    def solve_constrained_l1(*args, mask, start=None, **kwargs):
        if start is not None:
            resolves.append((mask, start))
        return solve(*args, mask=mask, start=start, **kwargs)

    def make_trial(delta, n):
        if not tried or not np.array_equal(tried[-1][0], delta):
            tried.append((delta, []))
        tried[-1][1].append(n)
        return make(delta, n)

    monkeypatch.setattr(correction, "solve_constrained_l1", solve_constrained_l1)
    monkeypatch.setattr(correction, "make_trial", make_trial)
    result = minimize_corrections(res.geometry, res.weights, res.scenario, res.metric, res.config)
    assert resolves and all(np.array_equal(mask, start == 0) for mask, start in resolves)
    assert sum(len(ns) - 1 for _, ns in tried[:-1]) == restored_then_accepted
    for delta, ns in tried:
        assert ns == removal_order(delta)[:len(ns)]
    assert tried[-1][1] == removal_order(result.delta)  # converged: every correction restored
    accepted = [e.n_least for e in result.trace if e.event == "accepted"][1:]
    assert accepted == [ns[-1] for _, ns in tried[:-1]]


@functools.cache
def _real_run(name):
    res = resolve_scenario(ScenarioSpec.from_file(SCENARIO_DIR / f"{name}.json"))
    return res, minimize_corrections(res.geometry, res.weights, res.scenario, res.metric, res.config)


@pytest.mark.parametrize("theta", [0.3, np.pi / 2, np.pi])
@pytest.mark.parametrize("name", ["test_case_1", "fail_rate_n50_row1"])
def test_a_global_phase_of_the_taper_rotates_the_answer(name, theta):
    # |F(u)|^2 <= ratio |F(0)|^2 does not change when every excitation is
    # multiplied by e^(j theta), so neither may the loop's answer: the same
    # count and support, the same l1, and the correction times e^(j theta).
    # A solve that fixes F(0)'s phase at 0 needed 5 corrections instead of 4
    # on fail_rate_n50_row1 at 0.3, 12 and 45 instead of 3 and 4 at pi/2,
    # and found no answer at pi. Rotated back, the taper is real to within
    # rounding and runs the real taper's program, so the loop takes the same
    # steps: a complex program at 0.3 left other dust entries, and k_opt
    # read 13 and 38 instead of 14 and 47.
    res, real = _real_run(name)
    rot = np.exp(1j * theta)
    result = minimize_corrections(res.geometry, res.weights * rot, res.scenario, res.metric, res.config)
    assert result.n_corrections == real.n_corrections
    assert result.corrected_elements == real.corrected_elements
    assert result.k_opt == real.k_opt
    assert result.l1 == pytest.approx(real.l1, rel=1e-9)
    assert np.allclose(result.delta, real.delta * rot, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["test_case_1", "fail_rate_n50_row1", "test_case_2_sll22"])
def test_the_answer_does_not_depend_on_the_excitations_units(name):
    # A solve runs in units of the power of two nearest the largest faulty
    # excitation, so a taper times 2^k gives the correction times 2^k bit for
    # bit. The loop and the count read the solve's exact zeros: a second,
    # absolute threshold left entries of a taper times 2^-10 in delta that
    # were never tried and never counted (test_case_1: 3 corrections
    # reported, 5 elements changed, k_opt 9 against 14).
    res, real = _real_run(name)
    for k in (-20, -10, 10):
        scaled = minimize_corrections(res.geometry, res.weights * 2.0 ** k, res.scenario, res.metric,
                                      res.config)
        assert np.array_equal(scaled.delta, real.delta * 2.0 ** k)
        assert scaled.k_opt == real.k_opt
    scaled = minimize_corrections(res.geometry, res.weights * 1e-3, res.scenario, res.metric, res.config)
    assert scaled.n_corrections == len(scaled.corrected_elements) == real.n_corrections
    assert scaled.corrected_elements == real.corrected_elements


def test_loop_count_is_at_least_the_oracle_minimum_on_random_s179_0():
    # The benchmark's oracle_certify instance random_s179_0 (seed 179,
    # instance 0). Accepting a removal trial within constraint_tol_db of the
    # target let the loop end at 3 corrections, {1, 13, 16}, at -16.5697 dB,
    # though no support of up to 3 elements meets the target itself.
    res = resolve_scenario(ScenarioSpec.from_dict({
        "name": "random_s179_0", "n_elements": 16, "faulty_indices": [4],
        "taper": {"dolph_chebyshev": {"sll_db": -16.753}},
        "metric": {"kind": "max_sll", "target_db": -16.577, "region_density": 1001}}))
    result = minimize_corrections(res.geometry, res.weights, res.scenario, res.metric, res.config)
    oracle = exhaustive_min(res.geometry, res.weights, res.scenario, res.metric, res.config,
                            max_support=3)
    minimum = oracle.min_support if oracle.feasible else oracle.searched_up_to + 1
    assert result.n_corrections >= minimum
    check_trace_invariants(result, res.metric, res.geometry, res.scenario,
                           apply_failures(res.weights, res.scenario), res.config)


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SUPPORT_SCRIPT = """
import json, sys
from arraymend import minimize_corrections
from arraymend.bench import ScenarioSpec, resolve_scenario
supports = {}
for path in sys.argv[1:]:
    res = resolve_scenario(ScenarioSpec.from_file(path))
    r = minimize_corrections(res.geometry, res.weights, res.scenario, res.metric, res.config)
    supports[path] = r.corrected_elements
print(json.dumps(supports))
"""


def test_corrected_support_does_not_depend_on_blas_threads():
    # The BLAS thread count is read when numpy loads, so each setting needs its own interpreter.
    src = str(Path(arraymend.__file__).resolve().parent.parent)
    files = [str(SCENARIO_DIR / f"{name}.json") for name in ("test_case_1", "test_case_2_sll22")]
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   **{var: threads for var in BLAS_THREAD_VARS})
        runs.append(subprocess.Popen([sys.executable, "-c", SUPPORT_SCRIPT, *files], env=env,
                                     stdout=subprocess.PIPE, text=True))
    one, two = [json.loads(run.communicate(timeout=600)[0]) for run in runs]
    assert one == two
    assert sorted(one) == sorted(files) and all(one.values())
