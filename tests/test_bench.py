import gc
import json
from collections import Counter

import numpy as np
import pytest

from arraymend import (
    BudgetExceededError,
    InfeasibleError,
    NumericalFailureError,
    apply_failures,
    beamwidth,
    dolph_chebyshev,
    model,
    pattern_db,
    uniform_grid,
    uniform_positions,
)
from arraymend.bench import (
    ScenarioSpec,
    batch_run,
    default_bw_target,
    resolve_scenario,
    run_oracle,
    run_scenario,
    scale_failure_scenario,
    tradeoff_sweep,
)
from arraymend import cli
from arraymend.cli import main as cli_main
from conftest import SCENARIO_DIR, load_spec


def toy_spec_dict(**overrides):
    data = {
        "name": "toy",
        "n_elements": 4,
        "spacing_wavelengths": 0.5,
        "taper": [1.0, 0.419, 0.419, 1.0],
        "faulty_indices": [2],
        "metric": {"kind": "max_sll", "target_db": -5.5,
                   "region_samples": [-0.7, -0.5, 0.5, 0.7]},
    }
    data.update(overrides)
    return data


# Malformed scenario fields, with a word the error must name.
MALFORMED = {
    "unknown_solver_field": ({"solver": {"bogus": 1}}, "bogus"),
    "non_numeric_tolerance": ({"solver": {"constraint_tol_db": "abc"}}, "constraint_tol_db"),
    "taper_without_level": ({"taper": {"dolph_chebyshev": {}}}, "sll_db"),
    "non_object_solver": ({"solver": 5}, "solver"),
    "non_list_faulty_indices": ({"faulty_indices": 5}, "faulty_indices"),
    "non_object_metric": ({"metric": 5}, "metric"),
    "null_n_elements": ({"n_elements": None}, "n_elements"),
    "null_taper_level": ({"taper": {"dolph_chebyshev": {"sll_db": None}}}, "sll_db"),
    "fractional_n_elements": ({"n_elements": 4.9}, "n_elements"),
    "string_n_elements": ({"n_elements": "4"}, "n_elements"),
    "fractional_faulty_index": ({"faulty_indices": [2.7]}, "faulty_indices"),
    "boolean_faulty_index": ({"faulty_indices": [True]}, "faulty_indices"),
    "null_name": ({"name": None}, "name"),
    "numeric_name": ({"name": 5}, "name"),
    "empty_name": ({"name": ""}, "name"),
    "parent_name": ({"name": ".."}, "name"),
    "path_name": ({"name": "../escaped_toy"}, "name"),
    "boolean_spacing": ({"spacing_wavelengths": True}, "spacing_wavelengths"),
    "string_spacing": ({"spacing_wavelengths": "0.5"}, "spacing_wavelengths"),
}


class TestScenarioSpec:
    def test_round_trip(self):
        spec = ScenarioSpec.from_dict(toy_spec_dict())
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_numpy_integers_are_accepted(self):
        spec = ScenarioSpec.from_dict(toy_spec_dict(n_elements=np.int64(4), faulty_indices=[np.int32(2)]))
        assert spec == ScenarioSpec.from_dict(toy_spec_dict())
        assert type(spec.n_elements) is int and type(spec.faulty_indices[0]) is int

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict(toy_spec_dict(t4per=[1.0]))

    def test_rejects_missing_fields(self):
        data = toy_spec_dict()
        del data["taper"]
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict(data)

    def test_repo_catalog_parses(self):
        specs = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(specs) >= 20
        for path in specs:
            ScenarioSpec.from_file(path)


class TestResolve:
    def test_dc_defaults(self):
        spec = ScenarioSpec.from_dict({
            "name": "x", "n_elements": 16,
            "taper": {"dolph_chebyshev": {"sll_db": -15.0}},
            "faulty_indices": [2, 3, 9],
        })
        res = resolve_scenario(spec)
        assert res.metric.target_db == -15.0  # defaults to the design level
        assert res.bw_target_deg == pytest.approx(default_bw_target(13, -15.0))
        assert res.bw_target_deg == pytest.approx(14.6, abs=0.1)
        edge = np.sin(np.deg2rad(res.bw_target_deg / 2))
        assert np.min(np.abs(res.metric.region.samples)) >= edge

    def test_explicit_taper_needs_target(self):
        data = toy_spec_dict()
        del data["metric"]["target_db"]
        with pytest.raises(ValueError):
            resolve_scenario(ScenarioSpec.from_dict(data))

    def test_explicit_region(self):
        res = resolve_scenario(ScenarioSpec.from_dict(toy_spec_dict()))
        assert res.metric.region.samples.tolist() == [-0.7, -0.5, 0.5, 0.7]
        assert res.bw_target_deg is None

    def test_solver_overrides(self):
        res = resolve_scenario(ScenarioSpec.from_dict(
            toy_spec_dict(solver={"constraint_tol_db": 0.05})))
        assert res.config.constraint_tol_db == 0.05

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_rejects_malformed_fields(self, case):
        overrides, named = MALFORMED[case]
        with pytest.raises(ValueError, match=named):
            resolve_scenario(ScenarioSpec.from_dict(toy_spec_dict(**overrides)))

    def test_grid_override(self):
        spec = ScenarioSpec.from_dict({
            "name": "x", "n_elements": 16,
            "taper": {"dolph_chebyshev": {"sll_db": -15.0}},
            "faulty_indices": [2],
        })
        res = resolve_scenario(spec, grid_density=801)
        full = np.linspace(-1, 1, 801)
        assert np.isin(res.metric.region.samples, full).all()


class TestScaleRule:
    def test_doubled_array_two_per_seed(self):
        assert scale_failure_scenario([5, 45], 50, 2, 2) == [9, 10, 90, 91]

    def test_doubled_array_four_per_seed(self):
        assert scale_failure_scenario([5, 45], 50, 2, 4) == [7, 8, 9, 10, 90, 91, 92, 93]

    def test_identity(self):
        assert scale_failure_scenario([5, 45], 50, 1, 1) == [5, 45]

    def test_rejects_center_seed(self):
        with pytest.raises(ValueError):
            scale_failure_scenario([25], 50, 2, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            scale_failure_scenario([1], 50, 2, 3)  # 2*1 - 2 = 0


class TestRunScenario:
    def test_writes_files_and_consistent_record(self, tmp_path):
        record, result = run_scenario(load_spec("toy"), tmp_path)
        assert (tmp_path / "toy_result.json").exists()
        assert (tmp_path / "toy_pattern.csv").exists()
        assert (tmp_path / "toy_trace.csv").exists()
        assert record["status"] == "ok"
        assert record["n_corrections"] == result.n_corrections == 1
        assert record["eta_c_hat_pct"] == pytest.approx(
            100.0 * record["n_corrections"] / record["n_controllable"], rel=1e-4)
        assert record["eta_f_pct"] == pytest.approx(
            100.0 * record["n_failed"] / record["n_elements"], rel=1e-4)
        assert record["sll_corrected_db"] <= record["target_db"] + 0.02 + 1e-9

    def test_record_matches_pattern_file(self, tmp_path):
        spec = load_spec("size_scan_n25_row1")
        record, _ = run_scenario(spec, tmp_path)
        lines = (tmp_path / "size_scan_n25_row1_pattern.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["u", "original_db", "faulty_db", "corrected_db"]
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        edge = np.sin(np.deg2rad(record["bw_target_deg"] / 2))
        outside = np.abs(data[:, 0]) >= edge
        # independent re-verification of the constraint from the emitted samples
        assert data[outside, 3].max() <= record["target_db"] + 0.02 + 1e-6

    def test_export_grid_blocks_are_built_at_most_twice(self, tmp_path, monkeypatch):
        # Original and faulty share one pass over the grid's blocks and the
        # corrected pattern takes one more; the beamwidths and the pattern file
        # reuse those dB arrays, which match the public functions' values.
        builds = Counter()
        steering_matrix = model.steering_matrix

        def counted(geometry, u):
            u = np.atleast_1d(np.asarray(u, dtype=float))
            if u.flags.writeable and u.size <= 1024:
                builds[geometry.n, float(u[0]), u.size] += 1
            return steering_matrix(geometry, u)

        monkeypatch.setattr(model, "steering_matrix", counted)
        record, result = run_scenario(load_spec("test_case_1"), tmp_path)
        monkeypatch.undo()
        assert [c for (n, _, _), c in builds.items() if n == 16] == [2, 2, 2, 2]

        res = resolve_scenario(load_spec("test_case_1"))
        grid = uniform_grid()
        w_faulty = apply_failures(res.weights, res.scenario)
        weights = {"original": res.weights, "faulty": w_faulty, "corrected": w_faulty + result.delta}
        lines = (tmp_path / "test_case_1_pattern.csv").read_text().splitlines()
        columns = dict(zip(lines[0].split(","), zip(*(line.split(",") for line in lines[1:]))))
        for key, w in weights.items():
            assert record[f"bw_{key}_deg"] == beamwidth(res.geometry, w, res.metric.target_db, grid)
            assert list(columns[f"{key}_db"]) == [f"{v:.6g}" for v in pattern_db(res.geometry, w, grid)]

    def test_deterministic_records(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_scenario(load_spec("toy"), a_dir)
        run_scenario(load_spec("toy"), b_dir)
        rec_a = json.loads((a_dir / "toy_result.json").read_text())
        rec_b = json.loads((b_dir / "toy_result.json").read_text())
        rec_a.pop("elapsed_s"), rec_b.pop("elapsed_s")
        assert rec_a == rec_b
        assert (a_dir / "toy_pattern.csv").read_bytes() == (b_dir / "toy_pattern.csv").read_bytes()
        assert (a_dir / "toy_trace.csv").read_bytes() == (b_dir / "toy_trace.csv").read_bytes()

    def test_infeasible_writes_diagnostic(self, tmp_path):
        data = toy_spec_dict(name="toy_hopeless")
        data["metric"]["target_db"] = -100.0
        spec = ScenarioSpec.from_dict(data)
        with pytest.raises(InfeasibleError):
            run_scenario(spec, tmp_path)
        record = json.loads((tmp_path / "toy_hopeless_result.json").read_text())
        assert record["status"] == "infeasible"

    def test_infeasible_error_is_freed_without_the_cycle_collector(self, tmp_path):
        # a frame that kept the error alive would keep the solve's matrices alive too
        data = toy_spec_dict(name="toy_hopeless")
        data["metric"]["target_db"] = -100.0
        spec = ScenarioSpec.from_dict(data)
        gc.collect()
        gc.disable()
        try:
            try:
                run_scenario(spec, tmp_path)
            except InfeasibleError:
                pass
            assert not any(isinstance(o, InfeasibleError) for o in gc.get_objects())
        finally:
            gc.enable()


class TestRunOracle:
    def test_toy_oracle_record(self, tmp_path):
        record, result = run_oracle(load_spec("toy"), tmp_path, max_support=2)
        assert result.min_support == 1
        assert record["support"] == [3]
        assert record["status"] == "ok"
        written = json.loads((tmp_path / "toy_oracle.json").read_text())
        assert written["n_supports"] == 3 and written["n_certified"] == 2  # (), (1,) rejected

    def test_infeasible_record(self, tmp_path):
        data = toy_spec_dict(name="toy_hopeless")
        data["metric"]["target_db"] = -100.0
        record, result = run_oracle(ScenarioSpec.from_dict(data), tmp_path, max_support=2)
        assert not result.feasible
        assert record["status"] == "infeasible-up-to-m"


class TestSweep:
    def test_toy_ladder(self, tmp_path):
        rows = tradeoff_sweep(load_spec("toy"), [-5.0, -5.5], tmp_path)
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert rows[0]["achieved_sll_db"] >= rows[1]["achieved_sll_db"]
        assert (tmp_path / "toy_sweep.csv").exists()

    def test_loose_target_needs_no_corrections(self, tmp_path):
        # faulty toy array sits at -2.45 dB, already below a -1 dB target
        rows = tradeoff_sweep(load_spec("toy"), [-1.0], tmp_path)
        assert rows[0]["n_corrections"] == 0
        assert rows[0]["achieved_sll_db"] == pytest.approx(-2.45, abs=0.05)

    def test_rejects_unsorted_targets(self, tmp_path):
        with pytest.raises(ValueError):
            tradeoff_sweep(load_spec("toy"), [-5.5, -5.0], tmp_path)

    def test_rows_match_run_scenario(self, tmp_path):
        spec = load_spec("toy")
        metric = dict(spec.metric)
        row = tradeoff_sweep(spec, [-5.0, spec.metric["target_db"]], tmp_path / "sweep")[1]
        assert spec.metric == metric
        record, _ = run_scenario(spec, tmp_path / "run")
        assert (row["n_corrections"], row["achieved_sll_db"], row["l1"]) == (
            record["n_corrections"], record["sll_corrected_db"], record["l1"])

    def test_infeasible_rows_recorded(self, tmp_path):
        rows = tradeoff_sweep(load_spec("toy"), [-5.5, -100.0], tmp_path)
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"] == "infeasible"
        assert rows[1]["n_corrections"] is None


class TestBatch:
    def test_mixed_directory(self, tmp_path):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        (spec_dir / "toy.json").write_text(json.dumps(toy_spec_dict()))
        (spec_dir / "broken.json").write_text("{not json")
        records = batch_run(spec_dir, tmp_path / "out", parallelism=2)
        by_name = {r["name"]: r for r in records}
        assert by_name["toy"]["status"] == "ok"
        assert by_name["broken"]["status"].startswith("error")
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("name,status")
        assert len(summary) == 3
        # the reported correction rate must agree with the raw counts
        header = summary[0].split(",")
        row = dict(zip(header, summary[2].split(",")))
        assert row["name"] == "toy"
        n_controllable = int(row["n_elements"]) - int(row["n_failed"])
        assert float(row["eta_c_hat_pct"]) == pytest.approx(
            100.0 * int(row["n_corrections"]) / n_controllable, rel=1e-4)

    @pytest.mark.parametrize("parallelism", [0, -2])
    def test_rejects_parallelism_below_one(self, tmp_path, capsys, parallelism):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        (spec_dir / "toy.json").write_text(json.dumps(toy_spec_dict()))
        with pytest.raises(ValueError, match="parallelism"):
            batch_run(spec_dir, tmp_path / "out", parallelism=parallelism)
        code = cli_main(["batch", str(spec_dir), "--out", str(tmp_path / "out"),
                         f"--parallel={parallelism}"])
        assert code == 1
        assert "parallelism must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_directory(self, tmp_path):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        assert batch_run(spec_dir, tmp_path / "out") == []
        assert (tmp_path / "out" / "summary.csv").read_text().splitlines()[0].startswith("name")


class TestCli:
    def test_run_ok(self, tmp_path, capsys):
        code = cli_main(["run", str(SCENARIO_DIR / "toy.json"), "--out", str(tmp_path)])
        assert code == 0
        assert "corrections=1" in capsys.readouterr().out

    def test_oracle_ok(self, tmp_path, capsys):
        code = cli_main(["oracle", str(SCENARIO_DIR / "toy.json"), "--max-support", "2",
                         "--out", str(tmp_path)])
        assert code == 0
        assert "minimum support=1 elements=[3] (minimum proven)" in capsys.readouterr().out

    def test_scale_output(self, capsys):
        code = cli_main(["scale", "--base", "5,45", "--base-n", "50", "--factor", "2",
                         "--count", "4"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "7,8,9,10,90,91,92,93"

    def test_infeasible_exit_code(self, tmp_path):
        data = toy_spec_dict(name="hopeless")
        data["metric"]["target_db"] = -100.0
        spec_path = tmp_path / "hopeless.json"
        spec_path.write_text(json.dumps(data))
        assert cli_main(["run", str(spec_path), "--out", str(tmp_path)]) == 2

    def test_error_exit_code(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "missing.json")]) == 1

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_exit_code(self, tmp_path, capsys, case):
        spec_path = tmp_path / f"{case}.json"
        spec_path.write_text(json.dumps(toy_spec_dict(**MALFORMED[case][0])))
        assert cli_main(["run", str(spec_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and MALFORMED[case][1] in err

    def test_non_object_file_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "five.json"
        spec_path.write_text("5")
        assert cli_main(["run", str(spec_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "JSON object" in err

    @pytest.mark.parametrize("command, runner, error", [
        ("oracle", "run_oracle", BudgetExceededError("the oracle's support budget is spent")),
        ("run", "run_scenario", NumericalFailureError("the cone IPM left the constraint violated")),
    ])
    def test_solver_failures_exit_with_an_error_line(self, tmp_path, capsys, monkeypatch,
                                                     command, runner, error):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, runner, fail)
        assert cli_main([command, str(SCENARIO_DIR / "toy.json"), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_constraint_tol_reaches_the_solve(self, tmp_path, capsys):
        # the faulty toy sits at -2.45 dB, within 3.1 dB of its -5.5 dB target
        toy = str(SCENARIO_DIR / "toy.json")
        assert cli_main(["run", toy, "--out", str(tmp_path / "a")]) == 0
        assert "corrections=1" in capsys.readouterr().out
        assert cli_main(["run", toy, "--constraint-tol", "3.1", "--out", str(tmp_path / "b")]) == 0
        assert "corrections=0" in capsys.readouterr().out

    def test_constraint_tol_reaches_the_sweep(self, tmp_path, capsys):
        # the faulty toy sits at -2.45 dB, within 3.1 dB of its -5.5 dB target
        toy = str(SCENARIO_DIR / "toy.json")
        assert cli_main(["sweep", toy, "--targets=-5.5", "--out", str(tmp_path / "a")]) == 0
        assert "corrections=1" in capsys.readouterr().out
        assert cli_main(["sweep", toy, "--targets=-5.5", "--constraint-tol", "3.1",
                         "--out", str(tmp_path / "b")]) == 0
        assert "corrections=0" in capsys.readouterr().out

    def test_sweep_cli(self, tmp_path, capsys):
        # negative dB lists need the --targets=... form so argparse keeps them whole
        code = cli_main(["sweep", str(SCENARIO_DIR / "toy.json"), "--targets=-5.0,-5.5",
                         "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "target -5:" in out and "target -5.5:" in out


class TestDefaultBwTarget:
    def test_matches_direct_measurement(self):
        got = default_bw_target(13, -15.0)
        direct = beamwidth(uniform_positions(13, 0.5), dolph_chebyshev(13, -15.0), -15.0)
        assert got == pytest.approx(direct)


class TestBenchmarkRecords:
    def test_sixteen_element_record(self, tmp_path):
        record, _ = run_scenario(load_spec("test_case_1"), tmp_path)
        assert record["sll_faulty_db"] == pytest.approx(-10.19, abs=0.1)
        assert record["sll_corrected_db"] <= -14.9
        assert record["bw_corrected_deg"] <= 14.6
        assert record["n_corrections"] == 3

    def test_two_edge_failures_record(self, tmp_path):
        record, _ = run_scenario(load_spec("fail_rate_n50_row1"), tmp_path)
        assert record["sll_faulty_db"] == pytest.approx(-21.85, abs=0.1)
        assert record["n_corrections"] <= 6
        assert record["bw_corrected_deg"] <= 5.54 + 0.05

    def test_correction_share_shrinks_with_size(self, size_scan_records):
        # at a fixed failure rate, larger arrays need a smaller share of corrections
        for row in (1, 2, 3):
            shares = [size_scan_records[f"size_scan_n{n}_row{row}"]["eta_c_hat_pct"]
                      for n in (25, 50, 100)]
            assert shares[0] > shares[1] > shares[2]
