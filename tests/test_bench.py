import gc
import importlib.util
import json
import threading
import time
from collections import Counter
from pathlib import Path

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
from arraymend import bench, cli, correction, solver
from arraymend.cli import main as cli_main
from conftest import SCENARIO_DIR, load_spec

_spec = importlib.util.spec_from_file_location(
    "same_results", Path(__file__).resolve().parent.parent / "tools" / "same_results.py")
same_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_results)


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


def toleranced_toy(directory) -> str:
    """The toy scenario with a 3.1 dB constraint_tol_db, written to directory/toy.json."""
    path = directory / "toy.json"
    path.write_text(json.dumps({**load_spec("toy").to_dict(), "solver": {"constraint_tol_db": 3.1}}))
    return str(path)


def toy_metric(**fields):
    """An override of the toy's metric: its target on a 60-degree mainlobe exclusion, then fields."""
    return {"metric": {"target_db": -5.5, "bw_target_deg": 60.0, **fields}}


def toy_samples(samples, **fields):
    """An override of the toy's metric: its target on the region samples given, then fields."""
    return {"metric": {"target_db": -5.5, "region_samples": samples, **fields}}


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
    "list_target": (toy_metric(target_db=[1]), "target_db"),
    "string_target": (toy_metric(target_db="-20"), "target_db"),
    "boolean_target": (toy_metric(target_db=True), "target_db"),
    "list_bw_target": (toy_metric(bw_target_deg=[10]), "bw_target_deg"),
    "string_bw_target": (toy_metric(bw_target_deg="10"), "bw_target_deg"),
    "list_region_density": (toy_metric(region_density=[5]), "region_density"),
    "fractional_region_density": (toy_metric(region_density=801.7), "region_density"),
    "string_taper_level": ({"taper": {"dolph_chebyshev": {"sll_db": "-20"}}}, "sll_db"),
    "string_region_samples": (toy_samples(["0.5", "0.7"]), "region_samples"),
    "boolean_region_samples": (toy_samples(True), "region_samples"),
    "scalar_region_samples": (toy_samples(0.6), "region_samples"),
    "nested_region_samples": (toy_samples([[0.5, 0.7], [0.8, 0.9]]), "region_samples"),
    "string_taper_weights": ({"taper": ["1", "0.5", "0.5", "1"]}, "taper"),
    "boolean_taper_weights": ({"taper": [True, 1, 1, True]}, "taper"),
    "nested_taper_weights": ({"taper": [[1.0, 0.5], [0.5, 1.0]]}, "taper"),
    "unknown_taper_level_key": ({"taper": {"dolph_chebyshev": {"sll_db": -25.0, "sll_bd": -40.0}}}, "taper"),
    "taper_design_beside_weights": ({"taper": {"dolph_chebyshev": {"sll_db": -25.0},
                                               "weights": [1.0, 0.5, 0.5, 1.0]}}, "taper"),
    "taper_weights_object": ({"taper": {"weights": [1.0, 0.419, 0.419, 1.0]}}, "taper"),
    "pair_list_metric": ({"metric": [["target_db", -5.5]]}, "metric"),
    "pair_list_solver": ({"solver": [["constraint_tol_db", 0.1]]}, "solver"),
    "unknown_metric_kind": (toy_metric(kind="directivity"), "kind"),
    "unknown_metric_field": (toy_metric(region_width=3), "region_width"),
    "short_taper_weights": ({"taper": [1.0, 0.419, 1.0]}, "n_elements"),
    "taper_weights_without_region": ({"metric": {"target_db": -5.5}}, "region_samples"),
    "region_samples_beyond_one": (toy_samples([0.5, 1.5]), "region samples"),
    "empty_region_samples": (toy_samples([]), "metric region"),
    "two_point_region_density": (toy_metric(region_density=2), "grid density"),
    "region_samples_beside_bw_target": (toy_samples([-0.7, 0.7], bw_target_deg=170.0), "bw_target_deg"),
    "region_samples_beside_region_density": (toy_samples([-0.7, 0.7], region_density=3), "region_density"),
    "non_finite_spacing": ({"spacing_wavelengths": float("nan")}, "positions"),
}


class TestScenarioSpec:
    def test_round_trip(self):
        spec = ScenarioSpec.from_dict(toy_spec_dict())
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_an_independent_copy(self):
        spec = ScenarioSpec.from_dict(toy_spec_dict())
        data = spec.to_dict()
        data["taper"][1] = 5.0
        data["metric"]["region_samples"].append(0.9)
        data["faulty_indices"].append(3)
        assert spec == ScenarioSpec.from_dict(toy_spec_dict())

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
            "metric": {"region_density": 801},
        })
        res = resolve_scenario(spec)
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
        with pytest.raises(ValueError, match="at least 1"):
            scale_failure_scenario([5], 50, 0, 1)
        for seed in (0, 51):
            with pytest.raises(ValueError, match=f"seed fault {seed} outside 1..50"):
                scale_failure_scenario([seed], 50, 2, 1)


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

    def test_export_grid_blocks_are_built_once(self, tmp_path, monkeypatch):
        # Original, faulty and corrected share one pass over the grid's blocks;
        # the beamwidths and the pattern file reuse those dB arrays, which
        # match the public functions' values.
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
        assert [c for (n, _, _), c in builds.items() if n == 16] == [1, 1, 1, 1]

        res = resolve_scenario(load_spec("test_case_1"))
        grid = uniform_grid()
        w_faulty = apply_failures(res.weights, res.scenario)
        weights = {"original": res.weights, "faulty": w_faulty, "corrected": w_faulty + result.delta}
        lines = (tmp_path / "test_case_1_pattern.csv").read_text().splitlines()
        columns = dict(zip(lines[0].split(","), zip(*(line.split(",") for line in lines[1:]))))
        for key, w in weights.items():
            assert record[f"bw_{key}_deg"] == beamwidth(res.geometry, w, res.metric.target_db)
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
        assert record["sll_corrected_db"] == record["achieved_phi_db"]
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

    def test_scenario_is_resolved_once(self, tmp_path, monkeypatch):
        # The region and the taper do not depend on the target: three targets
        # share one region steering matrix, and the taper and its reference
        # (the default beamwidth target's) are designed once each.
        spec = load_spec("test_case_1")
        rows = resolve_scenario(spec).metric.region.size
        built, designs = [], []
        for module in (correction, solver):
            steering_matrix = module.steering_matrix

            def counted(geometry, u, steering_matrix=steering_matrix):
                a = steering_matrix(geometry, u)
                if a.shape[0] == rows and not any(a is b for b in built):
                    built.append(a)
                return a
            monkeypatch.setattr(module, "steering_matrix", counted)

        def design(*args, dolph_chebyshev=bench.dolph_chebyshev):
            designs.append(args)
            return dolph_chebyshev(*args)
        monkeypatch.setattr(bench, "dolph_chebyshev", design)
        swept = tradeoff_sweep(spec, [-14.0, -15.0, -40.0], tmp_path)
        monkeypatch.undo()
        assert [r["status"] for r in swept] == ["ok", "ok", "infeasible"]
        assert len(built) == 1
        assert designs == [(16, -15.0), (13, -15.0)]

    def test_explicit_taper_without_a_target(self, tmp_path):
        data = toy_spec_dict()
        del data["metric"]["target_db"]
        rows = tradeoff_sweep(ScenarioSpec.from_dict(data), [-5.0, -5.5], tmp_path / "a")
        assert rows == tradeoff_sweep(load_spec("toy"), [-5.0, -5.5], tmp_path / "b")
        assert rows[1]["n_corrections"] == 1

    def test_empty_ladder_writes_the_header(self, tmp_path):
        assert tradeoff_sweep(load_spec("toy"), [], tmp_path) == []
        assert (tmp_path / "toy_sweep.csv").read_text() == "target_db,status,n_corrections,achieved_sll_db,l1\n"


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
    def test_rejects_parallelism_below_one(self, tmp_path, parallelism):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        (spec_dir / "toy.json").write_text(json.dumps(toy_spec_dict()))
        with pytest.raises(ValueError, match="parallelism must be at least 1"):
            batch_run(spec_dir, tmp_path / "out", parallelism=parallelism)
        assert not (tmp_path / "out").exists()

    def test_empty_directory(self, tmp_path):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        assert batch_run(spec_dir, tmp_path / "out") == []
        assert (tmp_path / "out" / "summary.csv").read_text().splitlines()[0].startswith("name")

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_reused_name_is_an_error_row(self, tmp_path, parallelism):
        # b.json reuses a.json's name: it is refused and writes nothing, so
        # every toy_* file is a.json's run, however the threads interleave.
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        (spec_dir / "a.json").write_text(json.dumps(toy_spec_dict()))
        unreachable = toy_spec_dict()
        unreachable["metric"] = {**unreachable["metric"], "target_db": -100.0}
        (spec_dir / "b.json").write_text(json.dumps(unreachable))
        out = tmp_path / "out"
        records = batch_run(spec_dir, out, parallelism=parallelism)
        assert [(r["name"], r["status"]) for r in records] == [
            ("toy", "ok"), ("b", "error: scenario name 'toy' is already used by a.json")]
        assert sorted(p.name for p in out.iterdir()) == [
            "summary.csv", "toy_pattern.csv", "toy_result.json", "toy_trace.csv"]
        assert json.loads((out / "toy_result.json").read_text())["status"] == "ok"
        assert [line.split(",")[:2] for line in (out / "summary.csv").read_text().splitlines()[1:]] == [
            ["toy", "ok"], ["b", "error: scenario name 'toy' is already used by a.json"]]

    def test_parallel_batch_writes_the_same_files(self, tmp_path):
        # The batch of the result check (tools/same_results.py), run serially
        # and on two threads: every written file is the same, compared as
        # that check does (elapsed_s dropped).
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        unreachable = load_spec("test_case_2_sll22").to_dict()
        unreachable.update(name="test_case_2_unreachable", metric={"kind": "max_sll", "target_db": -30.0})
        for data in [load_spec(name).to_dict() for name in ("toy", "test_case_1")] + [unreachable]:
            (spec_dir / f"{data['name']}.json").write_text(json.dumps(data))
        (spec_dir / "malformed.json").write_text('{"name": "malformed", "n_elements": ')
        written = {}
        for parallelism in (1, 2):
            out = tmp_path / f"out{parallelism}"
            statuses = [r["status"].split(":")[0] for r in batch_run(spec_dir, out, parallelism=parallelism)]
            assert statuses == ["error", "ok", "infeasible", "ok"]
            written[parallelism] = {p.name: same_results.read_output(p) for p in sorted(out.iterdir())}
        assert len(written[1]) == 8
        assert written[1] == written[2]

    def test_one_scenario_in_flight(self, tmp_path, monkeypatch):
        # parallelism=2 still runs one scenario at a time. The wrapper counts
        # the run_scenario calls in progress; its sleep makes any two calls
        # that run at once overlap for certain.
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        for name in ("a", "b", "c"):
            (spec_dir / f"{name}.json").write_text(json.dumps(toy_spec_dict(name=name)))
        lock = threading.Lock()
        calls, in_flight, most = 0, 0, 0
        original = bench.run_scenario

        def counted(*args, **kwargs):
            nonlocal calls, in_flight, most
            with lock:
                calls, in_flight = calls + 1, in_flight + 1
                most = max(most, in_flight)
            try:
                time.sleep(0.05)
                return original(*args, **kwargs)
            finally:
                with lock:
                    in_flight -= 1

        monkeypatch.setattr(bench, "run_scenario", counted)
        records = batch_run(spec_dir, tmp_path / "out", parallelism=2)
        assert [(r["name"], r["status"]) for r in records] == [("a", "ok"), ("b", "ok"), ("c", "ok")]
        assert calls == 3 and most == 1


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

    def test_oracle_infeasible_up_to_support(self, tmp_path, capsys):
        # the toy needs one correction, so no support of size 0 meets its target
        code = cli_main(["oracle", str(SCENARIO_DIR / "toy.json"), "--max-support", "0",
                         "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().out == "toy: infeasible up to support 0\n"

    def test_batch_prints_a_line_per_scenario(self, tmp_path, capsys):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        (spec_dir / "toy.json").write_text(json.dumps(toy_spec_dict()))
        (spec_dir / "broken.json").write_text("{not json")
        assert cli_main(["batch", str(spec_dir), "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("broken: error:") and lines[1] == "toy: ok"

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

    def test_negated_taper_runs_like_the_real_one(self, tmp_path):
        # test_case_1 with its Dolph-Chebyshev weights negated, as an explicit
        # taper with the same target and region: the problem is the same, so
        # the run must give test_case_1's corrections, negated. A solve that
        # fixed F(0)'s phase at 0 found no answer and exited 2.
        real = resolve_scenario(load_spec("test_case_1"))
        data = {**load_spec("test_case_1").to_dict(), "name": "negated",
                "taper": (-real.weights.real).tolist(),
                "metric": {"target_db": -15.0, "bw_target_deg": real.bw_target_deg}}
        spec_path = tmp_path / "negated.json"
        spec_path.write_text(json.dumps(data))
        assert cli_main(["run", str(spec_path), "--out", str(tmp_path)]) == 0
        run_scenario(load_spec("test_case_1"), tmp_path)
        negated, record = (json.loads((tmp_path / f"{name}_result.json").read_text())
                           for name in ("negated", "test_case_1"))
        assert negated["n_corrections"] == record["n_corrections"] == 3
        assert negated["corrected_elements"] == record["corrected_elements"]
        assert negated["sll_corrected_db"] == record["sll_corrected_db"]
        assert negated["l1"] == record["l1"]

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
        assert cli_main(["run", str(SCENARIO_DIR / "toy.json"), "--out", str(tmp_path / "a")]) == 0
        assert "corrections=1" in capsys.readouterr().out
        assert cli_main(["run", toleranced_toy(tmp_path), "--out", str(tmp_path / "b")]) == 0
        assert "corrections=0" in capsys.readouterr().out

    def test_constraint_tol_reaches_the_sweep(self, tmp_path, capsys):
        # the faulty toy sits at -2.45 dB, within 3.1 dB of its -5.5 dB target
        toy = str(SCENARIO_DIR / "toy.json")
        assert cli_main(["sweep", toy, "--targets=-5.5", "--out", str(tmp_path / "a")]) == 0
        assert "corrections=1" in capsys.readouterr().out
        assert cli_main(["sweep", toleranced_toy(tmp_path), "--targets=-5.5",
                         "--out", str(tmp_path / "b")]) == 0
        assert "corrections=0" in capsys.readouterr().out

    def test_sweep_cli(self, tmp_path, capsys):
        # negative dB lists need the --targets=... form so argparse keeps them whole
        code = cli_main(["sweep", str(SCENARIO_DIR / "toy.json"), "--targets=-5.0,-5.5",
                         "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "target -5:" in out and "target -5.5:" in out

    def test_sweep_cli_reads_a_malformed_file_whatever_the_ladder(self, tmp_path, capsys):
        spec_path = tmp_path / "toy.json"
        spec_path.write_text(json.dumps(toy_spec_dict(**MALFORMED["unknown_metric_field"][0])))
        for targets in ("--targets=", "--targets=-5"):
            assert cli_main(["sweep", str(spec_path), targets, "--out", str(tmp_path / "out")]) == 1
            assert "unknown metric fields" in capsys.readouterr().err
            assert not (tmp_path / "out" / "toy_sweep.csv").exists()

    def test_sweep_cli_empty_ladder_on_an_explicit_taper_without_a_target(self, tmp_path):
        data = toy_spec_dict()
        del data["metric"]["target_db"]
        spec_path = tmp_path / "toy.json"
        spec_path.write_text(json.dumps(data))
        assert cli_main(["sweep", str(spec_path), "--targets=", "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "toy_sweep.csv").read_text() == "target_db,status,n_corrections,achieved_sll_db,l1\n"

    def test_sweep_cli_prints_infeasible_targets(self, tmp_path, capsys):
        code = cli_main(["sweep", str(SCENARIO_DIR / "toy.json"), "--targets=-5.5,-100",
                         "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1] == "target -100: infeasible"

    @pytest.mark.parametrize("target", [0.0, 0.5])
    def test_target_at_or_above_0_db_writes_null_beamwidths(self, tmp_path, capsys, target):
        # The pattern is 0 dB at broadside, so no mainlobe lies above such a
        # level: the export's beamwidths are null, and the faulty test_case_1
        # (-10.19 dB) needs no correction.
        data = load_spec("test_case_1").to_dict()
        data["metric"]["target_db"] = target
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        spec_path = spec_dir / "test_case_1.json"
        spec_path.write_text(json.dumps(data))
        widths = [f"bw_{key}_deg" for key in ("original", "faulty", "corrected")]

        assert cli_main(["run", str(spec_path), "--out", str(tmp_path / "run")]) == 0
        assert "corrections=0" in capsys.readouterr().out
        record = json.loads((tmp_path / "run" / "test_case_1_result.json").read_text())
        assert [record[k] for k in widths] == [None, None, None]
        assert record["sll_corrected_db"] == pytest.approx(-10.19, abs=0.005)
        for suffix in ("pattern.csv", "trace.csv"):
            assert (tmp_path / "run" / f"test_case_1_{suffix}").exists()

        assert cli_main(["oracle", str(spec_path), "--out", str(tmp_path / "oracle")]) == 0
        assert "minimum support=0" in capsys.readouterr().out
        record = json.loads((tmp_path / "oracle" / "test_case_1_oracle.json").read_text())
        assert [record[k] for k in widths[:2]] == [None, None]

        assert cli_main(["batch", str(spec_dir), "--out", str(tmp_path / "batch")]) == 0
        assert capsys.readouterr().out == "test_case_1: ok\n"
        summary = (tmp_path / "batch" / "summary.csv").read_text().splitlines()
        row = dict(zip(summary[0].split(","), summary[1].split(",")))
        assert [row[k] for k in widths] == ["", "", ""]


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
