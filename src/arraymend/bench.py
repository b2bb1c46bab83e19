"""
Scenario files, benchmark runners, and plot-ready data emission.

A scenario file is a JSON object with the fields of ScenarioSpec; element
indices are 1-based as in the antenna literature. Runners write a result
record (JSON), a pattern-samples file, and a removal-trace file per
scenario, all with numbers rounded to 6 significant digits so reruns diff
cleanly.
"""

from __future__ import annotations

import json
import math
from contextlib import suppress
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .correction import CorrectionResult, minimize_corrections
from .errors import InfeasibleError, NoMainlobeError
from .model import (
    DEFAULT_GRID_DENSITY,
    AngularRegion,
    ArrayGeometry,
    FailureScenario,
    MetricSpec,
    _mainlobe_width,
    _patterns_db,
    beamwidth,
    dynamic_range,
    max_sll,
    sidelobe_region,
    uniform_grid,
    uniform_positions,
)
from .oracle import OracleResult, exhaustive_min
from .solver import SolverConfig
from .taper import apply_failures, dolph_chebyshev


_REAL = (int, float, np.integer, np.floating)


def _checked(value, name: str, kinds, what: str):
    """value, with a ValueError naming the field unless it is an instance of kinds (a bool never is)."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"scenario field {name} must be {what}, got {value!r}")
    return value


def _listed(value, name: str, kinds, what: str) -> list:
    """value as a list, with a ValueError naming the field unless it is a flat list of instances of kinds."""
    return [_checked(v, name, kinds, what) for v in _checked(value, name, (list, tuple), what)]


def _integer(value, name: str) -> int:
    """value as an int, with a ValueError naming the field unless it is a Python or numpy integer."""
    return int(_checked(value, name, (int, np.integer), "an integer"))


def _real(value, name: str) -> float:
    """value as a float, with a ValueError naming the field unless it is a real number (not a bool or a string)."""
    return float(_checked(value, name, _REAL, "a real number"))


def _file_name(value, name: str) -> str:
    """value, with a ValueError naming the field unless it is a non-empty string usable as one path component."""
    if not isinstance(value, str) or value in ("", ".", "..") or "/" in value or "\\" in value:
        raise ValueError(f"scenario field {name} must be a non-empty file name without a path, got {value!r}")
    return value


@dataclass
class ScenarioSpec:
    """One correction problem: array, taper, failures, and metric target."""

    name: str
    n_elements: int
    faulty_indices: list[int]
    taper: dict | list
    metric: dict = field(default_factory=dict)
    spacing_wavelengths: float = 0.5
    solver: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise ValueError(f"a scenario must be a JSON object, got {data!r}")
        known = {"name", "n_elements", "faulty_indices", "taper", "metric",
                 "spacing_wavelengths", "solver"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        missing = {"name", "n_elements", "faulty_indices", "taper"} - set(data)
        if missing:
            raise ValueError(f"scenario is missing fields: {sorted(missing)}")
        return cls(
            name=_file_name(data["name"], "name"),
            n_elements=_integer(data["n_elements"], "n_elements"),
            faulty_indices=[int(i) for i in _listed(data["faulty_indices"], "faulty_indices",
                                                    (int, np.integer), "a list of integers")],
            taper=data["taper"],
            metric=_checked(data.get("metric", {}), "metric", dict, "an object"),
            spacing_wavelengths=_real(data.get("spacing_wavelengths", 0.5), "spacing_wavelengths"),
            solver=_checked(data.get("solver", {}), "solver", dict, "an object"),
        )

    @classmethod
    def from_file(cls, path) -> "ScenarioSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_elements": self.n_elements,
            "spacing_wavelengths": self.spacing_wavelengths,
            "taper": self.taper,
            "faulty_indices": list(self.faulty_indices),
            "metric": dict(self.metric),
            "solver": dict(self.solver),
        }


@dataclass(frozen=True)
class ResolvedScenario:
    """Scenario turned into concrete model objects, ready to run."""

    spec: ScenarioSpec
    geometry: ArrayGeometry
    weights: np.ndarray
    scenario: FailureScenario
    metric: MetricSpec
    config: SolverConfig
    bw_target_deg: float | None


def _resolve_taper(spec: ScenarioSpec) -> tuple[np.ndarray, float | None]:
    """
    The taper's excitations, and its design sidelobe level when it is a
    Dolph-Chebyshev design. A taper is either {"dolph_chebyshev": {"sll_db":
    x}}, each object holding exactly that key, or a flat list of n_elements
    numbers; anything else is a ValueError naming the taper.
    """
    taper = spec.taper
    if isinstance(taper, (list, tuple)):
        weights = _listed(taper, "taper", (int, float, complex, np.number), "a flat list of numbers")
        w = np.asarray(weights, dtype=complex)
        if w.size != spec.n_elements:
            raise ValueError("explicit taper length must equal n_elements")
        return w, None
    design = taper.get("dolph_chebyshev") if isinstance(taper, dict) and len(taper) == 1 else None
    if not isinstance(design, dict) or set(design) != {"sll_db"}:
        raise ValueError("scenario field taper must be {'dolph_chebyshev': {'sll_db': <number>}} "
                         f"or a flat list of numbers, got {taper!r}")
    sll = _real(design["sll_db"], "sll_db")
    return dolph_chebyshev(spec.n_elements, sll), sll


def default_bw_target(n_working: int, sll_db: float, spacing: float = 0.5) -> float:
    """Mainlobe width of an equal-count reference taper, at its own SLL."""
    ref = dolph_chebyshev(n_working, sll_db)
    return beamwidth(uniform_positions(n_working, spacing), ref, sll_db)


def resolve_scenario(spec: ScenarioSpec) -> ResolvedScenario:
    """Build geometry, taper, failure mask, metric region, and solver config."""
    geometry = uniform_positions(spec.n_elements, spec.spacing_wavelengths)
    weights, design_sll = _resolve_taper(spec)
    scenario = FailureScenario.from_indices(spec.n_elements, spec.faulty_indices)

    metric = dict(spec.metric)
    kind = metric.pop("kind", "max_sll")
    if kind != "max_sll":
        raise ValueError(f"scenario field kind must be \"max_sll\", got {kind!r}")
    target = metric.pop("target_db", None)
    bw_target = metric.pop("bw_target_deg", None)
    samples = metric.pop("region_samples", None)
    density = metric.pop("region_density", None)
    if target is not None:
        target = _real(target, "target_db")
    if bw_target is not None:
        bw_target = _real(bw_target, "bw_target_deg")
    density = DEFAULT_GRID_DENSITY if density is None else _integer(density, "region_density")
    if samples is not None:
        samples = _listed(samples, "region_samples", _REAL, "a flat list of real numbers")
    if metric:
        raise ValueError(f"unknown metric fields: {sorted(metric)}")

    if target is None:
        if design_sll is None:
            raise ValueError("explicit tapers need an explicit metric target_db")
        target = design_sll

    if samples is not None:
        region = AngularRegion(np.asarray(samples, dtype=float))
        bw_val = None
    else:
        if bw_target is None:
            if design_sll is None:
                raise ValueError("explicit tapers need bw_target_deg or region_samples")
            bw_target = default_bw_target(scenario.n_controllable, design_sll,
                                          spec.spacing_wavelengths)
        bw_val = float(bw_target)
        region = sidelobe_region(bw_val, density)

    unknown = set(spec.solver) - {f.name for f in fields(SolverConfig)}
    if unknown:
        raise ValueError(f"unknown solver fields: {sorted(unknown)}")
    config = SolverConfig(**spec.solver)

    return ResolvedScenario(
        spec=spec, geometry=geometry, weights=weights, scenario=scenario,
        metric=MetricSpec(region=region, target_db=target),
        config=config, bw_target_deg=bw_val,
    )


def _sig6(value):
    if isinstance(value, float):
        if math.isfinite(value):
            return float(f"{value:.6g}")
        return None
    if isinstance(value, (list, tuple)):
        return [_sig6(v) for v in value]
    if isinstance(value, dict):
        return {k: _sig6(v) for k, v in value.items()}
    return value


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(_sig6(record), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows, template: str | None = None) -> None:
    """Header and rows, each value through _fmt, or each row as template % row when given."""
    lines = [",".join(header)]
    if template is None:
        lines += [",".join(_fmt(v) for v in row) for row in rows]
    else:
        lines += [template % row for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _safe_beamwidth(grid, p_db, threshold_db) -> float | None:
    """The beamwidth of the dB pattern p_db on grid, or None when it has no mainlobe."""
    try:
        return _mainlobe_width(grid, p_db, threshold_db)
    except NoMainlobeError:
        return None


def _safe_dr(weights) -> float | None:
    try:
        return dynamic_range(weights)
    except ValueError:
        return None


def _base_record(res: ResolvedScenario) -> tuple[dict, list[np.ndarray]]:
    """
    The record of one run before its correction, less the export grid's
    beamwidths (_grid_patterns), and the original and faulty excitations.
    Its region levels build the region's shared steering matrix before any
    export-grid block: with the grid blocks built first, the process's peak
    RSS was about 0.5 MB higher.
    """
    spec = res.spec
    scenario = res.scenario
    w = res.weights
    w_faulty = apply_failures(w, scenario)
    record = {
        "name": spec.name,
        "n_elements": spec.n_elements,
        "spacing_wavelengths": spec.spacing_wavelengths,
        "faulty_indices": scenario.faulty_indices(),
        "n_failed": scenario.n_failed,
        "n_controllable": scenario.n_controllable,
        "eta_f_pct": 100.0 * scenario.n_failed / spec.n_elements,
        "target_db": res.metric.target_db,
        "bw_target_deg": res.bw_target_deg,
        "region_size": res.metric.region.size,
        "sll_original_db": max_sll(res.geometry, w, res.metric.region),
        "sll_faulty_db": max_sll(res.geometry, w_faulty, res.metric.region),
        "dr_original": _safe_dr(w),
        "dr_faulty": _safe_dr(w_faulty),
    }
    return record, [w, w_faulty]


def _grid_patterns(res: ResolvedScenario, grid, record: dict, weight_sets) -> list[np.ndarray]:
    """
    The dB patterns on the export grid of the original, faulty and, when
    given, corrected excitations, in one pass over the grid's blocks; their
    beamwidths go into the record.
    """
    patterns = _patterns_db(res.geometry, weight_sets, grid)
    for key, p_db in zip(("original", "faulty", "corrected"), patterns):
        record[f"bw_{key}_deg"] = _safe_beamwidth(grid, p_db, res.metric.target_db)
    return patterns


def _start(spec: ScenarioSpec, out_dir):
    """
    Output directory, resolved scenario, export grid, base record, and the
    original and faulty excitations of one run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    res = resolve_scenario(spec)
    grid = uniform_grid()
    record, weight_sets = _base_record(res)
    return out, res, grid, record, weight_sets


def run_scenario(spec: ScenarioSpec, out_dir) -> tuple[dict, CorrectionResult]:
    """
    Run the correction on one scenario and write its three output files.

    Writes <name>_result.json, <name>_pattern.csv, and <name>_trace.csv in
    out_dir. On an infeasible scenario the diagnostic record is written
    before InfeasibleError is re-raised.
    """
    out, res, grid, record, weight_sets = _start(spec, out_dir)
    try:
        result = minimize_corrections(res.geometry, res.weights, res.scenario,
                                      res.metric, res.config)
    except InfeasibleError as err:
        record.update({"status": "infeasible", "detail": str(err)})
        _grid_patterns(res, grid, record, weight_sets)
        _write_json(out / f"{spec.name}_result.json", record)
        raise

    w_corrected = weight_sets[1] + result.delta   # the faulty excitations, corrected
    record.update({
        "status": "ok",
        "sll_corrected_db": result.achieved_phi_db,
        "dr_corrected": _safe_dr(w_corrected),
        "n_corrections": result.n_corrections,
        "eta_c_hat_pct": 100.0 * result.n_corrections / res.scenario.n_controllable,
        "l1": result.l1,
        "achieved_phi_db": result.achieved_phi_db,
        "k_opt": result.k_opt,
        "corrected_elements": result.corrected_elements,
        "elapsed_s": result.elapsed_s,
    })
    patterns = _grid_patterns(res, grid, record, weight_sets + [w_corrected])
    _write_json(out / f"{spec.name}_result.json", record)

    # all floats, for which "%.6g" % x is _fmt(x)
    _write_csv(out / f"{spec.name}_pattern.csv",
               ["u", "original_db", "faulty_db", "corrected_db"],
               zip(grid.tolist(), *(p_db.tolist() for p_db in patterns)),
               template="%.6g,%.6g,%.6g,%.6g")

    _write_csv(out / f"{spec.name}_trace.csv",
               ["k", "step", "event", "n_least", "l0", "l1", "phi_db"],
               [(e.k, e.step, e.event, e.n_least, e.l0, e.l1, e.phi_db) for e in result.trace])
    return record, result


def run_oracle(spec: ScenarioSpec, out_dir, max_support: int | None = None) -> tuple[dict, OracleResult]:
    """Exhaustive minimum search for one scenario, serialized like run_scenario."""
    out, res, grid, record, weight_sets = _start(spec, out_dir)
    _grid_patterns(res, grid, record, weight_sets)
    result = exhaustive_min(res.geometry, res.weights, res.scenario, res.metric,
                            res.config, max_support=max_support)
    record.update({
        "status": "ok" if result.feasible else "infeasible-up-to-m",
        "searched_up_to": result.searched_up_to,
        "n_supports": result.n_supports,
        "n_solves": result.n_solves,
        "n_certified": result.n_certified,
        "elapsed_s": result.elapsed_s,
    })
    if result.feasible:
        record.update({
            "support": list(result.support),
            "min_support": result.min_support,
            "n_corrections": result.n_corrections,
            "l1": result.l1,
            "achieved_phi_db": result.achieved_phi_db,
            "sll_corrected_db": result.achieved_phi_db,
        })
    _write_json(out / f"{spec.name}_oracle.json", record)
    return record, result


def tradeoff_sweep(spec: ScenarioSpec, targets, out_dir) -> list[dict]:
    """
    Correction runs over a ladder of targets, loosest first.

    Emits one row per target with the correction count and the achieved
    level; infeasible targets are recorded and the sweep continues. The
    scenario is resolved once, with the first target in place of its own
    (so an explicit taper without a target_db resolves too): its taper and
    region do not depend on the target, and each run takes the same region.
    """
    targets = [float(t) for t in targets]
    if any(t1 > t0 for t0, t1 in zip(targets, targets[1:])):
        raise ValueError("targets must be sorted loosest (highest dB) first")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ["target_db", "status", "n_corrections", "achieved_sll_db", "l1"]
    rows: list[dict] = []
    if targets:
        res = resolve_scenario(replace(spec, metric={**spec.metric, "target_db": targets[0]}))
    for target in targets:
        metric = replace(res.metric, target_db=target)
        row = {**dict.fromkeys(header), "target_db": target, "status": "infeasible"}
        with suppress(InfeasibleError):
            result = minimize_corrections(res.geometry, res.weights, res.scenario, metric, res.config)
            row.update(status="ok", n_corrections=result.n_corrections,
                       achieved_sll_db=result.achieved_phi_db, l1=result.l1)
        rows.append(row)
    _write_csv(out / f"{spec.name}_sweep.csv", header, [[r[c] for c in header] for r in rows])
    return rows


def scale_failure_scenario(base_faults, base_n: int, m: int, per_seed_count: int) -> list[int]:
    """
    Grow a failure layout from an N-element array onto an (m*N)-element one.

    Each seed fault n_f expands into per_seed_count indices walking inward
    from m*n_f: downward (m*n_f - j) when the seed sits in the lower half
    of the array, upward (m*n_f + j) in the upper half, j = 0..count-1.
    The result is deduplicated and sorted.
    """
    if m < 1 or per_seed_count < 1:
        raise ValueError("m and per_seed_count must be at least 1")
    out: set[int] = set()
    for nf in base_faults:
        nf = int(nf)
        if not 1 <= nf <= base_n:
            raise ValueError(f"seed fault {nf} outside 1..{base_n}")
        if 2 * nf == base_n:
            raise ValueError(f"seed fault {nf} sits exactly at N/2; the rule is undefined there")
        sign = -1 if nf < base_n / 2 else 1
        for j in range(per_seed_count):
            idx = m * nf + sign * j
            if not 1 <= idx <= m * base_n:
                raise ValueError(f"scaled index {idx} outside 1..{m * base_n}")
            out.add(idx)
    return sorted(out)


_SUMMARY_COLUMNS = [
    "name", "status", "n_elements", "n_failed", "eta_f_pct",
    "sll_original_db", "sll_faulty_db", "sll_corrected_db",
    "bw_original_deg", "bw_faulty_deg", "bw_corrected_deg",
    "n_corrections", "eta_c_hat_pct", "elapsed_s",
]


def batch_run(spec_dir, out_dir, parallelism: int = 1) -> list[dict]:
    """
    Run every scenario file in a directory and write one summary table.

    One loop takes the files in sorted order, in the calling thread: it
    parses a file, claims its scenario name, runs it and appends its row.
    Scenario failures (parse errors, invalid fields, infeasible targets)
    become rows in the summary rather than aborting the batch; an infeasible
    row is the diagnostic record that run_scenario wrote. A file whose
    scenario name an earlier file in sorted order already claimed is an
    error row naming that file, and writes nothing.

    parallelism is checked (ValueError below 1) but does not change how the
    batch runs. Two threads were slower than one: they hand the interpreter
    lock back and forth around each of a solve's microsecond numpy calls,
    and they hold two scenarios' region steering matrices at once. A process
    pool is the planned meaning of a value above 1.
    """
    if parallelism < 1:
        raise ValueError(f"parallelism must be at least 1, got {parallelism}")
    spec_dir = Path(spec_dir)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records: list[dict] = []
    first: dict[str, Path] = {}             # the file that claimed each scenario name
    for path in sorted(spec_dir.glob("*.json")):
        try:
            spec = ScenarioSpec.from_file(path)
            owner = first.setdefault(spec.name, path)
            if owner != path:
                raise ValueError(f"scenario name {spec.name!r} is already used by {owner.name}")
            records.append(run_scenario(spec, out)[0])
        except InfeasibleError:
            # run_scenario wrote the diagnostic record before raising.
            with open(out / f"{spec.name}_result.json", "r", encoding="utf-8") as fh:
                records.append(json.load(fh))
        except Exception as err:  # parse or validation problem: keep the batch going
            records.append({"name": path.stem, "status": f"error: {err}"})
    rows = [[r.get(c) for c in _SUMMARY_COLUMNS] for r in records]
    _write_csv(out / "summary.csv", _SUMMARY_COLUMNS, rows)
    return records
