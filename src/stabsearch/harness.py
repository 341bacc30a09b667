"""Experiment orchestration: phase sweeps, density study, decoding benchmark.

A sweep walks a (qubit count, edge probability) grid, samples support
graphs, encodes, solves within a budget, and classifies each pixel from
the per-sample verdicts.  Every satisfiable sample is persisted as a
content-addressed CodeRecord.  Completed pixels are written to disk
immediately, so interrupted sweeps resume exactly where they stopped
and reruns reproduce byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from itertools import islice
from pathlib import Path

from .constraints import EncodingParams, degree_obstruction, encode, gc_paused
from .css import CssCode, CodeStats, check_commutation, extract_code
from .css import satisfies_degree_bounds, stats as code_stats
from .documents import check_fields, fields_shape, in_file, read_document
from .erasure import failure_rate
from .graphs import sample_support_graph
from .rng import RngSpec, stable_hash64
from .solver import SAT, UNSAT, SolveResult, SolverConfig, SolverStats, solve

PIXEL_FORMAT_VERSION = 1
RECORD_FORMAT_VERSION = 1
CSV_FORMAT_LINE = "# format_version: 1"

# the columns of each CSV table, in order
PIXEL_COLUMNS = ("n", "m", "gamma", "sat", "unsat", "unknown", "classification")
DENSITY_COLUMNS = ("n", "mean_density", "min_sat_gamma", "num_codes")
DECODING_COLUMNS = ("code_id", "n", "k", "p", "trials", "failures", "failure_rate", "ci95")
DECODING_MIN_COLUMNS = ("n", "p", "min_failure_rate", "code_id")

SATISFIABLE = "satisfiable"
UNSATISFIABLE = "unsatisfiable"
UNKNOWN_REGION = "unknown"

# best_codes: the screen that picks the codes a decoding study benchmarks
SCREEN_P = 0.35
SCREEN_TRIALS = 600
SCREEN_TOP = 3
SCREEN_MIN_RATE = 0.1


class RecordValidationError(ValueError):
    """A persisted code record fails re-validation."""


def classify_pixel(sat: int, unsat: int, unknown: int, solved_threshold: float = 0.9) -> str:
    """Pixel classification rule.

    Unknown when fewer than solved_threshold of the samples were
    decided; otherwise satisfiable iff strictly more sat than unsat.
    """
    samples = sat + unsat + unknown
    if samples == 0:
        raise ValueError("empty pixel")
    if (sat + unsat) / samples < solved_threshold:
        return UNKNOWN_REGION
    return SATISFIABLE if sat > unsat else UNSATISFIABLE


@dataclass(frozen=True)
class PixelResult:
    n: int
    m: int
    gamma: float
    sat: int
    unsat: int
    unknown: int
    classification: str

    @property
    def samples(self) -> int:
        return self.sat + self.unsat + self.unknown

    @property
    def sat_fraction(self) -> float:
        return self.sat / self.samples


@dataclass(frozen=True)
class SweepConfig:
    qubit_counts: tuple[int, ...]
    gamma_min: float
    gamma_max: float
    gamma_step: float
    samples: int = 10
    ratio: float = 0.9
    params: EncodingParams = field(default_factory=EncodingParams)
    time_budget: float = 60.0
    master_seed: int = 0
    workers: int = 1
    solved_threshold: float = 0.9
    out_dir: str = "sweep_out"

    def __post_init__(self):
        object.__setattr__(self, "qubit_counts", tuple(self.qubit_counts))
        check_fields("sweep config", self)
        if not self.qubit_counts or not all(type(n) is int and n >= 1 for n in self.qubit_counts):
            raise ValueError(f"qubit_counts must be non-empty integers >= 1, got {self.qubit_counts!r}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples!r}")
        if not (0.0 <= self.gamma_min <= self.gamma_max <= 1.0):
            raise ValueError(f"gamma_min and gamma_max must satisfy 0 <= gamma_min <= gamma_max <= 1, "
                             f"got {self.gamma_min!r} and {self.gamma_max!r}")
        if not (0.0 < self.gamma_step < math.inf):
            raise ValueError(f"gamma_step must be positive and finite, got {self.gamma_step!r}")
        if not (0.0 < self.ratio < math.inf):
            raise ValueError(f"ratio must be positive and finite, got {self.ratio!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if not (0.0 < self.solved_threshold <= 1.0):
            raise ValueError(f"solved_threshold must lie in (0, 1], got {self.solved_threshold!r}")
        SolverConfig(time_budget=self.time_budget)  # raises on a budget no solve accepts

    def gammas(self) -> tuple[float, ...]:
        count = int(math.floor((self.gamma_max - self.gamma_min) / self.gamma_step + 1e-9)) + 1
        return tuple(round(self.gamma_min + i * self.gamma_step, 9) for i in range(count))

    def m_for(self, n: int) -> int:
        return max(1, round(self.ratio * n))

    def to_dict(self) -> dict:
        doc = asdict(self)
        del doc["out_dir"]
        return {"format_version": 1, **doc}

    @classmethod
    def from_dict(cls, doc: str | dict) -> "SweepConfig":
        """Config from a JSON object or its text, checked by documents.read_document."""
        doc = read_document("sweep config", doc, *fields_shape(cls))
        doc["params"] = EncodingParams.from_dict(doc.get("params", {}))
        return cls(**doc)


@dataclass(frozen=True)
class CodeRecord:
    """A discovered code with its statistics and full provenance."""

    code_id: str
    code: CssCode
    stats: CodeStats
    provenance: dict

    @classmethod
    def build(cls, code: CssCode, provenance: dict) -> "CodeRecord":
        return cls(
            code_id=code_content_id(code),
            code=code,
            stats=code_stats(code),
            provenance=provenance,
        )

    def to_json(self) -> str:
        doc = {
            "format_version": RECORD_FORMAT_VERSION,
            "code_id": self.code_id,
            "code": json.loads(self.code.to_json()),
            "stats": self.stats.to_dict(),
            "provenance": self.provenance,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, source: str | dict) -> "CodeRecord":
        doc = read_document("code record", source, *fields_shape(cls), RECORD_FORMAT_VERSION)
        code, stats_ = CssCode.from_json(doc["code"]), CodeStats.from_dict(doc["stats"])
        return cls(doc["code_id"], code, stats_, doc["provenance"])

    def validate(self) -> None:
        """Re-verify commutation, stored stats, id, degree bounds and balance row."""
        if self.code_id != code_content_id(self.code):
            raise RecordValidationError("code_id does not match code content")
        if not check_commutation(self.code):
            raise RecordValidationError("stored code violates commutation")
        fresh = code_stats(self.code)
        if fresh != self.stats:
            raise RecordValidationError("stored stats do not match recomputed stats")
        params = EncodingParams.from_dict(self.provenance.get("params", {}))
        if not satisfies_degree_bounds(self.code, params):
            raise RecordValidationError("stored code violates its encoded degree bounds or balance row")


def code_content_id(code: CssCode) -> str:
    return hashlib.sha256(code.to_json().encode("utf-8")).hexdigest()[:16]


@gc_paused
def find_code(
    n: int,
    m: int,
    gamma: float,
    params: EncodingParams,
    rng: RngSpec,
    solver_cfg: SolverConfig | None = None,
):
    """Sample one graph, encode, solve; return (result, record or None).

    A graph where some vertex has too few candidate edges for params' degree
    minima (constraints.degree_obstruction) is unsat without an encode or a
    search, and its result counts no work.
    """
    solver_cfg = solver_cfg or SolverConfig()
    graph = sample_support_graph(n, m, gamma, rng)
    if degree_obstruction(graph, params) is not None:
        return SolveResult(UNSAT, None, SolverStats()), None
    cs = encode(graph, params)
    result = solve(cs, solver_cfg)
    record = None
    if result.verdict == SAT:
        code = extract_code(graph, result.assignment)
        record = CodeRecord.build(
            code,
            provenance={
                "n": n,
                "m": m,
                "gamma": gamma,
                "master_seed": rng.master_seed,
                "stream_id": rng.stream_id,
                "params": params.to_dict(),
                "solver": result.stats.to_dict(),
                "verdict": result.verdict,
            },
        )
    return result, record


def solve_sample(task: tuple) -> tuple[SolveResult, CodeRecord | None]:
    """find_code on one sweep task, (n, m, gamma, sample_idx, master_seed, params,
    time_budget), with the graph stream and solver seed a sweep gives that sample."""
    n, m, gamma, sample_idx, master_seed, params, time_budget = task
    rng = RngSpec(master_seed, stable_hash64(n, gamma, sample_idx))
    solver_cfg = SolverConfig(
        time_budget=time_budget,
        seed=stable_hash64("solver", n, gamma, sample_idx, master_seed) & 0x7FFFFFFF,
    )
    return find_code(n, m, gamma, params, rng, solver_cfg)


def sweep_tasks(cfg: SweepConfig, pixels) -> list[tuple]:
    """solve_sample's task for every sample of each (n, gamma) in pixels, in sweep order."""
    return [(n, cfg.m_for(n), gamma, si, cfg.master_seed, cfg.params, cfg.time_budget)
            for n, gamma in pixels for si in range(cfg.samples)]


@contextmanager
def sample_map(workers: int):
    """An ordered map: map itself for one worker, else the imap of a pool whose workers
    ignore Ctrl-C, so only this process raises it.  Leaving the block terminates the pool."""
    if workers == 1:
        yield map
        return
    from multiprocessing import Pool  # loaded only for a pool

    with Pool(workers, signal.signal, (signal.SIGINT, signal.SIG_IGN)) as pool:
        yield pool.imap


def _run_sample(task: tuple) -> tuple[str, CodeRecord | None]:
    """One (pixel, sample) unit of sweep work; module-level for pickling."""
    result, record = solve_sample(task)
    return result.verdict, record


def _write_atomic(path: Path, text: str) -> None:
    """Write text to path so that readers see the old file or the whole new one.

    A sweep treats every existing pixel or record file as done, so a
    write cut short must never leave a truncated file under its name.
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _pixel_path(out: Path, n: int, gamma_index: int) -> Path:
    return out / "pixels" / f"pixel_n{n}_g{gamma_index:03d}.json"


def _read_pixel(path: Path) -> PixelResult:
    """A pixel file: the PixelResult fields plus its verdicts and record ids."""
    shape = {**fields_shape(PixelResult)[0], "verdicts": (list,), "records": (list,)}
    with in_file(path):
        doc = read_document("pixel", path.read_text(), shape, version=PIXEL_FORMAT_VERSION)
    del doc["verdicts"], doc["records"]
    return PixelResult(**doc)


def _write_pixel(cfg: SweepConfig, path: Path, n: int, gamma: float, outcomes) -> PixelResult:
    """Persist one pixel's new code records, then its pixel file; return its result."""
    verdicts = [verdict for verdict, _ in outcomes]
    records = [record for _, record in outcomes if record is not None]
    for record in records:
        rec_path = Path(cfg.out_dir) / "codes" / f"{record.code_id}.json"
        if not rec_path.exists():
            _write_atomic(rec_path, record.to_json())
    sat, unsat = verdicts.count("sat"), verdicts.count("unsat")
    unknown = cfg.samples - sat - unsat
    classification = classify_pixel(sat, unsat, unknown, cfg.solved_threshold)
    pixel = PixelResult(n, cfg.m_for(n), gamma, sat, unsat, unknown, classification)
    doc = {"format_version": PIXEL_FORMAT_VERSION, **asdict(pixel)}
    doc.update(verdicts=verdicts, records=[record.code_id for record in records])
    _write_atomic(path, json.dumps(doc, sort_keys=True))
    return pixel


def run_phase_sweep(cfg: SweepConfig) -> list[PixelResult]:
    """Run (or resume) a sweep; returns pixel results in grid order.

    Every sample of every pixel without a file goes through one ordered
    map (``Pool.imap`` when workers > 1).  A pixel's file and its new
    records are written as soon as its samples arrive.  An error or
    Ctrl-C terminates the workers and leaves only whole files, so
    a later call on the same config resumes under any workers
    (config.json keeps the first run's).  pixels.csv comes last.
    """
    out = Path(cfg.out_dir)
    (out / "pixels").mkdir(parents=True, exist_ok=True)
    (out / "codes").mkdir(parents=True, exist_ok=True)

    config_path = out / "config.json"
    if config_path.exists():
        with in_file(config_path):
            stored = SweepConfig.from_dict(config_path.read_text())
        if replace(stored, out_dir=cfg.out_dir, workers=cfg.workers) != cfg:
            raise ValueError(f"output directory {out} holds a sweep with a different config")
    else:
        _write_atomic(config_path, json.dumps(cfg.to_dict(), sort_keys=True))

    grid = [(_pixel_path(out, n, gi), n, gamma)
            for n in cfg.qubit_counts for gi, gamma in enumerate(cfg.gammas())]
    pixels = {path: _read_pixel(path) for path, _, _ in grid if path.exists()}
    pending = {path: (n, gamma) for path, n, gamma in grid if path not in pixels}
    with sample_map(cfg.workers) as run:
        outcomes = run(_run_sample, sweep_tasks(cfg, pending.values()))
        for path, (n, gamma) in pending.items():
            pixels[path] = _write_pixel(cfg, path, n, gamma, list(islice(outcomes, cfg.samples)))

    results = [pixels[path] for path, _, _ in grid]
    rows = [asdict(px) for px in sorted(results, key=lambda p: (p.n, p.gamma))]
    write_csv(out / "pixels.csv", PIXEL_COLUMNS, rows)
    return results


def sweep_records(out_dir: str | Path) -> list[CodeRecord]:
    """Load and re-validate every CodeRecord a sweep produced, sorted by id."""
    out = Path(out_dir)
    records = []
    for path in sorted((out / "codes").glob("*.json")):
        with in_file(path):
            rec = CodeRecord.from_json(path.read_text())
            rec.validate()
        records.append(rec)
    return records


def sweep_pixels(out_dir: str | Path) -> list[PixelResult]:
    pixels = [_read_pixel(p) for p in sorted((Path(out_dir) / "pixels").glob("pixel_*.json"))]
    return sorted(pixels, key=lambda p: (p.n, p.gamma))


def satisfiable_records(out_dir: str | Path) -> list[CodeRecord]:
    """The sweep's records whose (n, gamma) pixel is classified satisfiable."""
    sat_pixels = {(p.n, p.gamma) for p in sweep_pixels(out_dir) if p.classification == SATISFIABLE}
    return [
        r
        for r in sweep_records(out_dir)
        if (r.provenance["n"], r.provenance["gamma"]) in sat_pixels
    ]


def best_codes(records: list[CodeRecord], master_seed: int) -> list[CodeRecord]:
    """Per n, ascending: the SCREEN_TOP codes of rate >= SCREEN_MIN_RATE
    with the lowest screened failure rate at p = SCREEN_P.

    Each code is screened with SCREEN_TRIALS exact-estimator trials on
    its own stream, so the choice does not depend on the other records.
    """
    best = []
    for n in sorted({r.stats.n for r in records}):
        candidates = [r for r in records if r.stats.n == n and r.stats.rate >= SCREEN_MIN_RATE]
        candidates.sort(
            key=lambda r: failure_rate(
                r.code, SCREEN_P, SCREEN_TRIALS,
                RngSpec(master_seed, stable_hash64("screen", r.code_id)),
            ).failure_rate
        )
        best.extend(candidates[:SCREEN_TOP])
    return best


def write_csv(path: str | Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    """Write the format line, the header and each row's values in column
    order.  str of a float is its repr, so every float round-trips."""
    lines = [",".join(str(row[c]) for c in columns) for row in rows]
    _write_atomic(Path(path), "\n".join([CSV_FORMAT_LINE, ",".join(columns), *lines]) + "\n")


def run_density_study(records: list[CodeRecord]) -> list[dict]:
    """Per qubit count: mean code density and the minimum gamma seen.

    Callers pass records from the satisfiable phase; the minimum gamma
    is then the smallest edge probability at which codes were found.
    """
    if not records:
        raise ValueError("no records to aggregate")
    by_n: dict[int, list[CodeRecord]] = {}
    for rec in records:
        by_n.setdefault(rec.stats.n, []).append(rec)
    rows = []
    for n in sorted(by_n):
        recs = by_n[n]
        rows.append(
            {
                "n": n,
                "mean_density": sum(r.stats.density for r in recs) / len(recs),
                "min_sat_gamma": min(r.provenance["gamma"] for r in recs),
                "num_codes": len(recs),
            }
        )
    return rows


def run_decoding_benchmark(
    records: list[CodeRecord],
    p_grid: list[float],
    trials: int,
    rng: RngSpec,
) -> tuple[list[dict], list[dict]]:
    """Exact-estimator failure reports per (code, p), plus the per-(n, p) minima.

    Callers pass records they have validated where they read them
    (sweep_records does); failure_rate still refuses a code whose
    checks do not commute.
    """
    rows = []
    for rec in sorted(records, key=lambda r: (r.stats.n, r.code_id)):
        for p in p_grid:
            rep = failure_rate(rec.code, p, trials, rng.substream("decode", rec.code_id, p))
            rows.append(
                {
                    "code_id": rec.code_id,
                    "n": rec.stats.n,
                    "k": rec.stats.k,
                    "p": p,
                    "trials": rep.trials,
                    "failures": rep.failures,
                    "failure_rate": rep.failure_rate,
                    "ci95": rep.ci95,
                }
            )
    minima = []
    for (n, p) in sorted({(r["n"], r["p"]) for r in rows}):
        best = min(
            (r for r in rows if r["n"] == n and r["p"] == p),
            key=lambda r: (r["failure_rate"], r["code_id"]),
        )
        minima.append(
            {"n": n, "p": p, "min_failure_rate": best["failure_rate"], "code_id": best["code_id"]}
        )
    return rows, minima
