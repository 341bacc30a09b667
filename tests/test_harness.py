import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stabsearch.constraints import EncodingParams
from stabsearch.css import CssCode, check_commutation, shor_code
from stabsearch import harness
from stabsearch.erasure import exact_failure_rate, failure_rate
from stabsearch.harness import (
    DECODING_COLUMNS,
    DECODING_MIN_COLUMNS,
    DENSITY_COLUMNS,
    PIXEL_COLUMNS,
    SATISFIABLE,
    SCREEN_P,
    SCREEN_TOP,
    SCREEN_TRIALS,
    UNKNOWN_REGION,
    UNSATISFIABLE,
    CodeRecord,
    PixelResult,
    RecordValidationError,
    SweepConfig,
    best_codes,
    classify_pixel,
    code_content_id,
    find_code,
    run_decoding_benchmark,
    run_density_study,
    run_phase_sweep,
    satisfiable_records,
    sweep_pixels,
    sweep_records,
    write_csv,
)
from stabsearch.rng import RngSpec, stable_hash64
from stabsearch.solver import SAT, SolverConfig, SolverStats


def tiny_config(out_dir, workers=1, master_seed=77):
    return SweepConfig(
        qubit_counts=(6, 8),
        gamma_min=0.2,
        gamma_max=0.8,
        gamma_step=0.3,
        samples=3,
        params=EncodingParams(min_qubit_degree=1),
        time_budget=5.0,
        master_seed=master_seed,
        workers=workers,
        out_dir=str(out_dir),
    )


def run_interrupted(cfg, monkeypatch, samples):
    """Run the sweep until the sample after the first `samples` raises
    KeyboardInterrupt, as an interrupted run would."""
    real = harness._run_sample
    done = []

    def interrupted(task):
        if len(done) == samples:
            raise KeyboardInterrupt
        done.append(task)
        return real(task)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_run_sample", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_phase_sweep(cfg)


_real_run_sample = harness._run_sample


def fail_in_second_pixel(task):
    """_run_sample, except that sample 1 of tiny_config's second pixel raises.

    Module-level, so pool workers can unpickle it by name."""
    n, _, gamma, sample_idx = task[:4]
    if (n, gamma, sample_idx) == (6, 0.5, 1):
        raise ValueError("sample failed")
    return _real_run_sample(task)


# A 2-worker sweep whose first pixel is quick and whose later samples
# each sleep for a minute; argv[1] is the output directory.
SLOW_SWEEP = """
import sys, time
from stabsearch import harness
from stabsearch.constraints import EncodingParams

real = harness._run_sample

def slow(task):
    if task[0] > 6:
        time.sleep(60)
    return real(task)

harness._run_sample = slow
harness.run_phase_sweep(harness.SweepConfig(
    qubit_counts=(6, 8), gamma_min=0.5, gamma_max=0.5, gamma_step=0.1, samples=2,
    params=EncodingParams(min_qubit_degree=1), time_budget=5.0, workers=2, out_dir=sys.argv[1]))
"""


def screen_config(out_dir):
    """More than SCREEN_TOP satisfiable-phase codes per n, and one record
    from a pixel outside the satisfiable phase."""
    return dataclasses.replace(
        tiny_config(out_dir), gamma_min=0.5, gamma_max=0.9, gamma_step=0.2, samples=4
    )


class TestClassification:
    def test_unknown_when_too_few_solved(self):
        assert classify_pixel(1, 0, 9) == UNKNOWN_REGION
        assert classify_pixel(4, 4, 2) == UNKNOWN_REGION  # 8/10 solved < 90%

    def test_majority_rule(self):
        assert classify_pixel(6, 3, 1) == SATISFIABLE
        assert classify_pixel(3, 6, 1) == UNSATISFIABLE
        assert classify_pixel(5, 5, 0) == UNSATISFIABLE  # tie is not a majority

    def test_threshold_configurable(self):
        assert classify_pixel(4, 4, 2, solved_threshold=0.8) == UNSATISFIABLE
        assert classify_pixel(5, 3, 2, solved_threshold=0.8) == SATISFIABLE

    def test_empty_pixel_rejected(self):
        with pytest.raises(ValueError):
            classify_pixel(0, 0, 0)

    def test_purity(self):
        for args in [(6, 3, 1), (0, 10, 0), (9, 0, 1)]:
            assert classify_pixel(*args) == classify_pixel(*args)


class TestFindCode:
    def test_find_code_roundtrip(self):
        result, record = find_code(
            10, 9, 0.8, EncodingParams(min_qubit_degree=1),
            RngSpec(5, 1), SolverConfig(time_budget=10, seed=2),
        )
        assert result.verdict == SAT
        assert record is not None
        record.validate()
        again = CodeRecord.from_json(record.to_json())
        assert again.code == record.code
        assert again.stats == record.stats
        again.validate()

    def test_unsat_returns_no_record(self):
        result, record = find_code(
            6, 5, 0.05, EncodingParams(min_qubit_degree=2),
            RngSpec(5, 1), SolverConfig(time_budget=5),
        )
        assert result.verdict == "unsat"
        assert record is None

    def test_degree_screened_sample_is_neither_encoded_nor_solved(self, monkeypatch):
        def never(*args):
            raise AssertionError("a screened sample reached the encoder or the solver")

        monkeypatch.setattr(harness, "encode", never)
        monkeypatch.setattr(harness, "solve", never)
        result, record = find_code(6, 5, 0.05, EncodingParams(min_qubit_degree=2), RngSpec(5, 1))
        assert (result.verdict, result.assignment, record) == ("unsat", None, None)
        assert result.stats == SolverStats()

    def test_validation_detects_tampering(self):
        _, record = find_code(
            10, 9, 0.8, EncodingParams(min_qubit_degree=1),
            RngSpec(5, 1), SolverConfig(time_budget=10),
        )
        doc = json.loads(record.to_json())
        doc["stats"]["k"] += 1
        with pytest.raises(RecordValidationError):
            CodeRecord.from_json(json.dumps(doc)).validate()
        doc2 = json.loads(record.to_json())
        hx = doc2["code"]["hx"]
        i = next(i for i, row in enumerate(hx) if row != row[::-1])  # empty rows read the same reversed
        hx[i] = hx[i][::-1]
        with pytest.raises(RecordValidationError):
            CodeRecord.from_json(json.dumps(doc2)).validate()

    def test_validation_checks_the_balance_row(self):
        """A balanced find-code record with one Z row moved to the X side
        still commutes, and is rejected only for its balance row."""
        params = EncodingParams(min_qubit_degree=1, balanced=True)
        _, record = find_code(12, 10, 0.7, params, RngSpec(3, 0), SolverConfig(time_budget=60, seed=3))
        record.validate()
        code = record.code
        moves = (CssCode(code.n, code.hx + (row,), code.hz[:i] + code.hz[i + 1:]) for i, row in enumerate(code.hz))
        moved = next(c for c in moves if check_commutation(c))
        assert (len(moved.hx), len(moved.hz)) == (6, 4)
        with pytest.raises(RecordValidationError, match="balance row"):
            CodeRecord.build(moved, record.provenance).validate()
        unbalanced = {**record.provenance, "params": {**record.provenance["params"], "balanced": False}}
        CodeRecord.build(moved, unbalanced).validate()


@pytest.mark.parametrize("field, value, got", [("samples", True, "a boolean"), ("samples", 2.5, "a number"),
                                               ("workers", 1.5, "a number")])
def test_wrong_typed_config_rejected_as_its_document_is(field, value, got, tmp_path):
    message = re.escape(f"sweep config: key '{field}' must be an integer, got {got}")
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(tiny_config(tmp_path / "s"), **{field: value})
    with pytest.raises(ValueError, match=message):
        SweepConfig.from_dict(json.dumps({**tiny_config(tmp_path / "s").to_dict(), field: value}))
    assert not (tmp_path / "s").exists()


class TestSweep:
    def test_sweep_runs_and_persists(self, tmp_path):
        cfg = tiny_config(tmp_path / "s1")
        pixels = run_phase_sweep(cfg)
        assert len(pixels) == 2 * 3
        assert (tmp_path / "s1" / "pixels.csv").exists()
        assert (tmp_path / "s1" / "config.json").exists()
        for px in pixels:
            assert px.sat + px.unsat + px.unknown == cfg.samples
        # every persisted record re-validates
        for rec in sweep_records(tmp_path / "s1"):
            rec.validate()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg1 = tiny_config(tmp_path / "a")
        run_phase_sweep(cfg1)
        cfg2 = tiny_config(tmp_path / "b")
        run_phase_sweep(cfg2)
        csv_a = (tmp_path / "a" / "pixels.csv").read_bytes()
        csv_b = (tmp_path / "b" / "pixels.csv").read_bytes()
        assert csv_a == csv_b
        codes_a = sorted(p.name for p in (tmp_path / "a" / "codes").glob("*.json"))
        codes_b = sorted(p.name for p in (tmp_path / "b" / "codes").glob("*.json"))
        assert codes_a == codes_b
        for name in codes_a:
            assert (tmp_path / "a" / "codes" / name).read_bytes() == (
                tmp_path / "b" / "codes" / name
            ).read_bytes()

    def test_list_config_resumes(self, tmp_path):
        """A config given qubit counts as a list equals and hashes as its
        stored form, so a second run on it resumes to the same pixels."""
        cfg = dataclasses.replace(tiny_config(tmp_path / "s"), qubit_counts=[6, 8])
        assert cfg == tiny_config(tmp_path / "s") and cfg.qubit_counts == (6, 8)
        assert hash(cfg) == hash(tiny_config(tmp_path / "s"))
        first = run_phase_sweep(cfg)
        csv = (tmp_path / "s" / "pixels.csv").read_bytes()
        assert run_phase_sweep(cfg) == first
        assert (tmp_path / "s" / "pixels.csv").read_bytes() == csv

    def test_interrupt_and_resume_matches_uninterrupted(self, tmp_path, monkeypatch):
        cfg_full = tiny_config(tmp_path / "full")
        run_phase_sweep(cfg_full)
        cfg_int = tiny_config(tmp_path / "resumed")
        run_interrupted(cfg_int, monkeypatch, 3 * cfg_int.samples)  # in the fourth pixel
        assert len(list((tmp_path / "resumed" / "pixels").glob("*.json"))) == 3
        assert not (tmp_path / "resumed" / "pixels.csv").exists()
        run_phase_sweep(cfg_int)
        assert (tmp_path / "resumed" / "pixels.csv").read_bytes() == (
            tmp_path / "full" / "pixels.csv"
        ).read_bytes()

    def test_resume_after_a_pixel_write_fails_part_way(self, tmp_path, monkeypatch):
        run_phase_sweep(tiny_config(tmp_path / "full"))
        real_write_text = Path.write_text
        pixel_writes = []

        def crash_in_second_pixel_write(path, text, *args, **kwargs):
            if path.name.startswith("pixel_"):
                pixel_writes.append(path.name)
                if len(pixel_writes) == 2:
                    real_write_text(path, text[: len(text) // 2], *args, **kwargs)
                    raise OSError("killed during write")
            return real_write_text(path, text, *args, **kwargs)

        cfg = tiny_config(tmp_path / "crashed")
        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", crash_in_second_pixel_write)
            with pytest.raises(OSError):
                run_phase_sweep(cfg)
        assert len(pixel_writes) == 2
        run_phase_sweep(cfg)
        full, resumed = tmp_path / "full", tmp_path / "crashed"
        assert (resumed / "pixels.csv").read_bytes() == (full / "pixels.csv").read_bytes()
        names = sorted(p.name for p in (full / "codes").iterdir())
        assert names and sorted(p.name for p in (resumed / "codes").iterdir()) == names
        for name in names:
            assert (resumed / "codes" / name).read_bytes() == (full / "codes" / name).read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        run_phase_sweep(tiny_config(tmp_path / "serial", workers=1))
        run_phase_sweep(tiny_config(tmp_path / "par", workers=2))
        assert (tmp_path / "serial" / "pixels.csv").read_bytes() == (
            tmp_path / "par" / "pixels.csv"
        ).read_bytes()

    def test_resume_with_other_workers_matches_serial(self, tmp_path, monkeypatch):
        serial = tmp_path / "serial"
        run_phase_sweep(tiny_config(serial, workers=1))
        resumed = tmp_path / "resumed"
        cfg = tiny_config(resumed, workers=1)
        run_interrupted(cfg, monkeypatch, 3 * cfg.samples)  # in the fourth pixel
        stored = (resumed / "config.json").read_bytes()
        run_phase_sweep(tiny_config(resumed, workers=2))
        assert (resumed / "config.json").read_bytes() == stored  # the first run's workers
        files = sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())
        assert any(rel.parts[0] == "codes" for rel in files)
        assert sorted(p.relative_to(resumed) for p in resumed.rglob("*") if p.is_file()) == files
        for rel in files:
            assert (resumed / rel).read_bytes() == (serial / rel).read_bytes(), rel

    def test_pooled_sample_error_propagates_and_leaves_whole_files(self, tmp_path, monkeypatch):
        serial = tmp_path / "serial"
        run_phase_sweep(tiny_config(serial, workers=1))
        failed = tmp_path / "failed"
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_run_sample", fail_in_second_pixel)  # before the pool forks
            with pytest.raises(ValueError, match="sample failed"):
                run_phase_sweep(tiny_config(failed, workers=2))
        assert not (failed / "pixels.csv").exists()
        assert not list(failed.rglob("*.tmp"))
        assert [p.name for p in (failed / "pixels").iterdir()] == ["pixel_n6_g000.json"]

        def files_as_serial():
            files = sorted(p.relative_to(failed) for p in failed.rglob("*") if p.is_file())
            for rel in files:
                if rel.name != "config.json":  # which records the first run's workers
                    assert (failed / rel).read_bytes() == (serial / rel).read_bytes(), rel
            return files

        files_as_serial()  # the error left whole pixel and record files only
        run_phase_sweep(tiny_config(failed, workers=2))
        assert files_as_serial() == sorted(p.relative_to(serial) for p in serial.rglob("*") if p.is_file())

    def test_pooled_sweep_stops_on_sigint(self, tmp_path):
        out = tmp_path / "sweep"
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-c", SLOW_SWEEP, str(out)], env=env,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while not list(out.glob("pixels/pixel_*.json")):
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "no pixel was written"
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)  # Ctrl-C reaches the whole process group
            try:
                _, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                pytest.fail("the sweep was still running 60 s after SIGINT")
            assert proc.returncode == -signal.SIGINT and "KeyboardInterrupt" in err, err
            assert not list(out.rglob("*.tmp"))
            assert not (out / "pixels.csv").exists()
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10)

    def test_config_mismatch_detected(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path / "x")
        run_interrupted(cfg, monkeypatch, cfg.samples)
        other = tiny_config(tmp_path / "x", master_seed=78)
        with pytest.raises(ValueError):
            run_phase_sweep(other)

    @pytest.mark.parametrize("field,value", [
        ("workers", 0), ("workers", -3),
        ("qubit_counts", (6, 0)), ("qubit_counts", (-4,)),
        ("ratio", 0.0), ("ratio", -1.0), ("ratio", float("inf")), ("ratio", float("nan")),
        ("solved_threshold", 0.0), ("solved_threshold", 7.0), ("solved_threshold", float("nan")),
        ("gamma_min", -0.1), ("gamma_max", 1.2), ("gamma_max", float("nan")),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(tiny_config("unused"), **{field: value})

    def test_gamma_grid_construction(self):
        cfg = tiny_config("unused")
        assert cfg.gammas() == (0.2, 0.5, 0.8)
        cfg2 = SweepConfig(
            qubit_counts=(4,), gamma_min=0.05, gamma_max=0.95, gamma_step=0.05,
            out_dir="unused",
        )
        gs = cfg2.gammas()
        assert len(gs) == 19
        assert gs[0] == 0.05 and gs[-1] == 0.95

    def test_complete_graph_pixels_satisfiable(self, tmp_path):
        # at gamma = 1 the support graph is complete bipartite and
        # degree-constrained instances stay satisfiable
        cfg = SweepConfig(
            qubit_counts=(11, 12),
            gamma_min=1.0,
            gamma_max=1.0,
            gamma_step=0.1,
            samples=2,
            params=EncodingParams(min_qubit_degree=3),
            time_budget=30.0,
            master_seed=5,
            out_dir=str(tmp_path / "complete"),
        )
        pixels = run_phase_sweep(cfg)
        assert all(px.classification == SATISFIABLE for px in pixels)
        assert all(px.sat == 2 for px in pixels)

    def test_sweep_pixels_reload(self, tmp_path):
        cfg = tiny_config(tmp_path / "s2")
        pixels = run_phase_sweep(cfg)
        reloaded = sweep_pixels(tmp_path / "s2")
        assert reloaded == sorted(pixels, key=lambda p: (p.n, p.gamma))


class TestBestCodes:
    def test_satisfiable_records_follow_pixel_classification(self, tmp_path):
        run_phase_sweep(screen_config(tmp_path))
        sat_pixels = {
            (p.n, p.gamma) for p in sweep_pixels(tmp_path) if p.classification == SATISFIABLE
        }
        kept = satisfiable_records(tmp_path)
        kept_ids = {r.code_id for r in kept}
        dropped = [r for r in sweep_records(tmp_path) if r.code_id not in kept_ids]
        assert kept and dropped
        assert all((r.provenance["n"], r.provenance["gamma"]) in sat_pixels for r in kept)
        assert all((r.provenance["n"], r.provenance["gamma"]) not in sat_pixels for r in dropped)

    def test_best_codes_are_the_screened_best_per_n(self, tmp_path, monkeypatch):
        run_phase_sweep(screen_config(tmp_path))
        records = satisfiable_records(tmp_path)

        def screen(r):
            rng = RngSpec(77, stable_hash64("screen", r.code_id))
            return failure_rate(r.code, SCREEN_P, SCREEN_TRIALS, rng).failure_rate

        assert any(r.stats.rate < 0.4 for r in records)
        for min_rate in (0.1, 0.4):  # the second one screens some codes out
            monkeypatch.setattr(harness, "SCREEN_MIN_RATE", min_rate)
            best = best_codes(records, 77)
            ns = [r.stats.n for r in best]
            assert ns == sorted(ns) and set(ns) == {6, 8}
            for n in set(ns):
                chosen = [r for r in best if r.stats.n == n]
                chosen_ids = {r.code_id for r in chosen}
                candidates = [r for r in records if r.stats.n == n and r.stats.rate >= min_rate]
                assert len(chosen) == min(SCREEN_TOP, len(candidates))
                assert chosen_ids <= {r.code_id for r in candidates}
                scores = [screen(r) for r in chosen]
                assert scores == sorted(scores)
                rest = [screen(r) for r in candidates if r.code_id not in chosen_ids]
                assert all(s >= scores[-1] for s in rest)


class TestDensityStudy:
    def test_single_record(self):
        _, record = find_code(
            10, 9, 0.8, EncodingParams(min_qubit_degree=1),
            RngSpec(5, 1), SolverConfig(time_budget=10),
        )
        rows = run_density_study([record])
        assert len(rows) == 1
        assert rows[0]["mean_density"] == pytest.approx(record.stats.density)
        assert rows[0]["min_sat_gamma"] == 0.8

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            run_density_study([])

    def test_positive_density_under_degree_bound(self):
        # a min qubit degree forces active edges, so density cannot be zero
        _, record = find_code(
            8, 7, 0.9, EncodingParams(min_qubit_degree=1),
            RngSpec(6, 2), SolverConfig(time_budget=10),
        )
        assert record.stats.density > 0

    def test_csv_output(self, tmp_path):
        _, record = find_code(
            10, 9, 0.8, EncodingParams(min_qubit_degree=1),
            RngSpec(5, 1), SolverConfig(time_budget=10),
        )
        write_csv(tmp_path / "d.csv", DENSITY_COLUMNS, run_density_study([record]))
        text = (tmp_path / "d.csv").read_text()
        assert text.startswith("# format_version: 1\n")
        assert "n,mean_density,min_sat_gamma,num_codes" in text


class TestDecodingBenchmark:
    def shor_record(self):
        return CodeRecord.build(shor_code(), provenance={"params": {}, "gamma": 0.5, "n": 9})

    def test_zero_p_grid_gives_zero_failures(self):
        rows, minima = run_decoding_benchmark([self.shor_record()], [0.0], 200, RngSpec(3))
        assert all(r["failure_rate"] == 0.0 for r in rows)
        assert minima[0]["min_failure_rate"] == 0.0

    def test_shor_grid_matches_exact_enumeration(self):
        code = shor_code()
        rows, _ = run_decoding_benchmark(
            [self.shor_record()], [0.1, 0.5, 0.9], 4000, RngSpec(0)
        )
        for row in rows:
            truth = exact_failure_rate(code, row["p"])
            assert abs(row["failure_rate"] - truth) <= row["ci95"] + 1e-12

    def test_csv_schema(self, tmp_path):
        rows, _ = run_decoding_benchmark([self.shor_record()], [0.3], 100, RngSpec(1))
        write_csv(tmp_path / "dec.csv", DECODING_COLUMNS, rows)
        lines = (tmp_path / "dec.csv").read_text().splitlines()
        assert lines[0] == "# format_version: 1"
        assert lines[1] == "code_id,n,k,p,trials,failures,failure_rate,ci95"
        assert len(lines) == 3

    def test_content_id_stable(self):
        assert code_content_id(shor_code()) == code_content_id(shor_code())


def test_csv_tables_keep_their_bytes(tmp_path):
    # the bytes every table had before one writer served all four
    g = 0.1 + 0.2
    tables = [
        (PIXEL_COLUMNS, [dataclasses.asdict(PixelResult(6, 5, g, 0, 2, 2, "unknown")),
                         dataclasses.asdict(PixelResult(8, 7, 0.7, 3, 1, 0, "satisfiable"))],
         "n,m,gamma,sat,unsat,unknown,classification\n"
         "6,5,0.30000000000000004,0,2,2,unknown\n8,7,0.7,3,1,0,satisfiable\n"),
        (PIXEL_COLUMNS, [], "n,m,gamma,sat,unsat,unknown,classification\n"),
        (DENSITY_COLUMNS, [{"n": 6, "mean_density": 1 / 3, "min_sat_gamma": g, "num_codes": 7}],
         "n,mean_density,min_sat_gamma,num_codes\n6,0.3333333333333333,0.30000000000000004,7\n"),
        (DECODING_COLUMNS,
         [{"code_id": "3ba5759c848af02b", "n": 6, "k": 2, "p": g, "trials": 300,
           "failures": 95.75, "failure_rate": 95.75 / 300, "ci95": 0.037869}],
         "code_id,n,k,p,trials,failures,failure_rate,ci95\n"
         "3ba5759c848af02b,6,2,0.30000000000000004,300,95.75,0.31916666666666665,0.037869\n"),
        (DECODING_MIN_COLUMNS,
         [{"n": 6, "p": g, "min_failure_rate": 95.75 / 300, "code_id": "3ba5759c848af02b"}],
         "n,p,min_failure_rate,code_id\n6,0.30000000000000004,0.31916666666666665,3ba5759c848af02b\n"),
    ]
    for columns, rows, body in tables:
        write_csv(tmp_path / "t.csv", columns, rows)
        assert (tmp_path / "t.csv").read_text() == "# format_version: 1\n" + body
