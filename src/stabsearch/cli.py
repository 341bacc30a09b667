"""Command line interface.

Exit codes: 0 success, 2 usage errors (argparse), 3 a file could not be
read or written (OSError), 4 a document or argument is malformed or
inconsistent (ValueError, KeyError, TypeError): JSON syntax errors,
out-of-range values such as ``--budget 0`` or ``--budget inf`` and
documents that break the rules of ``documents.read_document`` (the
message names the document kind and the key) are all 4.  Ctrl-C
(KeyboardInterrupt) is 130, with one line and no traceback.  ``main`` is
the only place that maps errors to exit codes; any other exception is a
program fault and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from .constraints import ConstraintSystem, EncodingParams, constraint_census, encode, gc_paused
from .cnf import export_cnf
from .css import CssCode
from .documents import in_file
from .graphs import SupportGraph, sample_support_graph
from .harness import (
    DECODING_COLUMNS,
    DECODING_MIN_COLUMNS,
    DENSITY_COLUMNS,
    SATISFIABLE,
    SCREEN_MIN_RATE,
    CodeRecord,
    SweepConfig,
    best_codes,
    find_code,
    run_decoding_benchmark,
    run_density_study,
    run_phase_sweep,
    satisfiable_records,
    write_csv,
)
from .rng import RngSpec
from .solver import SolverConfig, solve

EXIT_OK = 0
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a job stopped by Ctrl-C


def _params_from_args(args) -> EncodingParams:
    return EncodingParams(
        min_qubit_degree=args.delta_q,
        min_stab_degree=args.delta_s,
        max_stab_degree=args.delta_s_max,
        balanced=args.balance,
    )


def _add_param_args(p: argparse.ArgumentParser):
    p.add_argument("--delta-q", type=int, default=0, help="min active X and Z edges per qubit")
    p.add_argument("--delta-s", type=int, default=0, help="min active edges per stabilizer")
    p.add_argument("--delta-s-max", type=int, default=None, help="max active edges per stabilizer")
    p.add_argument("--balance", action="store_true", help="force floor(m/2) X-type stabilizers")


@gc_paused
def _cmd_sample(args) -> int:
    g = sample_support_graph(args.n, args.m, args.gamma, RngSpec(args.seed, args.stream))
    Path(args.out).write_text(g.to_json() + "\n")
    print(f"sampled graph n={g.n} m={g.m} gamma={g.gamma} edges={len(g.edges)} -> {args.out}")
    return EXIT_OK


@gc_paused
def _cmd_encode(args) -> int:
    params = _params_from_args(args)
    cs = encode(SupportGraph.from_json(Path(args.graph).read_text()), params)
    Path(args.out).write_text(cs.to_json() + "\n")
    census = constraint_census(cs)
    print(
        f"encoded {cs.num_vars} variables, {len(cs.constraints)} constraints "
        f"(or={census.or_count} xor={census.xor_count} linear={census.linear_count}) -> {args.out}"
    )
    return EXIT_OK


@gc_paused
def _cmd_solve(args) -> int:
    cs = ConstraintSystem.from_json(Path(args.system).read_text())
    result = solve(cs, SolverConfig(time_budget=args.budget, seed=args.solver_seed))
    doc = {"verdict": result.verdict, "stats": result.stats.to_dict()}
    if result.assignment is not None:
        doc["assignment"] = list(result.assignment)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, sort_keys=True) + "\n")
    print(f"verdict: {result.verdict} ({result.stats.conflicts} conflicts, "
          f"{result.stats.propagations} propagations)")
    return EXIT_OK


@gc_paused
def _cmd_find_code(args) -> int:
    params = _params_from_args(args)
    result, record = find_code(
        args.n,
        args.m,
        args.gamma,
        params,
        RngSpec(args.seed, args.stream),
        SolverConfig(time_budget=args.budget, seed=args.seed & 0x7FFFFFFF),
    )
    if record is None:
        print(f"verdict: {result.verdict}, no code found")
        return EXIT_OK
    Path(args.out).write_text(record.to_json() + "\n")
    s = record.stats
    print(f"found code {record.code_id}: n={s.n} k={s.k} rate={s.rate:.4f} "
          f"density={s.density:.4f} mean_stab_degree={s.mean_stab_degree:.2f} -> {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = SweepConfig.from_dict(Path(args.config).read_text())
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    pixels = run_phase_sweep(cfg)
    sat = sum(1 for p in pixels if p.classification == SATISFIABLE)
    print(f"sweep complete: {len(pixels)} pixels ({sat} satisfiable) -> {cfg.out_dir}")
    return EXIT_OK


def _load_satisfiable(sweep: str) -> list[CodeRecord]:
    """The validated satisfiable-phase records of a sweep directory; never empty."""
    if not (Path(sweep) / "pixels").is_dir():
        raise FileNotFoundError(f"{sweep} holds no pixels/ directory")
    records = satisfiable_records(sweep)
    if not records:
        raise ValueError(f"no code in the satisfiable phase of {sweep}")
    return records


def _cmd_density(args) -> int:
    rows = run_density_study(_load_satisfiable(args.sweep))
    write_csv(args.out, DENSITY_COLUMNS, rows)
    for r in rows:
        print(f"n={r['n']}: mean_density={r['mean_density']:.4f} "
              f"min_sat_gamma={r['min_sat_gamma']} codes={r['num_codes']}")
    return EXIT_OK


def _load_code_or_record(path: str) -> CodeRecord:
    with in_file(path):  # a CSS code or a code record: the path names it
        doc = json.loads(Path(path).read_text())
        if isinstance(doc, dict) and "code" in doc:
            record = CodeRecord.from_json(doc)
            record.validate()
            return record
        code = CssCode.from_json(doc)
    return CodeRecord.build(code, provenance={"params": {}, "source": path})


def _grid_value(grid: str, tok: str) -> float:
    """One erasure probability of --grid: a number in [0, 1]."""
    try:
        if 0.0 <= float(tok) <= 1.0:
            return float(tok)
    except ValueError:
        pass
    raise ValueError(f"--grid {grid!r}: {tok!r} is not a probability in [0, 1]")


def _cmd_decode(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    p_grid = [_grid_value(args.grid, tok) for tok in args.grid.split(",") if tok]
    if not p_grid:
        raise ValueError(f"--grid {args.grid!r} holds no erasure probability")
    if args.sweep:
        records = best_codes(_load_satisfiable(args.sweep), args.seed)
        if not records:
            raise ValueError(
                f"no satisfiable-phase code of rate >= {SCREEN_MIN_RATE} in {args.sweep}"
            )
    else:
        records = [_load_code_or_record(args.code)]
    rows, minima = run_decoding_benchmark(records, p_grid, args.trials, RngSpec(args.seed))
    if args.out:
        write_csv(args.out, DECODING_COLUMNS, rows)
    if args.min_out:
        write_csv(args.min_out, DECODING_MIN_COLUMNS, minima)
    for r in rows:
        print(f"{r['code_id']} n={r['n']} p={r['p']}: failure_rate={r['failure_rate']:.6f} "
              f"+/- {r['ci95']:.6f} ({r['trials']} trials)")
    return EXIT_OK


@gc_paused
def _cmd_export_cnf(args) -> int:
    export = export_cnf(ConstraintSystem.from_json(Path(args.system).read_text()))
    Path(args.out).write_text(export.text)
    print(f"exported {export.num_vars} variables, {export.num_clauses} clauses -> {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabsearch",
        description="Search for sparse CSS stabilizer codes on random bipartite support graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a random support graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--out", default="graph.json")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("encode", help="encode a graph into a constraint system")
    p.add_argument("--graph", required=True)
    _add_param_args(p)
    p.add_argument("--out", default="system.json")
    p.set_defaults(fn=_cmd_encode)

    p = sub.add_parser("solve", help="solve an encoded constraint system")
    p.add_argument("--system", required=True)
    p.add_argument("--budget", type=float, default=60.0)
    p.add_argument("--solver-seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("find-code", help="sample, encode, solve and extract a code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    _add_param_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--budget", type=float, default=60.0)
    p.add_argument("--out", default="code_record.json")
    p.set_defaults(fn=_cmd_find_code)

    p = sub.add_parser("sweep", help="run a satisfiability phase sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("density", help="aggregate code densities from a sweep directory")
    p.add_argument("--sweep", required=True)
    p.add_argument("--out", default="density.csv")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("decode", help="erasure failure rates for a code or a sweep's best codes")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--code", help="a code or code record document")
    source.add_argument(
        "--sweep",
        help="a sweep directory: decode its best satisfiable-phase codes per n, "
        "screened on --seed",
    )
    p.add_argument("--grid", default="0.5",
                   help="comma-separated erasure probabilities (default: %(default)s)")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--min-out", default=None)
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("export-cnf", help="export a system as DIMACS CNF")
    p.add_argument("--system", required=True)
    p.add_argument("--out", default="system.cnf")
    p.set_defaults(fn=_cmd_export_cnf)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads its arguments with, built once per process: building
    one makes reference cycles, and parsing with a built one makes none."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except KeyboardInterrupt:
        print("interrupted: rerun the same command to resume", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
