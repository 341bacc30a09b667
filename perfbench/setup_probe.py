"""One set-up in a fresh interpreter, timed for ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed> <small: 0|1> <spawn time>

Run from the repository root.  <spawn time> is the parent's
``time.perf_counter()`` just before it started this process; on Linux
that clock is CLOCK_MONOTONIC, which every process shares.  The probe
times importing stabsearch and preparing the workload's inputs in
reference seconds, adds the interpreter's start (spawn to the first line
below) scaled at the same rate, and prints one JSON line.  The
benchmark's own workload modules are imported after stabsearch and
outside the timed parts, so every module stabsearch needs, standard
library included, is loaded inside them.
"""

import time

T_ENTER = time.perf_counter()

import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

from refclock import RefClock  # noqa: E402

PROGRAM_MODULES = ("rng", "gf2", "graphs", "constraints", "solver", "cnf", "css", "erasure", "harness", "cli")


def import_program() -> types.SimpleNamespace:
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"stabsearch.{m}") for m in PROGRAM_MODULES}
    )


# imported by name, so that the probe loads them only after stabsearch
WORKLOADS = {
    "band_sweep": ("band_sweep", "BandSweep"),
    "encode_export": ("encode_export", "EncodeExport"),
    "decode_study": ("decode_study", "DecodeStudy"),
}


def workload_class(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


def main(argv: list[str]) -> int:
    name, seed, small, spawn = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    clock = RefClock().start()
    mods = import_program()
    clock.stop()
    wl = workload_class(name)(None, seed, small)
    clock.start()
    wl.prepare(mods)
    clock.stop()
    import json  # only now, so that stabsearch pays for it above

    start_s = T_ENTER - spawn
    print(json.dumps({"setup_s": start_s * clock.scale + clock.norm_s, "raw_s": start_s + clock.raw_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
