#!/usr/bin/env python3
"""Layer bench of the field tables: lists against 2-byte arrays.

    python3 bench/gf_tables.py            # full run; writes bench/BENCH_gf_tables.json
    python3 bench/gf_tables.py --quick    # smoke run of every kernel, under 2 s

Times three table-driven kernels at degrees 8, 12, 13, 14 and 16, each with
the field's log/antilog tables held as Python lists and as array("H"):

    mul      GF.mul over random pairs of field elements
    combine  CauchyMatrix.combine of a full random vector, given as its
             `terms`, onto a few columns (the encoder's parity combine),
             one antilog lookup per coefficient
    solve    CauchyMatrix.solve_combination of a square subsystem (the
             closed-form burst solve)

The full run sizes the Cauchy matrix as vgms-bulk binds it (tau * m = 512
points a side, or half the field where that is smaller), so the kernels
reach across the whole table as they do in a codec.

Both containers of a degree share one set of inputs, and each kernel must
give the same output on both. The samples are interleaved in one process:
every round times each (degree, kernel) on both containers, in alternating
order, so drift of a shared host falls on both alike. The result gives the
median time per call of each container and the ratio array / list; below 1
the arrays are faster. `gf.COMPACT_TABLES_FROM_DEGREE` is set from it.
Run from the root of a source checkout; the package is imported from
`src/`. The last line of standard output is the JSON result.

The module also holds what the before/after layer benches
(`bench/startup.py`, `bench/decode_kernels.py`) share: `time_call`,
`environment`, the interleaved timing loop `run_sides` and the command
line `before_after_main`.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import random
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from streamfec.cauchy import build_cauchy  # noqa: E402
from streamfec.gf import COMPACT_TABLES_FROM_DEGREE, GF  # noqa: E402

DEGREES = (8, 12, 13, 14, 16)
CONTAINERS = ("list", "array")
KERNELS = ("mul", "combine", "solve")
# rounds, calls per sample, mul pairs, Cauchy dimension (capped at half the
# field), columns of a combine, size of a solve
FULL = dict(rounds=15, calls=5, pairs=20000, dim=512, combine_cols=32, solve_n=64)
QUICK = dict(rounds=2, calls=2, pairs=500, dim=16, combine_cols=4, solve_n=8)


def with_tables(fld: GF, container: str) -> GF:
    """A copy of `fld` whose tables are held in `container`."""
    make = list if container == "list" else (lambda table: array("H", table))
    twin = copy.copy(fld)
    twin._exp, twin._log = make(fld.exp), make(fld.log)
    return twin


def kernels(fld: GF, size: dict, seed: int) -> dict:
    """name -> zero-argument call, all on `fld` and on inputs drawn by `seed`."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(fld.order), rng.randrange(fld.order)) for _ in range(size["pairs"])]
    dim = min(size["dim"], fld.order // 2)
    mat = build_cauchy(dim, fld, seed=seed)
    vec = [rng.randrange(fld.order) for _ in range(dim)]
    cols = rng.sample(range(dim), size["combine_cols"])
    n = size["solve_n"]
    rows = rng.sample(range(dim), n)
    sub_cols = rng.sample(range(dim), n)
    rhs = [rng.randrange(fld.order) for _ in range(n)]
    mul = fld.mul
    return {
        "mul": lambda: [mul(a, b) for a, b in pairs],
        "combine": lambda: mat.combine(mat.terms(range(dim), vec), cols),
        "solve": lambda: mat.solve_combination(rows, sub_cols, rhs),
    }


def time_call(fn, calls: int) -> float:
    """Seconds per call over `calls` calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


SIDES = ("before", "after")


def run_sides(calls: dict, size: dict, per_call: dict | None = None) -> list[dict]:
    """The before/after benches' timing loop: `calls` maps a case name to
    {side: zero-argument call}. Every round times each case on both sides,
    in alternating order; a case named in `per_call` makes that many calls
    of its own per call. Returns the median time per call of each side and
    the ratio after / before, per case."""
    per_call = per_call or {}
    samples = {(name, side): [] for name in calls for side in SIDES}
    for r in range(size["rounds"]):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for name, sides in calls.items():
            for side in order:
                sample = time_call(sides[side], size["calls"]) / per_call.get(name, 1)
                samples[name, side].append(sample)
    out = []
    for name in calls:
        med = {side: statistics.median(samples[name, side]) for side in SIDES}
        out.append({
            "case": name,
            "before_ms": round(med["before"] * 1e3, 3),
            "after_ms": round(med["after"] * 1e3, 3),
            "after_over_before": round(med["after"] / med["before"], 3),
        })
    return out


def before_after_main(
    argv: list[str] | None, bench: str, doc: str, full: dict, quick: dict, run, extra: dict
) -> int:
    """The before/after benches' command line: `run(size)` gives the rows
    of `run_sides`, and `extra` is put in the JSON result before "size"."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="smoke run, under 2 s")
    ap.add_argument("--out", type=Path, default=None,
                    help=f"JSON file to write (default: bench/BENCH_{bench}.json, none with --quick)")
    args = ap.parse_args(argv)
    size = quick if args.quick else full
    t0 = time.perf_counter()
    results = run(size)
    result = {
        "bench": bench,
        "environment": environment(),
        "quick": args.quick,
        **extra,
        "size": size,
        "results": results,
        "wall_s": round(time.perf_counter() - t0, 2),
    }
    width = max(len(row["case"]) for row in results) + 1
    for row in results:
        print(f"{row['case']:{width}s} before {row['before_ms']:9.3f} ms  after {row['after_ms']:9.3f} ms"
              f"  after/before {row['after_over_before']:.3f}")
    out = args.out if args.out or args.quick else HERE / f"BENCH_{bench}.json"
    if out:
        out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run(size: dict, seed: int) -> list[dict]:
    calls = {}
    for degree in DEGREES:
        base = GF(degree)
        per = {c: kernels(with_tables(base, c), size, seed) for c in CONTAINERS}
        for name, fn in per["list"].items():
            if fn() != per["array"][name]():
                raise AssertionError(f"{name} differs between containers at degree {degree}")
        calls[degree] = per
    samples = {(d, k, c): [] for d in DEGREES for k in KERNELS for c in CONTAINERS}
    for r in range(size["rounds"]):
        order = CONTAINERS if r % 2 == 0 else CONTAINERS[::-1]
        for degree in DEGREES:
            for name in KERNELS:
                for c in order:
                    samples[degree, name, c].append(time_call(calls[degree][c][name], size["calls"]))
    out = []
    for degree in DEGREES:
        for name in KERNELS:
            med = {c: statistics.median(samples[degree, name, c]) for c in CONTAINERS}
            out.append({
                "degree": degree,
                "kernel": name,
                "list_us": round(med["list"] * 1e6, 2),
                "array_us": round(med["array"] * 1e6, 2),
                "array_over_list": round(med["array"] / med["list"], 3),
            })
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="smoke run, under 2 s")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="JSON file to write (default: bench/BENCH_gf_tables.json, none with --quick)")
    args = ap.parse_args(argv)
    size = QUICK if args.quick else FULL
    t0 = time.perf_counter()
    results = run(size, args.seed)
    doc = {
        "bench": "gf_tables",
        "environment": environment(),
        "quick": args.quick,
        "seed": args.seed,
        "size": size,
        "compact_tables_from_degree": COMPACT_TABLES_FROM_DEGREE,
        "results": results,
        "wall_s": round(time.perf_counter() - t0, 2),
    }
    for row in results:
        print(f"degree {row['degree']:2d} {row['kernel']:8s} list {row['list_us']:10.2f} us"
              f"  array {row['array_us']:10.2f} us  array/list {row['array_over_list']:.3f}")
    out = args.out if args.out or args.quick else HERE / "BENCH_gf_tables.json"
    if out:
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
