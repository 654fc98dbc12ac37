#!/usr/bin/env python3
"""Layer bench of streamfec: time each layer, on one source tree or two.

    python3 bench/layers.py                # full run; writes bench/BENCH_layers.json
    python3 bench/layers.py --quick        # smoke run of every case, under 5 s
    python3 bench/layers.py --base DIR     # time DIR/streamfec beside src/streamfec

Each case times one layer at a named point:

    field 2^16        `gf.GF(16)`: the log/antilog table build
    mul 2^16          `GF.mul` over 20,000 random pairs
    combine           `CauchyMatrix.combine` of 512 head terms onto 32
                      columns, the encoder's parity combine (vgms-bulk)
    packet_layout     `vgms.packet_layout` of one vgms-bulk stream
    encode grid/vgms-bulk
                      `VgmsCodec.encode` of one whole stream at the grid's
                      and at vgms-bulk's point
    patterns          `channel.all_patterns`, each checked by
                      `is_admissible`, on one grid stream
    solve n=3/16/48/128
                      `CauchyMatrix.solve_combination`, the phase-1 head
                      solve, of an n x n system of the vgms-bulk matrix;
                      n=3 is the size of the criterion-2 grid's solves
    burst decode      VGMS decode of 12 length-b bursts of one vgms-bulk
                      stream, at starts 4, 12, .., 92, past the first b
                      slots, so phase 1 solves their heads
    tail decode       VGMS decode of the burst over slots 0..b-1, which
                      hold no head, so only phase 2 runs
    grid decode       `VgmsCodec.decode` of one grid stream under every
                      admissible pattern, without the oracle's verdict:
                      the decodes that grid-verify replays
    linear decode     `LinearCodec.decode` of one burst (linear-diagonal)
    oracle            `oracle.exhaustive_decode_check` of one grid stream
                      under every admissible pattern
    tables 2^13/14/16 `combine` as above on GF(2^13), GF(2^14) and
                      GF(2^16), with the field's tables held as lists and
                      as array("H"), the choice that
                      `gf.COMPACT_TABLES_FROM_DEGREE` makes

The points (`POINTS`) are vgms-bulk's and linear-diagonal's, and a stream
of the criterion-2 grid. Every stream is drawn from seed 0 and bound
through `codecs.bind_codec`.

The bench times the tree in `src/`, side "src". With `--base DIR`, it also
imports DIR/streamfec under the name `streamfec_base`, side "base", and
runs each case on both trees in this one process. A base tree is any
checkout of `src`, for example

    mkdir -p /tmp/base && git archive <rev> src | tar -x -C /tmp/base
    python3 bench/layers.py --base /tmp/base/src

A case whose calls (`uses`) are missing from the base tree, or take other
parameters there, is reported as skipped, with the reason. The "tables"
cases always have the sides "list" and "array", on the tree in `src/`.

Each case is checked once: its sides must give identical output, or the
run exits with status 1. That check call also sets the case's calls per
sample in a full run: enough that a sample of the faster side lasts about
`SAMPLE_S` or more, and never fewer than `FULL["calls"]`, so that cases of
a few microseconds are not timed near the clock's noise floor. Then every
round times each case on each side, in alternating order, so drift of a
shared host falls on all sides alike.
A row gives the median ms per call of each side and, with two sides, the
ratio of the second to the first: below 1 the second is faster. Run from
the root of a source checkout. The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import importlib.util
import inspect
import json
import math
import os
import platform
import random
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

POINTS = {
    "vgms-bulk": dict(codec="vgms", degree=16, tau=16, b=4, m=32, messages=100),
    "linear-diagonal": dict(codec="diagonal", degree=8, tau=8, b=4, tau_l=4, m=8, messages=20),
    "grid": dict(codec="vgms", degree=8, tau=4, b=2, m=4, messages=8),  # 12 slots
}
# rounds, and the fewest calls per sample
FULL = dict(rounds=25, calls=3)
QUICK = dict(rounds=2, calls=1)
SAMPLE_S = 1e-3  # a full run's shortest sample, as its check call predicts


def load_tree(package: str, root: Path):
    """The package in `root`/streamfec, imported under the name `package`.
    Every import inside it is relative, so two trees load side by side, and
    its `__init__` makes every module an attribute of the package."""
    init = root / "streamfec" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {root} holds no streamfec/ package")
    spec = importlib.util.spec_from_file_location(
        package, init, submodule_search_locations=[str(init.parent)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[package] = pkg
    spec.loader.exec_module(pkg)
    return pkg


@functools.cache
def stream(sf, point: str):
    """(codec, payload, packets) of one stream drawn at `point`, seed 0."""
    pt = POINTS[point]
    rng = random.Random(0)
    tau, m = pt["tau"], pt["m"]
    fld = sf.gf.GF(pt["degree"])
    seq = sf.model.terminate_sizes([rng.randint(0, m) for _ in range(pt["messages"])], tau, m)
    p = sf.model.make_params(tau, pt["b"], tau_l=pt.get("tau_l", 0), m=m, t=seq.t)
    codec = sf.codecs.bind_codec(pt["codec"], p, fld, seq, seed=rng.randrange(1 << 30))
    payload = [[rng.randrange(fld.order) for _ in range(k)] for k in seq]
    return codec, payload, codec.encode(payload)


def combine_call(matrix, rng: random.Random):
    """A zero-argument `combine` of a full random head vector onto 32 columns."""
    order = matrix.field.order
    terms = matrix.terms(range(matrix.dim), [rng.randrange(order) for _ in range(matrix.dim)])
    cols = rng.sample(range(matrix.dim), 32)
    return lambda: matrix.combine(terms, cols)


def mul_call(sf):
    fld = sf.gf.GF(16)
    rng = random.Random(0)
    pairs = [(rng.randrange(fld.order), rng.randrange(fld.order)) for _ in range(20000)]
    mul = fld.mul
    return lambda: [mul(a, b) for a, b in pairs]


def solve_call(n: int):
    def build(sf):
        matrix = stream(sf, "vgms-bulk")[0].matrix
        rng = random.Random(n)
        rows, cols = rng.sample(range(matrix.dim), n), rng.sample(range(matrix.dim), n)
        rhs = [rng.randrange(matrix.field.order) for _ in range(n)]
        return lambda: matrix.solve_combination(rows, cols, rhs)
    return build


def decode_call(point: str, starts):
    """Decodes of a length-b burst at each start, on the stream at `point`."""
    def build(sf):
        codec, _, packets = stream(sf, point)
        b = codec.params.b
        received = [sf.channel.apply_pattern(range(s, s + b), packets) for s in starts]
        return lambda: [codec.decode(r) for r in received]
    return build


def grid_decode_call(sf):
    codec, _, packets = stream(sf, "grid")
    channel = sf.channel
    received = [channel.apply_pattern(q, packets) for q in channel.all_patterns(codec.params)]
    return lambda: [codec.decode(r) for r in received]


def encode_call(point: str):
    def build(sf):
        codec, payload, _ = stream(sf, point)
        return lambda: codec.encode(payload)
    return build


def layout_call(sf):
    codec = stream(sf, "vgms-bulk")[0]
    return lambda: sf.vgms.packet_layout(codec.seq, codec.params).head_sizes


def patterns_call(sf):
    p = stream(sf, "grid")[0].params
    channel = sf.channel
    return lambda: [q for q in channel.all_patterns(p) if channel.is_admissible(q, p)]


def oracle_call(sf):
    codec, payload, _ = stream(sf, "grid")
    return lambda: sf.oracle.exhaustive_decode_check(codec, payload, "full")


def each_tree(build):
    """Sides of a case run on every tree: `build(sf)` gives its call on the
    package `sf`."""
    return lambda trees: {side: build(sf) for side, sf in trees.items()}


def table_sides(degree: int):
    """`combine` on GF(2^degree) of the tree in src/, with the field's
    tables held as a list and as an array("H")."""
    def sides(trees):
        sf = trees["src"]
        fld = sf.gf.GF(degree)
        out = {}
        for container, make in (("list", list), ("array", lambda t: array("H", t))):
            twin = copy.copy(fld)
            twin._exp, twin._log = make(fld.exp), make(fld.log)
            matrix = sf.cauchy.build_cauchy(min(512, twin.order // 2), twin)
            out[container] = combine_call(matrix, random.Random(0))
        return out
    return sides


# the calls that bind a stream
BIND = ("gf.GF", "model.terminate_sizes", "model.make_params", "codecs.bind_codec")
# name -> (what it calls on a tree, sides(trees) -> {side: zero-argument call})
CASES = {
    "field 2^16": (("gf.GF", "gf.GF.exp"), each_tree(lambda sf: lambda: sf.gf.GF(16).exp)),
    "mul 2^16": (("gf.GF", "gf.GF.mul"), each_tree(mul_call)),
    "combine": (
        BIND + ("cauchy.CauchyMatrix.terms", "cauchy.CauchyMatrix.combine"),
        each_tree(lambda sf: combine_call(stream(sf, "vgms-bulk")[0].matrix, random.Random(0))),
    ),
    "packet_layout": (BIND + ("vgms.packet_layout",), each_tree(layout_call)),
    **{
        f"encode {point}": (BIND + ("codecs.VgmsCodec.encode",), each_tree(encode_call(point)))
        for point in ("grid", "vgms-bulk")
    },
    "patterns": (
        BIND + ("channel.all_patterns", "channel.is_admissible"), each_tree(patterns_call)
    ),
    **{
        f"solve n={n}": (
            BIND + ("cauchy.CauchyMatrix.solve_combination",), each_tree(solve_call(n))
        )
        for n in (3, 16, 48, 128)
    },
    "burst decode": (
        BIND + ("channel.apply_pattern", "codecs.VgmsCodec.decode"),
        each_tree(decode_call("vgms-bulk", range(4, 100, 8))),
    ),
    "tail decode": (
        BIND + ("channel.apply_pattern", "codecs.VgmsCodec.decode"),
        each_tree(decode_call("vgms-bulk", [0])),
    ),
    "grid decode": (
        BIND + ("channel.all_patterns", "channel.apply_pattern", "codecs.VgmsCodec.decode"),
        each_tree(grid_decode_call),
    ),
    "linear decode": (
        BIND + ("channel.apply_pattern", "codecs.LinearCodec.decode"),
        each_tree(decode_call("linear-diagonal", [10])),
    ),
    "oracle": (BIND + ("oracle.exhaustive_decode_check",), each_tree(oracle_call)),
    # the degrees on each side of gf.COMPACT_TABLES_FROM_DEGREE, and vgms-bulk's
    **{f"tables 2^{d}": ((), table_sides(d)) for d in (13, 14, 16)},
}


def plain(out):
    """`out` as builtin values, so that the outputs of two trees compare."""
    if dataclasses.is_dataclass(out):
        return plain(dataclasses.astuple(out))
    if isinstance(out, (list, tuple, array)):
        return [plain(x) for x in out]
    return out


def params(obj) -> list:
    """What a caller relies on: each parameter's name, kind and default."""
    if not callable(obj):
        return []
    sig = inspect.signature(obj)
    return [(q.name, q.kind.name, repr(q.default)) for q in sig.parameters.values()]


def skip_reason(uses, src, base) -> str | None:
    """Why the base tree cannot run a case that calls `uses`, or None."""
    for dotted in uses:
        try:
            old = functools.reduce(getattr, dotted.split("."), base)
        except AttributeError:
            return f"base has no {dotted}"
        new = functools.reduce(getattr, dotted.split("."), src)
        if params(old) != params(new):
            names = [", ".join(q[0] for q in params(f)) for f in (old, new)]
            return f"{dotted} takes ({names[0]}) in base, ({names[1]}) in src"
    return None


def time_call(fn, calls: int) -> float:
    """Seconds per call over `calls` calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def run_sides(cases: dict, rounds: int, calls: dict) -> list[dict]:
    """The timing loop: `cases` maps a case name to {side: zero-argument
    call}, and `calls` to its calls per sample. Every round times each case
    on each side, the order of the sides reversed every other round.
    Returns the median ms per call of each side and, with two sides, the
    ratio second / first, per case."""
    samples = {(name, side): [] for name, sides in cases.items() for side in sides}
    for r in range(rounds):
        for name, sides in cases.items():
            order = list(sides) if r % 2 == 0 else list(sides)[::-1]
            for side in order:
                samples[name, side].append(time_call(sides[side], calls[name]))
    rows = []
    for name, sides in cases.items():
        ms = {side: statistics.median(samples[name, side]) * 1e3 for side in sides}
        row = {"case": name, "calls": calls[name]}
        row["ms"] = {side: round(v, 3) for side, v in ms.items()}
        if len(ms) == 2:
            first, second = ms.values()
            row["ratio"] = round(second / first, 3)
        rows.append(row)
    return rows


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


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="smoke run, under 5 s")
    ap.add_argument("--out", type=Path, default=None,
                    help="JSON file to write (default: bench/BENCH_layers.json, none with --quick)")
    ap.add_argument("--base", type=Path, default=None,
                    help="a directory holding streamfec/, timed as side 'base' beside src/")
    args = ap.parse_args(argv)
    size = QUICK if args.quick else FULL
    t0 = time.perf_counter()
    trees = {"src": load_tree("streamfec", SRC)}
    if args.base:
        trees = {"base": load_tree("streamfec_base", args.base), **trees}
    cases, skipped, calls = {}, {}, {}
    for name, (uses, sides) in CASES.items():
        reason = args.base and skip_reason(uses, trees["src"], trees["base"])
        if reason:
            skipped[name] = reason
            continue
        cases[name] = sides(trees)
        outs, check_s = [], []
        for call in cases[name].values():
            t = time.perf_counter()
            outs.append(call())
            check_s.append(time.perf_counter() - t)
        if any(plain(out) != plain(outs[0]) for out in outs):
            raise SystemExit(f"error: {name}: the sides give different output")
        calls[name] = size["calls"] if args.quick else max(
            size["calls"], math.ceil(SAMPLE_S / min(check_s))
        )
    timed = {row["case"]: row for row in run_sides(cases, size["rounds"], calls)}
    results = [timed.get(name) or {"case": name, "skipped": skipped[name]} for name in CASES]
    result = {
        "bench": "layers",
        "environment": environment(),
        "quick": args.quick,
        "base": str(args.base) if args.base else None,
        "points": POINTS,
        "size": size,
        "results": results,
        "wall_s": round(time.perf_counter() - t0, 2),
    }
    for row in results:
        if "skipped" in row:
            print(f"{row['case']:16s} skipped: {row['skipped']}")
            continue
        line = "  ".join(f"{side} {ms:9.3f} ms" for side, ms in row["ms"].items())
        if "ratio" in row:
            first, second = row["ms"]
            line += f"  {second}/{first} {row['ratio']:.3f}"
        print(f"{row['case']:16s} {line}")
    out = args.out if args.out or args.quick else HERE / "BENCH_layers.json"
    if out:
        out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
