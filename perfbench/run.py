#!/usr/bin/env python3
"""The streamfec benchmark: verification throughput, codec throughput and
burst-recovery latency, end to end or per module.

    python3 perfbench/run.py --workload grid-verify --seed 0 --seconds 44 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. One process, one thread, closed loop: each library call starts
after the previous one returned. Every decode is checked against its
payload and its deadlines; any wrong output makes the result
`"correct": false` and the exit code 1.

Each workload draws its streams from the seed and splits their jobs into
rounds of a few seconds or less, each a sample of the whole workload.
`--trace 0` cycles through the rounds until `--seconds` have passed. Each
end-to-end metric is a figure of each completed round after the first (a
warm-up), and the run reports the level three quarters of those rounds
reach, so the bursts of speed a shared host gives now and then do not move
it. `--trace 1` runs the rounds of the first stream group three times:
without instrumentation, with a span around every public function of each
module, and with exact work counters; it reports the per-module metrics and
the tracing overhead, and writes the spans to `perfbench/out/`.
The last line of standard output is always the JSON result.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import perftrace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

CLAIM_SEED = 1  # the second seed, on which performance claims are re-checked
SETUPS = 9  # set-ups per run; setup_s is their upper quartile

# Workload sizes. "tiny" keeps every code path and metric but runs in well
# under a second; the benchmark's own tests use it.
SIZES = {
    "full": {
        "grid-verify": dict(degree=8, taus=range(2, 6), streams=20, slots=12, m=4),
        "vgms-bulk": dict(degree=16, tau=16, b=4, m=32, messages=100, pairs=8, stride=8),
        "linear-diagonal": dict(degree=8, tau=8, b=4, tau_l=4, m=8, messages=20, pairs=16),
    },
    "tiny": {
        "grid-verify": dict(degree=8, taus=range(2, 4), streams=2, slots=8, m=3),
        "vgms-bulk": dict(degree=8, tau=4, b=2, m=4, messages=10, pairs=2, stride=2),
        "linear-diagonal": dict(degree=8, tau=4, b=2, tau_l=2, m=4, messages=6, pairs=2),
    },
}
WORKLOADS = tuple(SIZES["full"])
# Modules with spans. `gf` has none (a span per multiply would swamp the
# rest); it is measured by its call counts and its table build time.
SPAN_LAYERS = ("cauchy", "model", "channel", "vgms", "baselines", "linear", "codecs", "oracle")


# ---------------------------------------------------------------------------
# Measurements shared by every workload
# ---------------------------------------------------------------------------


class Stats:
    """Totals, decode times and failures of one round."""

    def __init__(self) -> None:
        self.decodes = 0
        self.decode_s = 0.0
        self.erased = 0  # erased message symbols over all decodes
        self.encode_s = 0.0
        self.encoded = 0  # message symbols over all encodes
        self.verify_s = 0.0  # verify jobs, checks included
        self.verify_decodes = 0
        self.latency: list[float] = []  # seconds per decode call
        self.failed = 0
        self.failures: list[str] = []

    def add_decode(self, seconds: float, erased: int) -> None:
        self.latency.append(seconds)
        self.decodes += 1
        self.decode_s += seconds
        self.erased += erased

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def merge(self, other: "Stats") -> None:
        """Add the counts and failures of `other`, but not its decode times."""
        self.decodes += other.decodes
        self.failed += other.failed
        self.failures += other.failures[: 5 - len(self.failures)]

    def summary(self) -> dict[str, float]:
        """The round's end-to-end figures; the decode times are dropped, so
        memory stays flat however many rounds a run makes."""
        ms = [1e3 * s for s in self.latency]
        pct = statistics.quantiles(ms, n=100, method="inclusive") if len(ms) > 1 else ms * 99
        self.latency = []
        return {
            "verify_patterns_per_s": self.verify_decodes / self.verify_s,
            "encode_sym_per_s": self.encoded / self.encode_s,
            "decode_sym_per_s": self.erased / self.decode_s,
            "decode_ms_p50": pct[49],
            "decode_ms_p90": pct[89],
            "decode_ms_p99": pct[98],
        }


class TimedCodec:
    """A bound codec whose encode and decode calls are timed one by one.

    The oracle drives it like the codec itself; every other attribute is
    the codec's own.
    """

    def __init__(self, codec, stats: Stats) -> None:
        self._codec = codec
        self._stats = stats

    def __getattr__(self, name):
        return getattr(self._codec, name)

    def encode(self, payload):
        t0 = time.perf_counter()
        packets = self._codec.encode(payload)
        self._stats.encode_s += time.perf_counter() - t0
        self._stats.encoded += sum(len(msg) for msg in payload)
        return packets

    def decode(self, received):
        stats = self._stats
        t0 = time.perf_counter()
        try:
            return self._codec.decode(received)
        finally:
            took = time.perf_counter() - t0
            seq = self._codec.seq
            stats.add_decode(took, sum(seq.size(i) for i, pkt in enumerate(received) if pkt is None))


class Stream:
    """One generated stream bound to its codec; `packets` is set by its
    first encode, and every later encode must give the same packets."""

    def __init__(self, p, seq, codec, payload) -> None:
        self.p, self.seq, self.codec, self.payload = p, seq, codec, payload
        self.packets = None

    def __repr__(self) -> str:
        return f"stream(tau={self.p.tau}, b={self.p.b}, sizes={list(self.seq)})"


def random_stream(sf, rng, fld, codec_id, sizes, *, tau, b, m, tau_l=0):
    seq = sf.model.terminate_sizes(sizes, tau, m)
    p = sf.model.make_params(tau, b, tau_l=tau_l, m=m, t=seq.t)
    codec = sf.codecs.bind_codec(codec_id, p, fld, seq, seed=rng.randrange(1 << 30))
    payload = [[rng.randrange(fld.order) for _ in range(k)] for k in seq]
    return Stream(p, seq, codec, payload)


def mirrored_sizes(rng, messages: int, m: int) -> tuple[list[int], list[int]]:
    """Uniform sizes in [0, m] and their mirror image m - k.

    Both streams of a pair are uniform draws; together they carry exactly
    messages * m symbols, which removes most of the seed-to-seed spread in
    total work that a decode cost growing faster than linearly would add.
    """
    sizes = [rng.randint(0, m) for _ in range(messages)]
    return sizes, [m - k for k in sizes]


def encode_job(stream: Stream, stats: Stats) -> None:
    packets = TimedCodec(stream.codec, stats).encode(stream.payload)
    if stream.packets is None:
        stream.packets = packets
    elif packets != stream.packets:
        stats.fail(f"{stream}: encoding is not deterministic")


def oracle_job(sf, stream: Stream, stats: Stats, mode: str, minimality: bool) -> None:
    """What `streamfec verify` does for one stream."""
    oracle = sf.oracle
    try:
        bad = oracle.exhaustive_decode_check(TimedCodec(stream.codec, stats), stream.payload, mode)
    except Exception:  # a decode that raises is a failed decode; keep measuring
        bad = traceback.format_exc(limit=3)
    if bad is not None:
        stats.fail(f"{stream}: {bad}")
    if minimality:
        lb = oracle.lower_bound_profile(stream.seq, stream.p)
        profile = oracle.cumulative_profile(stream.codec.n_sizes)
        gap = oracle.check_minimality(profile, lb, exact=True)
        if gap is not None:
            stats.fail(f"{stream}: profile misses the lower bound: {gap}")


def burst_job(sf, stream: Stream, stats: Stats, start: int) -> None:
    """Erase one burst, decode, and check symbols and lossy deadlines."""
    pattern = tuple(range(start, start + stream.p.b))
    received = sf.channel.apply_pattern(pattern, stream.packets)
    try:
        result = TimedCodec(stream.codec, stats).decode(received)
    except Exception:  # a decode that raises is a failed decode; keep measuring
        stats.fail(f"{stream} burst {pattern}: {traceback.format_exc(limit=3)}")
        return
    if result.messages != stream.payload:
        stats.fail(f"{stream} burst {pattern}: recovered symbols differ")
        return
    tr = sf.model.build_transcript(
        stream.p, stream.seq, stream.codec.n_sizes, pattern, result.decode_times
    )
    late = sf.model.check_delays(tr, lossless=False)
    if late is not None:
        stats.fail(f"{stream} burst {pattern}: deadline missed: {late}")


# ---------------------------------------------------------------------------
# Workloads: set-up, and the jobs of each round
# ---------------------------------------------------------------------------


def pattern_count(sf, streams, mode: str) -> int:
    return sum(sum(1 for _ in sf.channel.enumerate_patterns(s.p, mode)) for s in streams)


class GridVerify:
    """Acceptance criterion 2 as `streamfec verify` replays it: every
    admissible pattern of every stream, then the minimality check. A round
    is one stream of each (tau, b) cell; the 20 rounds make the grid, and
    the traced run replays the whole grid."""

    def __init__(self, sf, rng, cfg) -> None:
        fld = sf.gf.field(cfg["degree"])
        cells = [(tau, b) for tau in cfg["taus"] for b in range(1, tau + 1)]
        self.rounds = []
        for _ in range(cfg["streams"]):
            row = []
            for tau, b in cells:
                sizes = [rng.randint(0, cfg["m"]) for _ in range(cfg["slots"] - tau)]
                row.append(random_stream(sf, rng, fld, "vgms", sizes, tau=tau, b=b, m=cfg["m"]))
            self.rounds.append(row)
        self.patterns = [pattern_count(sf, row, "full") for row in self.rounds]
        self.trace_rounds = range(len(self.rounds))

    def jobs(self, sf, stats, r):
        for s in self.rounds[r]:
            yield "encode", functools.partial(encode_job, s, stats)
            yield "verify", functools.partial(oracle_job, sf, s, stats, "full", True)


class VgmsBulk:
    """Long VGMS streams on GF(2^16), drawn in mirrored pairs. Every stream
    gets a burst of length b at each of its message slots, split over
    `stride` rounds by start (offset, offset + stride, ..), so that every
    round samples the whole stream. A round encodes both streams of its
    pair, then decodes its bursts, alternating between the two, each
    checked. Rounds visit the pairs in turn; the traced run replays the
    first pair at the first half of the offsets, half the starts of each
    stream."""

    def __init__(self, sf, rng, cfg) -> None:
        fld = sf.gf.field(cfg["degree"])
        params = dict(tau=cfg["tau"], b=cfg["b"], m=cfg["m"])
        self.pairs = [
            [random_stream(sf, rng, fld, "vgms", sizes, **params)
             for sizes in mirrored_sizes(rng, cfg["messages"], cfg["m"])]
            for _ in range(cfg["pairs"])
        ]
        stride = cfg["stride"]
        self.rounds = [
            (pair, range(offset, cfg["messages"], stride))
            for offset in range(stride)
            for pair in self.pairs
        ]
        self.patterns = [2 * len(starts) for _, starts in self.rounds]
        self.trace_rounds = range(0, len(self.rounds) // 2, len(self.pairs))

    def jobs(self, sf, stats, r):
        pair, starts = self.rounds[r]
        for s in pair:
            yield "encode", functools.partial(encode_job, s, stats)
        for start in starts:
            for s in pair:
                yield "verify", functools.partial(burst_job, sf, s, stats, start)


class LinearDiagonal:
    """Diagonal interleaving through LinearCodec. A round is one mirrored
    pair: every single burst, decoded by incremental elimination and checked
    by the oracle. The traced run replays the first round."""

    def __init__(self, sf, rng, cfg) -> None:
        fld = sf.gf.field(cfg["degree"])
        params = dict(tau=cfg["tau"], b=cfg["b"], m=cfg["m"], tau_l=cfg["tau_l"])
        self.rounds = [
            [random_stream(sf, rng, fld, "diagonal", sizes, **params)
             for sizes in mirrored_sizes(rng, cfg["messages"], cfg["m"])]
            for _ in range(cfg["pairs"])
        ]
        self.patterns = [pattern_count(sf, pair, "single") for pair in self.rounds]
        self.trace_rounds = range(1)

    def jobs(self, sf, stats, r):
        for s in self.rounds[r]:
            yield "encode", functools.partial(encode_job, s, stats)
            yield "verify", functools.partial(oracle_job, sf, s, stats, "single", False)


WORKLOAD_CLASSES = {"grid-verify": GridVerify, "vgms-bulk": VgmsBulk, "linear-diagonal": LinearDiagonal}


def import_streamfec():
    """A fresh import of the package from this checkout's `src/`."""
    for name in [n for n in sys.modules if n == "streamfec" or n.startswith("streamfec.")]:
        del sys.modules[name]
    sf = importlib.import_module("streamfec")
    if Path(sf.__file__).resolve().parent != SRC / "streamfec":
        raise RuntimeError(f"imported streamfec from {sf.__file__}, not from {SRC}")
    return sf


def set_up(workload: str, seed: int, size: str):
    """Import, field tables, inputs and codec binding, timed as a whole.

    Returns (seconds, seconds of field construction, package, workload).
    """
    gc.collect()
    t0 = time.perf_counter()
    sf = import_streamfec()
    t1 = time.perf_counter()
    sf.gf.field(SIZES[size][workload]["degree"])
    field_s = time.perf_counter() - t1
    rng = random.Random(f"{workload}:{seed}")
    wl = WORKLOAD_CLASSES[workload](sf, rng, SIZES[size][workload])
    return time.perf_counter() - t0, field_s, sf, wl


def run_round(wl, sf, stats: Stats, r: int, deadline: float | None = None) -> bool:
    """Run the jobs of round `r`. Stop early once `deadline` has passed;
    return whether the round completed."""
    for kind, job in wl.jobs(sf, stats, r):
        if kind == "encode":
            job()
        else:
            before = stats.decodes
            t0 = time.perf_counter()
            job()
            stats.verify_s += time.perf_counter() - t0
            stats.verify_decodes += stats.decodes - before
        if deadline is not None and time.perf_counter() >= deadline:
            return False
    # the oracle stops at a stream's first wrong decode, so only a round
    # without failures must replay every pattern
    if stats.decodes != wl.patterns[r] and not stats.failed:
        stats.fail(f"round {r} replayed {stats.decodes} patterns, expected {wl.patterns[r]}")
    return True


def timed_run(wl, sf, seconds: float) -> tuple[list[dict], Stats]:
    """Cycle through the rounds until `seconds` have passed.

    The first round always completes; the round in hand at the deadline is
    cut short. Returns the figures of every completed round, and the totals
    and failures of all rounds, the cut one included.
    """
    total = Stats()
    done: list[dict] = []
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        stats = Stats()
        complete = run_round(wl, sf, stats, i % len(wl.rounds), deadline if done else None)
        total.merge(stats)
        if complete:
            done.append(stats.summary())
        if not complete or time.perf_counter() >= deadline:
            return done, total


def replay(wl, sf, rounds) -> Stats:
    """Run the given rounds in full; return their totals and failures."""
    total = Stats()
    for r in rounds:
        stats = Stats()
        run_round(wl, sf, stats, r)
        total.merge(stats)
    return total


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


# Figures of a round: name -> (unit, which way is better)
ROUND_METRICS = {
    "verify_patterns_per_s": ("1/s", "higher"),
    "encode_sym_per_s": ("sym/s", "higher"),
    "decode_sym_per_s": ("sym/s", "higher"),
    "decode_ms_p50": ("ms", "lower"),
    "decode_ms_p90": ("ms", "lower"),
    "decode_ms_p99": ("ms", "lower"),
}
UNBOUNDED = {"decode_ms_p99"}  # printed, but not declared in BENCHMARK.json


def sustained(values: list[float], better: str) -> float:
    """The level that three quarters of the values reach: the lower quartile
    of a rate, the upper quartile of a time.

    The host runs this code at a steady speed most of the time and faster in
    bursts, when the machines it shares cores with are idle; this quartile
    follows the steady speed.
    """
    if len(values) == 1:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1 if better == "higher" else q3


def end_to_end(rounds: list[dict], setup_s: list[float]) -> tuple[dict, dict]:
    """The bounded metrics and the unbounded extras of a timed run, each as
    name -> (value, unit): the sustained level over the measured rounds of
    each round's figure."""
    measured = rounds[1:] or rounds  # the first round warms up
    bounded = {"setup_s": (sustained(setup_s, "lower"), "s")}
    extra = {}
    for name, (unit, better) in ROUND_METRICS.items():
        value = sustained([r[name] for r in measured], better)
        (extra if name in UNBOUNDED else bounded)[name] = (value, unit)
    bounded["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return bounded, extra


def per_layer(
    spans: dict, counts: perftrace.WorkCounts, decodes: int, field_s: float, passes: dict
) -> dict[str, tuple[float, str]]:
    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    n = counts.n
    out: dict[str, tuple[float, str]] = {}
    for name in (
        "vgms.packet_layout",
        "channel.is_admissible",
        "codecs.n_sizes",
        "cauchy.combine",
        "cauchy.solve",
        "linear.add_equation",
        "linear.determined",
    ):
        out[f"{name}.calls"] = (span(name, "calls"), "count")
    for name in (
        "vgms.packet_layout",
        "channel.is_admissible",
        "channel.enumerate_patterns",
        "channel.apply_pattern",
        "model.build_transcript",
        "model.check_delays",
        "codecs.n_sizes",
        "oracle.exhaustive_decode_check",
        "oracle.lower_bound_profile",
        "cauchy.combine",
        "cauchy.solve",
        "vgms.encode_stream",
        "vgms.decode_stream",
        "linear.add_equation",
        "linear.determined",
        "codecs.LinearCodec.decode",
        "baselines.packet_values",
    ):
        out[f"{name}.self_s"] = (span(name, "self_s"), "s")
    decode_calls = sum(span(name, "calls") for name in perftrace.DECODE_SPANS)
    decode_s = sum(span(name, "s") for name in perftrace.DECODE_SPANS)
    out["codecs.decode.s"] = (decode_s, "s")
    cauchy_in_decode = span("cauchy.combine", "decode_self_s") + span("cauchy.solve", "decode_self_s")
    out["codecs.decode.cauchy_share"] = (cauchy_in_decode / decode_s, "share")
    out["codecs.decode.layout_share"] = (span("vgms.packet_layout", "decode_self_s") / decode_s, "share")
    out["vgms.layout_per_decode"] = (span("vgms.packet_layout", "calls") / decodes, "ratio")
    out["channel.patterns"] = (n["channel.patterns"], "count")
    out["cauchy.combine.coeffs"] = (n["cauchy.combine.coeffs"], "count")
    out["cauchy.solve.dim_sum"] = (n["cauchy.solve.dim_sum"], "count")
    out["cauchy.solve.dim_max"] = (counts.solve_dim_max, "count")
    out["cauchy.entry.calls"] = (n["cauchy.entry.calls"], "count")
    out["gf.mul.calls"] = (n["gf.mul.calls"], "count")
    out["gf.inv.calls"] = (n["gf.inv.calls"], "count")
    out["gf.field.s"] = (field_s, "s")
    out["linear.equations"] = (n["linear.equations"], "count")
    out["linear.useful_eq_ratio"] = (
        n["linear.symbols_determined"] / n["linear.equations"] if n["linear.equations"] else 0.0,
        "ratio",
    )
    for layer in SPAN_LAYERS:
        total = sum(row["self_s"] for name, row in spans.items() if name.split(".")[0] == layer)
        out[f"layer.{layer}.self_s"] = (total, "s")
    out["codecs.decode.calls"] = (decode_calls, "count")
    out["trace.spans"] = (sum(row["calls"] for row in spans.values()), "count")
    out["trace.untraced_s"] = (passes["untraced"], "s")
    out["trace.traced_s"] = (passes["traced"], "s")
    out["trace.overhead_s"] = (passes["traced"] - passes["untraced"], "s")
    return out


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
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=44.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SIZES), default="full")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "streamfec" / "__init__.py").is_file():
        print(f"error: no streamfec sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size} claim_seed={CLAIM_SEED}")

    setup_s, field_s = [], []
    for _ in range(SETUPS):
        took, field_took, sf, wl = set_up(args.workload, args.seed, args.size)
        setup_s.append(took)
        field_s.append(field_took)

    if args.trace == 0:
        rounds, total = timed_run(wl, sf, args.seconds)
        runs = [total]
        metrics, info = end_to_end(rounds, setup_s)
        info["rounds"] = (len(rounds), "count")
    else:
        recorder, counts = perftrace.SpanRecorder(), perftrace.WorkCounts()
        runs, passes = [], {}
        for name, instrument in (("untraced", None), ("traced", recorder), ("counted", counts)):
            patcher = perftrace.Patcher(sf)
            if instrument is not None:
                instrument.install(patcher)
            try:
                t0 = time.perf_counter()
                runs.append(replay(wl, sf, wl.trace_rounds))
                passes[name] = time.perf_counter() - t0
            finally:
                patcher.restore()
        decodes = sum(wl.patterns[r] for r in wl.trace_rounds)
        metrics = per_layer(recorder.summary(), counts, decodes, statistics.median(field_s), passes)
        info = {}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        recorder.write(path, {"env": env, "workload": args.workload, "seed": args.seed, "size": args.size})
        print(f"spans {len(recorder.start)} written to {path.relative_to(ROOT)}")

    attempted = sum(r.decodes for r in runs)
    failed = sum(r.failed for r in runs)
    for what in (what for r in runs for what in r.failures):
        print(f"FAILED {what}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for name, (value, unit) in info.items():
        print(f"info {name} {value:.6g} {unit}")
    print(f"info fail_frac {failed / attempted:.6g} ratio ({failed} failed of {attempted} decodes)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
