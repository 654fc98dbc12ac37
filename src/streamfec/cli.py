"""Command line harness: encode, simulate, verify, gap, sweep.

Exit codes: 0 on success, 1 when an assertion fails (deadline violation,
minimality gap, non-separation, decode mismatch, or a library error that
means a construction guarantee broke: `vgms.DecodeFailure`,
`cauchy.SingularMatrixError`, `gap.GapCheckError`), 2 for configuration
errors. Every non-zero exit prints one `error: ...` line to stderr. Every
output file embeds the run configuration for replay, and a fixed seed
reproduces byte-identical outputs.

Every stream is built by `_build_stream` from its raw sizes, a seed and
the run values: the sizes that `encode` and `simulate` are given (by
`--sizes`, `--sizes-file` or `--random-sizes`), and each seed's random
draw in `verify` and `sweep`. `codecs.bind_codec` checks the binding, so
a `--d` given to a codec that takes no block size exits 2. Each
subcommand registers only the flags it reads, and none accepts an
abbreviated flag. `verify` draws its own sizes and payloads, so it takes
no size flags, no `--seed` and no `--d`, and of the codecs only `vgms`
and `diagonal`, the two that bind to any size sequence.

The output formats live here: the transcript JSONL of `encode` and
`simulate`, the rate table of `sweep` and the CSV of `gap`.

`simulate` judges its one decode by `oracle.judge_decode`, the verdict the
`verify` replay loop applies to every pattern. The `replay` argv that a
`verify` counterexample carries passes on every flag of `RUN_FLAGS`, the
table the parser registers the run flags from, so it rebuilds the same
stream and fails under `simulate` with the same slot and reason.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction

from . import gap as gap_mod, oracle
from .baselines import LEMMA_SCHEMES
from .cauchy import SingularMatrixError
from .codecs import CODEC_IDS, bind_codec
from .channel import apply_pattern, enumerate_patterns, is_admissible
from .gf import field
from .model import (
    build_transcript,
    make_params,
    random_payload,
    random_sizes,
    stream_rate,
    terminate_sizes,
)
from .vgms import DecodeFailure


class ConfigError(Exception):
    pass


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _given_sizes(args) -> list[int]:
    """Raw (unterminated) sizes from exactly one of the size flags that
    encode and simulate take."""
    given = [
        args.sizes is not None,
        args.sizes_file is not None,
        args.random_sizes is not None,
    ]
    if sum(given) != 1:
        raise ConfigError("give exactly one of --sizes, --sizes-file, --random-sizes")
    if args.random_sizes is not None:
        return _random_raw(vars(args), args.random_sizes)
    if args.sizes is not None:
        raw = _parse_int_list(args.sizes)
    else:
        with open(args.sizes_file, encoding="utf-8") as fh:
            raw = _parse_int_list(fh.read())
    if not raw:
        flag = "--sizes" if args.sizes is not None else "--sizes-file"
        raise ConfigError(f"{flag} gives no message sizes")
    return raw


def _random_raw(run: dict, seed: int) -> list[int]:
    """Raw sizes of the random stream `seed` that ends at slot t: t+1-tau
    sizes drawn from [0, m] (m defaults to 4), then the zero tail, which a
    draw that already ends in zeros gets too."""
    if run["t"] is None:
        raise ConfigError("--random-sizes needs --t for the stream length")
    length = run["t"] + 1 - run["tau"]
    if length < 1:
        raise ConfigError("--t leaves no room before the zero tail")
    m = run["m"] if run["m"] is not None else 4
    return random_sizes(length, m, seed) + [0] * run["tau"]


def _build_stream(raw: list[int], seed: int, run: dict):
    """Bind one stream's codec and draw its payload, for every subcommand.

    `raw` is the sizes before the zero tail (m defaults to their largest);
    the codec's coefficients and the payload are drawn from `seed`; `run`
    holds the run values codec, tau, b, tau_l, m, field_degree and, where
    the caller has them, w and d.
    """
    m = run["m"] if run["m"] is not None else max(max(raw), 1)
    seq = terminate_sizes(raw, run["tau"], m)
    p = make_params(run["tau"], run["b"], tau_l=run["tau_l"], w=run.get("w"), m=m, t=seq.t)
    fld = field(run["field_degree"])
    codec = bind_codec(run["codec"], p, fld, seq, d=run.get("d"), seed=seed)
    return codec, random_payload(seq, fld, seed)


def _config_dict(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}


def _apply_config_file(args, subparser: argparse.ArgumentParser) -> None:
    """Make the config file's values the subcommand's defaults.

    Parsing again afterwards gives the precedence: explicit flags, in any
    spelling argparse accepts, beat the file, which beats built-in defaults.
    """
    with open(args.config, encoding="utf-8") as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ConfigError(f"{args.config} must hold one JSON object")
    for key in ("config", "func", "command"):
        overrides.pop(key, None)
    unknown = sorted(set(overrides) - set(vars(args)))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r} in {args.config}")
    actions = {action.dest: action for action in subparser._actions}
    subparser.set_defaults(
        **{
            key: _config_value(actions[key], value, args.config)
            for key, value in overrides.items()
        }
    )


def _config_value(action: argparse.Action, value, path: str):
    """A config file value as its flag would parse it.

    argparse type-converts string defaults only, so every value is checked
    here: a string goes through the flag's type, any other JSON value must
    already be of that type (an integer for an int flag, never a bool), and
    the result must be one of the flag's choices. null means "not given"
    and is accepted only for a flag whose built-in default is None.
    """
    if value is None and action.default is None:
        return None
    convert = action.type or str
    if isinstance(value, str):
        try:
            value = convert(value)
        except ValueError as exc:
            raise ConfigError(
                f"config key {action.dest!r} in {path}: {value!r} is not {convert.__name__}"
            ) from exc
    elif type(value) is not convert:
        raise ConfigError(
            f"config key {action.dest!r} in {path} must be {convert.__name__}, got {value!r}"
        )
    if action.choices is not None and value not in action.choices:
        raise ConfigError(
            f"config key {action.dest!r} in {path}: {value!r} is not one of "
            + ", ".join(map(str, action.choices))
        )
    return value


def _failed(reason: str) -> int:
    """Exit 1 for a check the run made and found failing; its report is out."""
    print(f"error: {reason}", file=sys.stderr)
    return 1


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _transcript_text(codec, tr, config: dict, **header) -> str:
    """JSONL: the header, then one row per slot, merged with the codec's
    own `trace()` row (the VGMS layout) where it has one."""
    layout = codec.trace() if hasattr(codec, "trace") else None
    lines = [json.dumps({"config": config, **header}, sort_keys=True)]
    for rec in tr.records:
        row = dataclasses.asdict(rec) | (layout[rec.slot] if layout else {})
        lines.append(json.dumps(row, sort_keys=True))
    return "\n".join(lines) + "\n"


def emit_rate_table(results: list[dict], config: dict) -> str:
    """CSV: one row per (codec, params, sequence), rates as p/q plus decimal."""
    if not results:
        raise ValueError("no results to tabulate")
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.DictWriter(buf, fieldnames=list(results[0].keys()))
    writer.writeheader()
    writer.writerows(results)
    return buf.getvalue()


def _rate_row(codec) -> dict:
    """The totals stay unreduced (9/15); a stream that sends nothing reads
    0/0 with no decimal."""
    p, seq = codec.params, codec.seq
    den = sum(codec.n_sizes)
    return {
        "codec": codec.name,
        "tau": p.tau,
        "b": p.b,
        "tau_l": codec.tau_l,
        "m": p.m,
        "t": p.t,
        "sizes": ",".join(str(k) for k in seq),
        "rate": f"{seq.total}/{den}",
        "rate_decimal": f"{float(stream_rate(seq, codec.n_sizes)):.6f}" if den else "",
    }


def _transcript_run(args, pattern: tuple[int, ...]):
    """Encode the configured stream, erase `pattern`, decode, transcribe."""
    _require(args, "codec", "tau", "b")
    codec, payload = _build_stream(_given_sizes(args), args.seed, vars(args))
    p = codec.params
    if not is_admissible(pattern, p):
        raise ConfigError(f"pattern {list(pattern)} is not admissible for C(b={p.b}, w={p.w})")
    result = codec.decode(apply_pattern(pattern, codec.encode(payload)))
    tr = build_transcript(p, codec.seq, codec.n_sizes, pattern, result.decode_times)
    return codec, payload, result, tr


def cmd_encode(args) -> int:
    codec, _, _, tr = _transcript_run(args, ())
    stream_rate(codec.seq, codec.n_sizes)  # a stream that sends nothing has no rate
    row = _rate_row(codec)
    _emit(args, _transcript_text(codec, tr, _config_dict(args), rate=row["rate"]))
    print(f"rate {row['rate']} ({row['rate_decimal']})", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    pattern = tuple(_parse_int_list(args.pattern)) if args.pattern else ()
    codec, payload, result, tr = _transcript_run(args, pattern)
    _emit(args, _transcript_text(codec, tr, _config_dict(args)))
    bad = oracle.judge_decode(codec, pattern, result, payload)
    return 0 if bad is None else _failed(f"slot {bad.slot}: {bad.reason}")


def _replay_argv(args, seed: int, pattern: tuple[int, ...]) -> list[str]:
    """The `simulate` argv that rebuilds stream `seed` of a `verify` run
    with every run flag and erases `pattern`."""
    argv = ["simulate", "--random-sizes", str(seed), "--seed", str(seed)]
    for dest in RUN_FLAGS:
        if getattr(args, dest) is not None:
            argv += [_flag(dest), str(getattr(args, dest))]
    return argv + (["--pattern", ",".join(map(str, pattern))] if pattern else [])


def _require_at_least(value: int, low: int, flag: str) -> None:
    if value < low:
        raise ConfigError(f"{flag} must be at least {low}, or the run checks nothing")


def cmd_verify(args) -> int:
    _require(args, "codec", "tau", "b", "t")
    _require_at_least(args.seeds, 1, "--seeds")
    status = "ok"
    failure: dict | None = None
    run = vars(args)
    for seed in range(args.seeds):
        codec, payload = _build_stream(_random_raw(run, seed), seed, run)
        if seed == 0:  # every seed has the same t, b and w, so the same patterns
            per_seed = sum(1 for _ in enumerate_patterns(codec.params, args.enumerate))
        bad = oracle.verify_stream(codec, payload, args.enumerate)
        if bad is not None:
            # both kinds of failure name the seed and sizes that replay it
            status = "minimality-gap" if isinstance(bad, oracle.ProfileGap) else "counterexample"
            failure = {"seed": seed, "sizes": list(codec.seq), **dataclasses.asdict(bad)}
            if status == "counterexample":
                failure["replay"] = _replay_argv(args, seed, bad.pattern)
            break
    report = {
        "config": _config_dict(args),
        "codec": args.codec,
        "params": {"tau": args.tau, "b": args.b, "tau_l": args.tau_l, "t": args.t},
        "seeds": args.seeds,
        "patterns_checked": per_seed * (seed + 1),
        "status": status,
    }
    if failure:
        report["failure"] = failure
    _emit(args, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if failure is None else _failed(f"{status} at seed {failure['seed']}")


def cmd_gap(args) -> int:
    _require(args, "lemma", "tau", "b")
    fld = field(args.field_degree)
    report = gap_mod.run_gap(args.lemma, args.tau, args.b, args.tau_l, args.d, fld)
    row = dataclasses.asdict(report)
    del row["details"]
    _emit(args, emit_rate_table([row], _config_dict(args)))
    return 0 if report.separated else _failed(f"{args.lemma} rates are not separated")


def cmd_sweep(args) -> int:
    _require_at_least(args.tau_max, 2, "--tau-max")  # the first vgms cell is tau = 2
    _require_at_least(args.seeds, 1, "--seeds")
    fld = field(args.field_degree)
    failures: list[str] = []
    rate_rows: list[dict] = []
    vgms_runs = 0

    for tau in range(2, args.tau_max + 1):
        for b in range(1, tau + 1):
            run = {**vars(args), "codec": "vgms", "tau": tau, "b": b, "tau_l": 0}
            for seed in range(args.seeds):
                codec, payload = _build_stream(_random_raw(run, seed), seed, run)
                bad = oracle.verify_stream(codec, payload, "full")
                vgms_runs += 1
                if bad is not None:
                    failures.append(f"vgms tau={tau} b={b} seed={seed}: {bad!r}")
                rate_rows.append(_rate_row(codec))

    for tau in range(1, args.tau_max + 1):
        for b in (x for x in range(1, tau + 1) if tau % x == 0):
            k = tau // b
            run = {**vars(args), "codec": "diagonal", "tau": tau, "b": b, "tau_l": tau - b, "m": k}
            codec, payload = _build_stream([k] * 3, 0, run)
            bad = oracle.verify_stream(codec, payload, "full")
            if bad is not None:
                failures.append(f"diagonal tau={tau} b={b}: {bad!r}")
            if stream_rate(codec.seq, codec.n_sizes) != Fraction(tau, tau + b):
                failures.append(f"diagonal rate off at tau={tau} b={b}")
            rate_rows.append(_rate_row(codec))

    gap_reports = []
    for lemma, tau, b, tau_l, d in gap_mod.gap_cells(args.tau_max, args.d_max):
        try:
            rep = gap_mod.run_gap(lemma, tau, b, tau_l, d, fld)
        except gap_mod.GapCheckError as exc:
            failures.append(f"gap {lemma} tau={tau} b={b} tau_l={tau_l} d={d}: {exc}")
            continue
        if not rep.separated:
            failures.append(f"gap not separated: {lemma} tau={tau} b={b} d={d}")
        gap_reports.append(rep)

    summary = {
        "config": _config_dict(args),
        "vgms_runs": vgms_runs,
        "gap_cells": len(gap_reports),
        "failures": failures,
        "status": "ok" if not failures else "failed",
    }
    _emit(args, emit_rate_table(rate_rows, _config_dict(args)))
    print(json.dumps(summary, sort_keys=True, indent=2), file=sys.stderr)
    return 0 if not failures else _failed(f"{len(failures)} check(s) failed")


# The flags that fix a stream besides its sizes and seed, by dest. The
# parser registers them from here, and a `verify` counterexample's replay
# passes every one of them on to `simulate`.
RUN_FLAGS = {
    "codec": {"choices": CODEC_IDS},
    "tau": {"type": int, "help": "worst-case delay, slots"},
    "b": {"type": int, "help": "maximum burst length"},
    "tau_l": {"type": int, "default": 0, "help": "lossless delay"},
    "w": {"type": int, "help": "channel window (default tau+1)"},
    "m": {"type": int, "help": "maximum message size"},
    "t": {"type": int, "help": "final slot index, tail included"},
    "field_degree": {"type": int, "default": 16},
}


def _add_common(sp: argparse.ArgumentParser, *run_flags: str, **specs: dict) -> None:
    """--config and --out, which every subcommand takes, then the named
    RUN_FLAGS, each with its keywords updated from `specs` by dest."""
    sp.add_argument("--config", default=None, help="JSON file with default flag values")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    for dest in run_flags:
        sp.add_argument(_flag(dest), **{**RUN_FLAGS[dest], **specs.get(dest, {})})


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ConfigError("missing required option(s): " + ", ".join(map(_flag, missing)))


def _add_given_stream(sp: argparse.ArgumentParser) -> None:
    """The flags only encode and simulate read: the sizes, the payload seed
    and the offline schemes' block size."""
    sp.add_argument("--sizes", default=None, help="comma-separated message sizes")
    sp.add_argument("--sizes-file", dest="sizes_file", default=None)
    sp.add_argument(
        "--random-sizes",
        dest="random_sizes",
        type=int,
        default=None,
        help="seed for random sizes (needs --t)",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--d", type=int, default=None, help="block size for lemma schemes")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    ap = argparse.ArgumentParser(
        prog="streamfec",
        description="Streaming erasure codes over burst loss channels",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name: str, summary: str, func) -> argparse.ArgumentParser:
        # no abbreviations: a prefix such as --seed must not read as --seeds
        sp = commands[name] = sub.add_parser(name, help=summary, allow_abbrev=False)
        sp.set_defaults(func=func)
        return sp

    sp = command("encode", "encode a stream and emit its transcript", cmd_encode)
    _add_common(sp, *RUN_FLAGS)
    _add_given_stream(sp)

    sp = command("simulate", "encode, apply a loss pattern, decode", cmd_simulate)
    _add_common(sp, *RUN_FLAGS)
    _add_given_stream(sp)
    sp.add_argument("--pattern", default=None, help="erased slots, e.g. 2,3")

    sp = command("verify", "exhaustive decode check over seeds", cmd_verify)
    # each seed draws its own sizes, so only the codecs that bind to any
    # size sequence; an offline scheme binds to its prescribed one alone
    _add_common(sp, *RUN_FLAGS, codec={"choices": ("vgms", "diagonal")})
    sp.add_argument("--seeds", type=int, default=20)
    sp.add_argument("--enumerate", choices=("single", "full"), default="full")

    sp = command("gap", "one online-vs-offline separation experiment", cmd_gap)
    _add_common(sp, "field_degree")
    sp.add_argument("--lemma", default=None, choices=tuple(LEMMA_SCHEMES))
    sp.add_argument("--tau", type=int, default=None)
    sp.add_argument("--b", type=int, default=None)
    sp.add_argument("--tau-l", dest="tau_l", type=int, default=None)
    sp.add_argument("--d", type=int, default=2)

    sp = command("sweep", "grid verification plus rate table", cmd_sweep)
    _add_common(sp, "field_degree", field_degree={"default": 8})
    sp.add_argument("--tau-max", dest="tau_max", type=int, default=4)
    sp.add_argument("--seeds", type=int, default=5)
    sp.add_argument("--t", type=int, default=9)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--d-max", dest="d_max", type=int, default=4)

    return ap, commands


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config_file(args, commands[args.command])
            args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DecodeFailure, SingularMatrixError, gap_mod.GapCheckError) as exc:
        # the library found its own guarantee broken: an assertion failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
