"""Command line harness: encode, simulate, verify, gap, sweep.

Exit codes: 0 on success, 1 when an assertion fails (deadline violation,
minimality gap, non-separation, decode mismatch, or a library error that
means a construction guarantee broke: `vgms.DecodeFailure`,
`cauchy.SingularMatrixError`, `gap.GapCheckError`), 2 for configuration
errors. Every output file embeds the run configuration for replay, and a
fixed seed reproduces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import gap as gap_mod, oracle
from .cauchy import SingularMatrixError
from .codecs import CODEC_IDS, bind_codec
from .channel import apply_pattern, enumerate_patterns, is_admissible
from .gf import field
from .model import (
    build_transcript,
    check_delays,
    make_params,
    param_violations,
    random_payload,
    random_sizes,
    stream_rate,
    terminate_sizes,
    transcript_records_json,
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


def _resolve_sizes(args) -> tuple[list[int], int]:
    """Raw (unterminated) sizes and the effective maximum size m."""
    given = [
        args.sizes is not None,
        args.sizes_file is not None,
        args.random_sizes is not None,
    ]
    if sum(given) != 1:
        raise ConfigError("give exactly one of --sizes, --sizes-file, --random-sizes")
    if args.sizes is not None:
        raw = _parse_int_list(args.sizes)
    elif args.sizes_file is not None:
        with open(args.sizes_file, encoding="utf-8") as fh:
            raw = _parse_int_list(fh.read())
    else:
        if args.t is None:
            raise ConfigError("--random-sizes needs --t for the stream length")
        length = args.t + 1 - args.tau
        if length < 1:
            raise ConfigError("--t leaves no room before the zero tail")
        m = args.m if args.m is not None else 4
        raw = random_sizes(length, m, args.random_sizes)
    m = args.m if args.m is not None else max(max(raw, default=0), 1)
    return raw, m


def _build_run(args, seed: int = 0):
    _require(args, "codec", "tau", "b")
    raw, m = _resolve_sizes(args)
    seq = terminate_sizes(raw, args.tau, m)
    p = make_params(args.tau, args.b, tau_l=args.tau_l, w=args.w, m=m, t=seq.t)
    bad = param_violations(p)
    if bad:
        raise ConfigError("invalid parameters: " + "; ".join(bad))
    fld = field(args.field_degree)
    codec = bind_codec(args.codec, p, fld, seq, d=args.d, seed=seed)
    return p, fld, seq, codec


def _config_dict(args, extra: dict | None = None) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    if extra:
        cfg.update(extra)
    return cfg


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


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _transcript_text(tr, config: dict) -> str:
    lines = [json.dumps({"config": config}, sort_keys=True)]
    lines += [json.dumps(row, sort_keys=True) for row in transcript_records_json(tr)]
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


def _rate_row(codec, seq, p) -> dict:
    num = seq.total
    den = sum(codec.n_sizes)
    return {
        "codec": codec.name,
        "tau": p.tau,
        "b": p.b,
        "tau_l": codec.tau_l,
        "m": p.m,
        "t": p.t,
        "sizes": ",".join(str(k) for k in seq),
        "rate": f"{num}/{den}",
        "rate_decimal": f"{num / den:.6f}" if den else "",
    }


def cmd_encode(args) -> int:
    p, fld, seq, codec = _build_run(args, seed=args.seed)
    payload = random_payload(seq, fld, args.seed)
    result = codec.decode(codec.encode(payload))
    layout = codec.trace() if hasattr(codec, "trace") else None
    tr = build_transcript(p, seq, codec.n_sizes, (), result.decode_times, layout)
    tr.meta["rate"] = str(stream_rate(tr))
    _emit(args, _transcript_text(tr, _config_dict(args)))
    row = _rate_row(codec, seq, p)
    print(f"rate {row['rate']} ({row['rate_decimal']})", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    p, fld, seq, codec = _build_run(args, seed=args.seed)
    payload = random_payload(seq, fld, args.seed)
    pattern = tuple(_parse_int_list(args.pattern)) if args.pattern else ()
    if not is_admissible(pattern, p):
        raise ConfigError(f"pattern {list(pattern)} is not admissible for C(b={p.b}, w={p.w})")
    packets = codec.encode(payload)
    result = codec.decode(apply_pattern(pattern, packets))
    layout = codec.trace() if hasattr(codec, "trace") else None
    tr = build_transcript(p, seq, codec.n_sizes, pattern, result.decode_times, layout)
    _emit(args, _transcript_text(tr, _config_dict(args)))
    ok = True
    for i in range(seq.t + 1):
        if result.messages[i] != list(payload[i]):
            print(f"slot {i}: recovered symbols differ", file=sys.stderr)
            ok = False
    bad = check_delays(tr, lossless=False)
    if bad is not None:
        print(
            f"slot {bad.slot}: decoded at {bad.decode_time}, deadline {bad.deadline}",
            file=sys.stderr,
        )
        ok = False
    return 0 if ok else 1


def cmd_verify(args) -> int:
    if args.t is None:
        raise ConfigError("verify needs --t")
    patterns_checked = 0
    status = "ok"
    failure: dict | None = None
    for seed in range(args.seeds):
        run_args = argparse.Namespace(**vars(args))
        run_args.random_sizes = seed
        run_args.sizes = None
        run_args.sizes_file = None
        p, fld, seq, codec = _build_run(run_args, seed=seed)
        payload = random_payload(seq, fld, seed)
        bad = oracle.exhaustive_decode_check(codec, payload, args.enumerate)
        patterns_checked += sum(1 for _ in enumerate_patterns(p, args.enumerate))
        if bad is not None:
            status = "counterexample"
            failure = {
                "seed": seed,
                "sizes": list(seq),
                "pattern": list(bad.pattern),
                "slot": bad.slot,
                "reason": bad.reason,
            }
            break
        if args.codec == "vgms" and p.tau_l == 0:
            lb = oracle.lower_bound_profile(seq, p)
            gap_found = oracle.check_minimality(
                oracle.cumulative_profile(codec.n_sizes), lb, exact=True
            )
            if gap_found is not None:
                status = "minimality-gap"
                failure = {
                    "seed": seed,
                    "slot": gap_found.slot,
                    "have": gap_found.have,
                    "want": gap_found.want,
                }
                break
    report = {
        "config": _config_dict(args),
        "codec": args.codec,
        "params": {"tau": args.tau, "b": args.b, "tau_l": args.tau_l, "t": args.t},
        "seeds": args.seeds,
        "patterns_checked": patterns_checked,
        "status": status,
    }
    if failure:
        report["failure"] = failure
    _emit(args, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if status == "ok" else 1


def cmd_gap(args) -> int:
    _require(args, "lemma", "tau", "b")
    fld = field(args.field_degree)
    report = gap_mod.run_gap(args.lemma, args.tau, args.b, args.tau_l, args.d, fld)
    rows = gap_mod.report_csv_rows([report])
    _emit(args, emit_rate_table(rows, _config_dict(args)))
    return 0 if report.separated else 1


def cmd_sweep(args) -> int:
    fld = field(args.field_degree)
    failures: list[str] = []
    rate_rows: list[dict] = []

    for tau in range(2, args.tau_max + 1):
        for b in range(1, tau + 1):
            for seed in range(args.seeds):
                raw = random_sizes(args.t + 1 - tau, args.m, seed)
                seq = terminate_sizes(raw, tau, args.m)
                p = make_params(tau, b, m=args.m, t=seq.t)
                codec = bind_codec("vgms", p, fld, seq, seed=seed)
                payload = random_payload(seq, fld, seed)
                bad = oracle.exhaustive_decode_check(codec, payload, "full")
                if bad is not None:
                    failures.append(
                        f"vgms tau={tau} b={b} seed={seed}: {bad.reason} at {bad.pattern}"
                    )
                lb = oracle.lower_bound_profile(seq, p)
                if oracle.check_minimality(
                    oracle.cumulative_profile(codec.n_sizes), lb, exact=True
                ):
                    failures.append(f"vgms minimality tau={tau} b={b} seed={seed}")
                rate_rows.append(_rate_row(codec, seq, p))

    for tau in range(1, args.tau_max + 1):
        for b in (x for x in range(1, tau + 1) if tau % x == 0):
            k = tau // b
            raw = [k] * 3
            seq = terminate_sizes(raw, tau, k)
            p = make_params(tau, b, tau_l=tau - b, m=k, t=seq.t)
            codec = bind_codec("diagonal", p, fld, seq)
            payload = random_payload(seq, fld, 0)
            bad = oracle.exhaustive_decode_check(codec, payload, "full")
            if bad is not None:
                failures.append(f"diagonal tau={tau} b={b}: {bad.reason}")
            tr = build_transcript(p, seq, codec.n_sizes, (), [0] * len(seq))
            if stream_rate(tr) != Fraction(tau, tau + b):
                failures.append(f"diagonal rate off at tau={tau} b={b}")
            rate_rows.append(_rate_row(codec, seq, p))

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

    labels = set(gap_mod.sweep_classifier(args.tau_max).values())
    if not labels <= set(gap_mod.REGIMES):
        failures.append(f"classifier produced unknown labels: {labels}")

    summary = {
        "config": _config_dict(args),
        "vgms_runs": args.seeds,
        "gap_cells": len(gap_reports),
        "failures": failures,
        "status": "ok" if not failures else "failed",
    }
    text = emit_rate_table(rate_rows, _config_dict(args)) if rate_rows else ""
    _emit(args, text)
    print(json.dumps(summary, sort_keys=True, indent=2), file=sys.stderr)
    return 0 if not failures else 1


def _add_common(sp: argparse.ArgumentParser, codec: bool = True) -> None:
    sp.add_argument("--config", default=None, help="JSON file with default flag values")
    sp.add_argument("--tau", type=int, default=None, help="worst-case delay, slots")
    sp.add_argument("--b", type=int, default=None, help="maximum burst length")
    sp.add_argument("--tau-l", dest="tau_l", type=int, default=0, help="lossless delay")
    sp.add_argument("--w", type=int, default=None, help="channel window (default tau+1)")
    sp.add_argument("--m", type=int, default=None, help="maximum message size")
    sp.add_argument("--field-degree", dest="field_degree", type=int, default=16)
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--d", type=int, default=None, help="block size for lemma schemes")
    if codec:
        sp.add_argument("--codec", default=None, choices=CODEC_IDS)


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise ConfigError(
            "missing required option(s): "
            + ", ".join("--" + n.replace("_", "-") for n in missing)
        )


def _add_sizes(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--sizes", default=None, help="comma-separated message sizes")
    sp.add_argument("--sizes-file", dest="sizes_file", default=None)
    sp.add_argument(
        "--random-sizes",
        dest="random_sizes",
        type=int,
        default=None,
        help="seed for random sizes (needs --t)",
    )
    sp.add_argument("--t", type=int, default=None, help="final slot index, tail included")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    ap = argparse.ArgumentParser(
        prog="streamfec",
        description="Streaming erasure codes over burst loss channels",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {}

    sp = commands["encode"] = sub.add_parser(
        "encode", help="encode a stream and emit its transcript"
    )
    _add_common(sp)
    _add_sizes(sp)
    sp.set_defaults(func=cmd_encode)

    sp = commands["simulate"] = sub.add_parser(
        "simulate", help="encode, apply a loss pattern, decode"
    )
    _add_common(sp)
    _add_sizes(sp)
    sp.add_argument("--pattern", default=None, help="erased slots, e.g. 2,3")
    sp.set_defaults(func=cmd_simulate)

    sp = commands["verify"] = sub.add_parser(
        "verify", help="exhaustive decode check over seeds"
    )
    _add_common(sp)
    _add_sizes(sp)
    sp.add_argument("--seeds", type=int, default=20)
    sp.add_argument("--enumerate", choices=("single", "full"), default="full")
    sp.set_defaults(func=cmd_verify)

    sp = commands["gap"] = sub.add_parser(
        "gap", help="one online-vs-offline separation experiment"
    )
    sp.add_argument("--config", default=None, help="JSON file with default flag values")
    sp.add_argument("--lemma", default=None, choices=("conv1", "conv2", "conv3"))
    sp.add_argument("--tau", type=int, default=None)
    sp.add_argument("--b", type=int, default=None)
    sp.add_argument("--tau-l", dest="tau_l", type=int, default=None)
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--field-degree", dest="field_degree", type=int, default=16)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_gap)

    sp = commands["sweep"] = sub.add_parser(
        "sweep", help="grid verification plus rate table"
    )
    sp.add_argument("--config", default=None, help="JSON file with default flag values")
    sp.add_argument("--tau-max", dest="tau_max", type=int, default=4)
    sp.add_argument("--seeds", type=int, default=5)
    sp.add_argument("--t", type=int, default=9)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--d-max", dest="d_max", type=int, default=4)
    sp.add_argument("--field-degree", dest="field_degree", type=int, default=8)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_sweep)

    return ap, commands


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
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


if __name__ == "__main__":
    raise SystemExit(main())
