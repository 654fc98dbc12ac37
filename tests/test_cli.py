"""End-to-end runs of the command line harness."""

import csv
import dataclasses
import json
import runpy
import sys

import pytest

from streamfec import cli, gap, oracle, vgms
from streamfec.cauchy import SingularMatrixError
from streamfec.cli import main
from streamfec.codecs import VgmsCodec
from streamfec.gap import GapCheckError
from streamfec.model import random_sizes, terminate_sizes
from streamfec.vgms import DecodeFailure, DecodeResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_python_dash_m_runs_the_command_line(capsys, monkeypatch):
    # `python -m streamfec --help`, run in this process so that the entry
    # point's own lines run under the tests
    monkeypatch.setattr(sys, "argv", ["streamfec", "--help"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("streamfec", run_name="__main__")
    assert exited.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: streamfec ") and "Streaming erasure codes" in out


def test_encode_reference_stream(capsys, tmp_path):
    out = tmp_path / "tr.jsonl"
    code, _, err = run_cli(
        capsys,
        "encode",
        "--codec", "vgms",
        "--tau", "4",
        "--b", "2",
        "--sizes", "3,2,1,2,1",
        "--field-degree", "8",
        "--out", str(out),
    )
    assert code == 0
    assert "rate 9/15" in err
    lines = [json.loads(x) for x in out.read_text().splitlines()]
    assert "config" in lines[0]
    slots = lines[1:]
    assert [r["n"] for r in slots] == [3, 2, 1, 2, 4, 2, 0, 0, 1]
    assert [r["v"] for r in slots] == [0, 0, 1, 2, 0, 0, 0, 0, 0]
    assert [r["u"] for r in slots] == [3, 2, 0, 0, 1, 0, 0, 0, 0]


def test_simulate_burst_recovery(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--codec", "vgms",
        "--tau", "4",
        "--b", "2",
        "--sizes", "3,2,1,2,1",
        "--pattern", "2,3",
        "--field-degree", "8",
    )
    assert code == 0
    slots = [json.loads(x) for x in out.splitlines()][1:]
    assert slots[2]["erased"] and slots[3]["erased"]
    assert slots[2]["decode_time"] <= 5
    assert slots[3]["decode_time"] <= 5


def test_encode_header_carries_the_rate(capsys):
    # the rate is written as on stderr: message symbols / channel symbols
    code, out, err = run_cli(
        capsys,
        "encode",
        "--codec", "vgms",
        "--tau", "4",
        "--b", "2",
        "--sizes", "3,2,1,2,1",
        "--field-degree", "8",
    )
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert sorted(header) == ["config", "rate"]
    assert header["rate"] == "9/15"
    assert "rate 9/15" in err


def test_simulate_header_is_the_config_alone(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--codec", "vgms",
        "--tau", "4",
        "--b", "2",
        "--sizes", "3,2,1,2,1",
        "--field-degree", "8",
    )
    assert code == 0
    assert sorted(json.loads(out.splitlines()[0])) == ["config"]


def test_encode_of_a_stream_without_symbols_has_no_rate(capsys, tmp_path):
    out = tmp_path / "tr.jsonl"
    code, _, err = run_cli(
        capsys,
        "encode",
        "--codec", "vgms",
        "--tau", "2",
        "--b", "1",
        "--sizes", "0,0,0,0",
        "--out", str(out),
    )
    assert code == 2
    assert "rate undefined" in err
    assert not out.exists()


@pytest.mark.parametrize("sizes", ["0", "0,0"])
def test_one_zero_slot_per_tau_has_no_rate_either(capsys, sizes):
    # "0" at tau = 1 used to count as already terminated, leaving t = 0 < tau
    code, _, err = run_cli(
        capsys, "encode", "--codec", "vgms", "--tau", "1", "--b", "1", "--sizes", sizes
    )
    assert code == 2
    assert err.strip().splitlines()[-1] == "error: rate undefined: no channel symbols were sent"


def test_simulate_rejects_inadmissible_pattern(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--codec", "vgms",
        "--tau", "4",
        "--b", "2",
        "--sizes", "3,2,1",
        "--pattern", "0,1,2",
        "--field-degree", "8",
    )
    assert code == 2
    assert "not admissible" in err


def test_invalid_params_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "encode",
        "--codec", "vgms",
        "--tau", "4",
        "--b", "5",
        "--sizes", "1,1",
        "--field-degree", "8",
    )
    assert code == 2
    assert "b <= tau" in err


def test_verify_exhaustive_ok(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--codec", "vgms",
        "--tau", "3",
        "--b", "2",
        "--t", "8",
        "--seeds", "3",
        "--enumerate", "full",
        "--field-degree", "8",
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["patterns_checked"] > 0
    assert report["seeds"] == 3


def test_gap_subcommand_csv(capsys):
    code, out, _ = run_cli(capsys, "gap", "--lemma", "conv1", "--tau", "5", "--b", "2", "--d", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1].split(",")[0] == "lemma"
    row = lines[2].split(",")
    assert row[0] == "conv1" and row[-1] == "True"
    assert row[5] == "2/3" and row[6] == "5/7"


def test_gap_rejects_bad_lemma_params(capsys):
    code, _, err = run_cli(capsys, "gap", "--lemma", "conv1", "--tau", "4", "--b", "2")
    assert code == 2
    assert "conv1" in err


def test_outputs_deterministic(capsys, tmp_path):
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        code, _, _ = run_cli(
            capsys,
            "encode",
            "--codec", "vgms",
            "--tau", "3",
            "--b", "1",
            "--random-sizes", "5",
            "--t", "8",
            "--m", "3",
            "--seed", "5",
            "--field-degree", "8",
            "--out", str(path),
        )
        assert code == 0
        text = path.read_text()
        # the config echoes the output path; compare everything else
        outs.append("\n".join(text.splitlines()[1:]))
    assert outs[0] == outs[1]


def test_sweep_small_grid(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--tau-max", "3",
        "--seeds", "2",
        "--t", "7",
        "--m", "2",
        "--field-degree", "8",
    )
    assert code == 0
    summary = json.loads(err[err.index("{"):])
    assert summary["status"] == "ok"
    assert summary["failures"] == []
    assert "codec,tau,b" in out or "codec" in out.splitlines()[1]


def plant_once(monkeypatch, owner, name, hit, planted):
    """Replace `owner.name` so that its first call whose arguments satisfy
    `hit` returns `planted(real, *args)`; every other call is the real one."""
    real = getattr(owner, name)
    done = []

    def wrapper(*args):
        if not done and hit(*args):
            done.append(args)
            return planted(real, *args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)


def planted_counterexample(real, *args):
    return oracle.Counterexample((), 0, "planted")


def planted_gap_check_error(real, *args):
    raise GapCheckError("planted")


def codec_named(name):
    return lambda codec, payload, mode: codec.name == name


@pytest.mark.parametrize(
    "owner,name,hit,planted,failure",
    [
        (oracle, "verify_stream", codec_named("vgms"), planted_counterexample,
         "vgms tau=2 b=1 seed=0: "),
        (oracle, "verify_stream", codec_named("diagonal"), planted_counterexample,
         "diagonal tau=1 b=1: "),
        # only the diagonal cell tau=1, b=1 sends sizes 1,1,1 and a one-slot tail
        (cli, "stream_rate", lambda seq, n_sizes: seq.sizes == (1, 1, 1, 0),
         lambda real, seq, n_sizes: real(seq, n_sizes) + 1,
         "diagonal rate off at tau=1 b=1"),
        (gap, "run_gap", lambda *cell: True, planted_gap_check_error,
         "gap conv3 tau=3 b=1 tau_l=1 d=2: planted"),
        (gap, "run_gap", lambda *cell: True,
         lambda real, *cell: dataclasses.replace(real(*cell), separated=False),
         "gap not separated: conv3 tau=3 b=1 d=2"),
    ],
    ids=["vgms-verify", "diagonal-verify", "diagonal-rate", "gap-check", "gap-not-separated"],
)
def test_sweep_names_each_failed_check(capsys, monkeypatch, owner, name, hit, planted, failure):
    plant_once(monkeypatch, owner, name, hit, planted)
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--tau-max", "3",
        "--seeds", "1",
        "--t", "5",
        "--m", "2",
        "--d-max", "2",
    )
    assert code == 1
    assert err.endswith("\nerror: 1 check(s) failed\n")
    summary = json.loads(err[: err.rindex("error:")])
    assert summary["status"] == "failed" and summary["gap_cells"] >= 1
    assert len(summary["failures"]) == 1
    assert summary["failures"][0].startswith(failure)
    assert out.startswith("# config:")  # the rate table is still written


def test_sweep_row_of_a_stream_that_sends_nothing(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--tau-max", "2", "--m", "1", "--seeds", "16", "--d-max", "1"
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()[1:]))
    # seed 15 draws no symbol at tau = 2, so both of its vgms rows send nothing
    assert random_sizes(8, 1, 15) == [0] * 8
    empty = [i for i, row in enumerate(rows) if row["rate"] == "0/0"]
    assert empty == [15, 31]
    for i in empty:
        assert rows[i]["codec"] == "vgms" and rows[i]["rate_decimal"] == ""
        assert rows[i]["sizes"] == ",".join(["0"] * 10)


def test_config_file_defaults_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {"codec": "vgms", "tau": 4, "b": 2, "sizes": "3,2,1,2,1", "field_degree": 8}
        )
    )
    # everything from the config file
    code, _, err = run_cli(capsys, "encode", "--config", str(cfg))
    assert code == 0
    assert "rate 9/15" in err
    # flags beat the file: a different b changes the parity layout
    code, _, err = run_cli(capsys, "encode", "--config", str(cfg), "--b", "1")
    assert code == 0
    assert "rate 9/15" not in err


def test_config_file_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(
        capsys,
        "encode",
        "--config", str(cfg),
        "--codec", "vgms",
        "--tau", "4",
        "--b", "2",
        "--sizes", "1",
    )
    assert code == 2
    assert "bogus" in err


def test_missing_required_flag_is_config_error(capsys):
    code, _, err = run_cli(capsys, "encode", "--tau", "4", "--b", "2", "--sizes", "1")
    assert code == 2
    assert "--codec" in err


def test_offline_codec_via_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--codec", "lemma2_seq2",
        "--tau", "3",
        "--b", "2",
        "--tau-l", "1",
        "--d", "2",
        "--sizes", "2,2,2",
        "--pattern", "1,2",
        "--field-degree", "8",
    )
    assert code == 0
    slots = [json.loads(x) for x in out.splitlines()][1:]
    assert all(
        r["decode_time"] is not None and r["decode_time"] <= r["slot"] + 3
        for r in slots
        if r["k"]
    )


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("sweep", "--seed", "1"), "--seed"),  # would read as --seeds
        (("sweep", "--tau", "3"), "--tau"),  # --tau-max
        (("sweep", "--d", "3"), "--d"),  # --d-max
        (("simulate", "--codec", "vgms", "--tau", "2", "--b", "1", "--sizes", "1",
          "--pat", "0"), "--pat"),  # --pattern
        (("encode", "--codec", "vgms", "--tau", "2", "--b", "1", "--sizes", "1",
          "--field", "8"), "--field"),  # --field-degree
        (("gap", "--lemma", "conv1", "--tau", "5", "--b", "2", "--field", "8"), "--field"),
        (("verify", "--codec", "vgms", "--tau", "2", "--b", "1", "--t", "4", "--seed", "1"),
         "--seed"),
    ],
    ids=["sweep-seed", "sweep-tau", "sweep-d", "simulate-pat", "encode-field", "gap-field",
         "verify-seed"],
)
def test_no_subcommand_takes_an_abbreviated_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


@pytest.mark.parametrize("flag", [["--field-degree", "8"], ["--field-degree=8"]])
def test_config_file_loses_to_every_flag_spelling(capsys, tmp_path, flag):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {"codec": "vgms", "tau": 4, "b": 2, "sizes": "3,2,1,2,1", "field_degree": 16}
        )
    )
    code, out, _ = run_cli(capsys, "encode", *flag, "--config", str(cfg))
    assert code == 0
    assert json.loads(out.splitlines()[0])["config"]["field_degree"] == 8


REFERENCE_CONFIG = {"codec": "vgms", "tau": 4, "b": 2, "sizes": "3,2,1,2,1", "field_degree": 8}


@pytest.mark.parametrize(
    "key,value",
    [
        ("tau", 4.5),
        ("tau", True),
        ("tau", "four"),
        ("sizes", [3, 2, 1, 2, 1]),
        ("codec", "nope"),
        ("field_degree", None),
    ],
)
def test_config_file_value_of_wrong_type_is_config_error(capsys, tmp_path, key, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**REFERENCE_CONFIG, key: value}))
    code, _, err = run_cli(capsys, "encode", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: ") and repr(key) in err


@pytest.mark.parametrize("text", ["[1, 2]", '"vgms"', "4"])
def test_config_file_that_is_not_an_object_is_config_error(capsys, tmp_path, text):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "encode", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: {cfg} must hold one JSON object\n"


def test_random_sizes_without_t_is_config_error(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--codec", "vgms", "--tau", "3", "--b", "1", "--random-sizes", "5"
    )
    assert code == 2 and out == ""
    assert err == "error: --random-sizes needs --t for the stream length\n"


def test_rate_table_of_no_results_is_refused():
    with pytest.raises(ValueError, match="no results to tabulate"):
        cli.emit_rate_table([], {})


def test_config_file_string_numbers_convert_and_null_unsets(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**REFERENCE_CONFIG, "tau": "4", "b": "2", "m": None}))
    code, _, err = run_cli(capsys, "encode", "--config", str(cfg))
    assert code == 0
    assert "rate 9/15" in err


@pytest.mark.parametrize("error", [DecodeFailure, SingularMatrixError, GapCheckError])
def test_library_errors_exit_as_assertion_failures(capsys, monkeypatch, error):
    def broken_decode(self, received):
        raise error("construction guarantee broken")

    monkeypatch.setattr(VgmsCodec, "decode", broken_decode)
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--codec", "vgms",
        "--tau", "4",
        "--b", "2",
        "--sizes", "3,2,1,2,1",
        "--pattern", "2,3",
        "--field-degree", "8",
    )
    assert code == 1
    assert err == "error: construction guarantee broken\n"


VERIFY_VGMS = ("verify", "--codec", "vgms", "--tau", "3", "--b", "2", "--t", "8")


@pytest.mark.parametrize(
    "argv",
    [
        (*VERIFY_VGMS, "--seeds", "0"),
        (*VERIFY_VGMS, "--seeds", "-3"),
        ("sweep", "--seeds", "0"),
        ("sweep", "--tau-max", "0"),
        ("sweep", "--tau-max", "1"),
    ],
    ids=[
        "verify-seeds-0",
        "verify-seeds-negative",
        "sweep-seeds-0",
        "sweep-tau-max-0",
        "sweep-tau-max-1",
    ],
)
def test_run_that_checks_nothing_is_config_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "checks nothing" in err


def raise_lower_bound(monkeypatch):
    real = oracle.lower_bound_profile
    monkeypatch.setattr(
        oracle, "lower_bound_profile", lambda seq, p: [x + 1 for x in real(seq, p)]
    )


def corrupt_vgms_decode(monkeypatch):
    real = VgmsCodec.decode

    def decode(self, received):
        result = real(self, received)
        return DecodeResult(result.messages[:-1] + [[0]], result.decode_times)

    monkeypatch.setattr(VgmsCodec, "decode", decode)


@pytest.mark.parametrize(
    "codec,tau,b,tau_l,break_it,status",
    [
        ("vgms", 3, 2, 0, corrupt_vgms_decode, "counterexample"),
        ("vgms", 3, 2, 0, raise_lower_bound, "minimality-gap"),
        # the online codec decodes with zero lossless delay whatever --tau-l
        # allows, so the bound holds it exactly there too
        ("vgms", 4, 2, 1, raise_lower_bound, "minimality-gap"),
        # at b = tau the diagonal codec has zero lossless delay, so verify
        # holds it to the lower bound too (by dominance)
        ("diagonal", 2, 2, 0, raise_lower_bound, "minimality-gap"),
    ],
)
def test_verify_failure_names_seed_and_sizes(
    capsys, monkeypatch, codec, tau, b, tau_l, break_it, status
):
    break_it(monkeypatch)
    code, out, err = run_cli(
        capsys,
        "verify",
        "--codec", codec,
        "--tau", str(tau),
        "--b", str(b),
        "--tau-l", str(tau_l),
        "--t", "8",
        "--seeds", "2",
        "--field-degree", "8",
    )
    assert code == 1
    assert err == f"error: {status} at seed 0\n"
    report = json.loads(out)
    assert report["status"] == status
    failure = report["failure"]
    assert failure["seed"] == 0
    assert failure["sizes"] == list(terminate_sizes(random_sizes(9 - tau, 4, 0), tau, 4))
    if status == "counterexample":
        assert (failure["pattern"], failure["slot"]) == ([], 8)
        assert failure["reason"] == "recovered symbols differ"
    else:
        assert failure["slot"] == 0 and failure["want"] == failure["have"] + 1
        assert "replay" not in failure  # a profile gap is the stream's, not a decode's


def test_verify_names_a_pattern_whose_decode_raises(capsys, monkeypatch):
    # a decoder that refuses one admissible burst raises ValueError on a
    # received list the oracle made itself: a counterexample (exit 1) that
    # names the pattern, not a configuration error (exit 2)
    real = vgms.runs_admissible
    monkeypatch.setattr(
        vgms, "runs_admissible", lambda runs, p: runs != [(3, 4)] and real(runs, p)
    )
    code, out, err = run_cli(
        capsys,
        "verify",
        "--codec", "vgms",
        "--tau", "3",
        "--b", "2",
        "--t", "8",
        "--seeds", "1",
        "--field-degree", "8",
    )
    assert code == 1
    assert err == "error: counterexample at seed 0\n"
    failure = json.loads(out)["failure"]
    assert (failure["seed"], failure["pattern"], failure["slot"]) == (0, [3, 4], None)
    assert failure["reason"] == (
        "decode raised ValueError: loss pattern is not admissible for this channel"
    )


def wrong_symbol_under_loss(monkeypatch):
    real = VgmsCodec.decode

    def decode(self, received):
        result = real(self, received)
        if None in received:
            i = next(i for i, msg in enumerate(result.messages) if msg)
            result.messages[i] = [s ^ 1 for s in result.messages[i]]
        return result

    monkeypatch.setattr(VgmsCodec, "decode", decode)


def late_lossless_decode(monkeypatch):
    """The first message decodes one slot late when nothing is lost: still
    within tau, but past the lossless deadline."""
    real = VgmsCodec.decode

    def decode(self, received):
        result = real(self, received)
        if None not in received:
            result.decode_times[next(i for i, k in enumerate(self.seq) if k)] += 1
        return result

    monkeypatch.setattr(VgmsCodec, "decode", decode)


@pytest.mark.parametrize(
    "plant,reason",
    [
        (wrong_symbol_under_loss, "recovered symbols differ"),
        (late_lossless_decode, "lossless deadline missed"),
    ],
)
def test_verify_counterexample_replays_under_simulate(capsys, monkeypatch, plant, reason):
    plant(monkeypatch)
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--codec", "vgms",
        "--tau", "4",
        "--b", "2",
        "--t", "9",
        "--seeds", "1",
        "--field-degree", "8",
    )
    assert code == 1
    failure = json.loads(out)["failure"]
    assert failure["reason"].startswith(reason)
    replay = failure["replay"]
    assert replay[:5] == ["simulate", "--random-sizes", "0", "--seed", "0"]
    assert ("--pattern" in replay) == bool(failure["pattern"])
    code, out, err = run_cli(capsys, *replay)
    assert code == 1
    assert err == f"error: slot {failure['slot']}: {failure['reason']}\n"
    erased = [r["slot"] for r in map(json.loads, out.splitlines()[1:]) if r["erased"]]
    assert erased == failure["pattern"]


def test_verify_replay_carries_every_run_flag(capsys, monkeypatch):
    wrong_symbol_under_loss(monkeypatch)
    run_flags = {"w": 6, "m": 3, "tau_l": 1, "field_degree": 8}
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--codec", "vgms",
        "--tau", "4",
        "--b", "2",
        "--t", "9",
        "--seeds", "1",
        "--w", "6",
        "--m", "3",
        "--tau-l", "1",
        "--field-degree", "8",
    )
    assert code == 1
    code, out, _ = run_cli(capsys, *json.loads(out)["failure"]["replay"])
    assert code == 1
    config = json.loads(out.splitlines()[0])["config"]
    assert {key: config[key] for key in run_flags} == run_flags


VERIFY_OK = ("verify", "--codec", "vgms", "--tau", "2", "--b", "1", "--t", "4", "--seeds", "1",
             "--field-degree", "8")


@pytest.mark.parametrize(
    "extra",
    [
        ["--sizes", "9,9,9"],
        ["--sizes-file", "{sizes}"],
        ["--random-sizes", "3"],
        ["--seed", "7"],
        ["--d", "2"],
        ["--codec", "lemma1_seq1"],
        ["--config", "{config}"],
    ],
    ids=["sizes", "sizes-file", "random-sizes", "seed", "d", "offline-codec", "config-sizes"],
)
def test_verify_refuses_what_it_would_not_check(capsys, tmp_path, extra):
    # verify draws each seed's sizes and payload itself, and an offline
    # scheme binds to its prescribed sequence alone: none of these can be
    # honoured, so each is refused rather than echoed and ignored
    (tmp_path / "sizes.txt").write_text("9,9,9\n")
    (tmp_path / "run.json").write_text(json.dumps({"sizes": "9,9,9"}))
    paths = {"sizes": tmp_path / "sizes.txt", "config": tmp_path / "run.json"}
    try:
        code = main([*VERIFY_OK, *(x.format(**paths) for x in extra)])
    except SystemExit as exc:  # argparse refuses the flag itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("error:") == 1


@pytest.mark.parametrize("codec,tau_l", [("vgms", "0"), ("diagonal", "1")])
def test_encode_refuses_a_block_size_the_codec_does_not_read(capsys, codec, tau_l):
    # only the offline schemes read --d; echoing it for another codec
    # would claim a block size no stream used
    code, out, err = run_cli(
        capsys,
        "encode",
        "--codec", codec,
        "--tau", "2",
        "--b", "1",
        "--tau-l", tau_l,
        "--sizes", "1",
        "--d", "5",
        "--field-degree", "8",
    )
    assert (code, out) == (2, "")
    assert err == f"error: {codec} takes no block size d\n"


def test_random_sizes_run_to_t(capsys):
    # seed 4 draws 1,2,0,3,3,1,0,0, which already ends in tau zeros; the
    # stream still gets its tail, so the transcript covers slots 0..t
    code, out, _ = run_cli(
        capsys,
        "encode",
        "--codec", "vgms",
        "--tau", "2",
        "--b", "1",
        "--m", "3",
        "--t", "9",
        "--random-sizes", "4",
        "--field-degree", "8",
    )
    assert code == 0
    slots = [json.loads(x) for x in out.splitlines()[1:]]
    assert [r["slot"] for r in slots] == list(range(10))
    assert [r["k"] for r in slots] == [1, 2, 0, 3, 3, 1, 0, 0, 0, 0]


def test_second_offline_scheme_takes_a_d_its_pair_cannot(capsys):
    # lemma2_seq1 sends halves and needs an even d; lemma2_seq2 does not
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--codec", "lemma2_seq2",
        "--tau", "3",
        "--b", "2",
        "--tau-l", "1",
        "--d", "3",
        "--sizes", "3,3,3",
        "--pattern", "1,2",
        "--field-degree", "8",
    )
    assert (code, err) == (0, "")


def test_verify_diagonal_at_b_equal_tau_passes_dominance(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--codec", "diagonal",
        "--tau", "2",
        "--b", "2",
        "--t", "8",
        "--seeds", "2",
        "--field-degree", "8",
    )
    assert code == 0
    assert json.loads(out)["status"] == "ok"


@pytest.mark.parametrize("text", ["", " ", "\n"])
def test_empty_size_list_is_refused_by_its_flag(capsys, tmp_path, text):
    # an empty list used to be terminated into tau zeros and fail on "t >= tau"
    sizes_file = tmp_path / "sizes.txt"
    sizes_file.write_text(text)
    for flag, value in (("--sizes", text), ("--sizes-file", str(sizes_file))):
        code, _, err = run_cli(
            capsys, "encode", "--codec", "vgms", "--tau", "2", "--b", "1", flag, value
        )
        assert code == 2
        assert err.count("error:") == 1 and flag in err and "t >= tau" not in err
