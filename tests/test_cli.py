"""End-to-end runs of the command line harness."""

import json

import pytest

from streamfec.cauchy import SingularMatrixError
from streamfec.cli import main
from streamfec.codecs import VgmsCodec
from streamfec.gap import GapCheckError
from streamfec.vgms import DecodeFailure


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


@pytest.mark.parametrize("flag", [["--field", "8"], ["--field-degree=8"]])
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
