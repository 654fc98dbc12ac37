"""The command line contract as a property: any argv drawn from the
documented flags ends in exit 0, 1 or 2, never in a traceback, and a
non-zero exit prints exactly one `error:` line.

Each subcommand's flags get small, zero, negative, huge and non-numeric
values, file flags point at good, malformed and missing files, and the
flags come in any order. The tables of flags list exactly the option
strings the parser registers for each subcommand, which a second test
checks, so a flag cannot be added or removed without the property seeing it. Runs are in process, so a traceback is an
exception other than argparse's SystemExit escaping `main`.

Huge values (2^62 and 10^20) are large enough that any allocation sized by
them fails before it starts. The flags that size the run symbol by symbol
are bounded instead: --seeds, --t and --tau-max set how many streams and
slots are checked, and --m, --d, --d-max and the --sizes entries how many
symbols each message holds, so a huge value there asks for a huge run
rather than a malformed one. The bounds keep every example to milliseconds.

Hypothesis runs derandomized with a fixed example budget and no example
database, so the examples are the same on every run.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from streamfec.cli import build_parser, main
from streamfec.codecs import CODEC_IDS
from streamfec.gap import gap_cells

HUGE = ("4611686018427387904", "100000000000000000000")
NON_NUMERIC = ("x", "1.5", "", "0x10", "1e3", "4,")
# (lemma, tau, b, tau_l, d) cells that `gap` accepts; random flags rarely meet
# every lemma's conditions
GAP_CELLS = gap_cells(6, 6)


def mostly(usual: st.SearchStrategy[str], odd: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """`usual` about 7 times in 8 (hypothesis favours the low end): with
    several flags per argv, most runs then get past argument parsing and
    reach the commands."""
    return st.integers(1, 8).flatmap(lambda r: odd if r == 8 else usual)


def ints(lo: int, hi: int, huge: bool = True) -> st.SearchStrategy[str]:
    """An int flag's value: mostly in [lo, hi], else zero, negative, huge
    or non-numeric."""
    odd = ("0", "-1", "-9") + (HUGE if huge else ()) + NON_NUMERIC
    return mostly(st.integers(lo, hi).map(str), st.sampled_from(odd))


def int_list(lo: int, hi: int) -> st.SearchStrategy[str]:
    """A comma-separated list flag, well formed or not."""
    good = st.lists(st.integers(lo, hi), min_size=1, max_size=8).map(lambda xs: ",".join(map(str, xs)))
    return mostly(good, st.sampled_from(("", "1,,2", "a", "1.5", " , ", "-1", HUGE[0])))


def file_flag(paths: dict[str, str], *names: str) -> st.SearchStrategy[str]:
    return st.sampled_from([paths[n] for n in names])


def flag_tables(paths: dict[str, str]) -> dict[str, tuple[tuple[str, ...], dict]]:
    """Per subcommand: the flags given more often, and a value strategy for
    every flag it registers."""
    run = {
        "--config": file_flag(paths, "config", "config_run", "config_bad_json", "config_list",
                              "config_bad_type", "config_unknown_key", "missing", "dir"),
        "--tau": ints(1, 6),
        "--b": ints(1, 6),
        "--tau-l": ints(0, 5),
        "--w": ints(2, 9),
        "--m": ints(1, 6, huge=False),
        "--field-degree": mostly(st.sampled_from(("8", "16", "4", "2", "1")), st.sampled_from(("17", "0", "-1") + HUGE + NON_NUMERIC)),
        "--out": file_flag(paths, "out", "dir", "missing_dir_out"),
        # the offline schemes accept only their own prescribed sequence
        "--codec": mostly(st.sampled_from(("vgms", "diagonal")), st.sampled_from(CODEC_IDS + ("nope",))),
        "--t": ints(2, 12, huge=False),
    }
    given = {  # encode and simulate build the stream they are given
        **run,
        "--seed": ints(0, 3),
        "--d": ints(1, 8, huge=False),
        "--sizes": int_list(0, 6),
        "--sizes-file": file_flag(paths, "sizes", "sizes_bad", "missing", "dir"),
        "--random-sizes": ints(0, 3),
    }
    likely = ("--codec", "--tau", "--b")  # given more often, so that runs get far
    return {
        "encode": (likely + ("--sizes",), given),
        "simulate": (likely + ("--sizes", "--pattern"), {**given, "--pattern": int_list(0, 14)}),
        "verify": (likely + ("--seeds", "--t"), {
            **run,
            "--seeds": ints(1, 3, huge=False),
            "--enumerate": st.sampled_from(("single", "full", "both")),
        }),
        "gap": (("--lemma", "--tau", "--b"), {
            "--config": run["--config"],
            "--lemma": mostly(st.sampled_from(("conv1", "conv2", "conv3")), st.just("conv4")),
            "--tau": ints(2, 7),
            "--b": ints(1, 4),
            "--tau-l": ints(1, 5),
            "--d": ints(1, 8, huge=False),
            "--field-degree": run["--field-degree"],
            "--out": run["--out"],
        }),
        "sweep": (("--tau-max", "--seeds"), {
            "--config": run["--config"],
            "--tau-max": ints(2, 3, huge=False),
            "--seeds": ints(1, 2, huge=False),
            "--t": ints(3, 9, huge=False),
            "--m": ints(1, 4, huge=False),
            "--d-max": ints(2, 6, huge=False),
            "--field-degree": run["--field-degree"],
            "--out": run["--out"],
        }),
    }


def argv_strategy(paths: dict[str, str]) -> st.SearchStrategy[list[str]]:
    flags = flag_tables(paths)

    @st.composite
    def argv(draw) -> list[str]:
        command = draw(st.sampled_from(sorted(flags)))
        usual, options = flags[command]
        cell = []
        if command == "gap" and draw(st.booleans()):
            lemma, tau, b, tau_l, d = draw(st.sampled_from(GAP_CELLS))
            cell = ["--lemma", lemma, "--tau", str(tau), "--b", str(b), "--tau-l", str(tau_l), "--d", str(d)]
            usual = ()  # drawn flags come after the cell, and the last one given wins
        # verify's --seeds and sweep's --tau-max and --seeds are always given
        # (bounded): their defaults would run 20 or 5 streams per example
        chosen = {f for f in usual if f in ("--seeds", "--tau-max")}
        chosen |= {f for f in usual if draw(st.integers(1, 8)) < 8}
        chosen |= set(draw(st.lists(st.sampled_from(sorted(options)), max_size=4)))
        pairs = [[flag, draw(options[flag])] for flag in sorted(chosen)]
        pairs = draw(st.permutations(pairs))
        return [command] + cell + [token for pair in pairs for token in pair]

    return argv()


def make_files(root) -> dict[str, str]:
    (root / "dir").mkdir()
    files = {
        "sizes": "3,2,1\n",
        "sizes_bad": "3,x\n",
        "config": json.dumps({"codec": "vgms", "tau": 3, "b": 2, "sizes": "2,1", "field_degree": 8}),
        "config_run": json.dumps({"codec": "vgms", "tau": 3, "b": 2, "t": 5, "field_degree": 8}),
        "config_bad_json": "{",
        "config_list": "[1]",
        "config_bad_type": json.dumps({"tau": 4.5}),
        "config_unknown_key": json.dumps({"bogus": 1}),
    }
    paths = {}
    for name, text in files.items():
        (root / name).write_text(text)
        paths[name] = str(root / name)
    paths.update(
        out=str(root / "out.txt"),
        dir=str(root / "dir"),
        missing=str(root / "missing"),
        missing_dir_out=str(root / "missing" / "out.txt"),
    )
    return paths


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process run; any other exception
    escaping `main` fails the test as the traceback it would print."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, err.getvalue()


def test_every_argv_exits_0_1_or_2_with_one_error_line(tmp_path):
    paths = make_files(tmp_path)

    @settings(
        derandomize=True,
        database=None,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(argv_strategy(paths))
    # a huge --tau used to escape as MemoryError or OverflowError from the
    # zero tail it appends to the stream
    @example(["encode", "--codec", "vgms", "--tau", HUGE[0], "--b", "1", "--sizes", "1"])
    @example(["simulate", "--codec", "diagonal", "--tau", HUGE[1], "--b", "1", "--sizes", "1"])
    def check(argv):
        code, err = run(argv)
        assert code in (0, 1, 2), (argv, code, err)
        if code:
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1, (argv, code, err)

    check()


def test_flag_tables_list_exactly_the_parsers_flags(tmp_path):
    # a flag the parser gains or drops must reach the tables above, or the
    # property would stop drawing it, or keep drawing one that is gone
    _, commands = build_parser()
    tables = flag_tables(make_files(tmp_path))
    assert sorted(tables) == sorted(commands)
    for command, sp in commands.items():
        registered = {s for action in sp._actions for s in action.option_strings}
        assert set(tables[command][1]) == registered - {"-h", "--help"}, command
