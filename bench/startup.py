#!/usr/bin/env python3
"""Layer bench of start-up costs: field tables and the VGMS layout.

    python3 bench/startup.py            # full run; writes bench/BENCH_startup.json
    python3 bench/startup.py --quick    # smoke run of every case, under 2 s

Times two steps that every process and every codec binding pays before it
encodes or decodes, each against the way it was computed before:

    GF(d)          construction of the field's log/antilog tables at d = 8,
                   12 and 16: one walk over the powers of x (`gf.GF`)
                   against a search for a generator that walks each
                   candidate's powers by schoolbook multiplication
    packet_layout  `vgms.packet_layout` of streams sized as vgms-bulk binds
                   them (tau=16, b=4, m=32, 100 messages, mirrored pairs):
                   `vgms.parity_budget`'s running window against one pair
                   of slice sums per window start, the reference that
                   tests/test_vgms.py checks it against

Both sides of a case must give identical tables or layouts. The samples are
interleaved in one process: every round times each case on both sides, in
alternating order, so drift of a shared host falls on both alike. The
result gives the median time per call of each side and the ratio
after / before; below 1 the current code is faster. Run from the root of a
source checkout; the package is imported from `src/` and the reference
budget from `tests/`. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import random
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent / "tests"))

from gf_tables import before_after_main, run_sides  # noqa: E402
from test_vgms import slice_sum_budget  # noqa: E402
from streamfec import vgms  # noqa: E402
from streamfec.gf import COMPACT_TABLES_FROM_DEGREE, GF  # noqa: E402
from streamfec.model import make_params, terminate_sizes  # noqa: E402

DEGREES = (8, 12, 16)
# rounds, calls per sample, and the layout streams: count, messages, tau, b, m
FULL = dict(rounds=15, calls=3, streams=16, messages=100, tau=16, b=4, m=32)
QUICK = dict(rounds=2, calls=1, streams=2, messages=20, tau=16, b=4, m=32)


class SearchGF(GF):
    """GF with its tables built as before: try g = 1, 2, .. until one
    generates the multiplicative group, walking the powers of each by
    schoolbook multiplication."""

    def _build_tables(self):
        span = self.order - 1
        compact = self.degree >= COMPACT_TABLES_FROM_DEGREE
        for g in range(1, self.order):
            if compact:
                exp, log = array("H", bytes(2 * span)), array("H", bytes(2 * self.order))
            else:
                exp, log = [0] * span, [0] * self.order
            exp[0] = 1
            val = g
            for i in range(1, span):
                if val == 1:  # g generates a proper subgroup
                    break
                exp[i] = val
                log[val] = i
                val = self.mul_schoolbook(val, g)
            else:
                return exp + exp, log
        raise RuntimeError("no multiplicative generator found")


def layouts(streams, budget) -> list:
    """Every stream's layout, its budgets computed by `budget`."""
    saved = vgms.parity_budget
    vgms.parity_budget = budget
    try:
        return [vgms.packet_layout(seq, p) for seq, p in streams]
    finally:
        vgms.parity_budget = saved


def layout_streams(size: dict) -> list:
    """(sequence, params) of mirrored pairs of uniform size draws, seeded
    with 0."""
    rng = random.Random(0)
    tau, b, m = size["tau"], size["b"], size["m"]
    out = []
    for _ in range(size["streams"] // 2):
        sizes = [rng.randint(0, m) for _ in range(size["messages"])]
        for raw in (sizes, [m - k for k in sizes]):
            seq = terminate_sizes(raw, tau, m)
            out.append((seq, make_params(tau, b, m=m, t=seq.t)))
    return out


def cases(size: dict) -> dict:
    """case name -> {side: zero-argument call}, each side checked against
    the other once."""
    out = {}
    for degree in DEGREES:
        before, after = SearchGF(degree), GF(degree)
        if (before.exp, before.log) != (after.exp, after.log):
            raise RuntimeError(f"GF({degree}) tables differ between the two builds")
        out[f"GF({degree})"] = {
            "before": lambda d=degree: SearchGF(d),
            "after": lambda d=degree: GF(d),
        }
    streams = layout_streams(size)
    old, new = layouts(streams, slice_sum_budget), layouts(streams, vgms.parity_budget)
    for was, now in zip(old, new):
        if (was.trace(), was.budgets) != (now.trace(), now.budgets):
            raise RuntimeError("packet layouts differ between the two budgets")
    out["packet_layout"] = {
        "before": lambda: layouts(streams, slice_sum_budget),
        "after": lambda: layouts(streams, vgms.parity_budget),
    }
    return out


def run(size: dict) -> list[dict]:
    return run_sides(cases(size), size)


def main(argv: list[str] | None = None) -> int:
    return before_after_main(argv, "startup", __doc__, FULL, QUICK, run, {})


if __name__ == "__main__":
    sys.exit(main())
