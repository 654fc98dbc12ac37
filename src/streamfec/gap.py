"""Online-versus-offline rate separation experiments.

Outside the two regimes where an online scheme can match the best offline
rate (tau_l = tau - b with b dividing tau, and tau_l = 0), a pair of size
sequences sharing a prefix forces any single scheme to fail one of two
prefix symbol-count conditions. Each experiment builds the two offline
reference schemes, confirms their exact rates, computes the prefix budget
(most an R1-achieving scheme may send early) and the prefix demand (least
an R2-achieving scheme must send there), and checks budget < demand.

The regime rule and the scheme pairs live in `baselines`; `REGIMES` and
`classify_regime` are imported from there. A scheme checks itself when it
is constructed, so `run_gap` raises ValueError for parameters outside the
lemma's family or a d that either scheme cannot split, and `gap_cells`
reads each scheme's `scheme_d_step` without building one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import baselines
from .baselines import REGIMES, classify_regime  # noqa: F401  (the regime rule lives there)
from .gf import GF
from .model import stream_rate


@dataclass
class GapReport:
    # the fields before `details`, in this order, are the columns of the
    # CSV that `streamfec gap` writes
    lemma: str
    tau: int
    b: int
    tau_l: int
    d: int
    rate1: Fraction
    rate2: Fraction
    budget: Fraction  # most the R1 condition allows in the contested prefix
    demand: Fraction  # least the R2 condition requires there
    separated: bool
    details: dict = dc_field(default_factory=dict)


class GapCheckError(AssertionError):
    """An experiment's internal cross-check failed."""


def run_gap(
    lemma: str,
    tau: int,
    b: int,
    tau_l: int | None,
    d: int,
    fld: GF,
) -> GapReport:
    """Build both reference schemes, pin their rates, and check separation.

    A `tau_l` of None means tau - b, which only conv1 and conv2 allow.
    Every symbolic quantity is cross-checked against the schemes' actual
    transcripts: scheme 1 must spend exactly the budget in the contested
    prefix, scheme 2 must witness the demand.
    """
    if tau_l is None:
        if lemma not in ("conv1", "conv2"):
            raise ValueError(f"{lemma} needs an explicit tau_l")
        tau_l = tau - b
    sch1, sch2 = baselines.scheme_pair(lemma, tau, b, tau_l, d)
    st1, st2 = (baselines.offline_stream(sch, fld) for sch in (sch1, sch2))

    rate1, rate2 = (stream_rate(st.seq, st.n_sizes) for st in (st1, st2))
    want1, want2 = map(baselines.scheme_stated_rate, (sch1, sch2))
    if rate1 != want1 or rate2 != want2:
        raise GapCheckError(
            f"scheme rates {rate1}, {rate2} differ from stated {want1}, {want2}"
        )

    # witnesses: scheme 1 spends exactly the budget in slots 0..b-1, scheme
    # 2 exactly the demand in slots 0..e-1 (conv1) or 0..b-1
    details: dict = {
        "witness_budget": sum(st1.n_sizes[:b]),
        "witness_demand": sum(st2.n_sizes[: sch1.e if lemma == "conv1" else b]),
    }
    if lemma == "conv1":
        budget = Fraction(d * sch1.e, sch1.a + 1)
        demand = Fraction(d * sch1.e)
        ok = True
    elif lemma == "conv2":
        budget = d * (b - tau_l) + Fraction(d, 2)
        demand = Fraction(d * (b - tau_l + 1))
        # total accounting: a budget-compliant prefix forces more symbols in
        # total than the R2 rate allows
        details["total_required"] = d * (2 * b - 2 * tau_l + 3) + Fraction(d, 2)
        details["total_allowed"] = Fraction(d * (2 * b - 2 * tau_l + 3))
        details["witness_total"] = sum(st2.n_sizes)
        ok = details["witness_total"] == details["total_allowed"] < details["total_required"]
    else:  # conv3
        budget = d * b - Fraction(d, 2)
        demand = Fraction(d * b)
        ok = _cyclic_channels_ok(st2, tau, b, d, details)
    if not (ok and details["witness_budget"] == budget and details["witness_demand"] == demand):
        raise GapCheckError(f"witness cross-checks failed: {details}")

    separated = demand > budget
    return GapReport(lemma, tau, b, tau_l, d, rate1, rate2, budget, demand, separated, details)


def _cyclic_channels_ok(
    st2: baselines.LinearStream, tau: int, b: int, d: int, details: dict
) -> bool:
    """The averaging argument, executed: the channels erasing bursts at
    slots congruent to i (mod tau+b) together drop every packet exactly b
    times, and each leaves at least d*tau symbols standing."""
    n_sizes = st2.n_sizes
    t = st2.seq.t
    period = tau + b
    dropped_per_channel = []
    for i in range(period):
        dropped = set()
        start = i - period  # negative starts truncate to a prefix burst
        while start <= t:
            if start + b - 1 >= 0:
                dropped.update(range(max(start, 0), min(start + b, t + 1)))
            start += period
        dropped_per_channel.append(sum(n_sizes[s] for s in dropped))
    details["cyclic_dropped"] = dropped_per_channel
    total = sum(n_sizes)
    if sum(dropped_per_channel) != b * total:
        return False
    if sum(dropped_per_channel) != d * b * period:  # == b * d * (tau + b)
        return False
    return all(total - li >= d * tau for li in dropped_per_channel)


def sweep_classifier(tau_max: int) -> dict[tuple[int, int, int], str]:
    """Classify every valid (tau, b, tau_l) with tau <= tau_max."""
    out = {}
    for tau in range(1, tau_max + 1):
        for b in range(1, tau + 1):
            for tau_l in range(0, tau - b + 1):
                out[(tau, b, tau_l)] = classify_regime(tau, b, tau_l)
    return out


def gap_cells(tau_max: int, d_max: int) -> list[tuple[str, int, int, int, int]]:
    """Every (lemma, tau, b, tau_l, d) cell with d in 1..d_max that both of
    the lemma's schemes accept."""
    cells = []
    for (tau, b, tau_l), regime in sweep_classifier(tau_max).items():
        if regime not in baselines.LEMMA_SCHEMES:
            continue
        step = math.lcm(
            *(baselines.scheme_d_step(sid, b, tau_l) for sid in baselines.LEMMA_SCHEMES[regime])
        )
        cells.extend((regime, tau, b, tau_l, d) for d in range(step, d_max + 1, step))
    return cells
