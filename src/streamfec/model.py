"""Stream model: parameters, size sequences, rates, deadlines.

A stream is t+1 time slots. At slot i the sender gets a message packet of
k_i symbols and emits a channel packet of n_i symbols that may only depend
on messages 0..i. Two deadlines apply: every message must be decodable
within `tau` slots under any admissible loss, and within `tau_l` slots when
nothing is lost. Rates are kept as exact rationals because the optimality
comparisons downstream hinge on exact ties; `stream_rate` is the one rate
rule.

`Transcript`, `build_transcript` and `check_delays` serve only the CLI's
transcripts and `perfbench`'s vgms-bulk workload, which calls the last two
by name. They stay here until that workload judges its decodes by
`oracle.judge_decode`; the transcript's JSON is written by `cli`.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .gf import GF


@dataclass(frozen=True)
class CodeParams:
    """Channel and deadline parameters shared by every codec and oracle.

    tau    worst-case decoding deadline, in time slots
    b      maximum burst length, in packets
    tau_l  lossless decoding deadline (0 <= tau_l <= tau - b)
    w      sliding window length of the loss channel (w > tau)
    m      maximum message packet size, in symbols
    t      index of the final time slot
    """

    tau: int
    b: int
    tau_l: int
    w: int
    m: int
    t: int


def make_params(
    tau: int,
    b: int,
    *,
    m: int,
    t: int,
    tau_l: int = 0,
    w: int | None = None,
) -> CodeParams:
    """Build params; `w` defaults to tau + 1, the tightest allowed window."""
    return CodeParams(tau, b, tau_l, tau + 1 if w is None else w, m, t)


def param_violations(p: CodeParams) -> list[str]:
    """Every violated parameter inequality, as human-readable strings."""
    bad = []
    if p.b < 1:
        bad.append("b >= 1")
    if p.b > p.tau:
        bad.append("b <= tau")
    if p.tau_l < 0:
        bad.append("tau_l >= 0")
    if p.tau_l > p.tau - p.b:
        bad.append("tau_l <= tau - b")
    if p.w <= p.tau:
        bad.append("w > tau")
    if p.m < 1:
        bad.append("m >= 1")
    if p.t < p.tau:
        bad.append("t >= tau")
    return bad


def require_valid(p: CodeParams) -> None:
    bad = param_violations(p)
    if bad:
        raise ValueError("invalid parameters: " + "; ".join(bad))


def _integer_sizes(sizes: Iterable[int]) -> list[int]:
    """The sizes as ints. A size that is not an integer, such as 1.7 or
    "3", is a ValueError that names its slot, where int() would truncate
    or parse it."""
    out = []
    for i, k in enumerate(sizes):
        try:
            out.append(operator.index(k))
        except TypeError:
            raise ValueError(f"message size {k!r} at slot {i} is not an integer") from None
    return out


class SizeSequence:
    """A message size sequence; reads outside [0, t] return 0."""

    def __init__(self, sizes: Iterable[int]) -> None:
        self._sizes = tuple(_integer_sizes(sizes))
        if any(k < 0 for k in self._sizes):
            raise ValueError("message sizes must be >= 0")

    @property
    def sizes(self) -> tuple[int, ...]:
        return self._sizes

    @property
    def t(self) -> int:
        return len(self._sizes) - 1

    @property
    def total(self) -> int:
        return sum(self._sizes)

    def size(self, i: int) -> int:
        if 0 <= i < len(self._sizes):
            return self._sizes[i]
        return 0

    def __len__(self) -> int:
        return len(self._sizes)

    def __iter__(self) -> Iterator[int]:
        return iter(self._sizes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SizeSequence):
            return self._sizes == other._sizes
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._sizes)

    def __repr__(self) -> str:
        return f"SizeSequence({list(self._sizes)})"


def terminate_sizes(raw: Sequence[int], tau: int, m: int) -> SizeSequence:
    """Append tau zero-size packets so the stream tail is flushable.

    A sequence that already ends in tau zeros after at least one more slot
    is returned unchanged, so terminating a non-empty sequence twice is
    terminating it once. A sequence of exactly tau zeros is not terminated:
    it gets its tail too, or it would leave t = tau - 1 < tau.
    """
    raw = _integer_sizes(raw)
    for k in raw:
        if not 0 <= k <= m:
            raise ValueError(f"message size {k} outside [0, {m}]")
    if len(raw) > tau and all(k == 0 for k in raw[-tau:]):
        return SizeSequence(raw)
    try:
        tail = [0] * tau
    except (MemoryError, OverflowError):
        raise ValueError(f"tau = {tau} zero-size slots do not fit in memory") from None
    return SizeSequence(raw + tail)


@dataclass
class SlotRecord:
    slot: int
    k: int
    n: int
    erased: bool
    decode_time: int | None  # None means never decoded


@dataclass
class DelayViolation:
    slot: int
    decode_time: int | None
    deadline: int


@dataclass
class Transcript:
    """Per-slot record of one encode/loss/decode run."""

    params: CodeParams
    records: list[SlotRecord]

    @property
    def k_sizes(self) -> list[int]:
        return [r.k for r in self.records]


def build_transcript(
    params: CodeParams,
    seq: SizeSequence,
    n_sizes: Sequence[int],
    erased: Iterable[int],
    decode_times: Sequence[int | None],
) -> Transcript:
    lost = set(erased)
    records = [
        SlotRecord(i, seq.size(i), n_sizes[i], i in lost, decode_times[i])
        for i in range(seq.t + 1)
    ]
    return Transcript(params, records)


def stream_rate(seq: SizeSequence, n_sizes: Sequence[int]) -> Fraction:
    """Total message symbols over total channel symbols, exactly."""
    den = sum(n_sizes)
    if den == 0:
        raise ValueError("rate undefined: no channel symbols were sent")
    return Fraction(seq.total, den)


def deadline_violation(
    sizes: Sequence[int], decode_times: Sequence[int | None], budget: int
) -> DelayViolation | None:
    """First slot i with sizes[i] > 0 not decoded by slot i + budget, or None.

    The one deadline rule: zero-size packets carry nothing and are never
    violations, and a packet never decoded (None) always is.
    """
    for i, (k, done) in enumerate(zip(sizes, decode_times)):
        if k and (done is None or done > i + budget):
            return DelayViolation(i, done, i + budget)
    return None


def check_delays(tr: Transcript, lossless: bool) -> DelayViolation | None:
    """First deadline violation of a transcript, or None.

    Lossless mode holds packets to slot + tau_l; lossy mode to slot + tau.
    """
    budget = tr.params.tau_l if lossless else tr.params.tau
    return deadline_violation(tr.k_sizes, [r.decode_time for r in tr.records], budget)


def random_sizes(length: int, m: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(0, m) for _ in range(length)]


def random_payload(seq: SizeSequence, fld: GF, seed: int) -> list[list[int]]:
    """Seeded uniform message symbols, one list per slot."""
    rng = random.Random(seed)
    return [
        [rng.randrange(fld.order) for _ in range(seq.size(i))]
        for i in range(seq.t + 1)
    ]


def symbol_offsets(seq: SizeSequence) -> list[int]:
    """Prefix sums: message symbol (slot i, pos r) has flat index off[i] + r."""
    off = [0]
    for k in seq:
        off.append(off[-1] + k)
    return off
