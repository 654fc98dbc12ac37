"""Brute-force verifiers for the optimality and decodability claims.

Two independent instruments: a cumulative-symbol lower bound computed by a
counting recursion (no codec involved), and an exhaustive decode check that
replays every enumerated loss pattern through a codec and its decoder. The
codecs under test never feed the oracle side, so agreement is evidence.

`judge_decode` is the one verdict on a single decode (one message and one
decode time per slot, then the symbols, then the worst-case deadline, then
the lossless one for the empty pattern). The replay loop, `streamfec
simulate` and the tests all judge by it, so a failure `verify` reports
replays under `simulate` with the same reason.

`verify_stream` is the one per-stream check: the decode check, then
`profile_gap`, which at zero lossless delay holds the online codec ("vgms")
to the lower bound exactly and any other codec to dominance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from operator import le
from typing import Sequence

from .channel import enumerate_patterns, apply_pattern
from .model import CodeParams, SizeSequence, deadline_violation, require_valid
from .vgms import DecodeFailure, DecodeResult


def cumulative_profile(n_sizes: Sequence[int]) -> list[int]:
    out = []
    acc = 0
    for n in n_sizes:
        acc += n
        out.append(acc)
    return out


def lower_bound_profile(seq: SizeSequence, p: CodeParams) -> list[int]:
    """Minimum cumulative channel symbols through each slot for any scheme
    that satisfies both deadlines with zero lossless delay.

    Base case: each of the first tau slots must carry at least its own
    message. Inductive case: either the slot carries just its message, or
    some burst window ending tau slots back pins the whole span; the bound
    takes the worst (largest) requirement over all such windows:

        lb[i] = max(lb[i-1] + k_i,
                    max_{j in [max(0, i-tau-b+1), i-tau]}
                        lb[j+b-1] + sum(k[j..i-tau]) + sum(k[j+b..i]))
    """
    require_valid(p)
    if p.tau_l != 0:
        raise ValueError("the lower bound applies to zero-lossless-delay schemes")
    t = seq.t
    k = [seq.size(i) for i in range(t + 1)]
    lb: list[int] = []
    for i in range(t + 1):
        prev = lb[i - 1] if i else 0
        best = prev + k[i]
        if i >= p.tau:
            for j in range(max(0, i - p.tau - p.b + 1), i - p.tau + 1):
                cand = lb[j + p.b - 1] + sum(k[j : i - p.tau + 1]) + sum(k[j + p.b : i + 1])
                if cand > best:
                    best = cand
        lb.append(best)
    return lb


@dataclass
class ProfileGap:
    slot: int
    have: int
    want: int


def check_minimality(
    profile: Sequence[int], lb: Sequence[int], exact: bool
) -> ProfileGap | None:
    """First slot where the profile misses the bound (exact mode: differs)."""
    if len(profile) != len(lb):
        raise ValueError("profiles must cover the same slots")
    for i, (have, want) in enumerate(zip(profile, lb)):
        if have < want or (exact and have != want):
            return ProfileGap(i, have, want)
    return None


def profile_gap(codec) -> ProfileGap | None:
    """First slot where the codec's profile misses the lower bound, which
    applies when the codec's own lossless delay `codec.tau_l` is 0 (the
    online codec's always is, whatever its params say): exactly for
    "vgms", by dominance otherwise. Reads `codec.name`, so forwarding
    wrappers count as the codec wrapped."""
    if codec.tau_l != 0:
        return None
    lb = lower_bound_profile(codec.seq, replace(codec.params, tau_l=0))
    return check_minimality(cumulative_profile(codec.n_sizes), lb, exact=codec.name == "vgms")


@dataclass
class Counterexample:
    pattern: tuple[int, ...]
    slot: int | None
    reason: str


def judge_decode(
    codec, pattern: tuple[int, ...], result: DecodeResult, originals: Sequence[Sequence[int]]
) -> Counterexample | None:
    """The one verdict on a decode: the result holds one message and one
    decode time per slot, the recovered symbols match, the worst-case
    deadline holds, and the empty pattern also meets the codec's lossless
    deadline. `originals` must be a list of lists.

    Returns the first failing (pattern, slot, reason), else None.
    """
    sizes, tau = codec.seq.sizes, codec.params.tau
    return _judge(sizes, tau, codec.tau_l, _deadlines(sizes, tau), pattern, result, originals)


def _deadlines(sizes: Sequence[int], tau: int) -> list[int]:
    """The worst-case deadline of each slot that carries symbols."""
    return [i + tau for i, k in enumerate(sizes) if k]


def _judge(sizes, tau, tau_l, due, pattern, result, originals) -> Counterexample | None:
    """`judge_decode` on numbers read from the codec, so that the replay
    loop reads them once per stream rather than once per pattern; `due` is
    `_deadlines(sizes, tau)`. A result without exactly one message and one
    decode time per slot fails first; a well-formed one pays for that one
    length comparison, since messages of another length differ from the
    originals anyway. A lossy decode that meets every deadline passes in
    one C-level pass over `due`; any other goes through
    `deadline_violation`, which names the slot."""
    messages, times = result.messages, result.decode_times
    if len(times) != len(sizes) or messages != originals:
        if len(messages) != len(sizes) or len(times) != len(sizes):
            shape = f"{len(messages)} messages and {len(times)} decode times"
            return Counterexample(pattern, None, f"result holds {shape} for {len(sizes)} slots")
        for i, want in enumerate(originals):
            if messages[i] != want:
                return Counterexample(pattern, i, "recovered symbols differ")
    if pattern and None not in times and all(map(le, compress(times, sizes), due)):
        return None
    bad, kind = deadline_violation(sizes, times, tau), "worst-case"
    if bad is None and not pattern:
        bad, kind = deadline_violation(sizes, times, tau_l), "lossless"
    if bad is not None:
        return Counterexample(
            pattern, bad.slot, f"{kind} deadline missed ({bad.decode_time} > {bad.deadline})"
        )
    return None


def exhaustive_decode_check(
    codec, payload: Sequence[Sequence[int]], mode: str
) -> Counterexample | None:
    """Encode once, then decode every enumerated pattern and judge it by
    `judge_decode`. A decode that raises fails too: the received list is
    the oracle's own, made from the codec's encode by an enumerated
    pattern, so whatever the decoder raises on it, `DecodeFailure` or any
    other exception, is a counterexample whose reason names the exception.
    An unknown `mode` raises ValueError before any decode.

    Returns the first failing (pattern, slot, reason), else None.
    """
    p: CodeParams = codec.params
    sizes, tau_l = codec.seq.sizes, codec.tau_l
    due = _deadlines(sizes, p.tau)
    packets = codec.encode(payload)
    originals = [list(pkt) for pkt in payload]
    for pattern in enumerate_patterns(p, mode):
        received = apply_pattern(pattern, packets)
        try:
            result = codec.decode(received)
        except DecodeFailure as exc:
            return Counterexample(pattern, None, f"decode failure: {exc}")
        except Exception as exc:
            return Counterexample(pattern, None, f"decode raised {type(exc).__name__}: {exc}")
        bad = _judge(sizes, p.tau, tau_l, due, pattern, result, originals)
        if bad is not None:
            return bad
    return None


def verify_stream(
    codec, payload: Sequence[Sequence[int]], mode: str
) -> Counterexample | ProfileGap | None:
    """The per-stream check: every enumerated pattern decodes in time, then
    the profile meets the lower bound where it applies. First failure."""
    bad = exhaustive_decode_check(codec, payload, mode)
    return bad if bad is not None else profile_gap(codec)
