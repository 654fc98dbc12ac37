"""Burst loss channel: admissibility, enumeration, application.

A loss pattern is a set of erased slot indices. It is admissible when every
sliding window of `w` consecutive slots contains at most one contiguous run
of erased slots, and that run is no longer than `b`. Truncated bursts at the
stream boundaries are ordinary shorter bursts.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .model import CodeParams

FULL_ENUMERATION_CAP = 24  # slots; 2^(t+1) explodes past this


def erased_runs(erased: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive erased slots, as (start, end) pairs."""
    runs: list[tuple[int, int]] = []
    for x in sorted(set(erased)):
        if runs and x == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], x)
        else:
            runs.append((x, x))
    return runs


def is_admissible(erased: Sequence[int], p: CodeParams) -> bool:
    """One pass over the erased runs: no run is longer than b, and each run
    starts at least w slots after the previous one ends (closer, and some
    window would hold both)."""
    runs = erased_runs(erased)
    if runs and (runs[0][0] < 0 or runs[-1][1] > p.t):
        raise ValueError("erased slot outside [0, t]")
    prev_end = -p.w  # no run before slot 0
    for start, end in runs:
        if end - start + 1 > p.b or start - prev_end < p.w:
            return False
        prev_end = end
    return True


def single_burst_patterns(p: CodeParams) -> Iterator[tuple[int, ...]]:
    """The empty pattern plus every burst of length 1..b at every start."""
    yield ()
    for length in range(1, p.b + 1):
        for start in range(0, p.t - length + 2):
            yield tuple(range(start, start + length))


def all_patterns(p: CodeParams) -> Iterator[tuple[int, ...]]:
    """Every admissible pattern exactly once, in lexicographic order."""
    if p.t + 1 > FULL_ENUMERATION_CAP:
        raise ValueError(
            f"full enumeration capped at {FULL_ENUMERATION_CAP} slots, got {p.t + 1}"
        )

    def extend(prefix: list[int], run_len: int) -> Iterator[tuple[int, ...]]:
        yield tuple(prefix)
        if not prefix:
            for nxt in range(0, p.t + 1):
                prefix.append(nxt)
                yield from extend(prefix, 1)
                prefix.pop()
            return
        last = prefix[-1]
        if run_len < p.b and last + 1 <= p.t:
            prefix.append(last + 1)
            yield from extend(prefix, run_len + 1)
            prefix.pop()
        # a new run may start only once the window has slid past this one
        for nxt in range(last + p.w, p.t + 1):
            prefix.append(nxt)
            yield from extend(prefix, 1)
            prefix.pop()

    yield from extend([], 0)


def enumerate_patterns(p: CodeParams, mode: str) -> Iterator[tuple[int, ...]]:
    if mode == "single":
        return single_burst_patterns(p)
    if mode == "full":
        return all_patterns(p)
    raise ValueError(f"unknown enumeration mode {mode!r} (want 'single' or 'full')")


def apply_pattern(erased: Sequence[int], packets: Sequence) -> list:
    """Replace erased slots with None, pass the rest through intact."""
    lost = set(erased)
    return [None if i in lost else pkt for i, pkt in enumerate(packets)]
