"""Burst loss channel: admissibility, enumeration, application, and the
check of a received list against its stream.

A loss pattern is a set of erased slot indices. It is admissible when every
sliding window of `w` consecutive slots contains at most one contiguous run
of erased slots, and that run is no longer than `b`. Truncated bursts at the
stream boundaries are ordinary shorter bursts.

The rule is written once, in `runs_admissible`, on the pattern's erased runs
in slot order. `is_admissible` applies it to a set of slots. A decoder
applies it to the runs that `check_received` returns: that check already
walks the received list slot by slot, so it builds the runs in the same
walk, with no sort.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .gf import GF, in_field
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
    """Is the set of erased slots an admissible pattern? Raises ValueError
    for a slot outside [0, t]."""
    return runs_admissible(erased_runs(erased), p)


def runs_admissible(runs: Sequence[tuple[int, int]], p: CodeParams) -> bool:
    """The admissibility rule, on the erased runs in slot order, as
    `erased_runs` and `check_received` give them. One pass: no run is
    longer than b, and each run starts at least w slots after the previous
    one ends (closer, and some window would hold both)."""
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
    """Every admissible pattern exactly once, in lexicographic order.

    A depth-first walk over prefixes, on an explicit stack of (prefix,
    length of its last run, its last slot). A prefix's children append
    either the next slot of its last run, while that run is shorter than b,
    or the first slot of a new run, w or more slots after the last one ends;
    they are pushed in reverse, so the smallest pops first. The empty prefix
    acts as a full run ending w slots before slot 0.
    """
    if p.t + 1 > FULL_ENUMERATION_CAP:
        raise ValueError(
            f"full enumeration capped at {FULL_ENUMERATION_CAP} slots, got {p.t + 1}"
        )
    t, b, w = p.t, p.b, p.w
    stack = [((), b, -w)]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, run_len, last = pop()
        yield prefix
        for nxt in range(t, last + w - 1, -1):
            push((prefix + (nxt,), 1, nxt))
        if run_len < b and last < t:
            push((prefix + (last + 1,), run_len + 1, last + 1))


def enumerate_patterns(p: CodeParams, mode: str) -> Iterator[tuple[int, ...]]:
    if mode == "single":
        return single_burst_patterns(p)
    if mode == "full":
        return all_patterns(p)
    raise ValueError(f"unknown enumeration mode {mode!r} (want 'single' or 'full')")


def check_received(
    received: Sequence[Sequence[int] | None], n_sizes: Sequence[int], fld: GF
) -> list[tuple[int, int]]:
    """The erased runs of a received list, once the list is checked: it
    covers every slot of `n_sizes`, and each received packet has its slot's
    length and only symbols of `fld`. Raises ValueError otherwise, naming
    the first bad slot. The runs are (start, end) pairs in slot order, as
    `erased_runs` gives them, built in the same walk over the slots."""
    if len(received) != len(n_sizes):
        raise ValueError("received list must cover slots 0..t")
    runs: list[tuple[int, int]] = []
    for i, pkt in enumerate(received):
        if pkt is None:
            if runs and runs[-1][1] == i - 1:
                runs[-1] = (runs[-1][0], i)
            else:
                runs.append((i, i))
        elif len(pkt) != n_sizes[i]:
            raise ValueError(f"packet at slot {i} has unexpected length")
        elif not in_field(fld, pkt):
            raise ValueError(f"packet at slot {i} has an out-of-field symbol")
    return runs


def apply_pattern(erased: Sequence[int], packets: Sequence) -> list:
    """A copy of `packets` with the erased slots set to None. Raises
    ValueError for a slot outside [0, t], t = len(packets) - 1."""
    out = list(packets)
    n = len(out)
    for i in erased:
        if not 0 <= i < n:
            raise ValueError("erased slot outside [0, t]")
        out[i] = None
    return out
