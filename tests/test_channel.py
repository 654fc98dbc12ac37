"""Loss pattern admissibility and enumeration, cross-checked against a
brute-force filter over all subsets."""

import itertools
import random

import pytest

from streamfec.channel import (
    all_patterns,
    apply_pattern,
    check_received,
    enumerate_patterns,
    erased_runs,
    is_admissible,
    single_burst_patterns,
)
from streamfec.gf import GF, in_field
from streamfec.model import make_params


def brute_force_admissible(erased, p):
    """Definition transliterated: every w-window holds at most one run <= b."""
    er = set(erased)
    for start in range(0, p.t + 1):
        window = [x for x in range(start, start + p.w) if x in er]
        if not window:
            continue
        if len(window) > p.b:
            return False
        if window[-1] - window[0] + 1 != len(window):
            return False
    return True


def test_empty_pattern_admissible():
    p = make_params(4, 2, m=1, t=8)
    assert is_admissible((), p)


def test_single_bursts_admissible_anywhere():
    p = make_params(4, 2, m=1, t=8)
    for start in range(8):
        assert is_admissible((start, start + 1), p)
        assert is_admissible((start,), p)


def test_two_close_bursts_rejected():
    p = make_params(4, 2, m=1, t=10)  # w = 5
    assert not is_admissible((0, 1, 4), p)  # second run starts w-1 after first ends
    assert is_admissible((0, 1, 6), p)  # gap of w


def test_run_longer_than_b_rejected():
    p = make_params(4, 2, m=1, t=8)
    assert not is_admissible((3, 4, 5), p)


def test_single_burst_counts():
    # 5 patterns: empty + one per slot
    p = make_params(3, 1, m=1, t=3)
    assert sum(1 for _ in single_burst_patterns(p)) == 5
    # 6 patterns: empty + three length-1 + two length-2
    p = make_params(2, 2, m=1, t=2)
    pats = list(single_burst_patterns(p))
    assert len(pats) == 6
    assert pats[0] == ()


def test_single_bursts_all_admissible_and_subset_of_full():
    p = make_params(3, 2, m=1, t=7)
    singles = set(single_burst_patterns(p))
    for pat in singles:
        assert is_admissible(pat, p)
    assert singles <= set(all_patterns(p))


@pytest.mark.parametrize("tau,b,t", [(2, 1, 9), (3, 2, 9), (4, 3, 9), (2, 2, 13)])
def test_full_enumeration_matches_brute_force(tau, b, t):
    p = make_params(tau, b, m=1, t=t)
    want = set()
    for size in range(t + 2):
        for cand in itertools.combinations(range(t + 1), size):
            if brute_force_admissible(cand, p):
                want.add(cand)
    # the order decides which counterexample `verify` reports first
    assert list(all_patterns(p)) == sorted(want)


@pytest.mark.parametrize(
    "tau,b,t,w",
    [(2, 1, 12, 3), (3, 2, 10, 4), (2, 2, 6, 3), (4, 3, 6, 5), (3, 1, 7, 6), (4, 2, 8, 7)],
)
def test_is_admissible_matches_brute_force_on_every_subset(tau, b, t, w):
    # the last two settings have w > tau + 1, a window wider than the minimum
    p = make_params(tau, b, w=w, m=1, t=t)
    for size in range(t + 2):
        for cand in itertools.combinations(range(t + 1), size):
            assert is_admissible(cand, p) == brute_force_admissible(cand, p), cand


def test_is_admissible_rejects_slots_outside_the_stream():
    p = make_params(2, 1, m=1, t=4)
    for erased in [(-1,), (5,), (0, 5)]:
        with pytest.raises(ValueError):
            is_admissible(erased, p)


def test_full_enumeration_lexicographic():
    p = make_params(2, 1, m=1, t=4)
    got = list(all_patterns(p))
    assert got == sorted(got)
    assert got[0] == ()


def test_enumeration_cap():
    p = make_params(4, 2, m=1, t=30)
    with pytest.raises(ValueError):
        list(all_patterns(p))


def test_enumerate_patterns_dispatch():
    p = make_params(3, 1, m=1, t=3)
    assert list(enumerate_patterns(p, "single")) == list(single_burst_patterns(p))
    with pytest.raises(ValueError):
        enumerate_patterns(p, "everything")


def test_apply_pattern():
    packets = [[1], [2], [3], [4]]
    assert apply_pattern((), packets) == packets
    out = apply_pattern((0, 1), packets)
    assert out == [None, None, [3], [4]]
    survivors = sum(1 for x in out if x is not None)
    assert survivors == len(packets) - 2
    assert packets == [[1], [2], [3], [4]]  # a copy; the input is untouched
    assert apply_pattern(range(2, 4), tuple(packets)) == [[1], [2], None, None]


@pytest.mark.parametrize("erased", [(-1,), (4,), (0, 4), (1, -1)])
def test_apply_pattern_rejects_slots_outside_the_stream(erased):
    # t = 3; a negative index must not wrap around to the last slot
    packets = [[1], [2], [3], [4]]
    with pytest.raises(ValueError, match=r"erased slot outside \[0, t\]"):
        apply_pattern(erased, packets)


def test_erased_runs():
    assert erased_runs(()) == []
    assert erased_runs((0, 1, 2, 5, 7, 8)) == [(0, 2), (5, 5), (7, 8)]


def reference_check_received(received, n_sizes, fld):
    """`check_received` as it was before it built the runs: the erased
    slots, once every received packet is checked, one packet at a time."""
    if len(received) != len(n_sizes):
        raise ValueError("received list must cover slots 0..t")
    erased = []
    for i, pkt in enumerate(received):
        if pkt is None:
            erased.append(i)
        elif len(pkt) != n_sizes[i]:
            raise ValueError(f"packet at slot {i} has unexpected length")
        elif not in_field(fld, pkt):
            raise ValueError(f"packet at slot {i} has an out-of-field symbol")
    return tuple(erased)


def outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("degree", [4, 8, 16])
def test_check_received_matches_the_per_packet_loop(degree):
    fld = GF(degree)
    rng = random.Random(degree)
    spoilt = 0
    for _ in range(400):
        n_sizes = [rng.randint(0, 5) for _ in range(rng.randint(1, 14))]
        received = [[rng.randrange(fld.order) for _ in range(n)] for n in n_sizes]
        for i in range(len(received)):
            if rng.random() < 0.35:
                received[i] = None
        kept = [i for i, pkt in enumerate(received) if pkt is not None]
        if kept and rng.random() < 0.5:  # spoil a packet or two, often after a run
            for i in rng.sample(kept, min(len(kept), rng.choice([1, 1, 2]))):
                bad = rng.choice(["long", "long and big", "short", "big", "negative", "float"])
                if bad.startswith("long"):  # the length is named first
                    received[i] = received[i] + [fld.order if "big" in bad else 0]
                elif bad == "short" and received[i]:
                    received[i] = received[i][1:]
                elif received[i]:
                    at = rng.randrange(len(received[i]))
                    received[i][at] = {"big": fld.order, "negative": -1, "float": 1.0}[bad]
            spoilt += 1
        want = outcome(reference_check_received, received, n_sizes, fld)
        if not isinstance(want, str):
            want = erased_runs(want)
        assert outcome(check_received, received, n_sizes, fld) == want
        assert outcome(check_received, received[:-1], n_sizes, fld) == outcome(
            reference_check_received, received[:-1], n_sizes, fld
        )
    assert spoilt > 100
