"""Parameter validation, sequence termination, rates, and deadline checks."""

import dataclasses
import re
from fractions import Fraction

import pytest

from streamfec.gf import GF
from streamfec.model import (
    SizeSequence,
    build_transcript,
    check_delays,
    make_params,
    param_violations,
    random_payload,
    require_valid,
    stream_rate,
    symbol_offsets,
    terminate_sizes,
)


def test_valid_params_ok():
    p = make_params(4, 2, m=3, t=8)
    assert param_violations(p) == []
    assert p.w == 5  # tightest window by default


@pytest.mark.parametrize(
    "change, rule",
    [
        ({"b": 0}, "b >= 1"),
        ({"b": 5}, "b <= tau"),  # tau - b < 0, so "tau_l <= tau - b" fails too
        ({"tau_l": -1}, "tau_l >= 0"),
        ({"tau_l": 3}, "tau_l <= tau - b"),
        ({"w": 4}, "w > tau"),
        ({"m": 0}, "m >= 1"),
        ({"t": 3}, "t >= tau"),
    ],
    ids=["b-min", "b-max", "tau_l-min", "tau_l-max", "w-min", "m-min", "t-min"],
)
def test_each_parameter_rule_is_reported(change, rule):
    p = dataclasses.replace(make_params(4, 2, m=3, t=8), **change)
    assert rule in param_violations(p)
    with pytest.raises(ValueError, match=re.escape(rule)):
        require_valid(p)


def test_negative_size_refused():
    with pytest.raises(ValueError, match="message sizes must be >= 0"):
        SizeSequence([2, -1, 3])


def test_terminate_appends_zero_tail():
    seq = terminate_sizes([3, 2, 1, 2, 1], 4, 3)
    assert list(seq) == [3, 2, 1, 2, 1, 0, 0, 0, 0]
    assert seq.t == 8


def test_terminate_empty():
    assert list(terminate_sizes([], 4, 3)) == [0, 0, 0, 0]


def test_terminate_rejects_oversize():
    with pytest.raises(ValueError):
        terminate_sizes([4], 4, 3)


@pytest.mark.parametrize(
    "raw, slot", [([1.7, 2], 0), ([3, 2.0], 1), ([1, "3"], 1), ([None], 0), ([2, 1, b"1"], 2)]
)
def test_sizes_that_are_not_integers_are_refused(raw, slot):
    # int() would truncate 1.7 to 1 and parse "3"; both entry points refuse
    with pytest.raises(ValueError, match=f"message size .* at slot {slot} is not an integer"):
        terminate_sizes(raw, 2, 4)
    with pytest.raises(ValueError, match=f"at slot {slot} is not an integer"):
        SizeSequence(raw)


@pytest.mark.parametrize("tau", [2**62, 10**20])
def test_terminate_refuses_a_tail_too_large_to_allocate(tau):
    # one a list can index but not hold, and one past what it can index
    with pytest.raises(ValueError, match=f"tau = {tau} "):
        terminate_sizes([1], tau, 3)


def test_terminate_idempotent():
    once = terminate_sizes([3, 2, 1, 2, 1], 4, 3)
    again = terminate_sizes(list(once), 4, 3)
    assert once == again


@pytest.mark.parametrize("raw,tau", [([0], 1), ([0, 0], 4), ([0, 0, 0, 0], 4), ([2, 0, 0, 0, 0], 4)])
def test_terminate_needs_a_slot_before_the_zero_tail(raw, tau):
    # exactly tau zeros is a message slot short of a terminated stream
    seq = terminate_sizes(raw, tau, 3)
    assert seq.t >= tau and seq.sizes[-tau:] == (0,) * tau
    assert seq.sizes[: len(raw)] == tuple(raw)
    assert terminate_sizes(seq.sizes, tau, 3) == seq


def test_out_of_range_reads_are_zero():
    seq = SizeSequence([3, 2, 1])
    assert seq.size(-1) == 0
    assert seq.size(3) == 0
    assert seq.size(1) == 2


def test_rate_fig_style_sequence():
    seq = terminate_sizes([3, 2, 1, 2, 1], 4, 3)
    n = [3, 2, 1, 2, 4, 2, 0, 0, 1]
    assert stream_rate(seq, n) == Fraction(9, 15) == Fraction(3, 5)


def test_rate_zero_denominator():
    seq = terminate_sizes([], 4, 3)
    with pytest.raises(ValueError, match="rate undefined"):
        stream_rate(seq, [0] * len(seq))


def test_check_delays_lossless_ok():
    seq = terminate_sizes([2, 1], 3, 2)
    p = make_params(3, 1, m=2, t=seq.t)
    tr = build_transcript(p, seq, [2, 1, 0, 0, 0], (), [0, 1, 2, 3, 4])
    assert check_delays(tr, lossless=True) is None
    assert check_delays(tr, lossless=False) is None


def test_check_delays_flags_first_violation():
    seq = terminate_sizes([1, 1, 1], 4, 1)
    p = make_params(4, 2, m=1, t=seq.t)
    times = [0, 1, 2 + 4 + 1, 3, 4, 5, 6]
    tr = build_transcript(p, seq, [1] * 7, (), times)
    bad = check_delays(tr, lossless=False)
    assert bad is not None and bad.slot == 2


def test_check_delays_ignores_empty_packets():
    seq = terminate_sizes([0, 1], 3, 1)
    p = make_params(3, 1, m=1, t=seq.t)
    times = [None, 1, 2, 3, 4]  # slot 0 never decoded, but it carried nothing
    tr = build_transcript(p, seq, [0, 1, 0, 0, 0], (), times)
    assert check_delays(tr, lossless=False) is None


def test_never_decoded_is_violation():
    seq = terminate_sizes([1], 3, 1)
    p = make_params(3, 1, m=1, t=seq.t)
    tr = build_transcript(p, seq, [1, 0, 0, 0], (), [None, 1, 2, 3])
    bad = check_delays(tr, lossless=False)
    assert bad is not None and bad.slot == 0 and bad.decode_time is None


def test_random_payload_matches_sizes_and_is_seeded():
    seq = terminate_sizes([3, 0, 2], 2, 3)
    fld = GF(8)
    pay = random_payload(seq, fld, 5)
    assert [len(x) for x in pay] == list(seq)
    assert pay == random_payload(seq, fld, 5)
    assert pay != random_payload(seq, fld, 6)


def test_symbol_offsets():
    seq = SizeSequence([3, 0, 2])
    assert symbol_offsets(seq) == [0, 3, 3, 5]
