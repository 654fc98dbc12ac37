"""Parameter validation, sequence termination, rates, and deadline checks."""

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
    stream_rate,
    symbol_offsets,
    terminate_sizes,
)


def test_valid_params_ok():
    p = make_params(4, 2, m=3, t=8)
    assert param_violations(p) == []
    assert p.w == 5  # tightest window by default


def test_burst_longer_than_delay_rejected():
    p = make_params(4, 5, m=3, t=8)
    assert "b <= tau" in param_violations(p)


def test_lossless_delay_cap():
    p = make_params(4, 2, tau_l=3, m=3, t=8)
    assert "tau_l <= tau - b" in param_violations(p)


def test_window_must_exceed_tau():
    p = make_params(4, 2, w=4, m=3, t=8)
    assert "w > tau" in param_violations(p)


def test_terminate_appends_zero_tail():
    seq = terminate_sizes([3, 2, 1, 2, 1], 4, 3)
    assert list(seq) == [3, 2, 1, 2, 1, 0, 0, 0, 0]
    assert seq.t == 8


def test_terminate_empty():
    assert list(terminate_sizes([], 4, 3)) == [0, 0, 0, 0]


def test_terminate_rejects_oversize():
    with pytest.raises(ValueError):
        terminate_sizes([4], 4, 3)


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
