"""Lower-bound recursion, minimality checks, exhaustive decode oracle."""

from types import SimpleNamespace

import pytest

from streamfec import oracle

from streamfec.channel import erased_runs
from streamfec.codecs import bind_codec
from streamfec.gf import GF
from streamfec.model import (
    make_params,
    random_payload,
    random_sizes,
    terminate_sizes,
)
from streamfec.vgms import DecodeResult
from streamfec.oracle import (
    Counterexample,
    ProfileGap,
    check_minimality,
    cumulative_profile,
    exhaustive_decode_check,
    judge_decode,
    lower_bound_profile,
    profile_gap,
    verify_stream,
)


def test_lower_bound_reference_stream():
    seq = terminate_sizes([3, 2, 1, 2, 1], 4, 3)
    p = make_params(4, 2, m=3, t=seq.t)
    assert lower_bound_profile(seq, p) == [3, 5, 6, 8, 12, 14, 14, 14, 15]


def test_lower_bound_all_zero():
    seq = terminate_sizes([0, 0, 0], 4, 1)
    p = make_params(4, 2, m=1, t=seq.t)
    assert lower_bound_profile(seq, p) == [0] * (seq.t + 1)


def test_lower_bound_single_packet():
    c = 3
    seq = terminate_sizes([c], 4, c)
    p = make_params(4, 2, m=c, t=seq.t)
    lb = lower_bound_profile(seq, p)
    assert lb[:4] == [c, c, c, c]
    assert lb[4] == 2 * c  # echoing the packet after the worst burst
    assert lb[-1] == 2 * c


def test_lower_bound_needs_zero_lossless_delay():
    seq = terminate_sizes([1], 4, 1)
    p = make_params(4, 2, tau_l=1, m=1, t=seq.t)
    with pytest.raises(ValueError):
        lower_bound_profile(seq, p)


def test_vgms_profile_equals_lower_bound_random_streams():
    fld = GF(8)
    for seed in range(100):
        tau = 2 + seed % 5
        b = 1 + seed % tau
        raw_len = 8 + seed % 7 - tau  # t + 1 between 8 and 14
        seq = terminate_sizes(random_sizes(max(raw_len, 1), 4, seed), tau, 4)
        p = make_params(tau, b, m=4, t=seq.t)
        codec = bind_codec("vgms", p, fld, seq, seed=seed)
        lb = lower_bound_profile(seq, p)
        assert cumulative_profile(codec.n_sizes) == lb, (tau, b, seed)
        assert check_minimality(cumulative_profile(codec.n_sizes), lb, exact=True) is None
        assert profile_gap(codec) is None, (tau, b, seed)


def test_repetition_regime_dominates_bound():
    # with b = tau the diagonal scheme is a valid zero-lossless-delay codec
    # (it degenerates to repetition, as does the online codec), so its
    # profile dominates the bound; here the two coincide exactly
    fld = GF(8)
    for seed in range(10):
        tau = b = 2 + seed % 3
        seq = terminate_sizes(random_sizes(6, 3, seed), tau, 3)
        p = make_params(tau, b, tau_l=0, m=3, t=seq.t)
        codec = bind_codec("diagonal", p, fld, seq)
        lb = lower_bound_profile(seq, p)
        profile = cumulative_profile(codec.n_sizes)
        assert check_minimality(profile, lb, exact=False) is None, seed
        assert profile == lb, seed
        assert profile_gap(codec) is None, seed


def stand_in(codec, name, extra_at=None, delta=0):
    """What profile_gap reads of `codec`, under another name and with
    `delta` channel symbols added at slot `extra_at`."""
    n_sizes = list(codec.n_sizes)
    if extra_at is not None:
        n_sizes[extra_at] += delta
    return SimpleNamespace(
        name=name, params=codec.params, tau_l=codec.tau_l, seq=codec.seq, n_sizes=n_sizes
    )


@pytest.mark.parametrize(
    "name,delta,gap_slot",
    [
        ("vgms", 0, None),  # meets the bound exactly
        ("vgms", 1, 2),  # one symbol over the bound: exact mode refuses it
        ("diagonal", 1, None),  # any other codec only has to dominate
        ("vgms", -1, 2),  # one symbol short misses the bound either way
        ("diagonal", -1, 2),
    ],
)
def test_profile_gap_rule_comes_from_the_codec_name(name, delta, gap_slot):
    fld = GF(8)
    seq = terminate_sizes([3, 2, 1, 2, 1], 4, 3)
    p = make_params(4, 2, m=3, t=seq.t)
    codec = stand_in(bind_codec("vgms", p, fld, seq), name, extra_at=2, delta=delta)
    gap = profile_gap(codec)
    if gap_slot is None:
        assert gap is None
    else:
        assert isinstance(gap, ProfileGap) and gap.slot == gap_slot
        assert gap.have == gap.want + delta


def test_profile_gap_skips_codecs_with_lossless_delay():
    # tau_l > 0: the bound does not apply, so even an empty profile passes
    fld = GF(8)
    seq = terminate_sizes([2, 2, 2], 4, 2)
    p = make_params(4, 2, tau_l=2, m=2, t=seq.t)
    codec = bind_codec("diagonal", p, fld, seq)
    assert profile_gap(codec) is None
    assert profile_gap(stand_in(codec, "vgms", extra_at=0, delta=-2)) is None
    assert verify_stream(codec, random_payload(seq, fld, 5), "full") is None


def test_verify_stream_passes_vgms_and_reports_a_profile_gap():
    fld = GF(8)
    seq = terminate_sizes(random_sizes(5, 3, 2), 3, 3)
    p = make_params(3, 2, m=3, t=seq.t)
    codec = bind_codec("vgms", p, fld, seq)
    payload = random_payload(seq, fld, 2)
    assert verify_stream(codec, payload, "full") is None

    class Padded:
        """Decodes as the codec it wraps, but claims one channel symbol
        more at the first slot: the profile overshoots the bound."""

        def __getattr__(self, attr):
            return getattr(codec, attr)

        n_sizes = [n + (i == 0) for i, n in enumerate(codec.n_sizes)]

    gap = verify_stream(Padded(), payload, "full")
    assert isinstance(gap, ProfileGap) and gap.slot == 0


def test_check_minimality_reports_first_gap():
    gap = check_minimality([3, 5, 7], [3, 6, 7], exact=False)
    assert gap is not None and gap.slot == 1 and (gap.have, gap.want) == (5, 6)
    assert check_minimality([3, 6, 7], [3, 6, 7], exact=True) is None
    assert check_minimality([3, 7, 8], [3, 6, 7], exact=False) is None
    gap = check_minimality([3, 7, 8], [3, 6, 7], exact=True)
    assert gap is not None and gap.slot == 1


def test_exhaustive_check_passes_for_vgms():
    fld = GF(8)
    seq = terminate_sizes(random_sizes(5, 3, 2), 3, 3)
    p = make_params(3, 2, m=3, t=seq.t)
    codec = bind_codec("vgms", p, fld, seq)
    payload = random_payload(seq, fld, 2)
    assert exhaustive_decode_check(codec, payload, "full") is None


def test_judge_decode_checks_symbols_then_each_deadline():
    fld = GF(8)
    seq = terminate_sizes([2, 1], 2, 2)  # slots 0..3, tau = 2
    codec = bind_codec("vgms", make_params(2, 1, m=2, t=seq.t), fld, seq)
    payload = random_payload(seq, fld, 0)
    wrong = [list(msg) for msg in payload]
    wrong[1][0] ^= 1

    def judge(pattern, messages, times):
        bad = judge_decode(codec, pattern, DecodeResult(messages, times), payload)
        return bad and (bad.slot, bad.reason)

    assert judge((), payload, [0, 1, 2, 3]) is None
    # symbols first, even where a deadline is missed too
    assert judge((), wrong, [9, 9, 9, 9]) == (1, "recovered symbols differ")
    assert judge((2,), payload, [0, 4, 2, 3]) == (1, "worst-case deadline missed (4 > 3)")
    # the lossless deadline binds only when nothing is lost
    assert judge((), payload, [1, 1, 2, 3]) == (0, "lossless deadline missed (1 > 0)")
    assert judge((2,), payload, [1, 1, 2, 3]) is None


def test_exhaustive_check_catches_corrupted_parity(monkeypatch):
    fld = GF(8)
    seq = terminate_sizes([2, 2, 1], 3, 2)
    p = make_params(3, 2, m=2, t=seq.t)
    codec = bind_codec("vgms", p, fld, seq)
    payload = random_payload(seq, fld, 3)

    class Tampered:
        params, seq, field = codec.params, codec.seq, codec.field
        tau_l = codec.tau_l
        n_sizes = codec.n_sizes
        name = "tampered"

        def encode(self, pay):
            packets = codec.encode(pay)
            for pkt in packets[p.tau :]:
                if len(pkt) > self.seq.size(packets.index(pkt)):
                    pkt[-1] ^= 1  # flip one parity symbol
                    break
            return packets

        def decode(self, received):
            return codec.decode(received)

    def no_profile_check(codec):
        raise AssertionError("profile checked before the decode counterexample came back")

    # verify_stream returns the counterexample before any profile check
    monkeypatch.setattr(oracle, "profile_gap", no_profile_check)
    for check in (exhaustive_decode_check, verify_stream):
        bad = check(Tampered(), payload, "single")
        assert isinstance(bad, Counterexample), check
        assert bad.reason == "recovered symbols differ", check


def decoded_before_burst(decode_times, pattern) -> bool:
    """With a single burst starting at j: is everything before slot j
    already decoded by slot j-1? Vacuously true for the empty pattern.

    Zero-lossless-delay decoding has this property; a scheme with symbols
    still in flight at the burst need not."""
    runs = erased_runs(pattern)
    if not runs:
        return True
    if len(runs) > 1:
        raise ValueError("expected a single-burst pattern")
    start = runs[0][0]
    return all(
        decode_times[i] is not None and decode_times[i] <= start - 1
        for i in range(start)
    )


def test_decoded_before_burst_vgms_true_everywhere():
    fld = GF(8)
    seq = terminate_sizes([2, 1, 2, 1], 3, 2)
    p = make_params(3, 2, m=2, t=seq.t)
    codec = bind_codec("vgms", p, fld, seq)
    payload = random_payload(seq, fld, 4)
    packets = codec.encode(payload)
    from streamfec.channel import apply_pattern, single_burst_patterns

    for pattern in single_burst_patterns(p):
        res = codec.decode(apply_pattern(pattern, packets))
        assert decoded_before_burst(res.decode_times, pattern), pattern


def test_decoded_before_burst_vacuous_at_slot_zero():
    assert decoded_before_burst([None, None], (0, 1))
    assert decoded_before_burst([0, 1, 2], ())


def test_decoded_before_burst_diagonal_recorded_false():
    # with symbols still in flight, the diagonal scheme legitimately fails
    # the before-the-burst property; record, do not assert it
    fld = GF(8)
    seq = terminate_sizes([2], 4, 2)
    p = make_params(4, 2, tau_l=2, m=2, t=seq.t)
    codec = bind_codec("diagonal", p, fld, seq)
    payload = random_payload(seq, fld, 1)
    from streamfec.channel import apply_pattern

    res = codec.decode(apply_pattern((2, 3), codec.encode(payload)))
    observed = decoded_before_burst(res.decode_times, (2, 3))
    assert observed is False  # piece of S[0] was riding in slot 2
