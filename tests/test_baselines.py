"""Diagonal interleaving, the verified block code, and the offline schemes."""

from fractions import Fraction

import pytest

from streamfec import baselines
from streamfec.baselines import (
    LEMMA_SCHEMES,
    SCHEME_IDS,
    BlockCode,
    OfflineScheme,
    block_delay_violations,
    build_block_code,
    offline_stream,
    scheme_pair,
    scheme_stated_rate,
)
from streamfec.codecs import bind_codec
from streamfec.gap import gap_cells
from streamfec.gf import GF
from streamfec.model import SizeSequence, make_params, random_payload, terminate_sizes
from streamfec.oracle import exhaustive_decode_check, verify_stream


# --- diagonal interleaving ---------------------------------------------------


def test_diagonal_single_message_layout_and_rate():
    fld = GF(8)
    seq = terminate_sizes([2], 4, 2)
    p = make_params(4, 2, tau_l=2, m=2, t=seq.t)
    codec = bind_codec("diagonal", p, fld, seq)
    assert codec.n_sizes == [1, 0, 1, 0, 1]  # pieces at 0 and 2, sum at 4
    assert Fraction(seq.total, sum(codec.n_sizes)) == Fraction(2, 3)


def test_diagonal_zero_size_contributes_nothing():
    fld = GF(8)
    seq = terminate_sizes([0, 2], 4, 2)
    p = make_params(4, 2, tau_l=2, m=2, t=seq.t)
    codec = bind_codec("diagonal", p, fld, seq)
    assert codec.n_sizes == [0, 1, 0, 1, 0, 1]


def test_diagonal_pads_indivisible_sizes():
    fld = GF(8)
    seq = terminate_sizes([3], 4, 3)
    p = make_params(4, 2, tau_l=2, m=3, t=seq.t)
    codec = bind_codec("diagonal", p, fld, seq)
    # padded to 4: two pieces of 2, sum of 2
    assert codec.n_sizes == [2, 0, 2, 0, 2]
    payload = random_payload(seq, fld, 1)
    res = codec.decode(codec.encode(payload))
    assert res.messages == payload


def test_diagonal_requires_divisibility_and_matching_tau_l():
    fld = GF(8)
    seq = terminate_sizes([2], 4, 2)
    with pytest.raises(ValueError):
        bind_codec("diagonal", make_params(4, 3, tau_l=1, m=2, t=seq.t), fld, seq)
    with pytest.raises(ValueError):
        bind_codec("diagonal", make_params(4, 2, tau_l=0, m=2, t=seq.t), fld, seq)


def test_diagonal_refuses_a_message_it_cannot_flush():
    # the message at slot 2 would need its sum at slot 2 + tau = 6 > t = 5
    seq = SizeSequence([2, 0, 2, 0, 0, 0])
    p = make_params(4, 2, tau_l=2, m=2, t=seq.t)
    with pytest.raises(ValueError, match="nonzero message at slot 2 cannot be flushed"):
        bind_codec("diagonal", p, GF(8), seq)


def test_diagonal_full_pattern_decoding_and_lossless_delay():
    fld = GF(8)
    for tau, b in [(2, 1), (4, 2), (4, 4), (6, 3)]:
        k = tau // b
        seq = terminate_sizes([k, k, k], tau, k)
        p = make_params(tau, b, tau_l=tau - b, m=k, t=seq.t)
        codec = bind_codec("diagonal", p, fld, seq)
        payload = random_payload(seq, fld, 5)
        assert exhaustive_decode_check(codec, payload, "full") is None, (tau, b)


# --- block code ---------------------------------------------------------------


def test_block_code_tiny():
    code = build_block_code(2, 1, GF(8), seed=0)
    assert code.verified
    # single parity; every single erasure among 3 positions is recoverable
    assert block_delay_violations(code) == []


def test_block_code_mid_grid_verified():
    code = build_block_code(4, 2, GF(8), seed=0)
    assert code.verified
    assert block_delay_violations(code) == []


def test_block_code_parity_only_burst_trivial():
    # a burst erasing only parity symbols leaves every message symbol present
    code = build_block_code(3, 2, GF(8), seed=0)
    bad = [v for v in block_delay_violations(code) if v[0] >= code.tau]
    assert bad == []


def test_block_code_needs_2_tau_field_points():
    with pytest.raises(ValueError, match="field too small"):
        build_block_code(3, 1, GF(2))  # 4 elements, 6 points


def test_block_code_corruption_detected():
    code = build_block_code(4, 2, GF(8), seed=0)
    broken = BlockCode(
        code.tau,
        code.b,
        code.field,
        [row[:] for row in code.coeffs],
        verified=False,
    )
    broken.coeffs[0] = [0] * code.tau  # parity 0 carries nothing
    assert block_delay_violations(broken)


# --- offline schemes ----------------------------------------------------------


def test_lemma1_sequences_worked_example():
    seq1, seq2 = (sch.sequence for sch in scheme_pair("conv1", 5, 2, 3, 2))
    assert list(seq1) == [2, 0, 0, 0, 0, 0]
    assert list(seq2) == [2, 8, 0, 0, 0, 0, 0]


def test_lemma3_sequences_worked_example():
    seq1, seq2 = (sch.sequence for sch in scheme_pair("conv3", 4, 2, 1, 2))
    assert list(seq1) == [2, 2, 0, 0, 0, 0]
    assert list(seq2) == [2, 2, 4, 0, 0, 0, 0]


def test_lemma2_sequences():
    seq1, seq2 = (sch.sequence for sch in scheme_pair("conv2", 3, 2, 1, 2))
    assert list(seq1) == [2, 2, 0, 0, 0]
    assert list(seq2) == [2, 2, 2, 0, 0, 0]


def test_sequences_share_their_prefix():
    for lemma, tau, b, tau_l, upto in [
        ("conv1", 5, 2, 3, 1),  # identical until slot e
        ("conv2", 3, 2, 1, 2),  # identical until slot b
        ("conv3", 4, 2, 1, 2),  # identical until slot b
    ]:
        seq1, seq2 = (sch.sequence for sch in scheme_pair(lemma, tau, b, tau_l, 2))
        assert [seq1.size(i) for i in range(upto)] == [
            seq2.size(i) for i in range(upto)
        ]


def test_lemma_preconditions_enforced():
    with pytest.raises(ValueError):
        OfflineScheme("lemma1_seq1", 4, 2, 2, 2)  # b divides tau: regime 1
    with pytest.raises(ValueError):
        OfflineScheme("lemma1_seq1", 5, 2, 3, 3)  # d not multiple of a+1
    with pytest.raises(ValueError):
        OfflineScheme("lemma2_seq1", 3, 2, 1, 3)  # odd d
    with pytest.raises(ValueError):
        OfflineScheme("lemma3_seq1", 4, 2, 2, 2)  # tau_l = tau - b is not conv3
    with pytest.raises(ValueError):
        OfflineScheme("lemma2_seq1", 6, 2, 4, 2)  # tau_l >= b is conv1 territory


def test_schemes_refuse_a_d_they_cannot_split():
    # every family of the gap sweep, both schemes: no d below 1, and no d
    # off the scheme's d_step, which would split a message into parts of
    # size 0 (lemma3_seq1 at conv3 (4, 2, 1) and d = 1 sends a rate-2
    # stream, lemma1_seq1 at conv1 (5, 2, 3) and d = 1 sends nothing)
    families = {cell[:4] for cell in gap_cells(8, 12)}
    assert {lemma for lemma, *_ in families} == set(LEMMA_SCHEMES)
    for lemma, tau, b, tau_l in sorted(families):
        for sid in LEMMA_SCHEMES[lemma]:
            step = baselines.scheme_d_step(sid, b, tau_l)
            for d in [0, -1] + [d for d in range(1, 13) if d % step]:
                want = f"^{sid} needs d >= 1 divisible by {step}, got {d}$"
                with pytest.raises(ValueError, match=want):
                    OfflineScheme(sid, tau, b, tau_l, d)
                with pytest.raises(ValueError, match="needs d >= 1 divisible by"):
                    scheme_pair(lemma, tau, b, tau_l, d)


def test_unknown_scheme_and_unknown_lemma_are_refused():
    known = ", ".join(SCHEME_IDS)
    with pytest.raises(ValueError, match=f"^unknown scheme 'lemma4_seq1'; known: {known}$"):
        OfflineScheme("lemma4_seq1", 5, 2, 3, 2)
    with pytest.raises(ValueError, match="^unknown lemma 'conv4'$"):
        scheme_pair("conv4", 5, 2, 3, 2)
    with pytest.raises(ValueError, match="^lemma3_seq2 needs conv3 parameters; "
                       "tau=5, b=2, tau_l=3 is conv1$"):
        OfflineScheme("lemma3_seq2", 5, 2, 3, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "scheme_id,tau,b,tau_l",
    [
        ("lemma1_seq2", 5, 2, 3),
        ("lemma1_seq2", 7, 2, 5),
        ("lemma2_seq2", 3, 2, 1),
        ("lemma2_seq2", 5, 3, 2),
    ],
)
def test_second_schemes_take_any_d(scheme_id, tau, b, tau_l, d):
    # neither scheme splits a message, so no d lacks a divisor they need
    sch = OfflineScheme(scheme_id, tau, b, tau_l, d)
    assert sch.d_step == 1
    fld = GF(8)
    seq = sch.sequence
    p = make_params(tau, b, tau_l=tau_l, m=max(seq), t=seq.t)
    codec = bind_codec(scheme_id, p, fld, seq, d=d)
    assert Fraction(seq.total, sum(codec.n_sizes)) == scheme_stated_rate(sch)
    assert exhaustive_decode_check(codec, random_payload(seq, fld, d), "full") is None


def test_bind_codec_rejects_other_sequences():
    fld = GF(8)
    wrong = terminate_sizes([2, 2], 3, 2)
    p = make_params(3, 2, tau_l=1, m=2, t=wrong.t)
    with pytest.raises(ValueError, match="prescribed sequence"):
        bind_codec("lemma2_seq2", p, fld, wrong, d=2)


def all_scheme_cases():
    return [
        ("conv1", 5, 2, 3, 2),
        ("conv1", 7, 2, 5, 3),
        ("conv1", 7, 3, 4, 2),
        ("conv2", 3, 2, 1, 2),
        ("conv2", 4, 3, 1, 2),
        ("conv2", 5, 3, 2, 4),
        ("conv3", 4, 2, 1, 2),
        ("conv3", 3, 1, 1, 2),
        ("conv3", 5, 3, 1, 2),
        ("conv3", 6, 2, 3, 2),
    ]


@pytest.mark.parametrize("lemma,tau,b,tau_l,d", all_scheme_cases())
def test_offline_scheme_rates_exact(lemma, tau, b, tau_l, d):
    fld = GF(8)
    for sch in scheme_pair(lemma, tau, b, tau_l, d):
        stream = offline_stream(sch, fld)
        assert stream.seq == sch.sequence
        assert Fraction(sch.sequence.total, sum(stream.n_sizes)) == scheme_stated_rate(sch)


@pytest.mark.parametrize("lemma,tau,b,tau_l,d", all_scheme_cases())
def test_offline_scheme_single_burst_decoding(lemma, tau, b, tau_l, d):
    fld = GF(8)
    for sch in scheme_pair(lemma, tau, b, tau_l, d):
        seq = sch.sequence
        p = make_params(tau, b, tau_l=tau_l, m=max(seq), t=seq.t)
        codec = bind_codec(sch.scheme_id, p, fld, seq, d=d)
        payload = random_payload(seq, fld, 17)
        assert exhaustive_decode_check(codec, payload, "single") is None, sch.scheme_id


def smallest_d_classes():
    """Each (lemma, tau, b, tau_l) class of `gap_cells(8, 12)` at its
    smallest d. A larger d of a class widens each slot by the same pattern
    of rows; it is left out so that the decodes take under a second."""
    first: dict = {}
    for lemma, tau, b, tau_l, d in gap_cells(8, 12):
        first.setdefault((lemma, tau, b, tau_l), d)
    return [(*cls, d) for cls, d in first.items()]


def test_witness_classes_cover_every_family():
    classes = smallest_d_classes()
    assert len(classes) == 72
    assert {cls[0] for cls in classes} == set(LEMMA_SCHEMES)


@pytest.mark.parametrize("lemma,tau,b,tau_l,d", smallest_d_classes())
def test_every_witness_decodes_every_admissible_pattern(lemma, tau, b, tau_l, d):
    # every pattern within tau, the lossless one within tau_l, and the profile
    fld = GF(8)
    for sch in scheme_pair(lemma, tau, b, tau_l, d):
        seq = sch.sequence
        p = make_params(tau, b, tau_l=tau_l, m=max(seq), t=seq.t)
        codec = bind_codec(sch.scheme_id, p, fld, seq, d=d)
        payload = random_payload(seq, fld, tau + b)
        assert verify_stream(codec, payload, "full") is None, sch.scheme_id


def test_rate_never_exceeds_channel_capacity_bound():
    # every codec that meets both deadlines stays at or below tau/(tau+b)
    fld = GF(8)
    for lemma, tau, b, tau_l, d in all_scheme_cases():
        for sch in scheme_pair(lemma, tau, b, tau_l, d):
            stream = offline_stream(sch, fld)
            rate = Fraction(sch.sequence.total, sum(stream.n_sizes))
            assert rate <= Fraction(tau, tau + b)


@pytest.mark.parametrize("degree", [4, 8, 16])
def test_packet_values_equal_the_mul_reference(degree):
    # the log-domain gather against _eval_row's GF.mul sum, row by row, on
    # payloads where every third symbol is zero (log[0] is a placeholder no
    # kernel may read)
    fld = GF(degree)
    p = make_params(4, 2, tau_l=2, m=3, t=7)
    streams = [baselines.diagonal_stream(p, terminate_sizes([3, 0, 2, 3], 4, 3))]
    for lemma, tau, b, tau_l, d in all_scheme_cases():
        for sch in scheme_pair(lemma, tau, b, tau_l, d):
            streams.append(offline_stream(sch, fld, seed=degree))
    for seed, stream in enumerate(streams):
        payload = random_payload(stream.seq, fld, seed)
        flat = [0 if n % 3 == 0 else s for n, s in enumerate(s for pkt in payload for s in pkt)]
        want = [[baselines._eval_row(fld, row, flat) for row in rows] for rows in stream.slot_rows]
        assert stream.packet_values(flat, fld) == want
