"""Diagonal interleaving, the verified block code, and the offline schemes."""

from fractions import Fraction

import pytest

from streamfec import baselines
from streamfec.baselines import (
    BlockCode,
    block_delay_violations,
    build_block_code,
    make_scheme,
    offline_stream,
    scheme_pair,
    scheme_stated_rate,
)
from streamfec.codecs import bind_codec
from streamfec.gf import GF
from streamfec.model import make_params, random_payload, terminate_sizes
from streamfec.oracle import exhaustive_decode_check


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
    seq1, seq2 = (sch.sequence for sch in scheme_pair("conv3", 4, 2, 1, 1))
    assert list(seq1) == [1, 1, 0, 0, 0, 0]
    assert list(seq2) == [1, 1, 2, 0, 0, 0, 0]


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
        make_scheme("lemma1_seq1", 4, 2, 2, 2)  # b divides tau: regime 1
    with pytest.raises(ValueError):
        make_scheme("lemma1_seq1", 5, 2, 3, 3)  # d not multiple of a+1
    with pytest.raises(ValueError):
        make_scheme("lemma2_seq1", 3, 2, 1, 3)  # odd d
    with pytest.raises(ValueError):
        make_scheme("lemma3_seq1", 4, 2, 2, 2)  # tau_l = tau - b is not conv3
    with pytest.raises(ValueError):
        make_scheme("lemma2_seq1", 6, 2, 4, 2)  # tau_l >= b is conv1 territory


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
    sch = make_scheme(scheme_id, tau, b, tau_l, d)
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
