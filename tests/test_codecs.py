"""Codec adapters check their binding once, and reject symbols outside the
field and corrupted packets at their boundaries."""

import random
from dataclasses import replace

import pytest

from streamfec.baselines import OfflineScheme
from streamfec.codecs import CODEC_IDS, bind_codec
from streamfec.gf import GF
from streamfec.model import SizeSequence, make_params, random_payload, terminate_sizes
from streamfec.oracle import verify_stream

# (tau, b, tau_l) of each offline scheme family's binding below, all at d = 2
SCHEME_POINTS = {"lemma1": (5, 2, 3), "lemma2": (3, 2, 1), "lemma3": (3, 1, 1)}


def valid_binding(codec_id):
    """Params, sequence and block size d that `codec_id` binds to."""
    if codec_id == "vgms":
        seq = terminate_sizes([3, 2, 1, 2, 1], 4, 3)
        return make_params(4, 2, m=3, t=seq.t), seq, None
    if codec_id == "diagonal":  # tau_l = tau - b with b dividing tau
        seq = terminate_sizes([2, 2, 2], 2, 2)
        return make_params(2, 1, tau_l=1, m=2, t=seq.t), seq, None
    tau, b, tau_l = SCHEME_POINTS[codec_id.split("_")[0]]
    seq = OfflineScheme(codec_id, tau, b, tau_l, 2).sequence
    return make_params(tau, b, tau_l=tau_l, m=max(seq), t=seq.t), seq, 2


def bound_codec(codec_id):
    fld = GF(8)
    p, seq, d = valid_binding(codec_id)
    return fld, seq, bind_codec(codec_id, p, fld, seq, d=d)


@pytest.mark.parametrize("codec_id", CODEC_IDS)
def test_bind_codec_checks_the_params_against_the_sequence(codec_id):
    # the one check of a binding, for every codec: a sequence of another
    # length, a message above m, a window no wider than tau, or a block
    # size d where the codec does not read one (or none where it does) is
    # refused before the codec is built
    fld = GF(8)
    p, seq, d = valid_binding(codec_id)
    bind_codec(codec_id, p, fld, seq, d=d)  # the binding as given is fine
    for bad, message in (
        (replace(p, t=p.t + 1), "sequence has t="),
        (replace(p, m=max(seq) - 1), "exceeds m="),
        (replace(p, w=p.tau), "w > tau"),
    ):
        with pytest.raises(ValueError, match=message):
            bind_codec(codec_id, bad, fld, seq, d=d)
    with pytest.raises(ValueError, match=f"^{codec_id} (takes no|needs the) block size d$"):
        bind_codec(codec_id, p, fld, seq, d=2 if d is None else None)


def test_bind_codec_refuses_an_unknown_codec():
    p, seq, _ = valid_binding("vgms")
    with pytest.raises(ValueError, match="unknown codec 'rs'; known: "):
        bind_codec("rs", p, GF(8), seq)


def test_bind_codec_refuses_streams_the_oracle_would_replay_in_part():
    # an offline scheme's own sequence under params of another t (and too
    # small an m), and diagonal under m=1 with sizes of 5
    fld = GF(8)
    seq = OfflineScheme("lemma3_seq1", 3, 1, 1, 2).sequence
    assert list(seq) == [2, 0, 0, 0]
    for t in (1, 10):
        with pytest.raises(ValueError):
            bind_codec("lemma3_seq1", make_params(3, 1, tau_l=1, m=1, t=t), fld, seq, d=2)
    fives = terminate_sizes([5, 5], 2, 5)
    with pytest.raises(ValueError, match="message size 5 at slot 0 exceeds m=1"):
        bind_codec("diagonal", make_params(2, 1, tau_l=1, m=1, t=fives.t), fld, fives)


@pytest.mark.parametrize("bad", ["negative", "order"])
@pytest.mark.parametrize("codec_id", ["vgms", "diagonal"])
def test_out_of_field_symbol_rejected(codec_id, bad):
    fld, seq, codec = bound_codec(codec_id)
    symbol = -1 if bad == "negative" else fld.order
    payload = random_payload(seq, fld, 0)
    packets = codec.encode(payload)
    slot = next(i for i, pkt in enumerate(packets) if pkt)
    received = [list(pkt) for pkt in packets]
    received[slot][0] = symbol
    with pytest.raises(ValueError, match="out-of-field"):
        codec.decode(received)
    payload[0][0] = symbol
    with pytest.raises(ValueError, match="out-of-field"):
        codec.encode(payload)


def test_corrupted_symbol_is_a_decode_error():
    # with every packet received, each channel symbol is implied by the
    # others, so one flipped bit anywhere makes them contradict each other
    fld, seq, codec = bound_codec("diagonal")
    packets = codec.encode(random_payload(seq, fld, 0))
    for slot, pkt in enumerate(packets):
        for pos in range(len(pkt)):
            received = [list(p) for p in packets]
            received[slot][pos] ^= 1
            with pytest.raises(ValueError, match="received packets are inconsistent"):
                codec.decode(received)


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("codec_id", ["vgms", "diagonal"])
def test_received_list_of_wrong_length_rejected(codec_id, extra):
    fld, seq, codec = bound_codec(codec_id)
    packets = codec.encode(random_payload(seq, fld, 0))
    received = packets[:-1] if extra < 0 else packets + [[]]
    with pytest.raises(ValueError, match="received list must cover slots 0..t"):
        codec.decode(received)


def test_vgms_payload_must_match_the_sequence():
    fld, seq, codec = bound_codec("vgms")
    payload = random_payload(seq, fld, 0)
    payload[0].append(1)
    with pytest.raises(ValueError, match="payload does not match"):
        codec.encode(payload)


def test_vgms_refuses_a_stream_it_cannot_flush():
    # at tau=2, b=1 the tail of slot 2 of [4, 4, 4] would ride in slot 4's
    # parity, past t=2; [4, 4, 0] ends without a tail, so it binds
    fld = GF(8)
    p = make_params(2, 1, m=4, t=2)
    with pytest.raises(
        ValueError,
        match=r"^message at slot 2 cannot be flushed by slot t=2; terminate the sequence first$",
    ):
        bind_codec("vgms", p, fld, SizeSequence([4, 4, 4]))
    seq = SizeSequence([4, 4, 0])
    codec = bind_codec("vgms", p, fld, seq)
    assert verify_stream(codec, random_payload(seq, fld, 0), "full") is None


def test_every_unterminated_vgms_stream_that_binds_verifies():
    # the refusal reads the tails, not the last tau sizes, so it lets
    # through unterminated streams that flush, and each of them verifies
    fld = GF(8)
    rng = random.Random(0)
    unterminated = refused = 0
    for _ in range(150):
        tau = rng.randint(1, 5)
        b = rng.randint(1, tau)
        m = rng.randint(1, 3)
        sizes = [rng.randint(0, m) for _ in range(tau + rng.randint(1, 3))]
        if rng.random() < 0.5:  # end on 1..tau zeros
            zeros = rng.randint(1, tau)
            sizes[-zeros:] = [0] * zeros
        p = make_params(tau, b, m=m, t=len(sizes) - 1, w=tau + rng.randint(1, 3))
        seq = SizeSequence(sizes)
        try:
            codec = bind_codec("vgms", p, fld, seq)
        except ValueError as exc:
            assert "cannot be flushed" in str(exc)
            refused += 1
            continue
        unterminated += any(sizes[-tau:])
        payload = random_payload(seq, fld, rng.randrange(100))
        assert verify_stream(codec, payload, "full") is None, (tau, b, p.w, sizes)
    assert unterminated and refused
