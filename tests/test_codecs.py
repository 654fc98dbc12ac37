"""Codec adapters check their binding once, and reject symbols outside the
field and corrupted packets at their boundaries."""

from dataclasses import replace

import pytest

from streamfec.baselines import make_scheme
from streamfec.codecs import CODEC_IDS, bind_codec
from streamfec.gf import GF
from streamfec.model import make_params, random_payload, terminate_sizes

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
    seq = make_scheme(codec_id, tau, b, tau_l, 2).sequence
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


def test_bind_codec_refuses_streams_the_oracle_would_replay_in_part():
    # an offline scheme's own sequence under params of another t (and too
    # small an m), and diagonal under m=1 with sizes of 5
    fld = GF(8)
    seq = make_scheme("lemma3_seq1", 3, 1, 1, 2).sequence
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
