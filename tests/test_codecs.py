"""Codec adapters reject symbols outside the field and corrupted packets
at their boundaries."""

import pytest

from streamfec.codecs import bind_codec
from streamfec.gf import GF
from streamfec.model import make_params, random_payload, terminate_sizes


def bound_codec(codec_id):
    fld = GF(8)
    if codec_id == "vgms":
        seq = terminate_sizes([3, 2, 1, 2, 1], 4, 3)
        p = make_params(4, 2, m=3, t=seq.t)
    else:  # diagonal interleaving: tau_l = tau - b with b dividing tau
        seq = terminate_sizes([2, 2, 2], 2, 2)
        p = make_params(2, 1, tau_l=1, m=2, t=seq.t)
    return fld, seq, bind_codec(codec_id, p, fld, seq)


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
