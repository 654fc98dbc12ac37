"""Malformed received streams at each codec's decode boundary: every decode
either returns a DecodeResult or raises ValueError, and nothing else.

Hypothesis runs derandomized with a fixed example budget and no example
database, so the examples are the same on every run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from streamfec.baselines import lemma_sequences
from streamfec.channel import is_admissible
from streamfec.codecs import bind_codec
from streamfec.gf import GF
from streamfec.model import make_params, random_payload, terminate_sizes
from streamfec.vgms import DecodeResult

CODECS = ("vgms", "diagonal", "lemma3_seq1")
KINDS = ("erase", "list_length", "packet_length", "symbol")


def _bind(codec_id):
    fld = GF(8)
    if codec_id == "vgms":
        seq = terminate_sizes([3, 2, 1, 2, 1], 4, 3)
        p = make_params(4, 2, m=3, t=seq.t)
    elif codec_id == "diagonal":
        seq = terminate_sizes([2, 2, 2], 2, 2)
        p = make_params(2, 1, tau_l=1, m=2, t=seq.t)
    else:  # the first sequence of the conv3 lemma, tau=3 b=1 tau_l=1 d=2
        seq = lemma_sequences("conv3", 3, 1, 1, 2)[0]
        p = make_params(3, 1, tau_l=1, m=max(seq), t=seq.t)
    codec = bind_codec(codec_id, p, fld, seq, d=2)
    return codec, codec.encode(random_payload(seq, fld, 0))


BINDINGS = {codec_id: _bind(codec_id) for codec_id in CODECS}


def _malformed(data, codec, packets, kind):
    """Erase some slots, then break the received stream as `kind` says.

    Returns the erased slots, the received list, and whether the list is
    malformed beyond erasures and in-field corruption, which every decoder
    must refuse.
    """
    order = codec.field.order
    received = [list(pkt) for pkt in packets]
    erased = data.draw(st.sets(st.sampled_from(range(len(received)))), "erased")
    for i in erased:
        received[i] = None
    if kind == "erase":
        return erased, received, False
    if kind == "list_length":
        extra = data.draw(st.integers(-len(received), 3).filter(bool), "extra")
        return erased, received[:extra] if extra < 0 else received + [[]] * extra, True
    # the broken packet arrives even if its slot was drawn for erasure
    if kind == "packet_length":
        slot = data.draw(st.sampled_from(range(len(packets))), "slot")
        pkt = list(packets[slot])
        if pkt and data.draw(st.booleans(), "shorter"):
            pkt.pop()
        else:
            pkt.append(data.draw(st.integers(0, order - 1), "appended"))
        bad = True
    else:
        sent = [i for i, pkt in enumerate(packets) if pkt]
        slot = data.draw(st.sampled_from(sent), "slot")
        pkt = list(packets[slot])
        symbol = data.draw(
            st.sampled_from([-1, order]) | st.integers(0, order - 1), "symbol"
        )
        pkt[data.draw(st.integers(0, len(pkt) - 1), "pos")] = symbol
        bad = not 0 <= symbol < order
    received[slot] = pkt
    erased.discard(slot)
    return erased, received, bad


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("codec_id", CODECS)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_decode_returns_a_result_or_raises_value_error(codec_id, kind, data):
    codec, packets = BINDINGS[codec_id]
    erased, received, bad = _malformed(data, codec, packets, kind)
    try:
        result = codec.decode(received)
    except ValueError:
        # besides a malformed stream, a decoder may refuse an inadmissible
        # pattern (vgms checks) or corrupted symbols it can detect
        may_refuse = kind == "symbol" or (
            codec_id == "vgms" and not is_admissible(tuple(erased), codec.params)
        )
        assert bad or may_refuse, (sorted(erased), received)
        return
    assert not bad, received
    assert isinstance(result, DecodeResult)
