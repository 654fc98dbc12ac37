"""Malformed input at each codec's boundaries. Every decode of a malformed
received stream either returns a DecodeResult or raises ValueError, and
nothing else; every encode of a payload of the wrong shape or with an
out-of-field symbol raises ValueError, and every other payload round-trips.
A symbol is out of the field when it is not an int (a float or a str) or
lies outside [0, order).

Hypothesis runs derandomized with a fixed example budget and no example
database, so the examples are the same on every run.
"""

import pytest
from hypothesis import given, settings, strategies as st

from streamfec.baselines import SCHEME_IDS, scheme_pair
from streamfec.channel import is_admissible
from streamfec.codecs import bind_codec
from streamfec.gf import GF
from streamfec.model import make_params, random_payload, terminate_sizes
from streamfec.vgms import DecodeResult

CODECS = ("vgms", "diagonal") + SCHEME_IDS
SYMBOL_KINDS = ("symbol", "float_symbol", "str_symbol")
KINDS = ("erase", "list_length", "packet_length") + SYMBOL_KINDS
ENCODE_KINDS = ("list_length", "message_length") + SYMBOL_KINDS
# one small (lemma, tau, b, tau_l, d) per lemma; each scheme runs on its
# variant's sequence
LEMMA_CASES = {
    "lemma1": ("conv1", 5, 2, 3, 2),
    "lemma2": ("conv2", 3, 2, 1, 2),
    "lemma3": ("conv3", 3, 1, 1, 2),
}


def _bind(codec_id):
    fld = GF(8)
    d = None
    if codec_id == "vgms":
        seq = terminate_sizes([3, 2, 1, 2, 1], 4, 3)
        p = make_params(4, 2, m=3, t=seq.t)
    elif codec_id == "diagonal":
        seq = terminate_sizes([2, 2, 2], 2, 2)
        p = make_params(2, 1, tau_l=1, m=2, t=seq.t)
    else:
        lemma, tau, b, tau_l, d = LEMMA_CASES[codec_id[:6]]
        seq = scheme_pair(lemma, tau, b, tau_l, d)[int(codec_id[-1]) - 1].sequence
        p = make_params(tau, b, tau_l=tau_l, m=max(seq), t=seq.t)
    codec = bind_codec(codec_id, p, fld, seq, d=d)
    return codec, codec.encode(random_payload(seq, fld, 0))


BINDINGS = {codec_id: _bind(codec_id) for codec_id in CODECS}


def _draw_symbol(data, order, kind):
    """A replacement symbol, and whether it is out of the field."""
    if kind == "float_symbol":
        return data.draw(st.floats(0, order - 1), "symbol"), True
    if kind == "str_symbol":
        return data.draw(st.integers(0, order - 1).map(str) | st.text(max_size=2), "symbol"), True
    symbol = data.draw(st.sampled_from([-1, order]) | st.integers(0, order - 1), "symbol")
    return symbol, not 0 <= symbol < order


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
        symbol, bad = _draw_symbol(data, order, kind)
        pkt[data.draw(st.integers(0, len(pkt) - 1), "pos")] = symbol
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
        may_refuse = kind in SYMBOL_KINDS or (
            codec_id == "vgms" and not is_admissible(tuple(erased), codec.params)
        )
        assert bad or may_refuse, (sorted(erased), received)
        return
    assert not bad, received
    assert isinstance(result, DecodeResult)


@pytest.mark.parametrize("kind", ENCODE_KINDS)
@pytest.mark.parametrize("codec_id", CODECS)
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(data=st.data())
def test_encode_refuses_a_malformed_payload(codec_id, kind, data):
    codec, _ = BINDINGS[codec_id]
    order = codec.field.order
    payload = random_payload(codec.seq, codec.field, 1)
    if kind == "list_length":
        extra = data.draw(st.integers(-len(payload), 3).filter(bool), "extra")
        payload = payload[:extra] if extra < 0 else payload + [[]] * extra
        bad = True
    elif kind == "message_length":
        # drop a symbol, or move it to another message so the total holds
        sent = [i for i, msg in enumerate(payload) if msg]
        src = data.draw(st.sampled_from(sent), "src")
        symbol = payload[src].pop()
        if data.draw(st.booleans(), "move"):
            dst = data.draw(st.sampled_from(range(len(payload))).filter(lambda i: i != src), "dst")
            payload[dst].append(symbol)
        bad = True
    else:
        sent = [i for i, msg in enumerate(payload) if msg]
        slot = data.draw(st.sampled_from(sent), "slot")
        symbol, bad = _draw_symbol(data, order, kind)
        payload[slot][data.draw(st.integers(0, len(payload[slot]) - 1), "pos")] = symbol
    if bad:
        with pytest.raises(ValueError):
            codec.encode(payload)
    else:
        assert codec.decode(codec.encode(payload)).messages == payload
