"""LinearCodec's receiver against a rescanning reference.

`rescanning_decode` is the receiver as it was before the pivot map: after
every slot it asks `IncrementalDecoder.determined()` for every unknown and
walks every message. The codec's decoder must return the same messages and
the same decode times on every pattern, late and never-decoded messages
included, and the oracle must reach the same verdict through either.
"""

import functools
import itertools

import pytest

from streamfec.baselines import LinearStream, scheme_pair
from streamfec.channel import apply_pattern
from streamfec.codecs import LinearCodec, bind_codec
from streamfec.gf import GF, in_field
from streamfec.linear import IncrementalDecoder, InconsistentSystemError
from streamfec.model import make_params, random_payload, symbol_offsets, terminate_sizes
from streamfec.oracle import exhaustive_decode_check
from streamfec.vgms import DecodeResult
from test_baselines import all_scheme_cases


def rescanning_decode(codec, received):
    seq = codec.seq
    offsets = symbol_offsets(seq)
    if len(received) != seq.t + 1:
        raise ValueError("received list must cover slots 0..t")
    n_msg = offsets[-1]
    dec = IncrementalDecoder(codec.field, n_msg)
    times = [None] * (seq.t + 1)
    values = {}
    pending = set(range(seq.t + 1))
    for s, pkt in enumerate(received):
        if pkt is not None:
            rows = codec.stream.slot_rows[s]
            if len(pkt) != len(rows):
                raise ValueError(f"packet at slot {s} has unexpected length")
            if not in_field(codec.field, pkt):
                raise ValueError(f"packet at slot {s} has an out-of-field symbol")
            for row, val in zip(rows, pkt):
                dense = [0] * n_msg
                for idx, c in row.items():
                    dense[idx] = c
                try:
                    dec.add_equation(dense, val)
                except InconsistentSystemError as exc:
                    raise ValueError(f"received packets are inconsistent (slot {s})") from exc
        values = dec.determined()
        done = []
        for i in pending:
            if i > s:
                continue
            lo, hi = offsets[i], offsets[i + 1]
            if all(idx in values for idx in range(lo, hi)):
                times[i] = s if hi > lo else i
                done.append(i)
        for i in done:
            pending.remove(i)
    messages = []
    for i in range(seq.t + 1):
        lo, hi = offsets[i], offsets[i + 1]
        messages.append(None if times[i] is None else [values[idx] for idx in range(lo, hi)])
    return DecodeResult(messages, times)


class RescanningCodec(LinearCodec):
    decode = rescanning_decode


def reference(codec):
    return RescanningCodec(codec.name, codec.params, codec.field, codec.stream)


def diagonal(tau, b, raw):
    seq = terminate_sizes(raw, tau, max(raw))
    p = make_params(tau, b, tau_l=tau - b, m=max(raw), t=seq.t)
    return bind_codec("diagonal", p, GF(8), seq)


def offline(lemma, variant, tau, b, tau_l, d):
    sch = scheme_pair(lemma, tau, b, tau_l, d)[variant - 1]
    seq = sch.sequence
    p = make_params(tau, b, tau_l=tau_l, m=max(seq), t=seq.t)
    return bind_codec(sch.scheme_id, p, GF(8), seq, d=d)


def late_stream():
    """Claims lossless delay 0 but sends message 0 one slot late."""
    seq = terminate_sizes([1, 0], 2, 1)
    p = make_params(2, 1, tau_l=0, m=1, t=seq.t)
    rows = [[], [{0: 1}], [{0: 1}], []]
    return LinearCodec("late", p, GF(8), LinearStream(seq, 0, rows))


# diagonal interleaving, with padded and empty messages, and all six
# offline schemes at small sizes
STREAMS = {
    "diagonal-2-1": lambda: diagonal(2, 1, [2, 2, 2]),
    "diagonal-4-2": lambda: diagonal(4, 2, [3, 0, 1, 2]),
    "diagonal-4-4": lambda: diagonal(4, 4, [1, 0, 1]),
    "diagonal-6-3": lambda: diagonal(6, 3, [2, 1, 0, 2]),
    "late": late_stream,
} | {
    f"{lemma}-seq{v}": functools.partial(offline, lemma, v, *case)
    for lemma, case in (("conv1", (5, 2, 3, 2)), ("conv2", (3, 2, 1, 2)), ("conv3", (4, 2, 1, 2)))
    for v in (1, 2)
}

# the streams above and every offline scheme case of test_baselines
VERDICT_STREAMS = dict(STREAMS) | {
    f"{lemma}-seq{v}-{tau}-{b}-{tau_l}-{d}": functools.partial(offline, lemma, v, tau, b, tau_l, d)
    for lemma, tau, b, tau_l, d in all_scheme_cases()
    for v in (1, 2)
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_same_decode_as_rescanning_reference_on_every_erasure_set(name):
    # every admissible pattern (channel.enumerate_patterns(p, "full")) is
    # among these, and so are inadmissible ones, with late decodes and
    # messages that never decode
    codec = STREAMS[name]()
    ref = reference(codec)
    packets = codec.encode(random_payload(codec.seq, codec.field, 4))
    slots = range(len(packets))
    for r in range(len(packets) + 1):
        for erased in itertools.combinations(slots, r):
            received = apply_pattern(erased, packets)
            got, want = codec.decode(received), ref.decode(received)
            assert got.messages == want.messages, erased
            assert got.decode_times == want.decode_times, erased


@pytest.mark.parametrize("name", sorted(VERDICT_STREAMS))
def test_oracle_verdict_same_as_with_rescanning_reference(name):
    codec = VERDICT_STREAMS[name]()
    payload = random_payload(codec.seq, codec.field, 5)
    got = exhaustive_decode_check(codec, payload, "full")
    assert got == exhaustive_decode_check(reference(codec), payload, "full")
    assert (got is None) == (name != "late")


def test_late_decode_is_flagged():
    codec = late_stream()
    bad = exhaustive_decode_check(codec, [[7], [], [], []], "full")
    assert bad is not None and bad.pattern == () and bad.slot == 0
    assert bad.reason == "lossless deadline missed (1 > 0)"
