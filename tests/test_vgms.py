"""The online codec: golden layout, burst recovery, invariants, and an
independent linear-algebra cross-check of the encoder and decoder."""

import copy
import dataclasses
import functools
import random

import pytest

from streamfec.cauchy import CauchyMatrix, build_cauchy, vec_mat
from streamfec.channel import all_patterns, apply_pattern, erased_runs, single_burst_patterns
from streamfec.gf import GF
from streamfec.codecs import bind_codec
from streamfec.linear import IncrementalDecoder
from streamfec.model import (
    make_params,
    random_payload,
    random_sizes,
    symbol_offsets,
    terminate_sizes,
)
from streamfec import vgms
from streamfec.oracle import Counterexample, exhaustive_decode_check
from streamfec.vgms import (
    VgmsEncoder,
    block,
    decode_stream,
    encode_stream,
    packet_layout,
    parity_budget,
)

REF_SIZES = [3, 2, 1, 2, 1]  # the worked reference stream, tau=4 b=2


def ref_setup(fld=None, seed=0):
    fld = fld or GF(8)
    seq = terminate_sizes(REF_SIZES, 4, 3)
    p = make_params(4, 2, m=3, t=seq.t)
    matrix = build_cauchy(p.tau * p.m, fld, seed)
    return p, fld, seq, matrix


def test_reference_layout_golden():
    p, fld, seq, _ = ref_setup()
    layout = packet_layout(seq, p)
    assert layout.tail_sizes == [3, 2, 0, 0, 1, 0, 0, 0, 0]
    assert layout.head_sizes == [0, 0, 1, 2, 0, 0, 0, 0, 0]
    assert layout.parity_sizes[4:9] == [3, 2, 0, 0, 1]
    assert layout.parity_sizes[0:4] == [0, 0, 0, 0]


def test_reference_budgets_golden():
    p, fld, seq, _ = ref_setup()
    layout = packet_layout(seq, p)
    # min over burst windows of allocated-parity minus queued-message symbols
    assert layout.budgets[2] == 3
    assert layout.budgets[3] == 2
    assert layout.budgets[4] == 0


def test_budgets_never_negative_on_random_streams():
    fld = GF(8)
    for seed in range(40):
        tau = random.Random(seed).randint(2, 5)
        b = random.Random(seed + 1).randint(1, tau)
        seq = terminate_sizes(random_sizes(8, 3, seed), tau, 3)
        p = make_params(tau, b, m=3, t=seq.t)
        layout = packet_layout(seq, p)
        assert all(z is None or z >= 0 for z in layout.budgets), (tau, b, seed)


def slice_sum_budget(k_sizes, parity_sizes, i, tau, b):
    """parity_budget's definition, one pair of slice sums per window start:
    the reference for its running window, and the "before" side of
    bench/startup.py."""
    best = sum(parity_sizes[i + b : i + tau])  # j = i: nothing queued yet
    for j in range(i - b + 1, i):
        spare = sum(parity_sizes[j + b : i + tau]) - sum(k_sizes[j:i])
        if spare < best:
            best = spare
    return best


@pytest.mark.parametrize("tau,b", [(2, 1), (4, 2), (8, 8), (16, 4)])
def test_parity_budget_matches_slice_sums(tau, b, monkeypatch):
    m = 5
    rng = random.Random(f"{tau}:{b}")
    for _ in range(30):
        # zeros and full-m messages often, anything in between too
        sizes = [rng.choice((0, m, rng.randint(0, m))) for _ in range(rng.randint(1, 40))]
        seq = terminate_sizes(sizes, tau, m)
        p = make_params(tau, b, m=m, t=seq.t)
        layout = packet_layout(seq, p)
        for i in range(b, seq.t + 1):  # each split's state: slots before i
            k_sizes, parity_sizes = layout.k_sizes[:i], layout.parity_sizes[: i + tau]
            want = slice_sum_budget(k_sizes, parity_sizes, i, tau, b)
            assert parity_budget(k_sizes, parity_sizes, i, tau, b) == want == layout.budgets[i]
        with monkeypatch.context() as mp:
            mp.setattr(vgms, "parity_budget", slice_sum_budget)
            ref = packet_layout(seq, p)
        assert layout.trace() == ref.trace() and layout.budgets == ref.budgets


def test_zero_size_packet_splits_empty():
    p, fld, seq, _ = ref_setup()
    layout = packet_layout(seq, p)
    for i in (5, 6, 7, 8):
        assert layout.head_sizes[i] == 0 and layout.tail_sizes[i] == 0
        assert layout.parity_sizes[i + 4] == 0


def test_encode_sizes_and_systematic_prefix():
    p, fld, seq, matrix = ref_setup()
    payload = random_payload(seq, fld, 3)
    packets = encode_stream(packet_layout(seq, p), matrix, payload)
    assert [len(x) for x in packets] == [3, 2, 1, 2, 4, 2, 0, 0, 1]
    for i in range(4):  # before tau, the packet is exactly the message
        assert packets[i] == payload[i]
    for i in range(seq.t + 1):  # systematic prefix everywhere
        assert packets[i][: seq.size(i)] == payload[i]


def test_parity_equals_tail_when_heads_are_zero():
    p, fld, seq, matrix = ref_setup()
    layout = packet_layout(seq, p)
    payload = random_payload(seq, fld, 9)
    for i in range(seq.t + 1):  # zero the head symbols, keep the tails
        for r in range(layout.head_sizes[i]):
            payload[i][r] = 0
    packets = encode_stream(layout, matrix, payload)
    for i in range(4, seq.t + 1):
        psz = layout.parity_sizes[i]
        if psz:
            tail = payload[i - 4][layout.head_sizes[i - 4] :]
            assert packets[i][seq.size(i) :] == tail


def reference_window_parity(matrix, p, j, n, heads):
    """First n parity symbols of slot j without its tail, from the raw heads
    of slots j-tau..j-1 by the scalar `vec_mat` over `submatrix`: the
    reference for the log-domain terms the encoder keeps per slot."""
    rows, values = [], []
    for l in range(max(j - p.tau, 0), j):
        rows.extend(block(p, l, len(heads[l])))
        values.extend(heads[l])
    if not rows:
        return [0] * n
    return vec_mat(matrix.field, values, matrix.submatrix(rows, block(p, j, n)))


@pytest.mark.parametrize("degree", [8, 16])
def test_encoder_parity_matches_reference_window_product(degree):
    # every slot of random streams, with zero head symbols, empty heads and
    # empty messages among them; each decodes every single burst too
    fld = GF(degree)
    rng = random.Random(degree)
    seen = dict.fromkeys(("zero head symbol", "empty head", "empty message"), False)
    for tau, b, m in ((2, 1, 3), (3, 1, 4), (4, 2, 3), (5, 3, 2)):
        sizes = [rng.choice((0, m, rng.randint(0, m))) for _ in range(12)]
        seq = terminate_sizes(sizes, tau, m)
        p = make_params(tau, b, m=m, t=seq.t)
        matrix = build_cauchy(p.tau * p.m, fld, rng.randrange(100))
        payload = [[rng.choice((0, rng.randrange(fld.order))) for _ in range(k)] for k in seq]
        layout = packet_layout(seq, p)
        packets = encode_stream(layout, matrix, payload)
        heads = [msg[:v] for msg, v in zip(payload, layout.head_sizes)]
        seen["zero head symbol"] |= any(0 in head for head in heads)
        seen["empty head"] |= any(k and not v for k, v in zip(seq, layout.head_sizes))
        seen["empty message"] |= 0 in sizes
        for i, pkt in enumerate(packets):
            k, psz = seq.size(i), layout.parity_sizes[i]
            tail = payload[i - tau][layout.head_sizes[i - tau] :] if psz else []
            prime = reference_window_parity(matrix, p, i, psz, heads)
            assert pkt[k:] == [u ^ c for u, c in zip(tail, prime)], (degree, tau, i)
        for pattern in single_burst_patterns(p):
            res = decode_stream(layout, matrix, apply_pattern(pattern, packets))
            assert res.messages == payload, (degree, tau, pattern)
    assert all(seen.values()), seen


def test_decoded_messages_are_fresh_lists():
    # packets given as tuples still decode to lists, and no returned
    # message shares storage with a received packet
    p, fld, seq, matrix = ref_setup()
    payload = random_payload(seq, fld, 7)
    layout = packet_layout(seq, p)
    packets = encode_stream(layout, matrix, payload)
    for pattern in ((), (0, 1), (2, 3), (4,)):
        as_tuples = apply_pattern(pattern, [tuple(pkt) for pkt in packets])
        res = decode_stream(layout, matrix, as_tuples)
        assert all(type(msg) is list for msg in res.messages), pattern
        assert res.messages == payload, pattern
        received = apply_pattern(pattern, [list(pkt) for pkt in packets])
        copies = [None if pkt is None else list(pkt) for pkt in received]
        for msg in decode_stream(layout, matrix, received).messages:
            msg.append(0)
            msg[:1] = [1]
        assert received == copies, pattern


def test_encoder_rejects_oversized_packet():
    p, fld, seq, matrix = ref_setup()
    enc = VgmsEncoder(p, matrix)
    with pytest.raises(ValueError):
        enc.encode_slot([1, 2, 3, 4])


def test_encoder_rejects_an_out_of_field_symbol():
    # a GF(2^16) symbol does not fit the GF(2^8) matrix; no slot is split
    p, fld, seq, matrix = ref_setup()
    enc = VgmsEncoder(p, matrix)
    enc.encode_slot([1, 2, 3])
    with pytest.raises(ValueError, match="message at slot 1 has an out-of-field symbol"):
        enc.encode_slot([5, 256])
    assert enc.next_slot == 1


def test_matrix_of_the_wrong_size_rejected():
    p, fld, seq, matrix = ref_setup()
    layout = packet_layout(seq, p)
    payload = random_payload(seq, fld, 1)
    packets = encode_stream(layout, matrix, payload)
    small = build_cauchy(p.tau * p.m - 1, fld, 0)
    with pytest.raises(ValueError, match="parity matrix must be 12 x 12, got 11"):
        encode_stream(layout, small, payload)
    with pytest.raises(ValueError, match="parity matrix must be"):
        decode_stream(layout, small, packets)
    with pytest.raises(ValueError, match="parity matrix must be"):
        VgmsEncoder(p, small)


def test_symbols_are_checked_against_the_matrix_field():
    # a GF(2^16) symbol does not fit the GF(2^8) matrix of the reference setup
    p, fld, seq, matrix = ref_setup()
    payload = random_payload(seq, fld, 1)
    layout = packet_layout(seq, p)
    packets = encode_stream(layout, matrix, payload)
    payload[2][0] = 256
    with pytest.raises(ValueError, match="message at slot 2 has an out-of-field symbol"):
        encode_stream(layout, matrix, payload)
    received = [list(pkt) for pkt in packets]
    received[2][0] = 256
    with pytest.raises(ValueError, match="out-of-field"):
        decode_stream(layout, matrix, received)


def test_stream_calls_need_whole_streams():
    p, fld, seq, matrix = ref_setup()
    payload = random_payload(seq, fld, 1)
    layout = packet_layout(seq, p)
    for short_or_long in (payload[:-1], payload + [[]]):
        with pytest.raises(ValueError, match="payload must cover slots 0..t"):
            encode_stream(layout, matrix, short_or_long)
    packets = encode_stream(layout, matrix, payload)
    enc = VgmsEncoder(p, matrix)
    enc.encode_slot(packets[0])
    with pytest.raises(ValueError, match="layout must cover"):
        encode_stream(enc.layout, matrix, payload)
    with pytest.raises(ValueError, match="layout must cover"):
        decode_stream(enc.layout, matrix, packets)


@pytest.mark.parametrize("slot, change", [(0, -1), (3, 1), (4, -1), (6, 1)])
def test_encode_stream_needs_the_layouts_sizes(slot, change):
    # a message one symbol short or long, also at a zero-size slot
    p, fld, seq, matrix = ref_setup()
    payload = random_payload(seq, fld, 1)
    payload[slot] = payload[slot][:-1] if change < 0 else payload[slot] + [0]
    with pytest.raises(ValueError, match="payload does not match the size sequence"):
        encode_stream(packet_layout(seq, p), matrix, payload)


def test_lossless_decode_times_are_immediate():
    p, fld, seq, matrix = ref_setup()
    payload = random_payload(seq, fld, 1)
    layout = packet_layout(seq, p)
    packets = encode_stream(layout, matrix, payload)
    res = decode_stream(layout, matrix, packets)
    assert res.messages == payload
    assert res.decode_times == list(range(seq.t + 1))


def test_burst_over_head_slots_recovered_early():
    p, fld, seq, matrix = ref_setup()
    payload = random_payload(seq, fld, 2)
    layout = packet_layout(seq, p)
    packets = encode_stream(layout, matrix, payload)
    res = decode_stream(layout, matrix, apply_pattern((2, 3), packets))
    assert res.messages == payload
    assert res.decode_times[2] <= 5 and res.decode_times[3] <= 5


def test_burst_over_tail_slots_recovered_at_exact_deadline():
    p, fld, seq, matrix = ref_setup()
    payload = random_payload(seq, fld, 2)
    layout = packet_layout(seq, p)
    packets = encode_stream(layout, matrix, payload)
    res = decode_stream(layout, matrix, apply_pattern((0, 1), packets))
    assert res.messages == payload
    assert res.decode_times[0] == 4  # tail symbols only appear tau slots later
    assert res.decode_times[1] == 5


def test_inadmissible_pattern_rejected():
    p, fld, seq, matrix = ref_setup()
    payload = random_payload(seq, fld, 2)
    layout = packet_layout(seq, p)
    packets = encode_stream(layout, matrix, payload)
    with pytest.raises(ValueError):
        decode_stream(layout, matrix, apply_pattern((0, 1, 2), packets))


@pytest.mark.parametrize(
    "raw, b, short_slot, pattern, reason, first_bad",
    [
        ([0, 0, 1, 1, 0, 4], 1, 6, (5,), "parity shortfall recovering burst 5..5", (0, 5)),
        ([3, 4, 2, 4, 1, 3], 2, 4, (0,), "parity slot 4 misses the tail of 0", (0,)),
    ],
)
def test_decode_failure_on_a_layout_short_of_parity(raw, b, short_slot, pattern, reason, first_bad):
    # only the decoder reads the cut copy of the layout, which allots one
    # parity symbol too few to `short_slot`; the codec encodes from its own
    # intact layout, so the packets are whole
    fld = GF(8)
    seq = terminate_sizes(raw, 4, 4)
    codec = bind_codec("vgms", make_params(4, b, m=4, t=seq.t), fld, seq)
    cut = copy.deepcopy(codec.layout)
    cut.parity_sizes[short_slot] -= 1
    codec.decode = functools.partial(decode_stream, cut, codec.matrix)
    payload = random_payload(seq, fld, 0)
    with pytest.raises(vgms.DecodeFailure) as failure:
        codec.decode(apply_pattern(pattern, codec.encode(payload)))
    # the exact reason: a phase-1 search past slot run_start + tau - 1
    # fails too, but on the tail of slot 5
    assert str(failure.value) == reason
    # the replay loop turns the failure into a counterexample
    assert exhaustive_decode_check(codec, payload, "full") == Counterexample(
        first_bad, None, f"decode failure: {reason}"
    )


@pytest.mark.parametrize(
    "w, cuts, pattern, reason",
    [
        # a window of 2 slots admits a second burst on the parity that
        # phase 1 of the first burst reads
        (2, {}, (2, 4), "parity slot 4 was erased"),
        # slot 4's parity claims one symbol more than slot 0's received
        # tail holds
        (5, {("parity_sizes", 4): 4}, (2,), "parity slot 4 misses the tail of 0"),
        # a zero-size slot tau - 2 slots before the end given a tail
        (5, {("k_sizes", 6): 1, ("tail_sizes", 6): 1}, (6,), "parity slot 10 unavailable for slot 6"),
        # slot 0 keeps its 3 symbols but has neither head nor tail
        (5, {("tail_sizes", 0): 0}, (0,), "no head decode time for slot 0"),
        # a window of 2 slots admits a second burst inside the window of
        # the parity that carries the first burst's tail
        (2, {}, (0, 2), "head of slot 2 unexpectedly unknown"),
        # a window of 2 slots admits a burst on slot 0, cut to size 0 so that
        # its own decode reads no parity, ahead of the burst whose phase 1
        # reads slot 0's tail
        (2, {("k_sizes", 0): 0}, (0, 2, 3), "tail of slot 0 unknown"),
    ],
)
def test_decode_failure_on_a_broken_layout(w, cuts, pattern, reason):
    # the reference stream, w = 5 = tau + 1, decoded through a broken copy
    # of its layout: a smaller channel window, or sizes set to `cuts`
    p, fld, seq, matrix = ref_setup()
    layout = packet_layout(seq, p)
    payload = random_payload(seq, fld, 3)
    received = apply_pattern(pattern, encode_stream(layout, matrix, payload))
    broken = copy.deepcopy(layout)
    broken.params = dataclasses.replace(p, w=w)
    for (sizes, slot), value in cuts.items():
        getattr(broken, sizes)[slot] = value
    with pytest.raises(vgms.DecodeFailure) as failure:
        decode_stream(broken, matrix, received)
    assert str(failure.value) == reason
    if w == p.w:  # the intact layout decodes the same packets
        assert decode_stream(layout, matrix, received).messages == payload
    else:
        with pytest.raises(ValueError, match="not admissible"):
            decode_stream(layout, matrix, received)


def test_decode_failure_on_an_erasure_outside_every_burst(monkeypatch):
    # every erased slot lies in a run that `check_received` returns, so no
    # layout can leave one unrecovered; a check that drops the last run does
    p, fld, seq, matrix = ref_setup()
    layout = packet_layout(seq, p)
    received = apply_pattern((0, 6), encode_stream(layout, matrix, random_payload(seq, fld, 3)))
    check = vgms.check_received
    monkeypatch.setattr(vgms, "check_received", lambda *args: check(*args)[:-1])
    with pytest.raises(vgms.DecodeFailure) as failure:
        decode_stream(layout, matrix, received)
    assert str(failure.value) == "slot 6 was never recovered"


def test_each_burst_reads_only_the_slots_within_tau_of_its_end():
    # a burst over slots s..e reads only slots e+1-tau..e+tau, and w > tau
    # keeps every other burst out of them: rewriting every symbol received
    # anywhere else changes no recovered message and no decode time
    fld = GF(8)
    rng = random.Random("burst-local")
    patterns = rewritten = 0
    for _ in range(100):
        tau = rng.randint(2, 5)
        b, w, m = rng.randint(1, tau), rng.randint(tau + 1, tau + 3), rng.randint(1, 4)
        raw = [rng.randint(0, m) for _ in range(rng.randint(1, 12 - tau))]
        seq = terminate_sizes(raw, tau, m)  # at most 12 slots
        p = make_params(tau, b, w=w, m=m, t=seq.t)
        matrix = build_cauchy(p.tau * p.m, fld, rng.randrange(100))
        layout = packet_layout(seq, p)
        payload = random_payload(seq, fld, rng.randrange(100))
        packets = encode_stream(layout, matrix, payload)
        for pattern in all_patterns(p):
            received = apply_pattern(pattern, packets)
            want = decode_stream(layout, matrix, received)
            read = {i for _, e in erased_runs(pattern) for i in range(e + 1 - tau, e + tau + 1)}
            for i, pkt in enumerate(received):
                if pkt is not None and i not in read:
                    received[i] = [sym ^ rng.randrange(1, fld.order) for sym in pkt]
                    rewritten += len(pkt)
            got = decode_stream(layout, matrix, received)
            assert got.decode_times == want.decode_times, (list(seq), w, pattern)
            for i in pattern:
                assert got.messages[i] == payload[i], (list(seq), w, pattern, i)
            patterns += 1
    assert patterns > 5000 and rewritten > 20000, (patterns, rewritten)


def test_round_trip_all_patterns_reference_stream():
    p, fld, seq, matrix = ref_setup()
    payload = random_payload(seq, fld, 5)
    layout = packet_layout(seq, p)
    packets = encode_stream(layout, matrix, payload)
    for pattern in all_patterns(p):
        res = decode_stream(layout, matrix, apply_pattern(pattern, packets))
        assert res.messages == payload, pattern
        for i in range(seq.t + 1):
            if seq.size(i):
                assert res.decode_times[i] <= i + p.tau, (pattern, i)


def test_round_trip_random_grid_single_bursts():
    fld = GF(8)
    for tau in (2, 3, 5):
        for b in range(1, tau + 1):
            for seed in range(3):
                seq = terminate_sizes(random_sizes(7, 4, 100 * tau + 10 * b + seed), tau, 4)
                p = make_params(tau, b, m=4, t=seq.t)
                matrix = build_cauchy(p.tau * p.m, fld, seed)
                payload = random_payload(seq, fld, seed)
                layout = packet_layout(seq, p)
                packets = encode_stream(layout, matrix, payload)
                for pattern in single_burst_patterns(p):
                    res = decode_stream(
                        layout, matrix, apply_pattern(pattern, packets)
                    )
                    assert res.messages == payload, (tau, b, seed, pattern)


def test_parity_exactly_matches_some_window():
    # every nonzero parity block is exactly accounted for by one burst window
    fld = GF(8)
    for seed in range(25):
        tau = 2 + seed % 4
        b = 1 + seed % tau
        seq = terminate_sizes(random_sizes(8, 3, seed), tau, 3)
        p = make_params(tau, b, m=3, t=seq.t)
        layout = packet_layout(seq, p)
        for i in range(tau, seq.t + 1):
            if layout.parity_sizes[i] == 0:
                continue
            hits = []
            for j in range(max(0, i - tau - b + 1), i - tau + 1):
                need = sum(seq.size(l) for l in range(j, i - tau + 1))
                have = sum(layout.parity_sizes[l] for l in range(j + b, i + 1))
                if need == have:
                    hits.append(j)
            assert hits, (seed, i)


def test_every_burst_window_is_budgeted():
    fld = GF(8)
    for seed in range(25):
        tau = 2 + seed % 4
        b = 1 + (seed // 2) % tau
        seq = terminate_sizes(random_sizes(8, 3, seed + 50), tau, 3)
        p = make_params(tau, b, m=3, t=seq.t)
        layout = packet_layout(seq, p)
        for i in range(seq.t + 1):
            for j in range(max(0, i - b + 1), i + 1):
                need = sum(seq.size(l) for l in range(j, i + 1))
                have = sum(
                    layout.parity_sizes[l]
                    for l in range(j + b, min(i + tau, seq.t) + 1)
                )
                assert have >= need, (seed, i, j)


def test_packet_never_smaller_than_message():
    fld = GF(8)
    for seed in range(25):
        tau = 2 + seed % 4
        b = 1 + seed % tau
        seq = terminate_sizes(random_sizes(8, 3, seed), tau, 3)
        p = make_params(tau, b, m=3, t=seq.t)
        layout = packet_layout(seq, p)
        for i in range(seq.t + 1):
            assert layout.n_size(i) >= seq.size(i)


def test_rate_stays_under_channel_capacity_bound():
    from fractions import Fraction

    fld = GF(8)
    for seed in range(25):
        tau = 2 + seed % 4
        b = 1 + seed % tau
        seq = terminate_sizes(random_sizes(8, 3, seed + 7), tau, 3)
        if seq.total == 0:
            continue
        p = make_params(tau, b, m=3, t=seq.t)
        layout = packet_layout(seq, p)
        sent = sum(layout.n_size(i) for i in range(seq.t + 1))
        assert Fraction(seq.total, sent) <= Fraction(tau, tau + b), (tau, b, seed)


def vgms_linear_rows(p, matrix, seq, layout):
    """Independent linear expansion of every channel symbol, built from the
    documented layout: systematic prefix, then parity = one tail symbol plus
    a Cauchy combination of the head symbols in the trailing window."""
    off = symbol_offsets(seq)
    slot_rows = []
    for i in range(seq.t + 1):
        rows = [{off[i] + r: 1} for r in range(seq.size(i))]
        psz = layout.parity_sizes[i]
        for c_off in range(psz):
            col = (i % p.tau) * p.m + c_off
            row = {off[i - p.tau] + layout.head_sizes[i - p.tau] + c_off: 1}
            for j in range(i - p.tau, i):
                if j < 0:
                    continue
                for r_off in range(layout.head_sizes[j]):
                    coeff = matrix.entry((j % p.tau) * p.m + r_off, col)
                    row[off[j] + r_off] = coeff
            rows.append(row)
        slot_rows.append(rows)
    return slot_rows


def test_encoder_matches_independent_linear_expansion():
    p, fld, seq, matrix = ref_setup(seed=2)
    payload = random_payload(seq, fld, 13)
    flat = [s for pkt in payload for s in pkt]
    layout = packet_layout(seq, p)
    packets = encode_stream(layout, matrix, payload)
    rows = vgms_linear_rows(p, matrix, seq, layout)
    for i, pkt in enumerate(packets):
        for sym, row in zip(pkt, rows[i]):
            want = 0
            for idx, c in row.items():
                want ^= fld.mul(c, flat[idx])
            assert sym == want, i


def test_decoder_agrees_with_incremental_elimination():
    # the structured decoder and a generic rank-based receiver recover the
    # same symbols on every admissible pattern of a small stream
    fld = GF(8)
    seq = terminate_sizes([2, 1, 2, 1], 3, 2)
    p = make_params(3, 2, m=2, t=seq.t)
    matrix = build_cauchy(p.tau * p.m, fld, 4)
    payload = random_payload(seq, fld, 21)
    flat = [s for pkt in payload for s in pkt]
    layout = packet_layout(seq, p)
    packets = encode_stream(layout, matrix, payload)
    rows = vgms_linear_rows(p, matrix, seq, layout)
    off = symbol_offsets(seq)
    for pattern in all_patterns(p):
        received = apply_pattern(pattern, packets)
        res = decode_stream(layout, matrix, received)
        assert res.messages == payload, pattern
        dec = IncrementalDecoder(fld, off[-1])
        for s, pkt in enumerate(received):
            if pkt is None:
                continue
            for sym, row in zip(pkt, rows[s]):
                dense = [0] * off[-1]
                for idx, c in row.items():
                    dense[idx] = c
                dec.add_equation(dense, sym)
        values = dec.determined()
        assert len(values) == off[-1], pattern
        assert [values[i] for i in range(off[-1])] == flat, pattern


def test_wider_window_round_trips():
    # a looser window admits sparser patterns; the codec must still clear them
    fld = GF(8)
    seq = terminate_sizes([2, 1, 2, 1, 2], 3, 2)
    p = make_params(3, 2, w=5, m=2, t=seq.t)
    matrix = build_cauchy(p.tau * p.m, fld, 8)
    payload = random_payload(seq, fld, 30)
    layout = packet_layout(seq, p)
    packets = encode_stream(layout, matrix, payload)
    for pattern in all_patterns(p):
        res = decode_stream(layout, matrix, apply_pattern(pattern, packets))
        assert res.messages == payload, pattern


def test_burst_equal_to_delay_degenerates_to_repetition():
    # with b = tau no head symbols ever fit the budget; every parity block
    # echoes a whole earlier message
    fld = GF(8)
    seq = terminate_sizes([2, 3, 1], 3, 3)
    p = make_params(3, 3, m=3, t=seq.t)
    layout = packet_layout(seq, p)
    assert layout.head_sizes == [0] * len(seq)
    assert [layout.n_size(i) for i in range(seq.t + 1)] == [
        seq.size(i) + seq.size(i - p.tau) for i in range(seq.t + 1)
    ]


def test_online_encoder_never_needs_future_sizes():
    # feeding slots one by one gives byte-identical packets to batch encode
    p, fld, seq, matrix = ref_setup(seed=6)
    payload = random_payload(seq, fld, 4)
    packets = encode_stream(packet_layout(seq, p), matrix, payload)
    enc = VgmsEncoder(p, matrix)
    incremental = [enc.encode_slot(payload[i]) for i in range(seq.t + 1)]
    assert incremental == packets


@pytest.mark.parametrize("degree", [8, 16])
def test_encode_stream_matches_the_online_encoder(degree):
    # the batch encode from the bound layout against the paper's online
    # encoder, which splits each message as it arrives, on random streams
    # with zero-size slots, zero symbols and tuple messages among them
    fld = GF(degree)
    rng = random.Random(f"encode:{degree}")
    for tau, b, m in ((2, 1, 3), (3, 3, 2), (4, 2, 4), (5, 2, 3), (6, 4, 5)):
        for _ in range(4):
            sizes = [rng.choice((0, m, rng.randint(0, m))) for _ in range(rng.randint(1, 14))]
            seq = terminate_sizes(sizes, tau, m)
            p = make_params(tau, b, m=m, t=seq.t)
            matrix = build_cauchy(p.tau * p.m, fld, rng.randrange(100))
            payload = [[rng.choice((0, rng.randrange(fld.order))) for _ in range(k)] for k in seq]
            payload = [tuple(msg) if rng.random() < 0.3 else msg for msg in payload]
            layout = packet_layout(seq, p)
            enc = VgmsEncoder(p, matrix)
            online = [enc.encode_slot(msg) for msg in payload]
            assert encode_stream(layout, matrix, payload) == online, (tau, b, list(seq))
            assert enc.layout.trace() == layout.trace()


def brute_force_head_counts(head_sizes):
    return [sum(1 for v in head_sizes[:i] if v) for i in range(len(head_sizes) + 1)]


def test_head_counts_count_the_slots_with_a_head():
    # the running count against a brute-force count, on layouts that
    # packet_layout builds and on the online encoder's, after every slot
    fld = GF(8)
    rng = random.Random("head-counts")
    head_free = with_head = 0
    for _ in range(40):
        tau = rng.randint(2, 6)
        b, m = rng.randint(1, tau), rng.randint(1, 5)
        sizes = [rng.choice((0, m, rng.randint(0, m))) for _ in range(rng.randint(1, 16))]
        seq = terminate_sizes(sizes, tau, m)
        p = make_params(tau, b, m=m, t=seq.t)
        layout = packet_layout(seq, p)
        assert layout.head_counts == brute_force_head_counts(layout.head_sizes), list(seq)
        enc = VgmsEncoder(p, build_cauchy(tau * m, fld, 0))
        for k in seq:
            enc.encode_slot([1] * k)
            assert enc.layout.head_counts == brute_force_head_counts(enc.layout.head_sizes)
        assert enc.layout.head_counts == layout.head_counts
        for j in range(seq.t + 1):
            if layout.head_counts[j] == layout.head_counts[max(j - tau, 0)]:
                head_free += 1
            else:
                with_head += 1
    assert head_free > 100 and with_head > 100, (head_free, with_head)


def test_bursts_without_algebra_call_no_cauchy_kernel(monkeypatch):
    # a burst over zero-size slots reads no parity, and a tail whose parity
    # window holds no head is that parity's slice: neither calls combine
    # nor the head solve, which a window with a head does call
    fld = GF(8)
    seq = terminate_sizes([3, 0, 0, 0, 2, 3, 3], 4, 3)  # slots 0..10
    p = make_params(4, 1, m=3, t=seq.t)
    matrix = build_cauchy(p.tau * p.m, fld, 0)
    layout = packet_layout(seq, p)
    assert layout.head_sizes == [0, 0, 0, 0, 0, 2, 3, 0, 0, 0, 0]
    payload = random_payload(seq, fld, 1)
    packets = encode_stream(layout, matrix, payload)

    def no_algebra(*args):
        raise AssertionError("Cauchy kernel called")

    monkeypatch.setattr(CauchyMatrix, "combine", no_algebra)
    monkeypatch.setattr(CauchyMatrix, "solve_combination", no_algebra)
    # slot 0's tail rides in slot 4's parity, whose window 0..3 holds no head
    for pattern, late in [((), {}), ((0,), {0: 4}), ((2,), {}), ((9,), {}), ((0, 9), {0: 4})]:
        res = decode_stream(layout, matrix, apply_pattern(pattern, packets))
        assert res.messages == payload, pattern
        assert res.decode_times == [late.get(i, i) for i in range(seq.t + 1)], pattern
    # slot 4's tail rides in slot 8's parity, whose window 4..7 holds the
    # heads of slots 5 and 6
    with pytest.raises(AssertionError, match="Cauchy kernel called"):
        decode_stream(layout, matrix, apply_pattern((4,), packets))
