"""Online rate-optimal streaming codec for the zero-lossless-delay regime.

Each message packet is sent in full in its own channel packet, so reception
without loss decodes immediately. The packet is split into a head piece,
protected by Cauchy parities and recoverable before the full delay budget
elapses, and a tail piece recovered exactly `tau` slots later by cancelling
the reconstructed Cauchy combination out of a later parity segment. The
split is driven by a running parity budget computed only from packet sizes
seen so far, which is what keeps the encoder online.

Layout per slot i:

    X[i] = (S[i], P[i])        with |P[i]| = |tail of S[i - tau]|
    P[i] = tail[i - tau] + combine(heads of slots i-tau..i-1)

where combine() takes columns ((i mod tau) * m ..) of a (tau*m) x (tau*m)
Cauchy matrix against the heads laid out at block offsets ((j mod tau) * m).
Each head enters combine() as its log-domain terms (`CauchyMatrix.terms`),
built once per slot and read by every window that contains the slot: the
encoder keeps them in its tau-slot ring, and the decoder builds them on
first use, only for the slots a burst's windows reach.

The layout depends only on the sizes, which the receiver holds as side
information, so one bound layout (`packet_layout`) serves the encoder and
every decode: `encode_stream` and `decode_stream` both read it and never
split a message again. The online `VgmsEncoder` grows its own layout one
slot at a time from the sizes seen so far, as the paper's encoder does; it
is the reference that `encode_stream` is tested against, and both build each
packet by the one per-slot rule of `_ParityRing`.

A burst erasing slots s..e is undone in two phases, and both read the one
parity equation above with its known side cancelled. First the erased heads
are solved jointly from the parity columns of slots e+1..s+tau-1, once the
received tails and the known heads are cancelled out of them (any square
Cauchy subsystem is invertible; we take the first sum-of-head-sizes columns
in slot order). That subsystem is itself a Cauchy matrix, so
`CauchyMatrix.solve_combination` inverts it in closed form, in O(n^2) for n
erased head symbols, from one n x n block of logs and without building it.
Then each erased tail is what is left of the parity tau slots after its slot
once every head in that window is cancelled. The burst reads only slots
e+1-tau..e+tau. Admissible runs start at least w slots apart and
`require_valid` holds w > tau, so no other erasure lies there: each burst
is decoded on its own, and the decoder carries no state from one to the
next.

A decode does only the work its bursts need. With nothing erased it
returns once the received list is checked; a burst whose slots all have
size 0 is recovered without reading any parity; windows skip slots without
a head, and a window that holds no head costs no `combine`: its parity
slice, XOR the received tail in phase 1, is the answer. Whether a window
holds a head is one subtraction of the layout's running count of slots
with a head (`VgmsLayout.head_counts`), which `split` grows from the sizes
alone, so the online encoder's layout has it too; nothing is kept from
one decode to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .cauchy import CauchyMatrix
from .channel import check_received, runs_admissible
from .gf import in_field
from .model import CodeParams, SizeSequence, require_valid


class DecodeFailure(Exception):
    """Recovery failed where the construction guarantees success."""


class VgmsLayout:
    """Per-slot split and parity sizes, grown one slot at a time by `split`,
    and a running count of the slots that carry a head.

    A pure function of the size sequence, so the decoder uses exactly what
    the encoder used.
    """

    def __init__(self, p: CodeParams) -> None:
        require_valid(p)
        self.params = p
        self.k_sizes: list[int] = []
        self.head_sizes: list[int] = []  # early-recovery piece of each message
        self.tail_sizes: list[int] = []  # remainder, recovered at exactly tau
        # indexed 0..t+tau; slots beyond t are never sent
        self.parity_sizes: list[int] = [0] * p.tau
        self.n_sizes: list[int] = []  # channel packet size of each split slot
        # slots before slot i whose head is nonempty, indexed 0..t+1, so a
        # window of slots lo..j-1 holds a head iff the two counts differ
        self.head_counts: list[int] = [0]
        # spare-parity minimum at each split, None before slot b
        self.budgets: list[int | None] = []

    def split(self, k: int) -> int:
        """Split the next slot's message of `k` symbols; returns its head size.

        Reads only the sizes of earlier slots, which keeps the code online.
        """
        p = self.params
        i = len(self.k_sizes)
        if k > p.m:
            raise ValueError(f"message size {k} at slot {i} exceeds m={p.m}")
        budget = None
        head = 0
        if i >= p.b:
            budget = parity_budget(self.k_sizes, self.parity_sizes, i, p.tau, p.b)
            head = min(k, max(budget, 0))  # the budget is provably never negative
        self.k_sizes.append(k)
        self.head_sizes.append(head)
        self.tail_sizes.append(k - head)
        self.parity_sizes.append(k - head)  # lands at slot i + tau
        self.budgets.append(budget)
        self.n_sizes.append(k + self.parity_sizes[i])  # slot i's parity is set by now
        self.head_counts.append(self.head_counts[i] + (head > 0))
        return head

    def n_size(self, i: int) -> int:
        return self.n_sizes[i]

    def trace(self) -> list[dict]:
        sizes = zip(self.k_sizes, self.tail_sizes, self.head_sizes, self.parity_sizes)
        return [{"k": k, "u": u, "v": v, "p": n} for k, u, v, n in sizes]


def parity_budget(
    k_sizes: Sequence[int], parity_sizes: Sequence[int], i: int, tau: int, b: int
) -> int:
    """Minimum spare parity over every burst window that could cover slot i.

    For each window start j in {i-b+1, .., i}: parity allocated to slots
    j+b .. i+tau-1 minus message symbols of slots j .. i-1. Requires i >= b,
    so j never goes negative. Walking j down from i, each step adds one
    parity slot and one message to the window.
    """
    spare = best = sum(parity_sizes[i + b : i + tau])  # j = i: nothing queued yet
    for j in range(i - 1, i - b, -1):
        spare += parity_sizes[j + b] - k_sizes[j]
        if spare < best:
            best = spare
    return best


def packet_layout(seq: SizeSequence, p: CodeParams) -> VgmsLayout:
    """Head/tail split and parity allocation for a whole (terminated) stream.

    The receiver's layout: the split depends only on the size sequence,
    which is public side information, so one layout serves every decode.
    `codecs.bind_codec` checks that the sequence is the params' length.
    """
    layout = VgmsLayout(p)
    for k in seq:
        layout.split(k)
    return layout


def _check_matrix(p: CodeParams, matrix: CauchyMatrix) -> None:
    if matrix.dim != p.tau * p.m:
        raise ValueError(
            f"parity matrix must be {p.tau * p.m} x {p.tau * p.m}, got {matrix.dim}"
        )


def block(p: CodeParams, j: int, n: int) -> range:
    """The first n matrix rows (head symbols) or columns (parity symbols)
    of slot j: slots tau apart share a block."""
    base = (j % p.tau) * p.m
    return range(base, base + n)


class _ParityRing:
    """The per-slot packet rule, shared by both encode paths.

    Holds the pieces of the last tau slots, Theta(tau * m) symbols, in a
    ring indexed by slot mod tau. Each head is kept as its log-domain terms
    (`CauchyMatrix.terms`), built once when its slot is encoded and read by
    the tau windows that contain it; slots before 0 are empty.
    """

    def __init__(self, p: CodeParams, matrix: CauchyMatrix) -> None:
        self.params = p
        self.matrix = matrix
        self._terms: list[list[tuple[int, int]]] = [[] for _ in range(p.tau)]
        self._tails: list[Sequence[int]] = [[] for _ in range(p.tau)]

    def packet(self, i: int, symbols: Sequence[int], head_n: int, psz: int) -> list[int]:
        """Slot i's channel packet: its message, then `psz` parity symbols,
        each a tail symbol of slot i - tau plus the Cauchy combination of
        the heads of slots i-tau..i-1. Slot i's first `head_n` symbols then
        take slot i - tau's place in the ring."""
        p, matrix = self.params, self.matrix
        ring = i % p.tau  # slot i - tau's place, whose tail rides in this parity
        parity: list[int] = []
        if psz:
            window = list(chain.from_iterable(self._terms))
            tail = self._tails[ring]
            if window:
                prime = matrix.combine(window, block(p, i, psz))
                parity = [u ^ c for u, c in zip(tail, prime)]
            else:  # no head symbol in the window: the parity is the tail
                parity = list(tail)
        self._terms[ring] = (
            matrix.terms(block(p, i, head_n), symbols[:head_n]) if head_n else []
        )
        self._tails[ring] = symbols[head_n:]
        return list(symbols) + parity  # a concatenation is allocated exactly


class VgmsEncoder:
    """Slot-ordered online encoder; feed packets for slots 0, 1, .. in order.

    Grows its own layout one `split` per slot, from the sizes seen so far:
    the paper's construction, and the reference that `encode_stream` is
    tested against.
    """

    def __init__(self, p: CodeParams, matrix: CauchyMatrix) -> None:
        self.layout = VgmsLayout(p)
        _check_matrix(p, matrix)
        self._ring = _ParityRing(p, matrix)

    @property
    def next_slot(self) -> int:
        return len(self.layout.k_sizes)

    def encode_slot(self, symbols: Sequence[int]) -> list[int]:
        i = self.next_slot
        if not in_field(self._ring.matrix.field, symbols):
            raise ValueError(f"message at slot {i} has an out-of-field symbol")
        head_n = self.layout.split(len(symbols))
        return self._ring.packet(i, symbols, head_n, self.layout.parity_sizes[i])


def encode_stream(
    layout: VgmsLayout, matrix: CauchyMatrix, payload: Sequence[Sequence[int]]
) -> list[list[int]]:
    """Channel packets of a whole terminated stream, from its layout.

    `layout` is the stream's own, from `packet_layout`, as `decode_stream`
    takes it; the packets are those the online `VgmsEncoder` sends when fed
    the payload slot by slot. Raises ValueError for a wrong matrix size, a
    layout or payload that does not cover slots 0..t, a message whose size
    is not the layout's, or an out-of-field symbol.
    """
    p = layout.params
    _check_matrix(p, matrix)
    if len(layout.k_sizes) != p.t + 1:
        raise ValueError("layout must cover slots 0..t")
    if len(payload) != p.t + 1:
        raise ValueError("payload must cover slots 0..t")
    fld = matrix.field
    ring = _ParityRing(p, matrix)
    packets = []
    slots = zip(payload, layout.k_sizes, layout.head_sizes, layout.parity_sizes)
    for i, (symbols, k, head_n, psz) in enumerate(slots):
        if len(symbols) != k:
            raise ValueError("payload does not match the size sequence")
        if not in_field(fld, symbols):
            raise ValueError(f"message at slot {i} has an out-of-field symbol")
        packets.append(ring.packet(i, symbols, head_n, psz))
    return packets


@dataclass
class DecodeResult:
    messages: list[list[int]]
    decode_times: list[int | None]


def _cancel_known(layout, matrix, received, messages, terms, j, n, tail) -> Sequence[int]:
    """Slot j's first n parity symbols + `tail` (None: no tail) + the
    combination of the known heads of slots j-tau..j-1 over slot j's
    columns: what is left of `decode_stream`'s parity equation once its
    known side is cancelled. Slots without a head are skipped, and a window
    that holds none (by `layout.head_counts`) costs no `combine`. A received
    head's terms go into `terms` on first use; an erased slot's are set by
    its burst, empty until phase 1 has solved them."""
    p = layout.params
    k = layout.k_sizes[j]
    parity = received[j][k : k + n]  # a slice: the caller's to keep
    if tail is not None:
        parity = [a ^ u for a, u in zip(parity, tail)]
    lo = j - p.tau if j > p.tau else 0
    window: list[tuple[int, int]] = []
    head_counts = layout.head_counts
    if head_counts[j] != head_counts[lo]:
        head_sizes = layout.head_sizes
        for l in range(lo, j):
            head_n = head_sizes[l]
            if head_n:
                slot_terms = terms.get(l)
                if slot_terms is None:
                    if messages[l] is None:
                        raise DecodeFailure(f"head of slot {l} unexpectedly unknown")
                    slot_terms = terms[l] = matrix.terms(
                        block(p, l, head_n), messages[l][:head_n]
                    )
                window += slot_terms
    if not window:
        return parity
    return [a ^ c for a, c in zip(parity, matrix.combine(window, block(p, j, n)))]


def decode_stream(
    layout: VgmsLayout,
    matrix: CauchyMatrix,
    received: Sequence[Sequence[int] | None],
) -> DecodeResult:
    """Two-phase recovery of every erased message packet, one burst at a time.

    `layout` is the stream's own, from `packet_layout`; it holds the params
    and sizes, and the field is the matrix's. Both phases read one equation,
    slot j's parity:

        P[j] = tail[j - tau] + combine(heads of slots j-tau..j-1)

    Phase 1 per burst s..e: cancel the received tail of slot j - tau and
    the known heads (the burst's left out) out of the parity of each slot j
    from e+1 on, then solve one square Cauchy system for all erased heads
    jointly, in closed form. Phase 2: each erased slot l's tail is what is
    left of slot l + tau's parity once every head of its window, the
    burst's now solved, is cancelled. A burst s..e reads only slots
    e+1-tau..e+tau, and an admissible pattern puts no other erasure there:
    runs start at least w > tau slots apart (`require_valid`). So no state
    passes from one burst to the next, and each erased tail is read from
    the parity that carries it.

    Work a burst does not need is skipped: with nothing erased the call
    returns once the list is checked, a burst over slots of size 0 reads no
    parity, slots without a head are left out of every window, and a window
    without a head, by the layout's `head_counts` (from the sizes alone),
    calls no `combine`. Nothing is kept across calls.

    The bursts are the erased runs that `channel.check_received` returns
    once it has checked the list; the admissibility rule
    (`channel.runs_admissible`) reads the same runs. A received slot's
    message is a fresh slice of its packet; its head is read only when a
    burst's window needs it, and each nonempty head's log-domain terms are
    built at most once per call. Raises ValueError for malformed input (a
    wrong matrix size, list or packet length, an out-of-field symbol) or an
    inadmissible pattern, and DecodeFailure if recovery is impossible,
    which would mean a construction bug.
    """
    p = layout.params
    _check_matrix(p, matrix)
    t, tau = p.t, p.tau
    if len(layout.k_sizes) != t + 1:
        raise ValueError("layout must cover slots 0..t")
    runs = check_received(received, layout.n_sizes, matrix.field)
    if not runs_admissible(runs, p):
        raise ValueError("loss pattern is not admissible for this channel")

    k_sizes = layout.k_sizes
    messages: list[list[int] | None] = [
        None if pkt is None else pkt[:k] if type(pkt) is list else list(pkt[:k])
        for pkt, k in zip(received, k_sizes)
    ]
    times: list[int] = list(range(t + 1))  # an erased slot's is set when it is recovered
    if not runs:
        return DecodeResult(messages, times)
    head_sizes, tail_sizes, parity_sizes = layout.head_sizes, layout.tail_sizes, layout.parity_sizes
    terms: dict[int, list[tuple[int, int]]] = {}  # head terms of a slot, once built

    for run_start, run_end in runs:
        burst = range(run_start, run_end + 1)
        if not any(k_sizes[run_start : run_end + 1]):  # nothing was sent: nothing to read
            for l in burst:
                messages[l] = []
            continue
        total_heads = sum(head_sizes[run_start : run_end + 1])
        head_time: int | None = None

        if total_heads:
            unknown = [l for l in burst if head_sizes[l]]
            rows = [r for l in unknown for r in block(p, l, head_sizes[l])]
            for l in unknown:  # empty until solved, so phase 1 leaves them out
                terms[l] = []
            cols: list[int] = []
            rhs: list[int] = []
            j = run_end + 1
            while len(cols) < total_heads:
                if j > min(run_start + tau - 1, t):
                    raise DecodeFailure(
                        f"parity shortfall recovering burst {run_start}..{run_end}"
                    )
                psz = parity_sizes[j]
                if psz:
                    if received[j] is None:
                        raise DecodeFailure(f"parity slot {j} was erased")
                    q = j - tau  # received: no other burst lies within tau slots
                    if received[q] is None:
                        raise DecodeFailure(f"tail of slot {q} unknown")
                    if tail_sizes[q] != psz:
                        raise DecodeFailure(f"parity slot {j} misses the tail of {q}")
                    take = min(psz, total_heads - len(cols))
                    tail = received[q][head_sizes[q] : k_sizes[q]]
                    rhs += _cancel_known(layout, matrix, received, messages, terms, j, take, tail)
                    cols.extend(block(p, j, take))
                    head_time = j
                j += 1

            solution = matrix.solve_combination(rows, cols, rhs)
            offset = 0
            for l in unknown:
                head = messages[l] = solution[offset : offset + head_sizes[l]]
                terms[l] = matrix.terms(block(p, l, head_sizes[l]), head)
                offset += head_sizes[l]

        for l in burst:
            message = messages[l] or []  # the solved head, if any
            tail_n = tail_sizes[l]
            if k_sizes[l] == 0:
                times[l] = l  # termination: nothing to decode
            elif tail_n:
                j2 = l + tau
                if j2 > t or received[j2] is None:
                    raise DecodeFailure(f"parity slot {j2} unavailable for slot {l}")
                if parity_sizes[j2] != tail_n:
                    raise DecodeFailure(f"parity slot {j2} misses the tail of {l}")
                message += _cancel_known(
                    layout, matrix, received, messages, terms, j2, tail_n, None
                )
                times[l] = j2
            else:
                if head_time is None:
                    raise DecodeFailure(f"no head decode time for slot {l}")
                times[l] = head_time
            messages[l] = message

    if None in messages:
        raise DecodeFailure(f"slot {messages.index(None)} was never recovered")
    return DecodeResult(messages, times)
