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
first use, only for the slots a burst's windows reach. The layout depends
only on the sizes, which the receiver holds as side information, so one
layout per stream serves every decode.

A burst erasing slots s..e is undone in two phases: first the erased heads
are solved jointly from the parity columns of slots e+1..s+tau-1 (any square
Cauchy subsystem is invertible; we take the first sum-of-head-sizes columns
in slot order). That subsystem is itself a Cauchy matrix, so
`CauchyMatrix.solve_combination` inverts it in closed form, in O(n^2) for n
erased head symbols, from one n x n block of logs and without building it.
Then each erased tail falls out of its own parity segment tau slots after
its slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .cauchy import CauchyMatrix
from .channel import check_received, erased_runs, is_admissible
from .gf import in_field
from .model import CodeParams, SizeSequence, require_valid


class DecodeFailure(Exception):
    """Recovery failed where the construction guarantees success."""


class VgmsLayout:
    """Per-slot split and parity sizes, grown one slot at a time by `split`.

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


class VgmsEncoder:
    """Slot-ordered online encoder; feed packets for slots 0, 1, .. in order.

    Memory holds the pieces of the last tau slots, Theta(tau * m) symbols,
    in a ring indexed by slot mod tau. Each head is kept as its log-domain
    terms (`CauchyMatrix.terms`), built once when its slot is encoded and
    read by the tau windows that contain it.
    """

    def __init__(self, p: CodeParams, matrix: CauchyMatrix) -> None:
        self.layout = VgmsLayout(p)
        _check_matrix(p, matrix)
        self.params = p
        self.matrix = matrix
        # head terms and tails of slots i-tau..i-1 at index slot mod tau;
        # slots before 0 are empty
        self._terms: list[list[tuple[int, int]]] = [[] for _ in range(p.tau)]
        self._tails: list[list[int]] = [[] for _ in range(p.tau)]

    @property
    def next_slot(self) -> int:
        return len(self.layout.k_sizes)

    def encode_slot(self, symbols: Sequence[int]) -> list[int]:
        p = self.params
        i = self.next_slot
        if not in_field(self.matrix.field, symbols):
            raise ValueError(f"message at slot {i} has an out-of-field symbol")
        head_n = self.layout.split(len(symbols))
        ring = i % p.tau  # slot i - tau's place, whose tail rides in this parity

        parity: list[int] = []
        psz = self.layout.parity_sizes[i]
        if psz:
            window = list(chain.from_iterable(self._terms))
            prime = self.matrix.combine(window, block(p, i, psz))
            parity = [u ^ c for u, c in zip(self._tails[ring], prime)]

        self._terms[ring] = self.matrix.terms(block(p, i, head_n), symbols[:head_n])
        self._tails[ring] = symbols[head_n:]
        return list(symbols) + parity


@dataclass
class VgmsStream:
    packets: list[list[int]]
    layout: VgmsLayout


def encode_stream(
    p: CodeParams, matrix: CauchyMatrix, payload: Sequence[Sequence[int]]
) -> VgmsStream:
    """Encode a full terminated stream slot by slot with the online encoder."""
    if len(payload) != p.t + 1:
        raise ValueError("payload must cover slots 0..t")
    enc = VgmsEncoder(p, matrix)
    packets = [enc.encode_slot(pkt) for pkt in payload]
    return VgmsStream(packets, enc.layout)


@dataclass
class DecodeResult:
    messages: list[list[int]]
    decode_times: list[int | None]


def decode_stream(
    layout: VgmsLayout,
    matrix: CauchyMatrix,
    received: Sequence[Sequence[int] | None],
) -> DecodeResult:
    """Two-phase recovery of every erased message packet.

    `layout` is the stream's own, from `packet_layout`; it holds the params
    and sizes, and the field is the matrix's. Phase 1 per burst: cancel the
    known tails and heads out of the parity segments right after the burst,
    then solve one square Cauchy system for all erased heads jointly, in
    closed form. Phase 2: recover each erased tail from the parity segment
    exactly tau slots after its slot. A received slot's message is a fresh
    slice of its packet; its head and tail are read only when a burst's
    window needs them, and each head's log-domain terms are built at most
    once per call. Raises ValueError for malformed input (a wrong matrix
    size, list or packet length, an out-of-field symbol) or an inadmissible
    pattern, and DecodeFailure if recovery is impossible, which would mean
    a construction bug.
    """
    p = layout.params
    _check_matrix(p, matrix)
    t, tau = p.t, p.tau
    if len(layout.k_sizes) != t + 1:
        raise ValueError("layout must cover slots 0..t")
    erased = check_received(received, layout.n_sizes, matrix.field)
    if not is_admissible(erased, p):
        raise ValueError("loss pattern is not admissible for this channel")

    k_sizes, head_sizes, tail_sizes = layout.k_sizes, layout.head_sizes, layout.tail_sizes
    parity_sizes = layout.parity_sizes
    messages: list[list[int] | None] = [None] * (t + 1)
    times: list[int | None] = [None] * (t + 1)
    for i, pkt in enumerate(received):
        if pkt is not None:
            msg = pkt[: k_sizes[i]]
            messages[i] = msg if type(msg) is list else list(msg)
            times[i] = i

    # per slot: head terms once built, and an erased slot's recovered pieces
    terms: list[list[tuple[int, int]] | None] = [None] * (t + 1)
    heads: list[list[int] | None] = [None] * (t + 1)
    tails: list[list[int] | None] = [None] * (t + 1)

    for run_start, run_end in erased_runs(erased):
        burst = range(run_start, run_end + 1)
        unknown = [l for l in burst if head_sizes[l] > 0]
        total_heads = sum(head_sizes[l] for l in unknown)
        head_time: int | None = None
        for l in burst:  # empty until solved, so phase 1 leaves them out
            terms[l] = []

        if total_heads:
            rows = [r for l in unknown for r in block(p, l, head_sizes[l])]
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
                    pkt = received[j]
                    if pkt is None:
                        raise DecodeFailure(f"parity slot {j} was erased")
                    q = j - tau  # received, or recovered with an earlier burst
                    prev_tail = tails[q]
                    if received[q] is not None:
                        prev_tail = received[q][head_sizes[q] : k_sizes[q]]
                    if prev_tail is None or len(prev_tail) != psz:
                        raise DecodeFailure(f"tail of slot {q} unknown")
                    take = min(psz, total_heads - len(cols))
                    known = _window_parity(j, take, layout, matrix, received, terms)
                    parity = pkt[k_sizes[j] : k_sizes[j] + take]
                    rhs.extend(a ^ u ^ c for a, u, c in zip(parity, prev_tail, known))
                    cols.extend(block(p, j, take))
                    head_time = j
                j += 1

            solution = matrix.solve_combination(rows, cols, rhs)
            offset = 0
            for l in unknown:
                head = heads[l] = solution[offset : offset + head_sizes[l]]
                terms[l] = matrix.terms(block(p, l, head_sizes[l]), head)
                offset += head_sizes[l]

        for l in burst:
            tail_n = tail_sizes[l]
            if k_sizes[l] == 0:
                tails[l] = []
                times[l] = l  # termination: nothing to decode
            elif tail_n:
                j2 = l + tau
                if j2 > t or received[j2] is None:
                    raise DecodeFailure(f"parity slot {j2} unavailable for slot {l}")
                if parity_sizes[j2] != tail_n:
                    raise DecodeFailure(f"parity slot {j2} misses the tail of {l}")
                prime = _window_parity(j2, tail_n, layout, matrix, received, terms)
                parity = received[j2][k_sizes[j2] :]
                tails[l] = [u ^ c for u, c in zip(parity, prime)]
                times[l] = j2
            else:
                tails[l] = []
                if head_time is None:
                    raise DecodeFailure(f"no head decode time for slot {l}")
                times[l] = head_time
            messages[l] = (heads[l] or []) + tails[l]

    for i in range(t + 1):
        if messages[i] is None:
            raise DecodeFailure(f"slot {i} was never recovered")
    return DecodeResult(messages, times)


def _window_parity(
    j: int,
    n: int,
    layout: VgmsLayout,
    matrix: CauchyMatrix,
    received: Sequence[Sequence[int] | None],
    terms: list[list[tuple[int, int]] | None],
) -> list[int]:
    """First n parity symbols of slot j without the tail they carry: the
    Cauchy combination of the heads of slots j-tau..j-1 over slot j's columns.

    `terms[l]` holds slot l's head terms once built. A received slot's are
    built from its packet on first use; an erased slot's are set when its
    burst is solved, and are empty while it is being solved.
    """
    p = layout.params
    window: list[tuple[int, int]] = []
    for l in range(max(j - p.tau, 0), j):
        slot_terms = terms[l]
        if slot_terms is None:
            pkt = received[l]
            if pkt is None:
                raise DecodeFailure(f"head of slot {l} unexpectedly unknown")
            head_n = layout.head_sizes[l]
            slot_terms = terms[l] = matrix.terms(block(p, l, head_n), pkt[:head_n])
        window += slot_terms
    return matrix.combine(window, block(p, j, n))
