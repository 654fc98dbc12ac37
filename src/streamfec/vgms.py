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
A burst erasing slots s..e is undone in two phases: first the erased heads
are solved jointly from the parity columns of slots e+1..s+tau-1 (any square
Cauchy subsystem is invertible; we take the first sum-of-head-sizes columns
in slot order). That subsystem is itself a Cauchy matrix, so
`CauchyMatrix.solve_combination` inverts it in closed form, in O(n^2) for n
erased head symbols, without building it. Then each erased tail falls out
of its own parity segment tau slots after its slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cauchy import CauchyMatrix
from .channel import erased_runs, is_admissible
from .gf import GF, in_field
from .model import CodeParams, SizeSequence, require_valid


class DecodeFailure(Exception):
    """Recovery failed where the construction guarantees success."""


class VgmsLayout:
    """Per-slot split and parity sizes, grown one slot at a time by `split`.

    A pure function of the size sequence, so the decoder rebuilds exactly
    what the encoder used.
    """

    def __init__(self, p: CodeParams) -> None:
        self.params = p
        self.k_sizes: list[int] = []
        self.head_sizes: list[int] = []  # early-recovery piece of each message
        self.tail_sizes: list[int] = []  # remainder, recovered at exactly tau
        # indexed 0..t+tau; slots beyond t are never sent
        self.parity_sizes: list[int] = [0] * p.tau
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
        return head

    def n_size(self, seq: SizeSequence, i: int) -> int:
        return seq.size(i) + self.parity_sizes[i]

    def trace(self, seq: SizeSequence) -> list[dict]:
        return [
            {
                "k": seq.size(i),
                "u": self.tail_sizes[i],
                "v": self.head_sizes[i],
                "p": self.parity_sizes[i],
            }
            for i in range(seq.t + 1)
        ]


def parity_budget(
    k_sizes: Sequence[int], parity_sizes: Sequence[int], i: int, tau: int, b: int
) -> int:
    """Minimum spare parity over every burst window that could cover slot i.

    For each window start j in {i-b+1, .., i}: parity allocated to slots
    j+b .. i+tau-1 minus message symbols of slots j .. i-1. Requires i >= b,
    so j never goes negative.
    """
    best = sum(parity_sizes[i + b : i + tau])  # j = i: nothing queued yet
    for j in range(i - b + 1, i):
        spare = sum(parity_sizes[j + b : i + tau]) - sum(k_sizes[j:i])
        if spare < best:
            best = spare
    return best


def packet_layout(seq: SizeSequence, p: CodeParams) -> VgmsLayout:
    """Head/tail split and parity allocation for a whole (terminated) stream.

    Also exactly what the decoder recomputes: the split depends only on the
    size sequence, which is public side information.
    """
    require_valid(p)
    layout = VgmsLayout(p)
    for k in seq:
        layout.split(k)
    return layout


class VgmsEncoder:
    """Slot-ordered online encoder; feed packets for slots 0, 1, .. in order.

    Memory is a ring of the last tau slots' pieces, Theta(tau * m) symbols.
    """

    def __init__(self, p: CodeParams, fld: GF, matrix: CauchyMatrix) -> None:
        require_valid(p)
        if matrix.dim != p.tau * p.m:
            raise ValueError(
                f"parity matrix must be {p.tau * p.m} x {p.tau * p.m}, got {matrix.dim}"
            )
        self.params = p
        self.field = fld
        self.matrix = matrix
        self.layout = VgmsLayout(p)
        self._recent: list[tuple[int, list[int], list[int]]] = []  # (slot, head, tail)

    @property
    def next_slot(self) -> int:
        return len(self.layout.k_sizes)

    def encode_slot(self, symbols: Sequence[int]) -> list[int]:
        p = self.params
        i = self.next_slot
        if not in_field(self.field, symbols):
            raise ValueError(f"message at slot {i} has an out-of-field symbol")
        head_n = self.layout.split(len(symbols))
        head = list(symbols[:head_n])
        tail = list(symbols[head_n:])

        parity: list[int] = []
        psz = self.layout.parity_sizes[i]
        if psz:
            oldest_slot, _, oldest_tail = self._recent[0]
            if oldest_slot != i - p.tau or len(oldest_tail) != psz:
                raise ValueError(f"encoder ring out of step at slot {i}")
            base = (i % p.tau) * p.m
            cols = list(range(base, base + psz))
            pairs = []
            for j, h, _ in self._recent:
                jbase = (j % p.tau) * p.m
                pairs.extend((jbase + off, val) for off, val in enumerate(h) if val)
            prime = self.matrix.combine(pairs, cols)
            parity = [u ^ c for u, c in zip(oldest_tail, prime)]

        self._recent.append((i, head, tail))
        if len(self._recent) > p.tau:
            self._recent.pop(0)
        return list(symbols) + parity


@dataclass
class VgmsStream:
    packets: list[list[int]]
    layout: VgmsLayout


def encode_stream(
    p: CodeParams,
    fld: GF,
    matrix: CauchyMatrix,
    seq: SizeSequence,
    payload: Sequence[Sequence[int]],
) -> VgmsStream:
    """Encode a full terminated stream slot by slot with the online encoder."""
    if seq.t != p.t:
        raise ValueError(f"sequence has t={seq.t} but params have t={p.t}")
    if [len(pkt) for pkt in payload] != list(seq):
        raise ValueError("payload does not match the size sequence")
    enc = VgmsEncoder(p, fld, matrix)
    packets = [enc.encode_slot(pkt) for pkt in payload]
    return VgmsStream(packets, enc.layout)


@dataclass
class DecodeResult:
    messages: list[list[int]]
    decode_times: list[int | None]


def decode_stream(
    p: CodeParams,
    fld: GF,
    matrix: CauchyMatrix,
    received: Sequence[Sequence[int] | None],
    seq: SizeSequence,
) -> DecodeResult:
    """Two-phase recovery of every erased message packet.

    Phase 1 per burst: cancel the known tails and heads out of the parity
    segments right after the burst, then solve one square Cauchy system for
    all erased heads jointly, in closed form. Phase 2: recover each erased
    tail from the parity segment exactly tau slots after its slot. Raises ValueError for
    an inadmissible pattern and DecodeFailure if recovery is impossible,
    which would mean a construction bug.
    """
    require_valid(p)
    t = seq.t
    if len(received) != t + 1:
        raise ValueError("received list must cover slots 0..t")
    tau, b, m = p.tau, p.b, p.m
    layout = packet_layout(seq, p)
    erased = tuple(i for i, pkt in enumerate(received) if pkt is None)
    if not is_admissible(erased, p):
        raise ValueError("loss pattern is not admissible for this channel")

    heads: list[list[int] | None] = [None] * (t + 1)
    tails: list[list[int] | None] = [None] * (t + 1)
    times: list[int | None] = [None] * (t + 1)

    for i, pkt in enumerate(received):
        if pkt is None:
            continue
        k = seq.size(i)
        if len(pkt) != k + layout.parity_sizes[i]:
            raise ValueError(f"packet at slot {i} has unexpected length")
        if not in_field(fld, pkt):
            raise ValueError(f"packet at slot {i} has an out-of-field symbol")
        heads[i] = list(pkt[: layout.head_sizes[i]])
        tails[i] = list(pkt[layout.head_sizes[i] : k])
        times[i] = i

    def parity_segment(j: int) -> list[int]:
        pkt = received[j]
        if pkt is None:
            raise DecodeFailure(f"parity slot {j} was erased")
        k = seq.size(j)
        return list(pkt[k : k + layout.parity_sizes[j]])

    def head_pairs(window: range, skip: set[int]) -> list[tuple[int, int]]:
        pairs = []
        for l in window:
            if l < 0 or l > t or l in skip:
                continue
            hv = heads[l]
            if hv is None:
                raise DecodeFailure(f"head of slot {l} unexpectedly unknown")
            base = (l % tau) * m
            pairs.extend((base + off, val) for off, val in enumerate(hv) if val)
        return pairs

    for run_start, run_end in erased_runs(erased):
        unknown = [l for l in range(run_start, run_end + 1) if layout.head_sizes[l] > 0]
        total_heads = sum(layout.head_sizes[l] for l in unknown)
        head_time: int | None = None
        for l in range(run_start, run_end + 1):
            if layout.head_sizes[l] == 0:
                heads[l] = []

        if total_heads:
            unknown_set = set(range(run_start, run_end + 1))
            row_positions = []
            for l in unknown:
                base = (l % tau) * m
                row_positions.extend(range(base, base + layout.head_sizes[l]))

            used_cols: list[int] = []
            rhs: list[int] = []
            j = run_end + 1
            while len(used_cols) < total_heads:
                if j > min(run_start + tau - 1, t):
                    raise DecodeFailure(
                        f"parity shortfall recovering burst {run_start}..{run_end}"
                    )
                psz = layout.parity_sizes[j]
                if psz:
                    take = min(psz, total_heads - len(used_cols))
                    base = (j % tau) * m
                    cols = list(range(base, base + take))
                    pvec = parity_segment(j)
                    prev_tail = tails[j - tau]
                    if prev_tail is None or len(prev_tail) != psz:
                        raise DecodeFailure(f"tail of slot {j - tau} unknown")
                    known = matrix.combine(
                        head_pairs(range(j - tau, j), unknown_set), cols
                    )
                    for off, c in enumerate(cols):
                        rhs.append(pvec[off] ^ prev_tail[off] ^ known[off])
                        used_cols.append(c)
                    head_time = j
                j += 1

            solution = matrix.solve_combination(row_positions, used_cols, rhs)
            pos = 0
            for l in unknown:
                hn = layout.head_sizes[l]
                heads[l] = solution[pos : pos + hn]
                pos += hn

        for l in range(run_start, run_end + 1):
            k = seq.size(l)
            if k == 0:
                tails[l] = []
                times[l] = l  # termination: nothing to decode
                continue
            tail_n = layout.tail_sizes[l]
            if tail_n:
                j2 = l + tau
                if j2 > t or received[j2] is None:
                    raise DecodeFailure(f"parity slot {j2} unavailable for slot {l}")
                if layout.parity_sizes[j2] != tail_n:
                    raise DecodeFailure(f"parity slot {j2} misses the tail of {l}")
                base = (j2 % tau) * m
                cols = list(range(base, base + tail_n))
                prime = matrix.combine(head_pairs(range(l, j2), set()), cols)
                pvec = parity_segment(j2)
                tails[l] = [pvec[off] ^ prime[off] for off in range(tail_n)]
                times[l] = j2
            else:
                tails[l] = []
                if head_time is None:
                    raise DecodeFailure(f"no head decode time for slot {l}")
                times[l] = head_time

    messages = []
    for i in range(t + 1):
        h, u = heads[i], tails[i]
        if h is None or u is None:
            raise DecodeFailure(f"slot {i} was never recovered")
        messages.append(h + u)
    return DecodeResult(messages, times)
