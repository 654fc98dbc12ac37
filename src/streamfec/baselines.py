"""Baseline codecs: diagonal interleaving, a verified short block code, and
the six offline reference schemes used by the rate-gap experiments.

This module is the one place that knows the regime partition
(`classify_regime`) and the separation families' schemes: `LEMMA_SCHEMES`
maps each family to its two scheme ids, `scheme_pair` builds both, and
each `OfflineScheme` carries its own sequence and `d` rule. Constructing
an `OfflineScheme` is the one check of a scheme (a known id, parameters in
its lemma's family, a d that it can split), so a scheme that exists can be
built by `offline_stream`; callers construct schemes directly.

All of these are linear, so they share one representation: a LinearStream
lists, for every channel symbol, its expansion over the flat message symbol
vector. Encoding is evaluating the rows; decoding is incremental Gaussian
elimination (see linear.IncrementalDecoder), which certifies exactly the
information-theoretic decodability the schemes promise.

The offline schemes write their rows with one rule, `_rows(n, firsts)`:
n rows, row r holding symbol f + r of each first f, so one first is a
plain run of symbols and several are the XOR of equal-length pieces.
Lemma 1's first scheme is the diagonal code at delay (a+1)b, a = tau_l // b,
so `offline_stream` builds it with `diagonal_stream`, and its stated rate
(a+1)/(a+2) is the diagonal's tau'/(tau'+b) at tau' = (a+1)b. The halved
chain of lemma 2's and lemma 3's first schemes has no case of its own for
b = 1: the halves and their parity are the whole scheme there.
`diagonal_stream` keeps its own loop, the one rule that pads.

The block code of lemma 1's and lemma 3's second schemes is drawn once
from a Cauchy pool, with the entries that would break a deadline forced
to zero; `build_block_code` proves that such a draw always meets every
per-symbol deadline, and still checks it exhaustively (`verified`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .cauchy import build_cauchy
from .gf import GF
from .linear import in_rowspace
from .model import CodeParams, SizeSequence, make_params, symbol_offsets, terminate_sizes

Row = dict[int, int]  # flat message symbol index -> coefficient


@dataclass
class LinearStream:
    """Channel packets given as linear combinations of message symbols."""

    seq: SizeSequence
    tau_l: int  # the lossless deadline this scheme promises
    slot_rows: list[list[Row]]

    @property
    def n_sizes(self) -> list[int]:
        return [len(rows) for rows in self.slot_rows]

    def packet_values(self, flat_payload: list[int], fld: GF) -> list[list[int]]:
        """Every channel symbol, evaluated in the log domain: each nonzero
        term c * x is one antilog lookup exp[log c + log x], as in
        `CauchyMatrix.combine`. `_eval_row` is the `GF.mul` reference."""
        exp, log = fld.exp, fld.log
        logs = [log[x] if x else None for x in flat_payload]  # zero has no log
        packets = []
        for rows in self.slot_rows:
            pkt = []
            for row in rows:
                acc = 0
                for idx, c in row.items():
                    lx = logs[idx]
                    if lx is not None and c:
                        acc ^= exp[log[c] + lx]
                pkt.append(acc)
            packets.append(pkt)
        return packets


def _eval_row(fld: GF, row: Row, flat: list[int]) -> int:
    """One channel symbol through `GF.mul`: the scalar reference."""
    acc = 0
    for idx, c in row.items():
        acc ^= fld.mul(c, flat[idx])
    return acc


# ---------------------------------------------------------------------------
# Diagonal interleaving (requires b | tau, lossless deadline tau - b)
# ---------------------------------------------------------------------------


def diagonal_stream(p: CodeParams, seq: SizeSequence) -> LinearStream:
    """Each message is split evenly into tau/b pieces sent at offsets
    0, b, .., tau-b, with the piecewise sum at offset tau.

    Messages are zero-padded up to a multiple of tau/b; padding symbols are
    transmitted (as constant zeros) and counted in the rate. Contributions
    landing on one slot are concatenated in source-slot order. At most one
    scheduled slot per message can be erased by an admissible pattern, so
    the sum packet always completes the message within delay tau. The
    params and their sequence are checked by `codecs.bind_codec`.
    """
    if p.tau % p.b != 0:
        raise ValueError(f"diagonal scheme needs b | tau, got tau={p.tau}, b={p.b}")
    if p.tau_l != p.tau - p.b:
        raise ValueError(
            f"diagonal scheme has lossless delay tau - b = {p.tau - p.b}, "
            f"params say {p.tau_l}"
        )
    q = p.tau // p.b
    off = symbol_offsets(seq)
    slot_rows: list[list[Row]] = [[] for _ in range(seq.t + 1)]  # filled in source-slot order
    for i in range(seq.t + 1):
        k = seq.size(i)
        if k == 0:
            continue
        if i + p.tau > seq.t:
            raise ValueError(
                f"nonzero message at slot {i} cannot be flushed by slot t={seq.t}; "
                "terminate the sequence first"
            )
        comp = -(-k // q)  # ceil: piece length after zero padding
        for z in range(q):
            rows = [
                {off[i] + z * comp + r: 1} if z * comp + r < k else {}
                for r in range(comp)
            ]
            slot_rows[i + z * p.b].extend(rows)
        sum_rows: list[Row] = []
        for r in range(comp):
            row: Row = {}
            for z in range(q):
                if z * comp + r < k:
                    row[off[i] + z * comp + r] = 1
            sum_rows.append(row)
        slot_rows[i + p.tau].extend(sum_rows)
    return LinearStream(seq, p.tau - p.b, slot_rows)


# ---------------------------------------------------------------------------
# Systematic block code with per-symbol decoding deadlines
# ---------------------------------------------------------------------------


@dataclass
class BlockCode:
    """[tau+b, tau] systematic code where symbol j survives any burst of up
    to b codeword erasures using only parities p_0..p_{min(b-1, j)}.

    That prefix restriction is the delay guarantee: parity p_l sits at
    codeword position tau + l, so symbol j is back within tau positions.
    """

    tau: int
    b: int
    field: GF
    coeffs: list[list[int]]  # b rows x tau cols; parity l = sum coeffs[l][j]*s_j
    verified: bool


def block_delay_violations(code: BlockCode) -> list[tuple[int, int, int]]:
    """Exhaustive check of the per-symbol deadline property.

    Returns (burst_start, burst_len, j) triples where symbol j is NOT
    determined by the non-erased symbols among (s_0..s_{tau-1},
    p_0..p_{min(b-1,j)}) under that burst. Empty list means verified.
    """
    tau, b, fld = code.tau, code.b, code.field
    bad = []
    n = tau + b
    for start in range(n):
        for length in range(1, b + 1):
            erased = set(range(start, min(start + length, n)))
            msg_erased = sorted(e for e in erased if e < tau)
            if not msg_erased:
                continue
            for j in msg_erased:
                allowed = [
                    l
                    for l in range(min(b - 1, j) + 1)
                    if tau + l not in erased
                ]
                rows = [
                    [code.coeffs[l][e] for e in msg_erased]
                    for l in allowed
                ]
                target = [1 if e == j else 0 for e in msg_erased]
                if not in_rowspace(fld, rows, target):
                    bad.append((start, length, j))
    return bad


def build_block_code(tau: int, b: int, fld: GF, seed: int = 0) -> BlockCode:
    """Draw parity coefficients from a Cauchy pool, once, and verify them
    exhaustively; `verified` records the check.

    Entries above the diagonal in the first b columns are forced to zero:
    symbol j < b may only lean on parities 0..j, so parity l must not mix
    in message symbols j in (l, b). Every other entry is the pool's (l, j),
    and l < b <= tau.

    Every draw verifies. A burst erases message symbols E = s..s+L-1 and
    the first r parities, with L + r <= b (when r > 0 the burst runs
    through symbol tau - 1, so s = tau - L >= r). Symbol j in E may use
    parities r..min(b-1, j). Each parity l < s is zero on the columns of E
    below b, so rows r..min(s, b)-1, restricted to E, are a Cauchy block
    on B (the columns of E from b on) and zero elsewhere. That block has
    min(s, b) - r >= |B| rows, so it has full column rank and fixes B.
    If j >= b, j is in B. Otherwise rows s..j, with B cancelled, are zero
    on the columns of E after j and lower-triangular on s..j, with nonzero
    Cauchy entries on the diagonal, so they fix symbol j.
    """
    if not 1 <= b <= tau:
        raise ValueError(f"block code needs 1 <= b <= tau, got tau={tau}, b={b}")
    if fld.order < 2 * tau:
        raise ValueError("field too small to draw distinct Cauchy points")
    pool = build_cauchy(tau, fld, seed)
    coeffs = [[0 if l < j < b else pool.entry(l, j) for j in range(tau)] for l in range(b)]
    code = BlockCode(tau, b, fld, coeffs, verified=False)
    code.verified = not block_delay_violations(code)
    return code


# ---------------------------------------------------------------------------
# The regime partition, and the offline reference schemes of its three
# separation families (two size sequences each)
# ---------------------------------------------------------------------------

REGIMES = ("regime1", "regime2", "conv1", "conv2", "conv3")


def classify_regime(tau: int, b: int, tau_l: int) -> str:
    """Which optimality regime, or which separation family, covers a tuple.

    The two regimes are checked first; the remaining parameters split by
    the relation of tau_l to tau - b and to b. Exactly one label applies.
    """
    if not 1 <= b <= tau or not 0 <= tau_l <= tau - b:
        raise ValueError(f"invalid parameters (tau={tau}, b={b}, tau_l={tau_l})")
    if tau_l == tau - b and tau % b == 0:
        return "regime1"
    if tau_l == 0:
        return "regime2"
    if tau_l == tau - b and tau_l >= b:
        return "conv1"
    if tau_l == tau - b:
        return "conv2"
    return "conv3"


# each separation family's two reference schemes, variant 1 first
LEMMA_SCHEMES = {
    "conv1": ("lemma1_seq1", "lemma1_seq2"),
    "conv2": ("lemma2_seq1", "lemma2_seq2"),
    "conv3": ("lemma3_seq1", "lemma3_seq2"),
}
SCHEME_IDS = tuple(sid for pair in LEMMA_SCHEMES.values() for sid in pair)


def scheme_d_step(scheme_id: str, b: int, tau_l: int) -> int:
    """What d must be a multiple of, whatever d is: a+1 = tau_l // b + 1
    for lemma 1's first scheme (it splits each message into a+1 parts), 2
    for the other first schemes (they send halves), and 1 for every second
    scheme, which never splits d."""
    if scheme_id.endswith("2"):
        return 1
    return tau_l // b + 1 if scheme_id == "lemma1_seq1" else 2


@dataclass(frozen=True)
class OfflineScheme:
    """One of the six reference schemes, fixed to its prescribed sequence.

    Construction is the one check of a scheme: a known id, parameters in
    its lemma's family (`classify_regime`), and a d >= 1 that is a multiple
    of `d_step`. Anything else is a ValueError."""

    scheme_id: str
    tau: int
    b: int
    tau_l: int
    d: int

    def __post_init__(self) -> None:
        if self.scheme_id not in SCHEME_IDS:
            raise ValueError(f"unknown scheme {self.scheme_id!r}; known: {', '.join(SCHEME_IDS)}")
        regime = classify_regime(self.tau, self.b, self.tau_l)
        if regime != self.lemma:
            raise ValueError(
                f"{self.scheme_id} needs {self.lemma} parameters; "
                f"tau={self.tau}, b={self.b}, tau_l={self.tau_l} is {regime}"
            )
        if self.d < 1 or self.d % self.d_step:
            raise ValueError(
                f"{self.scheme_id} needs d >= 1 divisible by {self.d_step}, got {self.d}"
            )

    @property
    def lemma(self) -> str:
        return next(lemma for lemma, ids in LEMMA_SCHEMES.items() if self.scheme_id in ids)

    @property
    def variant(self) -> int:
        return int(self.scheme_id[-1])

    @property
    def a(self) -> int:
        return self.tau_l // self.b

    @property
    def e(self) -> int:
        return self.tau_l % self.b

    @property
    def d_step(self) -> int:
        return scheme_d_step(self.scheme_id, self.b, self.tau_l)

    @property
    def sequence(self) -> SizeSequence:
        """The terminated size sequence the scheme is defined on."""
        raw = scheme_raw_sizes(self)
        return terminate_sizes(raw, self.tau, max(raw))


def scheme_pair(
    lemma: str, tau: int, b: int, tau_l: int, d: int
) -> tuple[OfflineScheme, OfflineScheme]:
    """A lemma's two reference schemes, variant 1 first; each checks itself."""
    if lemma not in LEMMA_SCHEMES:
        raise ValueError(f"unknown lemma {lemma!r}")
    first, second = (OfflineScheme(sid, tau, b, tau_l, d) for sid in LEMMA_SCHEMES[lemma])
    return first, second


def scheme_raw_sizes(sch: OfflineScheme) -> list[int]:
    tau, b, tau_l, d = sch.tau, sch.b, sch.tau_l, sch.d
    if sch.lemma == "conv1":
        if sch.variant == 1:
            return [d] * sch.e
        return [d] * (b - 1) + [d * (tau_l + 1)]
    if sch.lemma == "conv2":
        if sch.variant == 1:
            return [d] * (b - tau_l + 1)
        return [d] * (b - tau_l + 1) + [0] * (tau_l - 1) + [d]
    if sch.variant == 1:
        return [d] * b
    return [d] * (tau - tau_l - 1) + [d * (tau_l + 1)]


def _split_then_block_stream(
    sch: OfflineScheme, seq: SizeSequence, fld: GF, seed: int
) -> LinearStream:
    """Shared shape of lemma1_seq2 and lemma3_seq2: d symbols in each of
    X[0..tau-1] (the last message spread over tau_l + 1 slots), then d block
    code instances contribute one parity column per slot tau..tau+b-1."""
    tau, b, tau_l, d = sch.tau, sch.b, sch.tau_l, sch.d
    off = symbol_offsets(seq)
    split_slot = len(scheme_raw_sizes(sch)) - 1
    # the flat index of the first of slot i's d symbols: message i, or part
    # i - split_slot of the split message; each slot holds its own symbols
    firsts = [
        off[i] if i < split_slot else off[split_slot] + (i - split_slot) * d for i in range(tau)
    ]
    code = build_block_code(tau, b, fld, seed)
    slot_rows = [_rows(d, [x]) for x in firsts]
    slot_rows += [[] for _ in range(seq.t + 1 - tau)]
    for pj in range(b):
        slot_rows[tau + pj] = [
            {x + z: c for x, c in zip(firsts, code.coeffs[pj]) if c} for z in range(d)
        ]
    return LinearStream(seq, tau_l, slot_rows)


def _rows(n: int, firsts: list[int]) -> list[Row]:
    """n rows; row r holds symbol f + r of each first f. One first is a
    plain run of n symbols; several are the XOR of equal-length pieces."""
    return [{f + r: 1 for f in firsts} for r in range(n)]


def _running_sums(slot_rows: list[list[Row]], off: list[int], b: int, pivot: int, d: int) -> None:
    """The chain of lemma2_seq2 and _halved_chain_stream: slot i+b+1 sends
    slot i+b's sums plus message i, for i = 1..pivot-1; no sum holds
    message i yet."""
    for i in range(1, pivot):
        slot_rows[i + b + 1] = [{**slot_rows[i + b][r], off[i] + r: 1} for r in range(d)]


def _halved_chain_stream(sch: OfflineScheme, seq: SizeSequence) -> LinearStream:
    """Shared shape of lemma2_seq1 and lemma3_seq1: the last nonzero message
    (slot P) is sent in halves at slots P and b, and a parity of the two
    halves lands at slot 2b. For b > 1 a running-sum chain covers slots
    0..P-1, and slot b+1 mixes message 0 into it; for b = 1 (conv3 only) P
    is 0 and the halves and their parity are the whole scheme."""
    b, tau_l, d = sch.b, sch.tau_l, sch.d
    h = d // 2
    pivot = b - tau_l if sch.lemma == "conv2" else b - 1
    off = symbol_offsets(seq)
    slot_rows: list[list[Row]] = [[] for _ in range(seq.t + 1)]
    slot_rows[pivot] = _rows(h, [off[pivot]])
    slot_rows[b] = _rows(h, [off[pivot] + h])
    slot_rows[2 * b] = _rows(h, [off[pivot], off[pivot] + h])
    if b > 1:
        for i in range(pivot):
            slot_rows[i] = _rows(d, [off[i]])
        slot_rows[b + 1] = _rows(h, [off[0]]) + _rows(h, [off[0] + h, off[pivot] + h])
        _running_sums(slot_rows, off, b, pivot, d)
    return LinearStream(seq, tau_l, slot_rows)


def offline_stream(sch: OfflineScheme, fld: GF, seed: int = 0) -> LinearStream:
    """Channel packet expansions for one offline scheme on its sequence."""
    seq = sch.sequence
    b, tau_l, d = sch.b, sch.tau_l, sch.d
    if sch.scheme_id == "lemma1_seq1":
        # the diagonal code at delay (a+1)b: d is a multiple of a+1, so
        # nothing is padded, and every message flushes within tau
        a = sch.a
        p = make_params((a + 1) * b, b, tau_l=a * b, m=d, t=seq.t)
        return replace(diagonal_stream(p, seq), tau_l=tau_l)
    if sch.scheme_id in ("lemma1_seq2", "lemma3_seq2"):
        return _split_then_block_stream(sch, seq, fld, seed)
    if sch.scheme_id in ("lemma2_seq1", "lemma3_seq1"):
        return _halved_chain_stream(sch, seq)
    # lemma2_seq2: every message goes out whole; a running-sum chain plus a
    # final cross parity cover the two vulnerable packets.
    pivot = b - tau_l
    off = symbol_offsets(seq)
    slot_rows: list[list[Row]] = [[] for _ in range(seq.t + 1)]
    for i in [*range(pivot + 1), b]:
        slot_rows[i] = _rows(d, [off[i]])
    slot_rows[b + 1] = _rows(d, [off[0], off[b]])
    _running_sums(slot_rows, off, b, pivot, d)
    slot_rows[2 * b] = _rows(d, [off[b], off[pivot]])
    return LinearStream(seq, tau_l, slot_rows)


def scheme_stated_rate(sch: OfflineScheme) -> Fraction:
    """The exact rate each scheme is built to achieve on its sequence."""
    tau, b, tau_l, d = sch.tau, sch.b, sch.tau_l, sch.d
    if sch.scheme_id == "lemma1_seq1":
        return Fraction(sch.a + 1, sch.a + 2)
    if sch.scheme_id in ("lemma1_seq2", "lemma3_seq2"):
        return Fraction(tau, tau + b)
    if sch.scheme_id == "lemma2_seq1":
        return Fraction(2 * (b - tau_l + 1), 2 * (2 * b - 2 * tau_l) + 3)
    if sch.scheme_id == "lemma2_seq2":
        return Fraction(b - tau_l + 2, 2 * b - 2 * tau_l + 3)
    return Fraction(2 * b, 4 * b - 1)  # lemma3_seq1
