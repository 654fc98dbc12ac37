"""Uniform codec adapters: one object per (codec, params, sequence) binding.

Every adapter exposes encode(payload) -> channel packets,
decode(received) -> DecodeResult and the per-slot channel sizes n_sizes,
computed once per binding, so the verification oracles and the CLI
can drive any codec the same way. The structured codec carries its own
two-phase decoder; the linear schemes decode through incremental
elimination, which certifies information-theoretic decodability.

Each fact about a stream is checked once, where the stream enters a codec:
- `bind_codec` checks the binding for all eight codecs: valid params
  (`model.require_valid`), a sequence of the params' length t, no message
  above m, and a block size d given to the offline schemes alone. An
  offline scheme's own rules (parameters in its lemma's family, a d it
  can split) are checked by constructing its `baselines.OfflineScheme`,
  and its sequence must be the scheme's.
- `channel.check_received` checks a received list (its length, each
  packet's length against n_sizes, and the field) for both decoders, and
  returns the erased runs. Only the VGMS decoder reads them, to require an
  admissible pattern and to recover burst by burst; `LinearCodec` ignores
  them and decodes any erasure set.
A bound `VgmsCodec` builds its layout once, and its encode and decode
both read it. `vgms.VgmsLayout` keeps its own params and m checks for the
online `vgms.VgmsEncoder`, which grows a layout of its own without a
binding, and `oracle.lower_bound_profile` keeps its own, since the oracle
stays independent of the codecs.
"""

from __future__ import annotations

from typing import Sequence

from . import baselines, vgms
from .cauchy import build_cauchy
from .channel import check_received
from .gf import GF, in_field
from .linear import IncrementalDecoder, InconsistentSystemError
from .model import CodeParams, SizeSequence, require_valid, symbol_offsets
from .vgms import DecodeResult

CODEC_IDS = ("vgms", "diagonal") + baselines.SCHEME_IDS


class VgmsCodec:
    """The online zero-lossless-delay codec."""

    name = "vgms"

    def __init__(self, p: CodeParams, fld: GF, seq: SizeSequence, seed: int = 0) -> None:
        self.params = p
        self.field = fld
        self.seq = seq
        self.layout = vgms.packet_layout(seq, p)
        self.matrix = build_cauchy(p.tau * p.m, fld, seed)
        self.tau_l = 0
        self._n_sizes = self.layout.n_sizes

    @property
    def n_sizes(self) -> list[int]:
        return self._n_sizes

    def encode(self, payload: Sequence[Sequence[int]]) -> list[list[int]]:
        return vgms.encode_stream(self.layout, self.matrix, payload)

    def decode(self, received: Sequence[Sequence[int] | None]) -> DecodeResult:
        return vgms.decode_stream(self.layout, self.matrix, received)

    def trace(self) -> list[dict]:
        return self.layout.trace()


class LinearCodec:
    """Any scheme given as linear packet expansions over message symbols."""

    def __init__(
        self,
        name: str,
        p: CodeParams,
        fld: GF,
        stream: baselines.LinearStream,
    ) -> None:
        self.name = name
        self.params = p
        self.field = fld
        self.seq = stream.seq
        self.stream = stream
        self.tau_l = stream.tau_l
        self._offsets = symbol_offsets(stream.seq)
        self._n_sizes = stream.n_sizes

    @property
    def n_sizes(self) -> list[int]:
        return self._n_sizes

    def encode(self, payload: Sequence[Sequence[int]]) -> list[list[int]]:
        if [len(pkt) for pkt in payload] != list(self.seq):
            raise ValueError("payload does not match the size sequence")
        flat = [s for pkt in payload for s in pkt]
        if not in_field(self.field, flat):
            raise ValueError("payload has an out-of-field symbol")
        return self.stream.packet_values(flat, self.field)

    def decode(self, received: Sequence[Sequence[int] | None]) -> DecodeResult:
        """Decode by incremental elimination, slot by slot.

        Message i decodes at the first slot s >= i after which every one of
        its unknowns is determined; an empty message decodes at its own
        slot. After each slot only the messages that are open (their slot
        has passed and they are not decoded) are looked at, and only from
        their first unknown not yet known to be determined, through
        `IncrementalDecoder.value_of`: a determined unknown stays
        determined, so nothing is asked twice and the basis is never
        rescanned.

        Raises ValueError for a received list that `channel.check_received`
        refuses, or for packets that contradict each other ("received
        packets are inconsistent"), as a corrupted symbol makes them.
        """
        check_received(received, self._n_sizes, self.field)
        seq = self.seq
        off = self._offsets
        n_msg = off[-1]
        dec = IncrementalDecoder(self.field, n_msg)
        times: list[int | None] = [None] * (seq.t + 1)
        messages: list[list[int] | None] = [None] * (seq.t + 1)
        values = [0] * n_msg
        waiting_from = off[:-1]  # per message: its first unknown not known determined
        open_msgs: list[int] = []
        for s, pkt in enumerate(received):
            if pkt is not None:
                for row, val in zip(self.stream.slot_rows[s], pkt):
                    dense = [0] * n_msg
                    for idx, c in row.items():
                        dense[idx] = c
                    try:
                        dec.add_equation(dense, val)
                    except InconsistentSystemError as exc:
                        raise ValueError(
                            f"received packets are inconsistent (slot {s})"
                        ) from exc
            open_msgs.append(s)  # a packet only counts once its slot has passed
            still_open = []
            for i in open_msgs:
                idx, hi = waiting_from[i], off[i + 1]
                while idx < hi:
                    v = dec.value_of(idx)
                    if v is None:
                        break
                    values[idx] = v
                    idx += 1
                if idx == hi:
                    times[i] = s
                    messages[i] = values[off[i] : hi]
                else:
                    waiting_from[i] = idx
                    still_open.append(i)
            open_msgs = still_open
        return DecodeResult(messages, times)


def bind_codec(
    codec_id: str,
    p: CodeParams,
    fld: GF,
    seq: SizeSequence,
    *,
    d: int | None = None,
    seed: int = 0,
):
    """Bind a codec to one (params, field, sequence) run: the one check
    that the three agree, for every codec (see the module docstring)."""
    if codec_id not in CODEC_IDS:
        raise ValueError(f"unknown codec {codec_id!r}; known: {', '.join(CODEC_IDS)}")
    require_valid(p)
    if seq.t != p.t:
        raise ValueError(f"sequence has t={seq.t} but params have t={p.t}")
    over = next((i for i, k in enumerate(seq) if k > p.m), None)
    if over is not None:
        raise ValueError(f"message size {seq.size(over)} at slot {over} exceeds m={p.m}")
    if codec_id in baselines.SCHEME_IDS:
        if d is None:
            raise ValueError(f"{codec_id} needs the block size d")
        sch = baselines.OfflineScheme(codec_id, p.tau, p.b, p.tau_l, d)
        if seq != sch.sequence:
            raise ValueError(
                f"{codec_id} is defined only for its prescribed sequence "
                f"{list(sch.sequence)}, got {list(seq)}"
            )
        return LinearCodec(codec_id, p, fld, baselines.offline_stream(sch, fld, seed))
    if d is not None:
        raise ValueError(f"{codec_id} takes no block size d")
    if codec_id == "vgms":
        return VgmsCodec(p, fld, seq, seed)
    return LinearCodec(codec_id, p, fld, baselines.diagonal_stream(p, seq))
