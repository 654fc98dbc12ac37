"""Uniform codec adapters: one object per (codec, params, sequence) binding.

Every adapter exposes encode(payload) -> channel packets and
decode(received) -> DecodeResult, so the verification oracles and the CLI
can drive any codec the same way. The structured codec carries its own
two-phase decoder; the linear schemes decode through incremental
elimination, which certifies information-theoretic decodability.
"""

from __future__ import annotations

from typing import Sequence

from . import baselines, vgms
from .cauchy import build_cauchy
from .gf import GF, in_field
from .linear import IncrementalDecoder, InconsistentSystemError
from .model import CodeParams, SizeSequence, require_valid, symbol_offsets
from .vgms import DecodeResult

CODEC_IDS = ("vgms", "diagonal") + baselines.SCHEME_IDS


class VgmsCodec:
    """The online zero-lossless-delay codec."""

    name = "vgms"

    def __init__(self, p: CodeParams, fld: GF, seq: SizeSequence, seed: int = 0) -> None:
        require_valid(p)
        self.params = p
        self.field = fld
        self.seq = seq
        self.matrix = build_cauchy(p.tau * p.m, fld, seed)
        self.tau_l = 0
        self.layout = vgms.packet_layout(seq, p)

    @property
    def n_sizes(self) -> list[int]:
        return [self.layout.n_size(self.seq, i) for i in range(self.seq.t + 1)]

    def encode(self, payload: Sequence[Sequence[int]]) -> list[list[int]]:
        return vgms.encode_stream(
            self.params, self.field, self.matrix, self.seq, payload
        ).packets

    def decode(self, received: Sequence[Sequence[int] | None]) -> DecodeResult:
        return vgms.decode_stream(
            self.params, self.field, self.matrix, received, self.seq
        )

    def trace(self) -> list[dict]:
        return self.layout.trace(self.seq)


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

    @property
    def n_sizes(self) -> list[int]:
        return self.stream.n_sizes

    def encode(self, payload: Sequence[Sequence[int]]) -> list[list[int]]:
        flat = [s for pkt in payload for s in pkt]
        if len(flat) != self._offsets[-1]:
            raise ValueError("payload does not match the size sequence")
        if not in_field(self.field, flat):
            raise ValueError("payload has an out-of-field symbol")
        return self.stream.packet_values(flat, self.field)

    def decode(self, received: Sequence[Sequence[int] | None]) -> DecodeResult:
        """Decode by incremental elimination, slot by slot.

        Raises ValueError for a packet of the wrong length, an out-of-field
        symbol, or packets that contradict each other ("received packets
        are inconsistent"), as a corrupted symbol makes them.
        """
        seq = self.seq
        n_msg = self._offsets[-1]
        dec = IncrementalDecoder(self.field, n_msg)
        times: list[int | None] = [None] * (seq.t + 1)
        values: dict[int, int] = {}
        pending = set(range(seq.t + 1))
        for s, pkt in enumerate(received):
            if pkt is not None:
                rows = self.stream.slot_rows[s]
                if len(pkt) != len(rows):
                    raise ValueError(f"packet at slot {s} has unexpected length")
                if not in_field(self.field, pkt):
                    raise ValueError(f"packet at slot {s} has an out-of-field symbol")
                for row, val in zip(rows, pkt):
                    dense = [0] * n_msg
                    for idx, c in row.items():
                        dense[idx] = c
                    try:
                        dec.add_equation(dense, val)
                    except InconsistentSystemError as exc:
                        raise ValueError(
                            f"received packets are inconsistent (slot {s})"
                        ) from exc
            values = dec.determined()
            done = []
            for i in pending:
                if i > s:
                    continue  # a packet only counts once its slot has passed
                lo, hi = self._offsets[i], self._offsets[i + 1]
                if all(idx in values for idx in range(lo, hi)):
                    times[i] = s if hi > lo else i
                    done.append(i)
            for i in done:
                pending.remove(i)
        messages = []
        for i in range(seq.t + 1):
            lo, hi = self._offsets[i], self._offsets[i + 1]
            if times[i] is None:
                messages.append(None)
            else:
                messages.append([values[idx] for idx in range(lo, hi)])
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
    """Bind a codec to one (params, field, sequence) run."""
    if codec_id == "vgms":
        return VgmsCodec(p, fld, seq, seed)
    if codec_id == "diagonal":
        return LinearCodec(codec_id, p, fld, baselines.diagonal_stream(p, seq))
    if codec_id in baselines.SCHEME_IDS:
        if d is None:
            raise ValueError(f"{codec_id} needs the block size d")
        sch = baselines.make_scheme(codec_id, p.tau, p.b, p.tau_l, d)
        stream = baselines.offline_stream(sch, seq, fld, seed)
        return LinearCodec(codec_id, p, fld, stream)
    raise ValueError(f"unknown codec {codec_id!r}; known: {', '.join(CODEC_IDS)}")
