"""In-memory span tracing and exact work counting for the streamfec benchmark.

Nothing here is imported by the library. Spans and counters are installed
from the outside by replacing names on the loaded `streamfec` modules and
classes, and are removed again afterwards:

* a module-level function is replaced under every name that is bound to
  it in any `streamfec` module, because `from .x import y` copies the
  binding into the caller at import time (`vgms.solve`, `oracle.build_transcript`,
  ...), and a caller only sees a wrapper installed where it looks the name up;
* a method or property is replaced on its class.

Spans and counters are never installed together: a per-multiply counter
would otherwise inflate the self time of every span around it.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

# (module, attribute or Class.attribute, span name). Spans sit at the
# boundaries of the package's modules; hot inner helpers (GF.mul, GF.inv,
# CauchyMatrix.entry, parity_budget) are counted in the counting pass instead.
SPAN_TARGETS = (
    ("cauchy", "CauchyMatrix.combine", "cauchy.combine"),
    ("cauchy", "solve", "cauchy.solve"),
    ("model", "build_transcript", "model.build_transcript"),
    ("model", "check_delays", "model.check_delays"),
    ("channel", "is_admissible", "channel.is_admissible"),
    ("channel", "enumerate_patterns", "channel.enumerate_patterns"),
    ("channel", "apply_pattern", "channel.apply_pattern"),
    ("channel", "erased_runs", "channel.erased_runs"),
    ("vgms", "packet_layout", "vgms.packet_layout"),
    ("vgms", "encode_stream", "vgms.encode_stream"),
    ("vgms", "decode_stream", "vgms.decode_stream"),
    ("baselines", "LinearStream.packet_values", "baselines.packet_values"),
    ("linear", "IncrementalDecoder.add_equation", "linear.add_equation"),
    ("linear", "IncrementalDecoder.determined", "linear.determined"),
    ("codecs", "VgmsCodec.encode", "codecs.VgmsCodec.encode"),
    ("codecs", "VgmsCodec.decode", "codecs.VgmsCodec.decode"),
    ("codecs", "VgmsCodec.n_sizes", "codecs.n_sizes"),
    ("codecs", "LinearCodec.encode", "codecs.LinearCodec.encode"),
    ("codecs", "LinearCodec.decode", "codecs.LinearCodec.decode"),
    ("codecs", "LinearCodec.n_sizes", "codecs.n_sizes"),
    ("oracle", "exhaustive_decode_check", "oracle.exhaustive_decode_check"),
    ("oracle", "lower_bound_profile", "oracle.lower_bound_profile"),
    ("oracle", "check_minimality", "oracle.check_minimality"),
    ("oracle", "cumulative_profile", "oracle.cumulative_profile"),
)

# Functions that return an iterator: each next() is one span, so the time
# spent producing items is charged here and the consumer's time is not.
ITERATOR_TARGETS = {"channel.enumerate_patterns"}

# Spans whose subtree is decode work, as opposed to encoding or checking.
DECODE_SPANS = {"codecs.VgmsCodec.decode", "codecs.LinearCodec.decode"}


class Patcher:
    """Replaces names on loaded modules and classes; `restore` undoes it."""

    def __init__(self, package) -> None:
        self.package = package
        prefix = package.__name__ + "."
        self.modules = [package] + [
            mod
            for mod in vars(package).values()
            if type(mod) is type(package) and mod.__name__.startswith(prefix)
        ]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module: str, attr: str, make) -> None:
        """Replace 'fn' or 'Class.method' of `module` with `make(original)`."""
        owner = getattr(self.package, module)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        current = vars(owner)[name]
        if isinstance(current, property):
            self._set(owner, name, property(make(current.fget)))
        elif classes:
            self._set(owner, name, make(current))
        else:
            replacement = make(current)
            for mod in self.modules:
                for key, val in list(vars(mod).items()):
                    if val is current:
                        self._set(mod, key, replacement)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class SpanRecorder:
    """Spans kept in flat arrays: name id, start, end and parent index.

    The parent is the span open when this one started (-1 for none), so
    self time is a span's duration minus the durations of its children.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str):
        nid = self._name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def iterator_span(self, fn, name: str):
        step = self.span(next, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def items():
                while True:
                    try:
                        item = step(it)
                    except StopIteration:
                        return
                    yield item

            return items()

        return wrapper

    def install(self, patcher: Patcher) -> None:
        for module, attr, name in SPAN_TARGETS:
            make = self.iterator_span if name in ITERATOR_TARGETS else self.span
            patcher.wrap(module, attr, functools.partial(make, name=name))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, and the
        part of the self seconds spent inside a codec decode call."""
        n = len(self.start)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        in_decode = [False] * n
        decode_ids = {i for i, name in enumerate(self.names) if name in DECODE_SPANS}
        for i, p in enumerate(self.parent):  # a parent always precedes its children
            if p >= 0:
                child[p] += dur[i]
                in_decode[i] = in_decode[p]
            if self.name[i] in decode_ids:
                in_decode[i] = True
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "decode_self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            own = dur[i] - child[i]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += own
            if in_decode[i]:
                row["decode_self_s"] += own
        return out

    def write(self, path, meta: dict) -> None:
        """All spans as one gzipped JSON object of parallel columns."""
        doc = {
            "meta": meta,
            "names": self.names,
            "name": list(self.name),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


@dataclass
class WorkCounts:
    """Exact work counts, taken with counting wrappers and no spans."""

    n: Counter = field(default_factory=Counter)
    solve_dim_max: int = 0

    def install(self, patcher: Patcher) -> None:
        n = self.n

        def counted(key):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    n[key] += 1
                    return fn(*args, **kwargs)

                return wrapper

            return make

        def combine(fn):
            @functools.wraps(fn)
            def wrapper(self_, pairs, cols):
                pairs = list(pairs)
                n["cauchy.combine.coeffs"] += sum(1 for _, v in pairs if v) * len(cols)
                return fn(self_, pairs, cols)

            return wrapper

        def solve(fn):
            @functools.wraps(fn)
            def wrapper(fld, mat, rhs):
                n["cauchy.solve.dim_sum"] += len(mat)
                self.solve_dim_max = max(self.solve_dim_max, len(mat))
                return fn(fld, mat, rhs)

            return wrapper

        def linear_decode(fn):
            @functools.wraps(fn)
            def wrapper(codec, received):
                result = fn(codec, received)
                n["linear.symbols_determined"] += sum(
                    len(msg) for msg in result.messages if msg is not None
                )
                return result

            return wrapper

        patcher.wrap("gf", "GF.mul", counted("gf.mul.calls"))
        patcher.wrap("gf", "GF.inv", counted("gf.inv.calls"))
        patcher.wrap("cauchy", "CauchyMatrix.entry", counted("cauchy.entry.calls"))
        patcher.wrap("cauchy", "CauchyMatrix.combine", combine)
        patcher.wrap("cauchy", "solve", solve)
        patcher.wrap("channel", "apply_pattern", counted("channel.patterns"))
        patcher.wrap("linear", "IncrementalDecoder.add_equation", counted("linear.equations"))
        patcher.wrap("codecs", "LinearCodec.decode", linear_decode)
