#!/usr/bin/env python3
"""Layer bench of the VGMS burst-decode kernels at vgms-bulk's point.

    python3 bench/decode_kernels.py            # full run; writes bench/BENCH_decode_kernels.json
    python3 bench/decode_kernels.py --quick    # smoke run of every case, under 2 s

Times three steps of a burst decode over GF(2^16), each against the way it
was computed before:

    solve n=16/48/128  `CauchyMatrix.solve_combination` of a square
                       subsystem of the 512 x 512 matrix vgms-bulk binds:
                       one n x n block of logs read twice, and each pair
                       of points once, against the same lookups made
                       twice over and a separate product (`old_solve`)
    window products    every window product of one vgms-bulk stream, as
                       its encoder forms them: each head's log-domain
                       terms built once, against rebuilding the terms of
                       every head of the window for every window
    burst decode       `vgms.decode_stream` of a length-4 burst at evenly
                       spaced starts of the same stream: against the
                       decoder that split every packet, rebuilt each
                       window's terms and solved by `old_solve`
                       (`old_decode_stream`)

The stream is drawn as vgms-bulk draws it (tau=16, b=4, m=32, 100 uniform
message sizes, seeded with 0). Both sides of a case must give identical
output. The samples are interleaved in one process: every round times each
case on both sides, in alternating order, so drift of a shared host falls
on both alike. The result gives the median time per call of each side and
the ratio after / before; below 1 the current code is faster. Run from the
root of a source checkout; the package is imported from `src/`. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import random
import sys
from operator import add
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gf_tables import before_after_main, run_sides  # noqa: E402
from streamfec import vgms  # noqa: E402
from streamfec.cauchy import build_cauchy  # noqa: E402
from streamfec.channel import apply_pattern, erased_runs, is_admissible  # noqa: E402
from streamfec.gf import GF, in_field  # noqa: E402
from streamfec.model import make_params, terminate_sizes  # noqa: E402
from streamfec.vgms import DecodeFailure, DecodeResult, block  # noqa: E402

# vgms-bulk's point: field degree, tau, b, m and message count
POINT = dict(degree=16, tau=16, b=4, m=32, messages=100)
# rounds, calls per sample, solve sizes, bursts decoded per sample
FULL = dict(rounds=25, calls=3, solve_n=(16, 48, 128), bursts=13)
QUICK = dict(rounds=2, calls=1, solve_n=(16, 48, 128), bursts=2)


def log_dot(fld: GF, terms, points) -> list[int]:
    """For each point z, the sum over (p, l) in `terms` of g^l / (p + z)."""
    exp, log = fld.exp, fld.log
    out = []
    for z in points:
        acc = 0
        for p, l in terms:
            acc ^= exp[l - log[p ^ z]]
        out.append(acc)
    return out


def old_solve(matrix, rows, cols, rhs) -> list[int]:
    """`solve_combination` as it was: each log(u_a + v_b) looked up once
    for A and B and again in the final product, and each pair of points
    from both ends."""
    exp, log = matrix.field.exp, matrix.field.log
    span = matrix.field.order - 1
    n = len(rows)
    us = [matrix.xs[r] for r in rows]
    vs = [matrix.ys[c] for c in cols]
    log_a = []
    col_sums = [0] * n
    for u in us:
        row = [log[u ^ v] for v in vs]
        col_sums = list(map(add, col_sums, row))
        log_a.append((sum(row) - sum([log[u ^ w] for w in us if w != u])) % span)
    terms = [
        (v, span + (log[val] + cs - sum([log[v ^ w] for w in vs if w != v])) % span)
        for v, val, cs in zip(vs, rhs, col_sums)
        if val
    ]
    sums = log_dot(matrix.field, terms, us)
    return [exp[la + log[s]] if s else 0 for la, s in zip(log_a, sums)]


def old_window_parity(matrix, p, j: int, n: int, head_of) -> list[int]:
    """A window product as it was: the terms of every head in the window
    built anew from (row, value) pairs."""
    rows, values = [], []
    for l in range(j - p.tau, j):
        head = head_of(l)
        if head:
            rows.extend(block(p, l, len(head)))
            values.extend(head)
    return matrix.combine(matrix.terms(rows, values), block(p, j, n))


def old_decode_stream(layout, matrix, received) -> DecodeResult:
    """`vgms.decode_stream` as it was, less the checks that guard against a
    construction bug: every received packet split into a head and a tail
    up front, each window's terms rebuilt, `old_solve`."""
    p = layout.params
    t, tau = p.t, p.tau
    if len(received) != t + 1:
        raise ValueError("received list must cover slots 0..t")
    erased = tuple(i for i, pkt in enumerate(received) if pkt is None)
    if not is_admissible(erased, p):
        raise ValueError("loss pattern is not admissible for this channel")
    k_sizes, head_sizes = layout.k_sizes, layout.head_sizes
    heads: list = [None] * (t + 1)
    tails: list = [None] * (t + 1)
    times: list = [None] * (t + 1)
    for i, pkt in enumerate(received):
        if pkt is None:
            continue
        if len(pkt) != layout.n_size(i) or not in_field(matrix.field, pkt):
            raise ValueError(f"packet at slot {i} is malformed")
        heads[i] = list(pkt[: head_sizes[i]])
        tails[i] = list(pkt[head_sizes[i] : k_sizes[i]])
        times[i] = i

    def known_head(l):
        if l < 0:
            return []
        if heads[l] is None:
            raise DecodeFailure(f"head of slot {l} unexpectedly unknown")
        return heads[l]

    for run_start, run_end in erased_runs(erased):
        burst = range(run_start, run_end + 1)
        unknown = [l for l in burst if head_sizes[l] > 0]
        total_heads = sum(head_sizes[l] for l in unknown)
        head_time = None
        for l in burst:
            heads[l] = []
        if total_heads:
            rows = [r for l in unknown for r in block(p, l, head_sizes[l])]
            cols, rhs = [], []
            j = run_end + 1
            while len(cols) < total_heads:
                if j > min(run_start + tau - 1, t):
                    raise DecodeFailure(f"parity shortfall recovering burst {run_start}..{run_end}")
                psz = layout.parity_sizes[j]
                if psz:
                    prev_tail = tails[j - tau]
                    take = min(psz, total_heads - len(cols))
                    known = old_window_parity(matrix, p, j, take, known_head)
                    parity = received[j][k_sizes[j] :]
                    rhs.extend(parity[o] ^ prev_tail[o] ^ known[o] for o in range(take))
                    cols.extend(block(p, j, take))
                    head_time = j
                j += 1
            solution = iter(old_solve(matrix, rows, cols, rhs))
            for l in unknown:
                heads[l] = [next(solution) for _ in range(head_sizes[l])]
        for l in burst:
            tail_n = layout.tail_sizes[l]
            if k_sizes[l] == 0:
                tails[l] = []
                times[l] = l
            elif tail_n:
                j2 = l + tau
                prime = old_window_parity(matrix, p, j2, tail_n, known_head)
                parity = received[j2][k_sizes[j2] :]
                tails[l] = [u ^ c for u, c in zip(parity, prime)]
                times[l] = j2
            else:
                tails[l] = []
                times[l] = head_time
    return DecodeResult([h + u for h, u in zip(heads, tails)], times)


def bulk_stream():
    """(layout, matrix, payload, packets) of one stream drawn as vgms-bulk
    draws them."""
    rng = random.Random(0)
    fld = GF(POINT["degree"])
    tau, b, m = POINT["tau"], POINT["b"], POINT["m"]
    seq = terminate_sizes([rng.randint(0, m) for _ in range(POINT["messages"])], tau, m)
    p = make_params(tau, b, m=m, t=seq.t)
    matrix = build_cauchy(tau * m, fld, seed=rng.randrange(1 << 30))
    payload = [[rng.randrange(fld.order) for _ in range(k)] for k in seq]
    stream = vgms.encode_stream(p, matrix, payload)
    return stream.layout, matrix, payload, stream.packets


def window_products(layout, matrix, payload, cached: bool) -> list[list[int]]:
    """Every slot's window product, the terms of each head built once
    (`cached`) or once per window that reads it."""
    p = layout.params
    heads = [msg[:v] for msg, v in zip(payload, layout.head_sizes)]
    out = []
    if cached:
        terms = [matrix.terms(block(p, l, len(h)), h) for l, h in enumerate(heads)]
        for j, psz in enumerate(layout.parity_sizes[: p.t + 1]):
            if psz:
                window = [term for ts in terms[max(j - p.tau, 0) : j] for term in ts]
                out.append(matrix.combine(window, block(p, j, psz)))
    else:
        head_of = lambda l: heads[l] if l >= 0 else []  # noqa: E731
        for j, psz in enumerate(layout.parity_sizes[: p.t + 1]):
            if psz:
                out.append(old_window_parity(matrix, p, j, psz, head_of))
    return out


def cases(size: dict) -> dict:
    """case name -> {side: zero-argument call}, each side checked against
    the other once."""
    layout, matrix, payload, packets = bulk_stream()
    p = layout.params
    rng = random.Random(1)
    out = {}
    for n in size["solve_n"]:
        rows = rng.sample(range(matrix.dim), n)
        cols = rng.sample(range(matrix.dim), n)
        rhs = [rng.randrange(matrix.field.order) for _ in range(n)]
        out[f"solve n={n}"] = {
            "before": lambda r=rows, c=cols, v=rhs: old_solve(matrix, r, c, v),
            "after": lambda r=rows, c=cols, v=rhs: matrix.solve_combination(r, c, v),
        }
    out["window products"] = {
        "before": lambda: window_products(layout, matrix, payload, cached=False),
        "after": lambda: window_products(layout, matrix, payload, cached=True),
    }
    step = POINT["messages"] // size["bursts"]
    bursts = [apply_pattern(range(s, s + p.b), packets) for s in range(0, POINT["messages"], step)]
    bursts = bursts[: size["bursts"]]
    out["burst decode"] = {
        "before": lambda: [old_decode_stream(layout, matrix, rec) for rec in bursts],
        "after": lambda: [vgms.decode_stream(layout, matrix, rec) for rec in bursts],
    }
    for name, sides in out.items():
        if sides["before"]() != sides["after"]():
            raise RuntimeError(f"{name}: the two sides give different output")
    for res in out["burst decode"]["after"]():
        if res.messages != payload:
            raise RuntimeError("burst decode did not recover the payload")
    return out


def run(size: dict) -> list[dict]:
    return run_sides(cases(size), size, {"burst decode": size["bursts"]})


def main(argv: list[str] | None = None) -> int:
    return before_after_main(argv, "decode_kernels", __doc__, FULL, QUICK, run, {"point": POINT})


if __name__ == "__main__":
    sys.exit(main())
