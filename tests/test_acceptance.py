"""Acceptance suite: every capstone claim, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The grid
criteria share one set of seeded random streams, built once per session.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from streamfec import baselines, oracle
from streamfec.cauchy import build_cauchy
from streamfec.codecs import bind_codec
from streamfec.gap import REGIMES, gap_cells, run_gap, sweep_classifier
from streamfec.gf import GF, field
from streamfec.linear import in_rowspace
from streamfec.model import make_params, random_payload, random_sizes, terminate_sizes
from streamfec.vgms import packet_layout

GRID_TAUS = range(2, 6)
GRID_SEEDS = 20
GRID_SLOTS = 12  # t + 1
GRID_M = 4


def report(n, name, ok=True):
    print(f"\nACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def grid():
    """The criterion-2 parameter grid: (params, sequence, codec, payload)."""
    fld = field(8)
    cells = []
    for tau in GRID_TAUS:
        for b in range(1, tau + 1):
            for seed in range(GRID_SEEDS):
                raw = random_sizes(GRID_SLOTS - tau, GRID_M, 1000 * tau + 100 * b + seed)
                seq = terminate_sizes(raw, tau, GRID_M)
                p = make_params(tau, b, m=GRID_M, t=seq.t)
                codec = bind_codec("vgms", p, fld, seq, seed=seed)
                payload = random_payload(seq, fld, seed)
                cells.append((p, seq, codec, payload))
    return fld, cells


def test_criterion_1_reference_layout_golden():
    started = time.perf_counter()
    seq = terminate_sizes([3, 2, 1, 2, 1], 4, 3)
    p = make_params(4, 2, m=3, t=seq.t)
    layout = packet_layout(seq, p)
    try:
        assert layout.tail_sizes[:5] == [3, 2, 0, 0, 1]
        assert layout.head_sizes[:5] == [0, 0, 1, 2, 0]
        assert layout.parity_sizes[4:9] == [3, 2, 0, 0, 1]
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
    except AssertionError:
        report(1, "reference layout golden", ok=False)
        raise
    report(1, "reference layout golden")


def test_criterion_2_decoding_under_every_pattern(grid):
    started = time.perf_counter()
    fld, cells = grid
    failures = []
    for p, seq, codec, payload in cells:
        bad = oracle.verify_stream(codec, payload, "full")
        if bad is not None:
            failures.append((p.tau, p.b, bad))
    elapsed = time.perf_counter() - started
    try:
        assert failures == []
        assert elapsed < 300, f"took {elapsed:.0f}s"
    except AssertionError:
        report(2, "full-pattern decoding on the grid", ok=False)
        raise
    report(2, f"full-pattern decoding on the grid ({len(cells)} streams, {elapsed:.1f}s)")


def test_criterion_3_minimality_on_the_grid(grid):
    fld, cells = grid
    try:
        for p, seq, codec, payload in cells:
            # at zero lossless delay the profile must equal the bound
            assert p.tau_l == 0 and codec.name == "vgms", (p.tau, p.b)
            assert oracle.profile_gap(codec) is None, (p.tau, p.b)
            if p.b == p.tau:
                # the one other codec valid at zero lossless delay on
                # arbitrary sequences: diagonal degenerated to repetition,
                # whose profile must dominate the bound
                other = bind_codec(
                    "diagonal",
                    make_params(p.tau, p.b, tau_l=0, m=p.m, t=p.t),
                    fld,
                    seq,
                )
                assert oracle.profile_gap(other) is None, (p.tau, p.b)
    except AssertionError:
        report(3, "cumulative profile equals the lower bound", ok=False)
        raise
    report(3, "cumulative profile equals the lower bound")


def test_criterion_4_diagonal_rate_and_decoding():
    fld = field(8)
    try:
        for tau in range(1, 9):
            for b in (x for x in range(1, tau + 1) if tau % x == 0):
                k = tau // b
                seq = terminate_sizes([k, k, k], tau, k)
                p = make_params(tau, b, tau_l=tau - b, m=k, t=seq.t)
                codec = bind_codec("diagonal", p, fld, seq)
                assert Fraction(seq.total, sum(codec.n_sizes)) == Fraction(tau, tau + b), (tau, b)
                payload = random_payload(seq, fld, tau * 10 + b)
                bad = oracle.verify_stream(codec, payload, "full")
                assert bad is None, (tau, b, bad)
    except AssertionError:
        report(4, "diagonal scheme exact rate and decoding", ok=False)
        raise
    report(4, "diagonal scheme exact rate and decoding")


def test_criterion_5_separation_and_classifier():
    fld = field(8)
    try:
        rep = run_gap("conv1", 5, 2, None, 2, fld)
        assert (rep.rate1, rep.rate2) == (Fraction(2, 3), Fraction(5, 7))
        assert rep.separated
        rep = run_gap("conv2", 3, 2, 1, 2, fld)
        assert (rep.rate1, rep.rate2) == (Fraction(4, 7), Fraction(3, 5))
        assert rep.separated
        rep = run_gap("conv3", 4, 2, 1, 2, fld)
        assert (rep.rate1, rep.rate2) == (Fraction(4, 7), Fraction(2, 3))
        assert rep.separated
        labels = sweep_classifier(10)
        assert labels, "empty sweep"
        assert set(labels.values()) <= set(REGIMES)
        for lemma, tau, b, tau_l, d in gap_cells(8, 12):
            assert run_gap(lemma, tau, b, tau_l, d, fld).separated, (lemma, tau, b, d)
    except AssertionError:
        report(5, "separation and regime classification", ok=False)
        raise
    report(5, "separation and regime classification")


def test_criterion_6_block_codes_verified():
    fld = field(8)
    try:
        for tau in range(1, 9):
            for b in range(1, tau + 1):
                code = baselines.build_block_code(tau, b, fld, seed=0)
                assert code.verified, (tau, b)
                assert baselines.block_delay_violations(code) == [], (tau, b)
    except AssertionError:
        report(6, "block code exhaustive verification", ok=False)
        raise
    report(6, "block code exhaustive verification")


def test_criterion_7_property_suites(grid):
    fld16 = field(16)
    rng = random.Random(7)
    try:
        # field axioms, 10^4 random triples
        for _ in range(10_000):
            a, b, c = (rng.randrange(fld16.order) for _ in range(3))
            assert fld16.add(a, b) == fld16.add(b, a)
            assert fld16.mul(a, b) == fld16.mul(b, a)
            assert fld16.mul(fld16.mul(a, b), c) == fld16.mul(a, fld16.mul(b, c))
            assert fld16.mul(a, fld16.add(b, c)) == fld16.add(
                fld16.mul(a, b), fld16.mul(a, c)
            )
            assert fld16.add(a, a) == 0

        # every square submatrix of a dim-6 Cauchy matrix is invertible
        fld = GF(8)
        mat = build_cauchy(6, fld, seed=0)
        for size in range(1, 7):
            for rows in itertools.combinations(range(6), size):
                for cols in itertools.combinations(range(6), size):
                    sub = mat.submatrix(rows, cols)
                    ident = [
                        [1 if i == j else 0 for j in range(size)] for i in range(size)
                    ]
                    for i in range(size):
                        assert in_rowspace(fld, sub, ident[i]), (rows, cols)

        # parity allocations exactly match some burst window, and packets
        # never carry fewer symbols than their message, on every grid stream
        _, cells = grid
        for p, seq, codec, _ in cells:
            layout = codec.layout
            for i in range(seq.t + 1):
                assert layout.n_size(i) >= seq.size(i), (p.tau, p.b, i)
            for i in range(p.tau, seq.t + 1):
                if layout.parity_sizes[i] == 0:
                    continue
                matched = False
                for j in range(max(0, i - p.tau - p.b + 1), i - p.tau + 1):
                    need = sum(seq.size(l) for l in range(j, i - p.tau + 1))
                    have = sum(layout.parity_sizes[l] for l in range(j + p.b, i + 1))
                    if need == have:
                        matched = True
                        break
                assert matched, (p.tau, p.b, i)
    except AssertionError:
        report(7, "field, Cauchy, and parity property suites", ok=False)
        raise
    report(7, "field, Cauchy, and parity property suites")
