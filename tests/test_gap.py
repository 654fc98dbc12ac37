"""Regime classification and the online-versus-offline separation runs."""

import dataclasses
import random
from fractions import Fraction

import pytest

from streamfec import baselines, gap
from streamfec.baselines import OfflineScheme
from streamfec.cli import main
from streamfec.gap import (
    REGIMES,
    GapCheckError,
    classify_regime,
    gap_cells,
    run_gap,
    sweep_classifier,
)
from streamfec.gf import GF
from streamfec.model import SizeSequence


def accepts(scheme_id, tau, b, tau_l, d):
    try:
        OfflineScheme(scheme_id, tau, b, tau_l, d)
    except ValueError:
        return False
    return True


def test_classifier_worked_examples():
    assert classify_regime(4, 2, 2) == "regime1"
    assert classify_regime(4, 2, 0) == "regime2"
    assert classify_regime(5, 2, 3) == "conv1"
    assert classify_regime(3, 2, 1) == "conv2"
    assert classify_regime(4, 2, 1) == "conv3"


def test_classifier_degenerate_overlap():
    # tau = b makes tau_l = 0 satisfy both regime definitions; the scheme
    # choice is regime 1 (repetition), still a zero-lossless-delay codec
    assert classify_regime(3, 3, 0) == "regime1"


def test_classifier_rejects_invalid():
    with pytest.raises(ValueError):
        classify_regime(4, 5, 0)
    with pytest.raises(ValueError):
        classify_regime(4, 2, 3)


def test_classifier_total_and_consistent_up_to_ten():
    seen = sweep_classifier(10)
    assert set(seen.values()) <= set(REGIMES)
    for (tau, b, tau_l), label in seen.items():
        if label == "regime1":
            assert tau_l == tau - b and tau % b == 0
        elif label == "regime2":
            assert tau_l == 0 and not (tau_l == tau - b and tau % b == 0)
        elif label == "conv1":
            assert tau_l == tau - b and tau_l >= b and tau % b != 0
        elif label == "conv2":
            assert tau_l == tau - b and 1 <= tau_l < b
        else:
            assert 1 <= tau_l < tau - b


def test_run_gap_conv1_worked_example():
    rep = run_gap("conv1", 5, 2, None, 2, GF(8))
    assert rep.rate1 == Fraction(2, 3)
    assert rep.rate2 == Fraction(5, 7)
    assert rep.budget == 1 and rep.demand == 2
    assert rep.separated


def test_run_gap_conv2_worked_example():
    rep = run_gap("conv2", 3, 2, 1, 2, GF(8))
    assert rep.rate1 == Fraction(4, 7)
    assert rep.rate2 == Fraction(3, 5)
    assert rep.budget == Fraction(3) and rep.demand == Fraction(4)
    assert rep.details["total_required"] == 11
    assert rep.details["total_allowed"] == 10
    assert rep.separated


def test_run_gap_conv3_worked_example():
    rep = run_gap("conv3", 4, 2, 1, 2, GF(8))
    assert rep.rate1 == Fraction(4, 7)
    assert rep.rate2 == Fraction(2, 3)
    assert rep.budget == Fraction(3) and rep.demand == Fraction(4)
    assert rep.separated
    # the averaging channels each leave at least d*tau symbols standing
    dropped = rep.details["cyclic_dropped"]
    total = 2 * (4 + 2)
    assert all(total - li >= 2 * 4 for li in dropped)
    assert sum(dropped) == 2 * 2 * (4 + 2)


def test_run_gap_rejects_regime_parameters():
    with pytest.raises(ValueError):
        run_gap("conv1", 4, 2, None, 2, GF(8))  # b | tau


def move_one_row(monkeypatch, scheme_id, slots):
    """Have `baselines.offline_stream` move one row of `scheme_id`'s stream
    between the slots that `slots(slot_rows, scheme)` names, (from, to)."""
    real = baselines.offline_stream

    def moved(sch, fld, seed=0):
        st = real(sch, fld, seed)
        if sch.scheme_id != scheme_id:
            return st
        rows = [list(r) for r in st.slot_rows]
        src, dst = slots(rows, sch)
        rows[dst].append(rows[src].pop())
        return dataclasses.replace(st, slot_rows=rows)

    monkeypatch.setattr(baselines, "offline_stream", moved)


def last_sent(rows):
    return max(i for i, r in enumerate(rows) if r)


@pytest.mark.parametrize(
    "lemma, tau, b, tau_l, d", [("conv1", 5, 2, None, 2), ("conv2", 3, 2, 1, 2), ("conv3", 4, 2, 1, 2)]
)
def test_witness_check_fails_when_scheme_1_sends_a_row_early(monkeypatch, lemma, tau, b, tau_l, d):
    # the rates stay as they are, so only the witnesses can tell
    first = baselines.LEMMA_SCHEMES[lemma][0]
    move_one_row(monkeypatch, first, lambda rows, sch: (last_sent(rows), 0))
    with pytest.raises(GapCheckError, match="witness cross-checks failed"):
        run_gap(lemma, tau, b, tau_l, d, GF(8))


def test_witness_check_fails_on_a_cyclic_channel_alone(monkeypatch):
    # one row of scheme 2 moves from slot b to its last slot: budget and
    # demand still match, and one channel leaves 9 < d * tau = 10 symbols
    move_one_row(monkeypatch, "lemma3_seq2", lambda rows, sch: (sch.b, last_sent(rows)))
    with pytest.raises(GapCheckError) as failure:
        run_gap("conv3", 5, 2, 1, 2, GF(8))
    assert str(failure.value) == (
        "witness cross-checks failed: {'witness_budget': 3, 'witness_demand': 4, "
        "'cyclic_dropped': [4, 3, 3, 4, 4, 5, 5]}"
    )


def test_cyclic_check_refuses_a_witness_with_one_extra_row():
    # every slot is still dropped by exactly b of the tau + b channels, so
    # the channels' sum is b times the total; the total is d(tau + b) + 1
    tau, b, d = 5, 2, 2
    st2 = baselines.offline_stream(OfflineScheme("lemma3_seq2", tau, b, 1, d), GF(8))
    assert gap._cyclic_channels_ok(st2, tau, b, d, {})
    st2.slot_rows[0].append({})
    details: dict = {}
    assert not gap._cyclic_channels_ok(st2, tau, b, d, details)
    assert sum(details["cyclic_dropped"]) == b * (d * (tau + b) + 1)


def test_gap_sweep_all_separated():
    fld = GF(8)
    cells = gap_cells(8, 12)
    assert cells, "sweep found no gap cells"
    for lemma, tau, b, tau_l, d in cells:
        rep = run_gap(lemma, tau, b, tau_l, d, fld)
        assert rep.separated, (lemma, tau, b, tau_l, d)
        assert rep.budget < rep.demand


def test_gap_cells_cover_all_three_families():
    families = {lemma for lemma, *_ in gap_cells(8, 4)}
    assert families == {"conv1", "conv2", "conv3"}


def test_gap_cells_list_exactly_the_d_both_schemes_accept():
    tau_max, d_max = 8, 12
    want = []
    for (tau, b, tau_l), lemma in sweep_classifier(tau_max).items():
        if lemma in ("regime1", "regime2"):
            continue
        for d in range(1, d_max + 1):
            if all(accepts(sid, tau, b, tau_l, d) for sid in baselines.LEMMA_SCHEMES[lemma]):
                want.append((lemma, tau, b, tau_l, d))
    assert gap_cells(tau_max, d_max) == want


def test_gap_refuses_a_d_a_scheme_cannot_split(capsys):
    # lemma3_seq1 sends halves, so d = 1 would leave them empty
    with pytest.raises(ValueError, match="^lemma3_seq1 needs d >= 1 divisible by 2, got 1$"):
        run_gap("conv3", 4, 2, 1, 1, GF(8))
    code = main(["gap", "--lemma", "conv3", "--tau", "4", "--b", "2", "--tau-l", "1", "--d", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: lemma3_seq1 needs d >= 1 divisible by 2, got 1\n"


def test_rate_cross_check_fails_on_a_stated_rate_that_is_off(monkeypatch, capsys):
    real = baselines.scheme_stated_rate
    monkeypatch.setattr(
        baselines, "scheme_stated_rate", lambda sch: real(sch) + Fraction(1, 100)
    )
    with pytest.raises(GapCheckError, match="differ from stated"):
        run_gap("conv1", 5, 2, 3, 2, GF(8))
    code = main(["gap", "--lemma", "conv1", "--tau", "5", "--b", "2", "--d", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: scheme rates 2/3, 5/7 differ from stated")


def test_cyclic_channels_drop_every_slot_b_times():
    # _cyclic_channels_ok checks only that the drops sum to b*d*(tau+b):
    # on any stream, the tau+b channels together drop each slot b times
    rng = random.Random(0)
    for _ in range(200):
        tau = rng.randint(1, 8)
        b = rng.randint(1, tau)
        t = rng.randint(0, 3 * (tau + b))
        slot_rows = [[{}] * rng.randint(0, 5) for _ in range(t + 1)]
        st = baselines.LinearStream(SizeSequence([0] * (t + 1)), 0, slot_rows)
        details: dict = {}
        gap._cyclic_channels_ok(st, tau, b, 1, details)
        assert len(details["cyclic_dropped"]) == tau + b
        assert sum(details["cyclic_dropped"]) == b * sum(st.n_sizes), (tau, b, t)
