"""Regime classification and the online-versus-offline separation runs."""

from fractions import Fraction

import pytest

from streamfec import baselines
from streamfec.baselines import make_scheme, scheme_pair
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


def accepts(scheme_id, tau, b, tau_l, d):
    try:
        make_scheme(scheme_id, tau, b, tau_l, d)
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
            pair = scheme_pair(lemma, tau, b, tau_l, d)
            if all(accepts(sch.scheme_id, tau, b, tau_l, d) for sch in pair):
                want.append((lemma, tau, b, tau_l, d))
    assert gap_cells(tau_max, d_max) == want


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
