import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intscore import evaluation
from intscore.data import BinaryDataset, FeatureSpec, FoldAssignment, make_folds
from intscore.evaluation import (
    PRESET_GRIDS,
    SweepProtocol,
    auc,
    calibration,
    confusion,
    pick_at_decision_point,
    roc_svg,
    sweep,
    weighted_error,
)
from intscore.model import LatticeSpec, ScoringSystem, trivial_model
from intscore.solver import SolveConfig

from test_data import small_dataset


class TestConfusion:
    def test_always_positive(self):
        ds = small_dataset([((1,), 1)] * 3 + [((0,), -1)] * 2)
        counts = confusion(trivial_model(1, True), ds)
        assert counts.tpr == 1 and counts.fpr == 1
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (3, 2, 0, 0)

    def test_always_negative(self):
        ds = small_dataset([((1,), 1)] * 3 + [((0,), -1)] * 2)
        counts = confusion(trivial_model(1, False), ds)
        assert counts.tpr == 0 and counts.fpr == 0

    def test_class_totals_invariant(self):
        rng = np.random.default_rng(0)
        X = (rng.random((60, 3)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(60) < 0.6, 1, -1).astype(np.int8)
        ds = small_dataset(list(zip(map(tuple, X.tolist()), y.tolist())))
        m = ScoringSystem.from_dense(0, [1, -1, 1], ds.feature_names)
        counts = confusion(m, ds)
        assert counts.tp + counts.fn == ds.n_positive
        assert counts.fp + counts.tn == ds.n_negative

    def test_rate_report_round_trip(self):
        # rates like the published 76.6%/44.5% pair survive report formatting
        counts = confusion(trivial_model(1, True),
                           small_dataset([((1,), 1)] * 766 + [((0,), 1)] * 234
                                         + [((1,), -1)] * 445 + [((0,), -1)] * 555))
        assert counts.tpr == 1
        ds = small_dataset([((1,), 1)] * 766 + [((0,), 1)] * 234
                           + [((1,), -1)] * 445 + [((0,), -1)] * 555)
        m = ScoringSystem.from_dense(0, [1], ds.feature_names)
        counts = confusion(m, ds)
        assert float(counts.tpr) == pytest.approx(0.766)
        assert float(counts.fpr) == pytest.approx(0.445)


class TestAuc:
    def test_anchors_only(self):
        assert auc([]) == Fraction(1, 2)

    def test_perfect_point(self):
        assert auc([(0, 1)]) == 1

    def test_single_mid_point(self):
        assert auc([(Fraction(1, 2), 1)]) == Fraction(3, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            auc([(1.5, 0.5)])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.fractions(0, 1), st.fractions(0, 1)), max_size=8),
           st.randoms())
    def test_order_invariance(self, points, rnd):
        shuffled = list(points)
        rnd.shuffle(shuffled)
        assert auc(points) == auc(shuffled)


def planted_dataset(n=400, seed=3):
    """Noiseless labels from a planted two-term integer model."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, 4)) < 0.5).astype(np.uint8)
    planted = ScoringSystem.from_dense(-1, [2, -2, 0, 0], [f"x{j}" for j in range(4)])
    y = planted.predictions(X)
    if np.all(y == y[0]):
        raise AssertionError("degenerate planted data")
    feats = tuple(FeatureSpec(f"x{j + 1}") for j in range(4))
    return BinaryDataset(feats, X, y), planted


class TestSweep:
    def protocol(self, grid):
        return SweepProtocol(grid, pool_size=20, sparsity_grid=(1, 2, 3))

    def scfg(self):
        return SolveConfig(time_limit=20, pool_size=20, node_limit=4000)

    def test_endpoints(self):
        ds, _ = planted_dataset()
        folds = make_folds(ds, seed=1)
        result = sweep(ds, folds, self.protocol((0, 2)), LatticeSpec(2, 4),
                       self.scfg(), max_terms=3)
        by_w = {p.w_plus: p for p in result.points}
        assert by_w[0].test.fpr == 0 and by_w[0].test.tpr == 0
        assert by_w[2].test.fpr == 1 and by_w[2].test.tpr == 1
        assert by_w[0].status == "trivial" and by_w[2].status == "trivial"
        assert result.curve().auc == Fraction(1, 2)

    def test_separable_recovery(self):
        ds, planted = planted_dataset()
        folds = make_folds(ds, seed=2)
        result = sweep(ds, folds, self.protocol((Fraction(1, 2), 1, Fraction(3, 2))),
                       LatticeSpec(2, 4), self.scfg(), max_terms=3)
        curve = result.curve()
        assert float(curve.auc) >= 0.95
        supports = [set(j for j, _ in p.model.terms)
                    for p in result.points if p.model is not None]
        assert {0, 1} in supports

    def test_failed_point_recorded(self, caplog):
        ds, _ = planted_dataset(n=60)
        folds = make_folds(ds, seed=1)
        # corrupt one fold so its validation split is empty
        fold = folds.cv_fold.copy()
        fold[fold == 4] = 3
        broken = FoldAssignment(folds.test_mask, fold, folds.seed, folds.test_ratio)
        result = sweep(ds, broken, self.protocol((1,)), LatticeSpec(2, 4),
                       self.scfg(), max_terms=2)
        assert result.points[0].status == "failed"
        assert result.points[0].error
        # the traceback is logged, not only the one-line error text
        failed = [r for r in caplog.records if r.name == "intscore.evaluation"]
        assert len(failed) == 1 and failed[0].levelname == "ERROR"
        assert failed[0].exc_info is not None
        assert "w+=1 failed" in failed[0].getMessage()
        assert "Traceback" in caplog.text

    def test_point_builds_one_entry_per_support(self, monkeypatch):
        # model selection polishes the first pool entry of each support; no
        # other entry of a solve's pool is ever built
        solver_module = sys.modules["intscore.solver"]
        build_entry, solve = solver_module._build_entry, evaluation.solve
        built, pools = [], []

        def counting_build(names, p, unit_den, den, terms, *rest):
            built[-1].append(tuple(j for j, _ in terms))
            return build_entry(names, p, unit_den, den, terms, *rest)

        def counting_solve(*args, **kwargs):
            built.append([])
            report, pool = solve(*args, **kwargs)
            pools.append(pool)
            return report, pool

        monkeypatch.setattr(solver_module, "_build_entry", counting_build)
        monkeypatch.setattr(evaluation, "solve", counting_solve)
        ds, _ = planted_dataset()
        result = sweep(ds, make_folds(ds, seed=2), self.protocol((1,)), LatticeSpec(2, 4),
                       self.scfg(), max_terms=3)
        assert result.points[0].status == "ok"
        assert len(built) == 6  # five folds, then the final model
        for supports, pool in zip(built, pools):
            assert len(supports) == len(set(supports))
            assert len(set(supports)) == len(pool.first_per_support()) < len(pool)

    def test_presets(self):
        assert len(PRESET_GRIDS["balanced"]) == 19
        assert PRESET_GRIDS["balanced"][0] == Fraction(1, 10)
        assert PRESET_GRIDS["balanced"][-1] == Fraction(19, 10)
        assert PRESET_GRIDS["imbalanced"][0] == Fraction(363, 200)
        assert PRESET_GRIDS["imbalanced"][-1] == Fraction(399, 200)
        assert PRESET_GRIDS["imbalanced"][1] - PRESET_GRIDS["imbalanced"][0] \
            == Fraction(1, 200)
        assert PRESET_GRIDS["extreme"][0] == Fraction(1975, 1000)
        assert PRESET_GRIDS["extreme"][-1] == Fraction(1995, 1000)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepProtocol(())
        with pytest.raises(ValueError):
            SweepProtocol((Fraction(5, 2),))
        for cv_folds in (0, 1):
            with pytest.raises(ValueError, match="at least 2 folds"):
                SweepProtocol((1,), cv_folds=cv_folds)

    @pytest.mark.parametrize("n_folds, cv_folds, sparsity_grid, max_terms, message", [
        (3, 5, (1, 2), 2, "has 3 folds"),
        (10, 5, (1, 2), 2, "has 10 folds"),
        (5, 5, (3, 4), 2, "at most max_terms=2"),
    ])
    def test_inconsistent_settings_rejected_before_any_solve(
            self, monkeypatch, n_folds, cv_folds, sparsity_grid, max_terms, message):
        # folds the protocol would not validate on, or no term count the
        # cap admits, would fail or mislead every point after its solves
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(evaluation, "solve", no_solve)
        ds, _ = planted_dataset()
        folds = make_folds(ds, seed=1, n_folds=n_folds)
        protocol = SweepProtocol((Fraction(1, 2), 1), cv_folds=cv_folds, pool_size=20,
                                 sparsity_grid=sparsity_grid)
        with pytest.raises(ValueError, match=message):
            sweep(ds, folds, protocol, LatticeSpec(2, 4), self.scfg(), max_terms=max_terms)


class TestCalibration:
    def test_constant_score_single_bin(self):
        ds = small_dataset([((1,), 1)] * 59 + [((1,), -1)] * 41)
        table = calibration(trivial_model(1, True), ds, k_bins=10)
        assert len(table.bins) == 1
        lo, hi, count, pos, rate = table.bins[0]
        assert count == 100 and rate == Fraction(59, 100)

    def test_counts_partition(self):
        rng = np.random.default_rng(5)
        X = (rng.random((500, 4)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(500) < 0.5, 1, -1).astype(np.int8)
        ds = small_dataset(list(zip(map(tuple, X.tolist()), y.tolist())))
        m = ScoringSystem.from_dense(0, [3, -2, 1, 2], ds.feature_names)
        table = calibration(m, ds, k_bins=4)
        assert sum(b[2] for b in table.bins) == 500
        assert len(table.bins) <= 4

    def test_merging_preserves_weighted_average(self):
        ds = small_dataset([((1, 0), 1)] * 10 + [((1, 0), -1)] * 10
                           + [((0, 1), 1)] * 15 + [((0, 1), -1)] * 5)
        m = ScoringSystem.from_dense(0, [1, 2], ds.feature_names)
        fine = calibration(m, ds, k_bins=10)
        coarse = calibration(m, ds, k_bins=1)
        fine_avg = sum(b[2] * b[4] for b in fine.bins) / sum(b[2] for b in fine.bins)
        assert coarse.bins[0][4] == fine_avg

    def test_equal_width_binning(self):
        ds = small_dataset([((1, 0), 1)] * 4 + [((0, 1), -1)] * 4 + [((1, 1), 1)] * 4)
        m = ScoringSystem.from_dense(0, [2, 6], ds.feature_names)
        table = calibration(m, ds, k_bins=2, binning="equal-width")
        assert table.binning == "equal-width"
        assert sum(b[2] for b in table.bins) == 12

    def test_bad_bins(self):
        ds = small_dataset([((1,), 1), ((0,), -1)])
        with pytest.raises(ValueError):
            calibration(trivial_model(1, True), ds, k_bins=0)


def _point(w, val_fpr, val_tpr, val_err=None):
    from intscore.evaluation import SweepPoint, ConfusionCounts

    return SweepPoint(Fraction(w), "ok",
                      trivial_model(1, True), 1,
                      ConfusionCounts(1, 1, 1, 1),
                      Fraction(val_tpr), Fraction(val_fpr),
                      Fraction(val_err if val_err is not None else 0))


class TestDecisionPoint:
    def make(self, specs):
        from intscore.evaluation import SweepResult

        return SweepResult(tuple(_point(*s) for s in specs))

    def test_no_eligible_point(self):
        result = self.make([("1", Fraction(6, 10), Fraction(9, 10))])
        assert pick_at_decision_point(result, Fraction(1, 2)) is None

    def test_dominant_point_wins(self):
        result = self.make([("1", Fraction(4, 10), Fraction(7, 10)),
                            ("3/2", Fraction(45, 100), Fraction(76, 100))])
        best = pick_at_decision_point(result, Fraction(1, 2), "max_tpr")
        assert best.w_plus == Fraction(3, 2)

    def test_tight_cap(self):
        result = self.make([("1", Fraction(18, 100), Fraction(44, 100)),
                            ("3/2", Fraction(35, 100), Fraction(60, 100))])
        best = pick_at_decision_point(result, Fraction(1, 5), "max_tpr")
        assert best.w_plus == 1

    def test_min_weighted_error(self):
        result = self.make([("1", Fraction(1, 10), Fraction(5, 10), "3/10"),
                            ("3/2", Fraction(2, 10), Fraction(9, 10), "1/10")])
        best = pick_at_decision_point(result, 1, "min_weighted_error")
        assert best.w_plus == Fraction(3, 2)


def test_roc_svg_contains_points():
    from intscore.evaluation import RocCurve

    curve = RocCurve(((Fraction(1), Fraction(1, 4), Fraction(3, 4), "w+=1"),),
                     Fraction(3, 4))
    svg = roc_svg(curve)
    assert svg.startswith("<svg") and "circle" in svg and "AUC" in svg


def test_weighted_error_matches_confusion():
    ds = small_dataset([((1,), 1)] * 3 + [((1,), -1)] * 2 + [((0,), -1)] * 5)
    m = ScoringSystem.from_dense(0, [1], ds.feature_names)
    # predicts +1 iff x=1: fn=0, fp=2
    assert weighted_error(m, ds, Fraction(3, 2), Fraction(1, 2)) == \
        (Fraction(3, 2) * 0 + Fraction(1, 2) * 2) / 10
