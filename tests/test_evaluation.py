import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intscore import evaluation
from intscore.data import BinaryDataset, FeatureSpec, aggregate, make_folds
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
from intscore.model import LatticeSpec, ScoringSystem, objective, trivial_model
from intscore.polish import POLISH_CAP
from intscore.solver import SolutionPool, SolveConfig

import oracles
from instances import random_instance
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

    def test_failed_point_recorded(self, monkeypatch, caplog):
        def failing_solve(*args, **kwargs):
            raise RuntimeError("solve failed")

        monkeypatch.setattr(evaluation, "solve", failing_solve)
        ds, _ = planted_dataset(n=60)
        result = sweep(ds, make_folds(ds, seed=1), self.protocol((1,)), LatticeSpec(2, 4),
                       self.scfg(), max_terms=2)
        assert result.points[0].status == "failed"
        assert result.points[0].error
        # the traceback is logged, not only the one-line error text
        failed = [r for r in caplog.records if r.name == "intscore.evaluation"]
        assert len(failed) == 1 and failed[0].levelname == "ERROR"
        assert failed[0].exc_info is not None
        assert "w+=1 failed" in failed[0].getMessage()
        assert "Traceback" in caplog.text

    def test_point_builds_one_entry_per_support(self, monkeypatch, tree_search):
        # model selection after a tree search polishes the first pool entry
        # of each support it does not skip; no other entry of a solve's pool
        # is ever built, not even the first entry of a skipped support, but
        # the best entry, which the solve's report reads
        solver_module = sys.modules["intscore.solver"]
        build_entry, solve, polish = solver_module._build_entry, evaluation.solve, \
            evaluation.polish
        built, polished, pools = [], [], []

        def counting_build(names, p, unit_den, den, terms, *rest):
            built[-1].append(tuple(j for j, _ in terms))
            return build_entry(names, p, unit_den, den, terms, *rest)

        def counting_solve(*args, **kwargs):
            built.append([])
            polished.append([])
            report, pool = solve(*args, **kwargs)
            pools.append((report, pool))
            return report, pool

        def counting_polish(model, *rest):
            polished[-1].append(tuple(j for j, _ in model.terms))
            return polish(model, *rest)

        monkeypatch.setattr(solver_module, "_build_entry", counting_build)
        monkeypatch.setattr(evaluation, "solve", counting_solve)
        monkeypatch.setattr(evaluation, "polish", counting_polish)
        ds, _ = planted_dataset()
        result = sweep(ds, make_folds(ds, seed=2), self.protocol((1,)), LatticeSpec(2, 4),
                       self.scfg(), max_terms=3)
        assert result.points[0].status == "ok"
        assert len(built) == 6  # five folds, then the final model
        skipped = 0
        for supports, calls, (report, pool) in zip(built, polished, pools):
            assert report.search == "tree"
            assert len(set(supports)) == len(supports)
            assert set(supports) == set(calls) | {tuple(j for j, _ in report.best.terms)}
            assert len(calls) <= len(pool.first_per_support()) < len(pool)
            skipped += len(pool.first_per_support()) - len(calls)
        assert skipped > 0

    @staticmethod
    def _assert_pool_as_reference(fit, want, max_terms):
        # by value: every entry in order, and the pick at every term budget
        def view(mv):
            return None if mv is None else (mv[0].key(), mv[0].term_names, mv[1])

        assert [view(mv) for mv in fit.entries] == [view(mv) for mv in want]
        for k in range(max_terms + 1):
            assert view(fit.best_with_at_most(k)) == view(oracles._best_at_k(want, k))

    @staticmethod
    def _record_fit(monkeypatch, solve):
        """Wrap evaluation's solve and polish; returns the lists they fill
        with each solve's (agg, cfg, pool) and each polished model."""
        polish = evaluation.polish
        solves, calls = [], []

        def recording_solve(agg, cfg, lattice, scfg, **kwargs):
            report, pool = solve(agg, cfg, lattice, scfg, **kwargs)
            solves.append((agg, cfg, pool, report))
            return report, pool

        def counting_polish(model, *rest):
            calls.append(model)
            return polish(model, *rest)

        monkeypatch.setattr(evaluation, "solve", recording_solve)
        monkeypatch.setattr(evaluation, "polish", counting_polish)
        return solves, calls

    def test_polished_fit_selects_as_reference(self, monkeypatch, tree_search):
        # after a tree search, model selection reads the polished pool; it
        # must hold what polishing the first entry of every support, a
        # dedupe, a sort and a walk give, though supports go largest first
        # and one that a superset polished into is skipped
        solves, calls = self._record_fit(monkeypatch, evaluation.solve)
        scfg = SolveConfig(time_limit=60, pool_size=20, node_limit=2000)
        skipped = 0
        for seed in range(10):
            ds, _, cfg, lattice = random_instance(seed)
            for w_plus in (Fraction(1, 2), Fraction(1), Fraction(3, 2)):
                solves.clear()
                calls.clear()
                fit, report = evaluation._polished_fit(aggregate(ds), w_plus, lattice, scfg,
                                                       cfg.max_terms, ds.feature_names)
                (agg, fit_cfg, pool, solved), = solves
                assert report is solved and report.search == "tree"
                want = oracles._polished_pool(pool, agg, fit_cfg, lattice)
                sizes = [model.l0 for model in calls]
                assert sizes == sorted(sizes, reverse=True)
                skipped += len(pool.first_per_support()) - len(calls)
                self._assert_pool_as_reference(fit, want, cfg.max_terms)
        assert skipped > 0

    def test_superset_polished_into_a_support_skips_it(self, monkeypatch):
        # x2 is noise on the planted data, so the support {x0, x1, x2}
        # polishes to a model on {x0, x1}, which is then the polished model
        # of {x0, x1} too: three supports take one polish call fewer than
        # the reference and give its pool
        ds, _ = planted_dataset()
        lattice = LatticeSpec(2, 4)
        models = [ScoringSystem.from_dense(-1, coefs, ds.feature_names)
                  for coefs in ([2, -2, 1, 0], [2, -2, 0, 0], [0, 0, 1, 0])]

        def pooled_solve(agg, cfg, lattice, scfg, **kwargs):
            pool = SolutionPool(len(models))
            for model in models:
                pool.add(model, objective(model, agg, cfg))
            return SimpleNamespace(search="tree"), pool

        solves, calls = self._record_fit(monkeypatch, pooled_solve)
        fit, _ = evaluation._polished_fit(aggregate(ds), Fraction(1), lattice, self.scfg(), 3,
                                          ds.feature_names)
        (agg, cfg, pool, _), = solves
        want = oracles._polished_pool(pool, agg, cfg, lattice)
        assert len(pool.first_per_support()) == 3
        assert [model.l0 for model in calls] == [3, 1]
        assert [[j for j, _ in model.terms] for model, _ in want] == [[0, 1], []]
        assert want[0][1].weighted_error == 0
        self._assert_pool_as_reference(fit, want, 3)

    def test_training_sets_aggregated_once_per_sweep(self, monkeypatch):
        # the folds' training sets and the full one are aggregated once
        # each, and every weight's fits solve on those same aggregates,
        # which keep the set counts the first weight's support searches
        # built
        aggregate, solve = evaluation.aggregate, evaluation.solve
        made, solved = [], []

        def recording_aggregate(ds):
            made.append(aggregate(ds))
            return made[-1]

        def recording_solve(agg, *args, **kwargs):
            solved.append(agg)
            return solve(agg, *args, **kwargs)

        monkeypatch.setattr(evaluation, "aggregate", recording_aggregate)
        monkeypatch.setattr(evaluation, "solve", recording_solve)
        ds, _ = planted_dataset()
        folds = make_folds(ds, seed=2)
        result = sweep(ds, folds, self.protocol((Fraction(1, 2), 1, Fraction(3, 2))),
                       LatticeSpec(2, 4), self.scfg(), max_terms=3)
        assert [p.status for p in result.points] == ["ok"] * 3
        assert len(made) == 6
        assert [id(agg) for agg in solved] == [id(agg) for agg in made] * 3
        assert [agg.source_n for agg in made[:5]] == \
            [int(folds.fold_train_mask(f).sum()) for f in range(5)]
        assert made[5].source_n == int(folds.train_mask().sum())
        assert all(agg.set_counts["terms"] == 3 for agg in made)

    def test_points_report_how_their_fits_were_solved(self, monkeypatch):
        # every fit of a point is solved by the support search where the
        # rule admits the lattice, and polishes nothing after it; a
        # coefficient bound of 1 refuses table 3, so the tree search runs
        polish = evaluation.polish
        calls = []

        def counting_polish(*args):
            calls.append(args)
            return polish(*args)

        monkeypatch.setattr(evaluation, "polish", counting_polish)
        ds, _ = planted_dataset()
        folds = make_folds(ds, seed=2)
        protocol = self.protocol((Fraction(1, 2), 1))
        supports = 1 + 4 + 6 + 4  # at most three of four features
        result = sweep(ds, folds, protocol, LatticeSpec(2, 4), self.scfg(), max_terms=3)
        for point in result.points:
            assert point.status == "ok"
            assert point.fits == (("support", "optimal", 0, supports),) * 6
            assert point.to_json()["fits"] == \
                [{"search": "support", "status": "optimal", "gap": "0", "nodes": supports}] * 6
        assert calls == []

        result = sweep(ds, folds, protocol, LatticeSpec(1, 4), self.scfg(), max_terms=3)
        for point in result.points:
            assert [fit[0] for fit in point.fits] == ["tree"] * 6
            assert [doc["search"] for doc in point.to_json()["fits"]] == ["tree"] * 6
        assert calls

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

    def test_empty_pool_rejected(self):
        # every point would fail in its first solve
        with pytest.raises(ValueError, match="pool_size"):
            SweepProtocol((1,), pool_size=0)

    def test_term_cap_beyond_polish_cap_rejected_before_any_solve(self, monkeypatch):
        # a fit polishes models of up to min(max_terms, P) terms, and polish
        # refuses more than POLISH_CAP, so every point would fail after its
        # solves; a cap the features cannot reach is still accepted
        solves = []

        def stopped_solve(*args, **kwargs):
            solves.append(args)
            raise RuntimeError("solve called")

        monkeypatch.setattr(evaluation, "solve", stopped_solve)
        rng = np.random.default_rng(4)
        X = (rng.random((200, 14)) < 0.5).astype(np.uint8)
        y = np.where(X[:, 0] + X[:, 1] > X[:, 2], 1, -1)
        wide = BinaryDataset(tuple(FeatureSpec(f"x{j}") for j in range(14)), X, y)
        protocol = SweepProtocol((1,), pool_size=20, sparsity_grid=(1, 2))
        with pytest.raises(ValueError, match=f"polish cap {POLISH_CAP}"):
            sweep(wide, make_folds(wide, seed=1), protocol, LatticeSpec(1, 4), self.scfg(),
                  max_terms=POLISH_CAP + 1)
        assert solves == []
        narrow, _ = planted_dataset()
        for ds, max_terms in ((wide, POLISH_CAP), (narrow, 13)):
            result = sweep(ds, make_folds(ds, seed=1), protocol, LatticeSpec(1, 4),
                           self.scfg(), max_terms=max_terms)
            assert result.points[0].error == "RuntimeError: solve called"

    @pytest.mark.parametrize("pool_size", [1, 2, 3])
    def test_pool_smaller_than_term_cap(self, monkeypatch, pool_size):
        # a pool with room for fewer entries than there are term counts
        # still keeps the best model at each, so every fit has a model at
        # every term count of the grid and no point fails
        fit, fits = evaluation._polished_fit, []

        def recording_fit(*args):
            fits.append(fit(*args))
            return fits[-1]

        monkeypatch.setattr(evaluation, "_polished_fit", recording_fit)
        ds, _ = planted_dataset(n=200)
        protocol = SweepProtocol((Fraction(1, 2), 1), pool_size=pool_size,
                                 sparsity_grid=(1, 2, 3, 4))
        result = sweep(ds, make_folds(ds, seed=1), protocol, LatticeSpec(2, 4),
                       self.scfg(), max_terms=4)
        assert [p.status for p in result.points] == ["ok", "ok"]
        assert len(fits) == 12
        for polished, _ in fits:
            for k in protocol.sparsity_grid:
                assert polished.best_with_at_most(k)[0].l0 <= k

    def test_no_workers_rejected_before_any_solve(self, monkeypatch):
        # jobs=0 used to run serially without a word
        def no_solve(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(evaluation, "solve", no_solve)
        ds, _ = planted_dataset()
        with pytest.raises(ValueError, match="jobs"):
            sweep(ds, make_folds(ds, seed=1), self.protocol((1,)), LatticeSpec(2, 4),
                  self.scfg(), max_terms=2, jobs=0)


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


def test_import_loads_no_multiprocessing():
    # only a sweep with jobs > 1 needs worker processes, so importing the
    # package leaves multiprocessing unloaded
    src = str(Path(evaluation.__file__).resolve().parents[1])
    check = "import sys, intscore; print(sorted(m for m in sys.modules if " \
            "m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    out = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
