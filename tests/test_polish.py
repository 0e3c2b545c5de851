import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from intscore.data import BinaryDataset, FeatureSpec, aggregate, synth_generate
from intscore.loss import curve_plan, loss_curves
from intscore.model import LatticeSpec, PenaltyConfig, ScoringSystem, objective
from intscore.polish import ActiveSet, polish, project_active
from intscore.solver import SolveConfig, brute_force_solve, solve

from instances import a1a2_dataset, random_instance
from oracles import restricted_bound_units, restricted_optimum


class TestActiveSet:
    def test_of_model(self):
        m = ScoringSystem.from_dense(1, [0, 3, 0, -2], ["a", "b", "c", "d"])
        assert ActiveSet.of(m).indices == (1, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ActiveSet((1, 1))


class TestProjection:
    def test_pattern_count_cap(self):
        rng = np.random.default_rng(0)
        X = (rng.random((400, 9)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(400) < 0.5, 1, -1).astype(np.int8)
        ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(9)), X, y)
        proj = project_active(aggregate(ds), ActiveSet((0, 2, 4, 6, 8)))
        assert proj.n_pos_patterns <= 32
        assert proj.n_neg_patterns <= 32
        assert proj.source_n == 400

    def test_full_active_set_is_identity(self):
        ds, agg, cfg, lattice = random_instance(1)
        proj = project_active(agg, ActiveSet(tuple(range(ds.p))))
        assert proj.n_pos_patterns == agg.n_pos_patterns
        assert proj.n_neg_patterns == agg.n_neg_patterns
        assert sorted(map(int, proj.pos_counts)) == sorted(map(int, agg.pos_counts))

    def test_loss_preserved_for_supported_models(self):
        rng = np.random.default_rng(7)
        X = (rng.random((300, 6)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(300) < 0.5, 1, -1).astype(np.int8)
        ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(6)), X, y)
        agg = aggregate(ds)
        support = (1, 3, 4)
        proj = project_active(agg, ActiveSet(support))
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, LatticeSpec(3, 10))
        cfg_proj = PenaltyConfig.auto(1, ds.n, len(support), LatticeSpec(3, 10))
        for _ in range(100):
            coefs = np.zeros(6, dtype=int)
            sub = rng.integers(-3, 4, size=3)
            coefs[list(support)] = sub
            lam0 = int(rng.integers(-5, 6))
            full = ScoringSystem.from_dense(lam0, coefs, ds.feature_names)
            small = ScoringSystem.from_dense(lam0, sub, ["a", "b", "c"])
            assert objective(full, agg, cfg).weighted_error == \
                objective(small, proj, cfg_proj).weighted_error


class TestPolish:
    def test_worked_example_shrinks_coefficients(self):
        ds = a1a2_dataset()
        agg = aggregate(ds)
        lattice = LatticeSpec(2, 2)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
        fat = ScoringSystem.from_dense(2, [-2, -2], ds.feature_names)
        out, value = polish(fat, agg, cfg, lattice)
        assert value.weighted_error == 0
        assert out.intercept == 1
        assert out.terms == ((0, -1), (1, -1))

    def test_idempotent_at_optimum(self):
        for seed in range(6):
            ds, agg, cfg, lattice = random_instance(seed)
            best, best_val = brute_force_solve(agg, cfg, lattice)
            once, once_val = polish(best, agg, cfg, lattice)
            again, again_val = polish(once, agg, cfg, lattice)
            assert once_val.total <= best_val.total
            assert (again.intercept, again.terms) == (once.intercept, once.terms)
            assert again_val.total == once_val.total

    def test_never_increases_objective_and_shrinks_support(self):
        rng = np.random.default_rng(3)
        for seed in range(6):
            ds, agg, cfg, lattice = random_instance(seed)
            bounds = lattice.bounds_for(ds.p)
            for _ in range(5):
                coefs = [int(rng.integers(-bounds[j], bounds[j] + 1)) for j in range(ds.p)]
                lam0 = int(rng.integers(-lattice.intercept_bound, lattice.intercept_bound + 1))
                m = ScoringSystem.from_dense(lam0, coefs, ds.feature_names)
                if m.l0 > cfg.max_terms:
                    continue
                before = objective(m, agg, cfg)
                after_model, after = polish(m, agg, cfg, lattice)
                assert after.total <= before.total
                assert set(j for j, _ in after_model.terms) <= set(j for j, _ in m.terms)

    def test_matches_restricted_enumeration(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            ds, agg, cfg, lattice = random_instance(seed)
            bounds = lattice.bounds_for(ds.p)
            coefs = [int(rng.integers(-bounds[j], bounds[j] + 1)) for j in range(ds.p)]
            m = ScoringSystem.from_dense(int(rng.integers(-2, 3)), coefs, ds.feature_names)
            if m.l0 == 0 or m.l0 > cfg.max_terms:
                continue
            out, _ = polish(m, agg, cfg, lattice)
            support = [j for j, _ in m.terms]
            key, (lam0, dense) = restricted_optimum(
                ds.X.tolist(), ds.y.tolist(), cfg.w_plus, cfg.w_minus,
                support, int(bounds[0]), lattice.intercept_bound)
            assert out.intercept == lam0
            assert tuple(out.coef_vector()) == dense

    def test_exact_at_small_scale(self):
        # |A| <= 4, bounds <= 3: every polished output equals the
        # enumerated restricted optimum, including tie-breaks
        rng = np.random.default_rng(11)
        X = (rng.random((40, 4)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(40) < 0.55, 1, -1).astype(np.int8)
        ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(4)), X, y)
        agg = aggregate(ds)
        lattice = LatticeSpec(3, 6)
        cfg = PenaltyConfig.auto(Fraction(6, 5), ds.n, ds.p, lattice)
        for _ in range(10):
            coefs = rng.integers(-3, 4, size=4)
            m = ScoringSystem.from_dense(int(rng.integers(-6, 7)), coefs, ds.feature_names)
            if m.l0 == 0:
                continue
            out, _ = polish(m, agg, cfg, lattice)
            support = [j for j, _ in m.terms]
            _, (lam0, dense) = restricted_optimum(
                ds.X.tolist(), ds.y.tolist(), cfg.w_plus, cfg.w_minus,
                support, 3, 6)
            assert (out.intercept, tuple(out.coef_vector())) == (lam0, dense)

    def test_empty_support_polishes_intercept_only(self):
        ds, agg, cfg, lattice = random_instance(2)
        m = ScoringSystem(lattice.intercept_bound, (), (), ds.p)
        out, value = polish(m, agg, cfg, lattice)
        assert out.l0 == 0
        assert value.total <= objective(m, agg, cfg).total

    def test_cap_enforced(self):
        rng = np.random.default_rng(1)
        X = (rng.random((30, 14)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(30) < 0.5, 1, -1).astype(np.int8)
        y[0], y[1] = 1, -1
        ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(14)), X, y)
        agg = aggregate(ds)
        lattice = LatticeSpec(1, 5)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice, max_terms=14)
        m = ScoringSystem.from_dense(0, [1] * 13 + [0], ds.feature_names)
        with pytest.raises(ValueError):
            polish(m, agg, cfg, lattice, cap=12)

    def test_pool_polishing_on_oracle_instances(self):
        for seed in (0, 4, 9):
            ds, agg, cfg, lattice = random_instance(seed)
            _, pool = solve(agg, cfg, lattice,
                            SolveConfig(time_limit=10, pool_size=10))
            for m, v in pool.entries:
                pm, pv = polish(m, agg, cfg, lattice)
                assert pv.total <= v.total

    def test_eight_term_polish_within_five_seconds(self):
        ds = synth_generate([0.5] * 10, [0.8, -0.6, 0.5, -0.4, 0.7, -0.3, 0.2, 0.4, 0, 0],
                            n=2000, seed=21, bias=-0.2)
        agg = aggregate(ds)
        lattice = LatticeSpec(10, 100)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
        m = ScoringSystem.from_dense(
            -3, [5, -4, 3, -2, 4, -2, 1, 2, 0, 0], ds.feature_names)
        started = time.monotonic()
        out, value = polish(m, agg, cfg, lattice)
        elapsed = time.monotonic() - started
        assert elapsed <= 5.0
        assert value.total <= objective(m, agg, cfg).total


def _eight_term_instance():
    ds = synth_generate([0.5] * 10, [0.8, -0.6, 0.5, -0.4, 0.7, -0.3, 0.2, 0.4, 0, 0],
                        n=2000, seed=21, bias=-0.2)
    lattice = LatticeSpec(10, 100)
    return ds, aggregate(ds), PenaltyConfig.auto(1, ds.n, ds.p, lattice), lattice


def test_result_depends_only_on_support():
    # polish returns the least key over the support's lattice, so models
    # that share a support and differ only in coefficients and intercept
    # polish alike: coefficients at +-bound (outside the halved lattice of
    # the warm start), random ones, and ones far from the optimum
    rng = np.random.default_rng(37)
    cases = []
    for seed in range(12):
        ds, agg, cfg, lattice = random_instance(seed)
        bounds = lattice.bounds_for(ds.p)
        for size in range(1, ds.p + 1):
            support = sorted(rng.choice(ds.p, size=size, replace=False).tolist())
            b = bounds[support]
            signs = rng.choice([-1, 1], size=(3, size))
            coefs = [b, -b, signs[0] * b,
                     signs[1] * rng.integers(1, b + 1), signs[2] * np.maximum(b // 2, 1)]
            cases.append((ds, agg, cfg, lattice, support, coefs))
    ds, agg, cfg, lattice = _eight_term_instance()
    support = list(range(8))
    fitted = np.array([5, -4, 3, -2, 4, -2, 1, 2])
    cases.append((ds, agg, cfg, lattice, support,
                  [fitted, -fitted, np.full(8, 10), np.where(fitted > 0, -10, 10)]))

    for ds, agg, cfg, lattice, support, coefs in cases:
        intercepts = rng.integers(-lattice.intercept_bound, lattice.intercept_bound + 1,
                                  size=len(coefs))
        intercepts[0] = lattice.intercept_bound
        results = set()
        for lam0, sub in zip(intercepts.tolist(), coefs):
            dense = np.zeros(ds.p, dtype=np.int64)
            dense[support] = sub
            out, value = polish(ScoringSystem.from_dense(lam0, dense, ds.feature_names),
                                agg, cfg, lattice)
            results.add((out.intercept, out.terms, value))
        assert len(results) == 1
    assert len(cases) > 30


@pytest.mark.parametrize("chunk_elements", [None, 1])
def test_batched_child_bounds_match_per_node_bound(chunk_elements, monkeypatch):
    # the search prunes with the bounds of all siblings computed at once,
    # in one block or (chunk_elements=1) one sibling per block; each must
    # equal the per-node bound of that child
    import sys

    from intscore.polish import _RestrictedSearch

    if chunk_elements is not None:
        monkeypatch.setattr(sys.modules["intscore.loss"], "_CHUNK_ELEMENTS", chunk_elements)

    instances = [random_instance(seed)[1:] for seed in range(12)]
    ds = synth_generate([0.3, 0.6, 0.5, 0.4, 0.7, 0.5, 0.35],
                        [0.9, -0.7, 0.5, -0.4, 0.3, -0.6, 0.2], n=500, seed=3, bias=0.1)
    agg = aggregate(ds)
    # unit totals that need 16-, 32- and 64-bit loss curves; a narrow
    # intercept grid leaves loss events beyond both ends of the curves
    for w_plus, intercept_bound in ((Fraction(7, 5), 12), (Fraction(10001, 10000), 3),
                                    (Fraction(10**7 + 1, 10**7), 2)):
        lattice = LatticeSpec((3, 1, 4, 2, 5, 2, 3), intercept_bound)
        instances.append((agg, PenaltyConfig.auto(w_plus, ds.n, ds.p, lattice), lattice))

    rng = np.random.default_rng(17)
    checked, dtypes = 0, set()
    for agg, cfg, lattice in instances:
        proj = project_active(agg, ActiveSet(tuple(range(agg.p))))
        bounds = lattice.bounds_for(agg.p)
        s = _RestrictedSearch(proj, cfg, bounds, lattice.intercept_bound, [0] * agg.p)
        dtypes.add(np.dtype(s.dtype).itemsize)
        for depth in range(agg.p - 2):
            for _ in range(4):
                applied = [(j, int(rng.integers(-bounds[j], bounds[j] + 1)))
                           for j in s.order[:depth]]
                for j, v in applied:
                    s._apply(j, v)
                batched = s._child_bounds(depth)
                j = s.order[depth]
                b = int(bounds[j])
                for v in range(-b, b + 1):
                    s._apply(j, v)
                    assert batched[v + b] == restricted_bound_units(s, depth + 1)
                    s._undo(j, v)
                    checked += 1
                for j, v in reversed(applied):
                    s._undo(j, v)
    assert dtypes == {2, 4, 8}
    assert checked > 500


def test_segment_curves_count_every_offset():
    # the loss-curve kernel behind every bound and leaf, checked at every
    # offset against a direct count, with scores well beyond both grid ends
    from intscore.polish import _RestrictedSearch

    rng = np.random.default_rng(23)
    for seed in range(6):
        ds, agg, cfg, lattice = random_instance(seed)
        proj = project_active(agg, ActiveSet(tuple(range(ds.p))))
        bounds = lattice.bounds_for(ds.p)
        s = _RestrictedSearch(proj, cfg, bounds, lattice.intercept_bound, [0] * ds.p)
        seg = s.cols[0] + 2 * s.cols[1]
        lo, width = int(rng.integers(-6, 2)), int(rng.integers(1, 9))
        s.base[:] = rng.integers(-12, 13, size=len(s.base))
        curves = loss_curves(curve_plan(s.steps, s.start, seg, 4, lo, width), s.base, s.dtype)
        for q in range(width):
            score = s.base + lo + q
            lost = np.where(s.is_pos, score <= 0, score >= 1) * s.units
            assert curves[:, q].tolist() == [int(lost[seg == g].sum()) for g in range(4)]


def test_leaf_batch_offers_least_key():
    # the last two coefficients are scored together; the incumbent offered
    # must be the least (loss, l1, coefficient tuple) key over all value
    # pairs, with the canonical intercept, as a direct enumeration finds it
    from intscore.polish import _RestrictedSearch

    rng = np.random.default_rng(29)
    checked = 0
    for seed in range(12):
        ds, agg, cfg, lattice = random_instance(seed)
        proj = project_active(agg, ActiveSet(tuple(range(ds.p))))
        bounds = lattice.bounds_for(ds.p)
        for _ in range(3):
            s = _RestrictedSearch(proj, cfg, bounds, lattice.intercept_bound, [0] * ds.p)
            for j in s.order[:-2]:
                s._apply(j, int(rng.integers(-bounds[j], bounds[j] + 1)))
            l1_fixed = int(np.abs(s.coef).sum())
            feats = tuple(sorted(s.order[-2:]))
            s._offer(feats, l1_fixed)
            want = None
            for pair in product(*[range(-int(bounds[j]), int(bounds[j]) + 1) for j in feats]):
                coef = s.coef.copy()
                coef[list(feats)] = pair
                score = coef @ s.cols
                for lam0 in s.lam0_grid.tolist():
                    lost = np.where(s.is_pos, score + lam0 <= 0, score + lam0 >= 1) * s.units
                    key = (int(lost.sum()), l1_fixed + sum(map(abs, pair)),
                           tuple(coef.tolist()), (abs(lam0), lam0))
                    want = key if want is None else min(want, key)
            assert s.best == want[:3] + (want[3][1],)
            checked += 1
    assert checked == 36


def test_optimum_beyond_halved_bounds():
    # noiseless labels of 2*x0 - x1 - x2 - x3 >= 1 need a coefficient above
    # half its bound of 2, which only the full search after the halved one
    # can reach
    X = np.array(list(product([0, 1], repeat=4)), dtype=np.uint8)
    score = X.astype(np.int64) @ np.array([2, -1, -1, -1])
    y = np.where(score >= 1, 1, -1).astype(np.int8)
    ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(4)), X, y)
    agg = aggregate(ds)
    lattice = LatticeSpec(2, 4)
    cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
    m = ScoringSystem.from_dense(0, [1, -1, -1, -1], ds.feature_names)
    out, value = polish(m, agg, cfg, lattice)
    _, (lam0, dense) = restricted_optimum(ds.X.tolist(), ds.y.tolist(), cfg.w_plus,
                                          cfg.w_minus, [0, 1, 2, 3], 2, 4)
    assert (out.intercept, tuple(out.coef_vector())) == (lam0, dense)
    assert value.weighted_error == 0
    assert max(abs(c) for c in dense) == 2


def test_ties_on_loss_and_l1_are_not_pruned():
    # x0 and x1 are one column, so (lam0, -1, 0, 0) and (lam0, 0, -1, 0) both
    # classify every row and tie on (loss, l1); the least key is the first.
    # Seeded with the second, the search must still enter the x0 = -1
    # subtree, whose bound equals the incumbent's key on (loss, l1).
    from intscore.polish import _RestrictedSearch

    rows = [(0, 0, 0)] * 3 + [(0, 0, 1)] + [(1, 1, 0)] * 3 + [(1, 1, 1)]
    X = np.array(rows, dtype=np.uint8)
    y = np.where(X[:, 0] == 0, 1, -1).astype(np.int8)
    ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(3)), X, y)
    agg = aggregate(ds)
    lattice = LatticeSpec(2, 4)
    cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
    bounds = lattice.bounds_for(ds.p)
    key, (lam0, dense) = restricted_optimum(X.tolist(), y.tolist(), cfg.w_plus, cfg.w_minus,
                                            [0, 1, 2], 2, 4)
    assert dense == (-1, 0, 0) and key[:2] == (0, 1)

    s = _RestrictedSearch(project_active(agg, ActiveSet((0, 1, 2))), cfg, bounds,
                          lattice.intercept_bound, [0, -1, 0])
    assert s.order[0] == 0
    s.seed([0, -1, 0])
    assert s.best[:3] == (0, 1, (0, -1, 0))
    s.run()
    assert s.best == (0, 1, dense, lam0)
