import sys
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from intscore.data import BinaryDataset, FeatureSpec, aggregate, synth_generate
from intscore.loss import curve_plan, intercept_grid, loss_curves, loss_units
from intscore.model import LatticeSpec, PenaltyConfig, ScoringSystem, objective
from intscore.polish import (POLISH_CAP, TABLE_HALF, TABLE_REACH, TABLE_TERMS, WARM_TERMS,
                             ActiveSet, labeling_table, polish, project_active, table_admits)
from intscore.solver import SolveConfig, solve

from instances import a1a2_dataset, random_instance
from oracles import (brute_force_solve, lattice_labelings, per_node_polish,
                     restricted_bound_units, restricted_optimum)


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
        m = ScoringSystem.from_dense(0, [1] * (POLISH_CAP + 1) + [0] * (13 - POLISH_CAP),
                                     ds.feature_names)
        with pytest.raises(ValueError, match=f"polish cap {POLISH_CAP}"):
            polish(m, agg, cfg, lattice)

    def test_model_of_another_width_rejected(self):
        ds, agg, cfg, lattice = random_instance(3)
        assert ds.p == 2
        for width in (1, 4):
            m = ScoringSystem(0, ((0, 1),), ("f0",), width)
            with pytest.raises(ValueError, match=f"dataset has 2 features, model expects {width}"):
                polish(m, agg, cfg, lattice)

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


    def test_cap_term_polish_within_five_seconds(self):
        # the widest support polish accepts, on about 7,000 patterns
        ds = synth_generate([0.5] * 12, [0.8, -0.6, 0.5, -0.4, 0.7, -0.3, 0.2, 0.4, -0.5, 0.3,
                                         -0.2, 0.6], n=20000, seed=21, bias=-0.2)
        agg = aggregate(ds)
        assert agg.n_pos_patterns + agg.n_neg_patterns > 6500
        lattice = LatticeSpec(10, 100)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice, max_terms=POLISH_CAP)
        start = [5, -4, 3, -2, 4, -2, 1, 2, -3, 2, -1, 3]
        m = ScoringSystem.from_dense(-3, start[:POLISH_CAP] + [0] * (12 - POLISH_CAP),
                                     ds.feature_names)
        polish(ScoringSystem.from_dense(0, [1] + [0] * 11, ds.feature_names), agg, cfg, lattice)
        started = time.monotonic()
        out, value = polish(m, agg, cfg, lattice)
        assert time.monotonic() - started <= 5.0
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
    # the search prunes with the bounds of all siblings of all the nodes of
    # a chunk computed at once, in one block or (chunk_elements=1) one
    # sibling of one node per block; each must equal the per-node bound of
    # that child, and a node's row must equal its bounds computed alone
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
            j = s.order[depth]
            b = int(bounds[j])
            nodes = np.zeros((4, agg.p), dtype=np.int64)
            for i in s.order[:depth]:
                nodes[:, i] = rng.integers(-bounds[i], bounds[i] + 1, size=4)
            stacked = s.child_bounds(depth, scores=nodes @ s.cols)
            for node, row in zip(nodes, stacked):
                s.base[:] = node @ s.cols
                batched = s.child_bounds(depth)
                assert row.tolist() == batched.tolist()
                for v in range(-b, b + 1):
                    s.move(j, v)
                    assert batched[v + b] == restricted_bound_units(s, depth + 1)
                    s.move(j, -v)
                    checked += 1
    assert dtypes == {2, 4, 8}
    assert checked > 500


@pytest.mark.parametrize("chunk_elements", [1, 1 << 62])
def test_search_matches_per_node_search(chunk_elements, monkeypatch):
    # the search a depth at a time, in chunks of one node (one sibling per
    # block) or of the whole frontier, leaves the incumbent that the search
    # one node at a time leaves from the same start: on every support size
    # of an instance with conflict pairs and uneven per-feature bounds, at
    # full and halved bounds (the warm search of WARM_TERMS and more), at
    # weights needing 16-, 32- and 64-bit curves, the last at class_units'
    # limit
    from intscore.polish import _RestrictedSearch

    monkeypatch.setattr(sys.modules["intscore.loss"], "_CHUNK_ELEMENTS", chunk_elements)
    ds = synth_generate([0.3, 0.6, 0.5, 0.4, 0.7, 0.5, 0.35],
                        [0.9, -0.7, 0.5, -0.4, 0.3, -0.6, 0.2], n=500, seed=3, bias=0.1)
    agg = aggregate(ds)
    assert len(agg.conflict_pairs)
    lattice = LatticeSpec((3, 1, 4, 2, 5, 2, 3), 6)
    den = (2 ** 53 - 1) // (2 * agg.source_n)
    rng = np.random.default_rng(53)
    dtypes, sizes = set(), set()
    for w_plus in (Fraction(7, 5), Fraction(10001, 10000), Fraction(den + 1, den)):
        cfg = PenaltyConfig.auto(w_plus, ds.n, ds.p, lattice)
        for k in range(1, ds.p + 1):
            support = sorted(rng.choice(ds.p, size=k, replace=False).tolist())
            proj = project_active(agg, ActiveSet(tuple(support)))
            full = lattice.bounds_for(ds.p)[support]
            for bounds in (full, (full + 1) // 2):
                start = rng.integers(-bounds, bounds + 1)
                searches = [_RestrictedSearch(proj, cfg, bounds, lattice.intercept_bound, start)
                            for _ in range(2)]
                if k > 2:
                    for s in searches:
                        s.seed(start)
                searches[0].run()
                per_node_polish(searches[1])
                assert searches[0].best == searches[1].best
                dtypes.add(np.dtype(searches[0].dtype).itemsize)
                sizes.add(k)
    assert dtypes == {2, 4, 8} and max(sizes) > WARM_TERMS


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
        is_pos = np.arange(len(s.units)) < len(proj.pos_counts)
        for q in range(width):
            score = s.base + lo + q
            lost = np.where(is_pos, score <= 0, score >= 1) * s.units
            assert curves[:, q].tolist() == [int(lost[seg == g].sum()) for g in range(4)]


def test_leaf_batch_offers_least_key():
    # the last two coefficients of several nodes are scored together; the
    # incumbent offered must be the least (loss, l1, coefficient tuple) key
    # over all value pairs of every node, with the canonical intercept, as
    # a direct enumeration finds it
    from intscore.polish import _RestrictedSearch

    rng = np.random.default_rng(29)
    checked = 0
    for seed in range(12):
        ds, agg, cfg, lattice = random_instance(seed)
        proj = project_active(agg, ActiveSet(tuple(range(ds.p))))
        bounds = lattice.bounds_for(ds.p)
        for n_nodes in (1, 2, 3):
            s = _RestrictedSearch(proj, cfg, bounds, lattice.intercept_bound, [0] * ds.p)
            nodes = np.zeros((n_nodes, ds.p), dtype=np.int64)
            for j in s.order[:-2]:
                nodes[:, j] = rng.integers(-bounds[j], bounds[j] + 1, size=n_nodes)
            l1_fixed = np.abs(nodes).sum(axis=1)
            feats = tuple(sorted(s.order[-2:]))
            s._offer(feats, nodes, l1_fixed)
            is_pos = np.arange(len(s.units)) < len(proj.pos_counts)
            want = None
            for node, l1 in zip(nodes, l1_fixed.tolist()):
                for pair in product(*[range(-int(bounds[j]), int(bounds[j]) + 1)
                                      for j in feats]):
                    coef = node.copy()
                    coef[list(feats)] = pair
                    score = coef @ s.cols
                    for lam0 in s.lam0_grid.tolist():
                        lost = np.where(is_pos, score + lam0 <= 0, score + lam0 >= 1) * s.units
                        key = (int(lost.sum()), l1 + sum(map(abs, pair)),
                               tuple(coef.tolist()), (abs(lam0), lam0))
                        want = key if want is None else min(want, key)
            assert s.best == want[:3] + (want[3][1],)
            checked += 1
    assert checked == 36


def _polish_beyond_halved_bounds(k, monkeypatch):
    """Polish a model on noiseless labels of 2*x0 - x1 - ... - x(k-1) >= 1,
    which need a coefficient above half its bound of 2, and check it
    against the exhaustive optimum. Returns the bounds of each search run."""
    polish_module = sys.modules["intscore.polish"]
    searches = []

    class CountedSearch(polish_module._RestrictedSearch):
        def __init__(self, proj, cfg, bounds, *rest):
            searches.append(bounds.tolist())
            super().__init__(proj, cfg, bounds, *rest)

    monkeypatch.setattr(polish_module, "_RestrictedSearch", CountedSearch)
    X = np.array(list(product([0, 1], repeat=k)), dtype=np.uint8)
    score = X.astype(np.int64) @ np.array([2] + [-1] * (k - 1))
    y = np.where(score >= 1, 1, -1).astype(np.int8)
    ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(k)), X, y)
    agg = aggregate(ds)
    lattice = LatticeSpec(2, 4)
    cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
    m = ScoringSystem.from_dense(0, [1] + [-1] * (k - 1), ds.feature_names)
    out, value = polish(m, agg, cfg, lattice)
    _, (lam0, dense) = restricted_optimum(ds.X.tolist(), ds.y.tolist(), cfg.w_plus,
                                          cfg.w_minus, list(range(k)), 2, 4)
    assert (out.intercept, tuple(out.coef_vector())) == (lam0, dense)
    assert value.weighted_error == 0
    assert max(abs(c) for c in dense) == 2
    return searches


def test_optimum_beyond_halved_bounds(monkeypatch):
    # below WARM_TERMS the full search runs alone, from the input model
    assert _polish_beyond_halved_bounds(4, monkeypatch) == [[2] * 4]


def test_optimum_beyond_halved_bounds_after_warm_search(monkeypatch):
    # on WARM_TERMS terms the halved search runs first, and the full search
    # must still reach the coefficient of 2 beyond its bounds
    assert _polish_beyond_halved_bounds(WARM_TERMS, monkeypatch) == \
        [[1] * WARM_TERMS, [2] * WARM_TERMS]


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


def _universal(k):
    table = labeling_table(k)
    return dict(zip(table.masks.tolist(), map(tuple, table.coefs.tolist())))


def test_table_holds_the_least_model_of_every_threshold_function():
    # on 10/100 every threshold function of k inputs (OEIS A000609) is
    # produced, and the table holds its least (l1, tuple) model
    for k, count in zip(range(1, TABLE_TERMS + 1), (4, 14, 104, 1882)):
        want = lattice_labelings([10] * k, 100)
        assert len(want) == count
        assert _universal(k) == want
        assert table_admits(np.full(k, 10), int(intercept_grid(100, [10] * k)[0][-1]))


def test_table_reach_and_half_match_the_tables():
    # table_admits reads these instead of building the table: every
    # position of table k reaches |c| = TABLE_REACH[k], and its entries
    # need the intercepts -TABLE_HALF[k] .. TABLE_HALF[k]
    for k in range(TABLE_TERMS + 1):
        table = labeling_table(k)
        assert np.abs(table.coefs).max(axis=0, initial=0).tolist() == [TABLE_REACH[k]] * k
        assert max(int(table.lo.max()), -int(table.hi.min())) == TABLE_HALF[k]
        bounds = np.full(k, TABLE_REACH[k])
        assert table_admits(bounds, TABLE_HALF[k])
        assert not table_admits(bounds, TABLE_HALF[k] - 1)
        if k:
            assert not table_admits(bounds - np.eye(k, dtype=np.int64)[k - 1], TABLE_HALF[k])
    assert not table_admits(np.full(TABLE_TERMS + 1, 10), 100)


@pytest.mark.parametrize("block_elements", [None, 1])
def test_batched_table_optima_match_polish(block_elements, monkeypatch):
    # table_optima on every support of each size at once, in one block or
    # (block_elements=1) one support and one row per block, equals polish
    # of each support on its own, on data with conflicting pairs and empty
    # cells, on per-feature-bound lattices that admit every table, at
    # three weights and at one whose loss units near 2**53
    polish_module = sys.modules["intscore.polish"]
    if block_elements is not None:
        monkeypatch.setattr(polish_module, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(71)
    checked, conflicted, sparse = 0, 0, 0
    for case in range(12):
        n, p = int(rng.integers(6, 40)), 6
        X = (rng.random((n, p)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        y = np.where(rng.random(n) < rng.uniform(0.3, 0.7), 1, -1).astype(np.int8)
        flips = int(rng.integers(0, 4))  # rows repeated with the other label
        X, y = np.concatenate([X, X[:flips]]), np.concatenate([y, -y[:flips]])
        ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(p)), X, y)
        agg = aggregate(ds)
        conflicted += len(agg.conflict_pairs) > 0
        lattice = LatticeSpec(tuple(int(b) for b in rng.integers(3, 6, size=p)),
                              int(rng.integers(5, 30)))
        weights = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]
        if case == 0:
            weights.append(1 + Fraction(1, (2 ** 53 - 1) // (2 * ds.n)))
        for w_plus in weights:
            cfg = PenaltyConfig.auto(w_plus, ds.n, p, lattice)
            for k in range(TABLE_TERMS + 1):
                supports = np.array(list(combinations(range(p), k)),
                                    dtype=np.int64).reshape(comb(p, k), k)
                units, lam0, coefs = polish_module.table_optima(agg, cfg, lattice.intercept_bound,
                                                                supports)
                for support, u, lam, c in zip(supports.tolist(), units, lam0, coefs):
                    dense = np.zeros(p, dtype=np.int64)
                    dense[support] = 1
                    out, value = polish(ScoringSystem.from_dense(0, dense, ds.feature_names),
                                        agg, cfg, lattice)
                    dense[support] = c
                    assert (out.intercept, out.coef_vector().tolist()) == (lam, dense.tolist())
                    assert value.weighted_error == Fraction(int(u), loss_units(agg, cfg)[1])
                    sparse += len({tuple(row) for row in X[:, support].tolist()}) < 2 ** k
                    checked += 1
    assert checked == 12 * 3 * 57 + 57 and conflicted > 4 and sparse > 500


def test_table_entries_hold_on_their_intercepts():
    # each entry's model labels its cells by its mask at both ends of its
    # intercept interval, and differently just outside a finite end
    for k in range(TABLE_TERMS + 1):
        table = labeling_table(k)
        for mask, coefs, lo, hi in zip(table.masks.tolist(), table.coefs, table.lo.tolist(),
                                       table.hi.tolist()):
            scores = (table.cells @ coefs).tolist()

            def label(lam0):
                return sum(1 << x for x, s in enumerate(scores) if s + lam0 >= 1)

            assert label(lo) == label(hi) == mask
            if abs(lo) <= 100:
                assert label(lo - 1) != mask
            if abs(hi) <= 100:
                assert label(hi + 1) != mask


@pytest.mark.parametrize("bounds, intercept_bound, admitted", [
    ((3, 3, 3, 3), 5, True), ((3, 3, 3, 3), 4, False), ((2, 2, 2, 2), 9, False),
    ((3, 3, 3, 2), 12, False), ((2, 2, 2), 3, True), ((2, 2, 2), 2, False),
    ((1, 2, 2), 9, False), ((1, 1), 2, True), ((1, 1), 1, False), ((1,), 1, True)])
def test_table_admitted_exactly_where_it_is_the_lattices(bounds, intercept_bound, admitted):
    # a lattice admits the table exactly when the least model of each
    # labeling it produces is the table's
    grid, _ = intercept_grid(intercept_bound, bounds)
    assert table_admits(np.array(bounds), int(grid[-1])) == admitted
    assert (lattice_labelings(list(bounds), intercept_bound) == _universal(len(bounds))) \
        == admitted


def test_table_polish_matches_restricted_enumeration(monkeypatch):
    # supports of one to four terms, on data with conflicting pairs and
    # empty cells, on lattices on both sides of the admission rule: polish
    # reads the table exactly where the lattice admits it, searches
    # elsewhere, and returns the exhaustive optimum either way
    polish_module = sys.modules["intscore.polish"]
    searches = []

    class CountedSearch(polish_module._RestrictedSearch):
        def __init__(self, *args):
            searches.append(args)
            super().__init__(*args)

    monkeypatch.setattr(polish_module, "_RestrictedSearch", CountedSearch)
    lattices = [LatticeSpec(3, 5), LatticeSpec(3, 4), LatticeSpec(2, 9), LatticeSpec(2, 3),
                LatticeSpec((3, 3, 3, 2, 1), 12), LatticeSpec((1, 2, 1, 2, 1), 4),
                LatticeSpec(1, 2), LatticeSpec(1, 1)]
    rng = np.random.default_rng(43)
    paths, conflicted, sparse = set(), 0, 0
    for case in range(96):
        n, p = int(rng.integers(6, 30)), 5
        X = (rng.random((n, p)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        y = np.where(rng.random(n) < rng.uniform(0.3, 0.7), 1, -1).astype(np.int8)
        flips = int(rng.integers(0, 4))  # rows repeated with the other label
        X, y = np.concatenate([X, X[:flips]]), np.concatenate([y, -y[:flips]])
        ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(p)), X, y)
        agg = aggregate(ds)
        lattice = lattices[case % len(lattices)]
        bounds = lattice.bounds_for(p)
        k = 1 + (case // len(lattices)) % TABLE_TERMS
        support = sorted(rng.choice(p, size=k, replace=False).tolist())
        dense = np.zeros(p, dtype=np.int64)
        dense[support] = [int(rng.choice([-1, 1]) * rng.integers(1, bounds[j] + 1))
                          for j in support]
        cfg = PenaltyConfig.auto(Fraction(int(rng.integers(1, 4)), 2), ds.n, p, lattice)
        model = ScoringSystem.from_dense(
            int(rng.integers(-lattice.intercept_bound, lattice.intercept_bound + 1)),
            dense, ds.feature_names)

        searches.clear()
        out, value = polish(model, agg, cfg, lattice)
        grid, _ = intercept_grid(lattice.intercept_bound, bounds[support])
        admitted = table_admits(bounds[support], int(grid[-1]))
        assert (not searches) == admitted
        paths.add((k, admitted))
        conflicted += len(agg.conflict_pairs) > 0
        cells = {tuple(row) for row in X[:, support].tolist()}
        sparse += len(cells) < 2 ** k

        _, (lam0, want) = restricted_optimum(
            X.tolist(), y.tolist(), cfg.w_plus, cfg.w_minus, support,
            lattice.coef_bound, lattice.intercept_bound)
        assert (out.intercept, tuple(out.coef_vector())) == (lam0, want)
        assert value == objective(out, agg, cfg)
    assert paths == {(1, True)} | {(k, a) for k in (2, 3, 4) for a in (True, False)}
    assert conflicted > 40 and sparse > 40


@pytest.mark.parametrize("block_elements", [None, 1])
def test_sign_labeling_shortcut_picks_the_products_entry(block_elements, monkeypatch):
    # a support whose cells all have d = b - a != 0 and whose sign
    # labeling {c : d_c < 0} is a threshold labeling takes that entry
    # without the labels product; on random d with empty cells (d = 0),
    # ties and sign labelings no integer model produces, every pick is the
    # full product's first least entry
    polish_module = sys.modules["intscore.polish"]
    if block_elements is not None:
        monkeypatch.setattr(polish_module, "_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(83)
    for k in range(TABLE_TERMS + 1):
        table = labeling_table(k)
        n = 1 << k
        # small values: many zeros and tied sums; large ones: no zeros,
        # with random signs, or with the signs of a random threshold
        # labeling (negative on its positive cells)
        large = rng.integers(1, 10 ** 6, size=(1200, n))
        signs = np.concatenate([rng.choice([-1, 1], size=(600, n)),
                                1 - 2 * table.labels[rng.integers(len(table.labels), size=600)]])
        d = np.concatenate([rng.integers(-3, 4, size=(600, n)), large * signs.astype(np.int64)])
        got = polish_module._least_entries(table, d)
        assert got.tolist() == np.argmin(d @ table.labels.T, axis=1).tolist()
        sign = table.entry[(d < 0) @ (1 << np.arange(n))]
        zero = (d == 0).any(axis=1)
        assert (~zero & (sign >= 0)).sum() >= 600 and zero.sum() > 50
        if k >= 2:
            assert (~zero & (sign < 0)).sum() > 0


def test_one_support_polish_keeps_no_all_feature_counts(monkeypatch):
    # polish of one support sums counts over that support's features alone
    # and keeps nothing on the aggregate: over all 48 features the
    # set-count matrices would be 1,177 x 1,177 per class
    polish_module = sys.modules["intscore.polish"]
    set_sums, widths = polish_module._set_sums, []

    def recording_sums(agg, used, k):
        widths.append(len(used))
        return set_sums(agg, used, k)

    monkeypatch.setattr(polish_module, "_set_sums", recording_sums)
    rng = np.random.default_rng(48)
    X = (rng.random((3000, 48)) < 0.3).astype(np.uint8)
    y = np.where(X[:, 0] + X[:, 5] - X[:, 9] + rng.normal(0, 1, 3000) > 0.5, 1, -1)
    ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(48)), X, y.astype(np.int8))
    agg = aggregate(ds)
    lattice = LatticeSpec(10, 100)
    cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice, max_terms=4)
    for k in range(1, TABLE_TERMS + 1):
        support = sorted(rng.choice(48, size=k, replace=False).tolist())
        dense = np.zeros(48, dtype=np.int64)
        dense[support] = 1
        out, value = polish(ScoringSystem.from_dense(0, dense, ds.feature_names), agg, cfg,
                            lattice)
        assert {j for j, _ in out.terms} <= set(support)
        assert value.total <= objective(ScoringSystem.from_dense(0, dense, ds.feature_names),
                                        agg, cfg).total
    assert widths == [1, 2, 3, 4]
    assert agg.set_counts == {}
