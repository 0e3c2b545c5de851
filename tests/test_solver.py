import gc
import math
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from intscore.common import frac_str
from intscore.data import BinaryDataset, FeatureSpec, aggregate, synth_generate
from intscore.loss import exact_steps, loss_units, sibling_curves, sibling_plan
from intscore.model import LatticeSpec, ObjectiveValue, PenaltyConfig, ScoringSystem, objective
from intscore.polish import TABLE_HALF, TABLE_REACH, polish
from intscore.solver import (
    SolutionPool,
    SolveConfig,
    _Search,
    _support_search_fits,
    node_bound,
    solve,
)

from instances import a1a2_dataset, random_instance, wide_instance
from oracles import (ReferencePool, brute_force_frontier, brute_force_solve, class_signal,
                     conflict_lower_bound, grouped_relaxation, grouped_rule_admits,
                     pattern_relaxation, per_leaf_greedy_seed, reference_branching)


def quick_cfg(pool=20, **kw):
    return SolveConfig(time_limit=30.0, pool_size=pool, **kw)


def root_interval(coefs, intercept, agg, cfg, lattice):
    """The root's interval relaxation plus the penalties of the fixed
    coefficients of coefs, at a fixed intercept or (None) least over the
    intercept grid."""
    grid = range(-lattice.intercept_bound, lattice.intercept_bound + 1) \
        if intercept is None else [intercept]
    fixed = sum((cfg.c0 + cfg.epsilon * abs(c) for c in coefs if c), Fraction(0))
    return fixed + min(pattern_relaxation([None] * len(coefs), lam0, agg, cfg, lattice)
                       for lam0 in grid)


def pruning_relaxation(coefs, intercept, agg, cfg, lattice):
    """(kind, value): the relaxation the solver bounds a node with, by the
    rule on its free features, at a fixed intercept or (None) least over
    the intercept grid, from the Fraction oracles: the node's grouped
    relaxation, or the root's interval one plus the fixed penalties."""
    free = [j for j, c in enumerate(coefs) if c is None]
    if not grouped_rule_admits(free, agg, lattice):
        return "interval", root_interval(coefs, intercept, agg, cfg, lattice)
    grid = range(-lattice.intercept_bound, lattice.intercept_bound + 1) \
        if intercept is None else [intercept]
    return "grouped", min(grouped_relaxation(coefs, lam0, agg, cfg, lattice) for lam0 in grid)


class TestWorkedExample:
    def test_nor_model_is_recovered_exactly(self):
        ds = a1a2_dataset()
        agg = aggregate(ds)
        lattice = LatticeSpec(2, 2)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
        report, pool = solve(agg, cfg, lattice, quick_cfg(), feature_names=ds.feature_names)
        assert report.status == "optimal"
        best, value = pool.best()
        assert best.intercept == 1
        assert best.terms == ((0, -1), (1, -1))
        assert value.weighted_error == 0
        assert report.gap == 0
        assert report.lower_bound == report.best_objective

    def test_brute_force_agrees(self):
        ds = a1a2_dataset()
        agg = aggregate(ds)
        lattice = LatticeSpec(2, 2)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
        model, value = brute_force_solve(agg, cfg, lattice)
        assert (model.intercept, model.terms) == (1, ((0, -1), (1, -1)))
        assert value.weighted_error == 0


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force(self, seed):
        ds, agg, cfg, lattice = random_instance(seed)
        report, pool = solve(agg, cfg, lattice, quick_cfg())
        _, want = brute_force_solve(agg, cfg, lattice)
        assert report.status == "optimal"
        assert report.best_objective == want.total
        assert report.lower_bound == want.total

    @pytest.mark.parametrize("seed", range(12))
    def test_tree_search_matches_brute_force(self, seed, tree_search):
        ds, agg, cfg, lattice = random_instance(seed)
        report, pool = solve(agg, cfg, lattice, quick_cfg())
        _, want = brute_force_solve(agg, cfg, lattice)
        assert report.search == "tree"
        assert report.status == "optimal"
        assert report.best_objective == want.total
        assert report.lower_bound == want.total

    def test_pool_objectives_rederivable(self):
        ds, agg, cfg, lattice = random_instance(99)
        _, pool = solve(agg, cfg, lattice, quick_cfg())
        for model, value in pool.entries:
            again = objective(model, agg, cfg)
            assert again.total == value.total
            assert again.weighted_error == value.weighted_error
            # every intercept that ranks before it (smaller magnitude,
            # negative first) loses more
            for lam0 in range(-lattice.intercept_bound, lattice.intercept_bound + 1):
                if (abs(lam0), lam0) < (abs(model.intercept), model.intercept):
                    other = ScoringSystem(lam0, model.terms, model.term_names, ds.p)
                    assert objective(other, agg, cfg).total > value.total

    def test_respects_term_cap(self):
        ds, agg, cfg, lattice = random_instance(7)
        report, pool = solve(agg, replace(cfg, max_terms=1), lattice, quick_cfg())
        for model, _ in pool.entries:
            assert model.l0 <= 1


def _admitted_instances():
    """random_instance 0..19, and each again on a per-feature-bound lattice
    that admits every table up to its term cap, with one bound above the
    others and its penalties derived for that lattice."""
    rng = np.random.default_rng(61)
    out = []
    for seed in range(20):
        ds, agg, cfg, lattice = random_instance(seed)
        out.append((agg, cfg, lattice))
        cap = min(cfg.max_terms, ds.p)
        bounds = [TABLE_REACH[cap]] * ds.p
        bounds[int(rng.integers(ds.p))] += 1
        uneven = LatticeSpec(tuple(bounds), TABLE_HALF[cap] + int(rng.integers(0, 2)))
        out.append((agg, PenaltyConfig.auto(cfg.w_plus, ds.n, ds.p, uneven, cfg.max_terms),
                    uneven))
    return out


class TestSupportSearch:
    def test_rule_refusals(self, monkeypatch):
        # cap 5, a coefficient bound of 2 at four terms, an intercept
        # half-width below table 4's, a node limit below the support count
        # and work above the budget each refuse the support search
        solver_module = sys.modules["intscore.solver"]
        ds = synth_generate([0.3, 0.5, 0.4, 0.6, 0.2, 0.5], [1.0, -1.0, 0.5, 0.8, -0.6, 0.3],
                            300, seed=1)
        agg = aggregate(ds)
        supports = 1 + 6 + 15 + 20 + 15  # at most four of six features
        work = supports * (agg.n_pos_patterns + agg.n_neg_patterns + 1882)

        def fits(bound, intercept_bound=100, max_terms=4, node_limit=None):
            lattice = LatticeSpec(bound, intercept_bound)
            cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice, max_terms)
            return _support_search_fits(agg, cfg, lattice, quick_cfg(node_limit=node_limit))

        assert fits(10) and fits(3) and fits(10, intercept_bound=5)
        assert not fits(10, max_terms=5)
        assert not fits((10, 10, 2, 10, 10, 10)) and fits((10, 10, 2, 10, 10, 10), max_terms=3)
        assert not fits(10, intercept_bound=4)
        # at four terms the narrowest support's half-width min(L, 1 + 1 +
        # 1 + 2 + 1) = 5 would do, but table 4 needs every bound to be 3
        assert not fits((1, 1, 1, 2, 3, 3), max_terms=4)
        assert fits((1, 1, 3, 3, 3, 3), max_terms=2)
        assert fits(10, node_limit=supports) and not fits(10, node_limit=supports - 1)
        monkeypatch.setattr(solver_module, "_SUPPORT_ELEMENTS", work)
        assert fits(10)
        monkeypatch.setattr(solver_module, "_SUPPORT_ELEMENTS", work - 1)
        assert not fits(10)

    def test_frontier_matches_brute_force(self):
        # the pool's best objective with at most k terms is the least over
        # the lattice, for every k up to the cap
        searches = []
        for agg, cfg, lattice in _admitted_instances():
            report, pool = solve(agg, cfg, lattice, quick_cfg())
            searches.append(report.search)
            want = brute_force_frontier(agg, cfg, lattice)
            assert [pool.best_with_at_most(k)[1].total for k in range(len(want))] == want
            assert report.best_objective == want[-1]
        assert searches.count("support") > 25 and "tree" in searches

    def test_kept_set_counts_leave_solves_unchanged(self):
        # an aggregate keeps the weight-free set-count matrices its first
        # support search builds; solves on it, in a random order of
        # weights, caps and lattices, give the pool entries, in order, of
        # solves on a fresh aggregate of the same rows
        rng = np.random.default_rng(29)
        lattices = (LatticeSpec(10, 100), LatticeSpec(3, 5), None)
        searched = 0
        for case in range(8):
            n, p = int(rng.integers(20, 80)), int(rng.integers(4, 8))
            X = (rng.random((n, p)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
            y = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
            X, y = np.concatenate([X, X[:3]]), np.concatenate([y, -y[:3]])
            ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(p)), X, y)
            uneven = LatticeSpec(tuple(int(b) for b in rng.integers(3, 6, size=p)), 6)
            runs = [(w_plus, cap, lattice or uneven)
                    for w_plus in (Fraction(1, 2), Fraction(1), Fraction(3, 2))
                    for cap in range(1, 5) for lattice in lattices]
            shared = aggregate(ds)
            for i in rng.permutation(len(runs)):
                w_plus, cap, lattice = runs[i]
                cfg = PenaltyConfig.auto(w_plus, ds.n, p, lattice, cap)
                scfg = quick_cfg(pool=7)
                report, pool = solve(shared, cfg, lattice, scfg)
                fresh_report, fresh = solve(aggregate(ds), cfg, lattice, scfg)
                assert report.search == fresh_report.search == "support"
                assert pool.entries == fresh.entries
                searched += 1
            assert shared.set_counts["terms"] == 4
        assert searched == 8 * 36

    def test_report_and_telemetry(self):
        # one node per support scored, optimal with gap 0, and one
        # telemetry record per support size, whose bound is 0 until the last
        ds, agg, cfg, lattice = random_instance(4)
        cap = min(cfg.max_terms, ds.p)
        telemetry = []
        report, pool = solve(agg, cfg, lattice, quick_cfg(), telemetry=telemetry.append)
        assert report.search == "support"
        assert (report.status, report.gap) == ("optimal", 0)
        assert report.lower_bound == report.best_objective == pool.best()[1].total
        assert report.nodes_explored == sum(math.comb(ds.p, k) for k in range(cap + 1))
        assert report.to_json()["search"] == "support"
        assert report.seed_time == report.to_json()["seed_time"] == 0.0
        assert [r["nodes"] for r in telemetry] == \
            [sum(math.comb(ds.p, k) for k in range(m + 1)) for m in range(cap + 1)]
        assert [r["bound"] for r in telemetry] == ["0"] * cap + [frac_str(report.best_objective)]
        assert telemetry[-1]["incumbent"] == frac_str(report.best_objective)


class TestConflictBound:
    def test_single_conflict_value(self):
        X = np.array([[1, 0]] * 4 + [[0, 1]], dtype=np.uint8)
        y = np.array([1, 1, 1, -1, -1], dtype=np.int8)
        ds = BinaryDataset((FeatureSpec("a"), FeatureSpec("b")), X, y)
        cfg = PenaltyConfig.auto(1, 5, 2, LatticeSpec(2, 4))
        # pattern (1,0) occurs 3 times positive, once negative
        assert conflict_lower_bound(aggregate(ds), cfg) == Fraction(1, 5)

    def test_stated_min_example(self):
        X = np.array([[1]] * 5, dtype=np.uint8)
        y = np.array([1, 1, 1, -1, -1], dtype=np.int8)
        ds = BinaryDataset((FeatureSpec("a"),), X, y)
        cfg = PenaltyConfig.auto(1, 5, 1, LatticeSpec(2, 4))
        assert conflict_lower_bound(aggregate(ds), cfg) == Fraction(2, 5)

    def test_no_conflicts_zero(self):
        ds = a1a2_dataset()
        cfg = PenaltyConfig.auto(1, 4, 2, LatticeSpec(2, 2))
        assert conflict_lower_bound(aggregate(ds), cfg) == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_below_optimum(self, seed):
        ds, agg, cfg, lattice = random_instance(seed)
        _, best = brute_force_solve(agg, cfg, lattice)
        assert conflict_lower_bound(agg, cfg) <= best.total

    def test_all_identical_patterns_forced_error(self):
        X = np.ones((6, 2), dtype=np.uint8)
        y = np.array([1, 1, -1, -1, -1, -1], dtype=np.int8)
        ds = BinaryDataset((FeatureSpec("a"), FeatureSpec("b")), X, y)
        agg = aggregate(ds)
        lattice = LatticeSpec(2, 3)
        cfg = PenaltyConfig.auto(1, 6, 2, lattice)
        report, _ = solve(agg, cfg, lattice, quick_cfg())
        _, value = report.best, report.best_objective
        best_model, best_value = brute_force_solve(agg, cfg, lattice)
        assert best_value.weighted_error == Fraction(2, 6)
        assert report.status == "optimal"
        assert report.best_objective == best_value.total


class TestNodeBound:
    def test_equals_pattern_relaxation(self):
        # node_bound is the bound the search prunes with: the grouped
        # relaxation where the rule admits the node's free features and
        # elsewhere the root's per-pattern interval relaxation plus the
        # fixed penalties, at a fixed intercept (inside the grid or not) or
        # least over the grid
        rng = np.random.default_rng(41)
        checked = conflicts = 0
        kinds = set()
        instances = [random_instance(seed)[1:] for seed in range(12)]
        for agg, cfg, lattice in instances + _uneven_instances()[-1:]:
            conflicts += len(agg.conflict_pairs)
            bounds = lattice.bounds_for(agg.p)
            for _ in range(8):
                fixed = rng.uniform(0.1, 0.9)
                coefs = [int(rng.integers(-bounds[j], bounds[j] + 1))
                         if rng.random() < fixed else None for j in range(agg.p)]
                lam0 = int(rng.integers(-lattice.intercept_bound - 3,
                                        lattice.intercept_bound + 4))
                for intercept in (lam0, None):
                    kind, want = pruning_relaxation(coefs, intercept, agg, cfg, lattice)
                    assert node_bound([intercept] + coefs, agg, cfg, lattice) == want
                    kinds.add(kind)
                checked += 1
        assert checked == 104
        assert conflicts > 0
        assert kinds == {"grouped", "interval"}

    def test_grouped_never_below_interval(self):
        # on random partial assignments the grouped relaxation is at least
        # the interval one at every intercept, which is at least the root's
        # interval one plus the fixed penalties, so bounds never fall along
        # a path. Every partial here is one the rule admits, so node_bound
        # is the grouped relaxation and at least the interval one
        rng = np.random.default_rng(43)
        tighter = 0
        instances = [random_instance(seed)[1:] for seed in range(12)]
        for agg, cfg, lattice in instances + _uneven_instances()[-1:]:
            bounds = lattice.bounds_for(agg.p)
            grid = range(-lattice.intercept_bound, lattice.intercept_bound + 1)
            for _ in range(6):
                coefs = [int(rng.integers(-bounds[j], bounds[j] + 1))
                         if rng.random() < 0.5 else None for j in range(agg.p)]
                interval = [pattern_relaxation(coefs, v, agg, cfg, lattice) for v in grid]
                grouped = [grouped_relaxation(coefs, v, agg, cfg, lattice) for v in grid]
                assert all(g >= i for g, i in zip(grouped, interval))
                tighter += min(grouped) > min(interval)
                assert min(interval) >= root_interval(coefs, None, agg, cfg, lattice)
                assert grouped_rule_admits([j for j, c in enumerate(coefs) if c is None],
                                           agg, lattice)
                assert node_bound([None] + coefs, agg, cfg, lattice) >= min(interval)
        assert tighter > 0

    def test_grid_clipped_beyond_coefficient_reach(self):
        # with an intercept bound past the sum of the coefficient bounds
        # plus one, the grouped bound reads a clipped intercept grid; it must
        # still equal the relaxation's least value over the whole grid, also
        # where that least value needs the extreme intercept sum + 1
        rng = np.random.default_rng(47)
        X = (rng.random((40, 3)) < 0.5).astype(np.uint8)
        y = np.where(X @ np.array([1, -1, 1]) + rng.normal(0, 0.7, 40) > 0.5, 1, -1)
        ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(3)), X, y.astype(np.int8))
        lattice = LatticeSpec((1, 2, 1), 12)
        assert lattice.intercept_bound > sum(lattice.bounds_for(3)) + 1
        agg = aggregate(ds)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
        for _ in range(12):
            coefs = [int(rng.integers(-b, b + 1)) if rng.random() < 0.5 else None
                     for b in lattice.bounds_for(3)]
            assert node_bound([None] + coefs, agg, cfg, lattice) == \
                pruning_relaxation(coefs, None, agg, cfg, lattice)[1]
        # only a positive pattern with every coefficient at its lower bound:
        # classified right only by the intercept 1 + 2 + 1 + 1 = 5
        ones = BinaryDataset(ds.features, np.ones((3, 3), dtype=np.uint8),
                             np.ones(3, dtype=np.int8))
        agg = aggregate(ones)
        cfg = PenaltyConfig.auto(1, ones.n, ones.p, lattice)
        partial = [None, -1, -2, -1]
        assert node_bound(partial, agg, cfg, lattice) == \
            grouped_relaxation(partial[1:], 5, agg, cfg, lattice) == \
            cfg.c0 * 3 + cfg.epsilon * 4
        assert grouped_relaxation(partial[1:], 4, agg, cfg, lattice) > \
            grouped_relaxation(partial[1:], 5, agg, cfg, lattice)

    def test_rule_is_monotone_in_depth(self):
        # the rule depends on the free features and the lattice alone: the
        # search bounds the depths it admits with the grouped bound, and
        # they are every depth below some depth. Down one path per
        # instance, every child bound the search prunes with is the
        # node_bound of that child
        rng = np.random.default_rng(53)
        kinds = set()
        instances = [random_instance(seed)[1:] for seed in range(6)]
        # an intercept bound far past the coefficients' reach: the rule
        # reads the clipped grid, which admits the root here
        ds = synth_generate([0.5] * 6, [0.8, -0.6, 0.5, -0.4, 0.3, 0.2], n=400, seed=4)
        lattice = LatticeSpec(2, 60)
        instances.append((aggregate(ds), PenaltyConfig.auto(1, ds.n, ds.p, lattice,
                                                            max_terms=3), lattice))
        for agg, cfg, lattice in instances + _uneven_instances()[-1:]:
            search = _Search(agg, cfg, lattice, quick_cfg(), None)
            admitted = [d for d in range(agg.p + 1)
                        if grouped_rule_admits(search.order[d:], agg, lattice)]
            assert admitted == list(range(agg.p + 1 - len(admitted), agg.p + 1))
            assert sorted(search.groupings) == admitted
            partial = [None] * (agg.p + 1)
            for depth in range(agg.p - 1):
                j = search.order[depth]
                for v, kid in zip(search.values[j], search.children(depth)):
                    if not kid[0]:
                        partial[j + 1] = v
                        assert search.fraction(kid[1]) == node_bound(partial, agg, cfg, lattice)
                        kinds.add(depth + 1 in admitted)
                v = search.values[j][int(rng.integers(len(search.values[j])))]
                search.apply(j, v)
                partial[j + 1] = v
                if search.n_nonzero == search.cap:
                    break
        assert kinds == {True, False}

    def test_fully_fixed_equals_objective(self):
        ds, agg, cfg, lattice = random_instance(3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            coefs = [int(v) for v in rng.integers(-2, 3, size=ds.p)]
            lam0 = int(rng.integers(-3, 4))
            partial = [lam0] + coefs
            model = ScoringSystem.from_dense(lam0, coefs, ds.feature_names)
            assert node_bound(partial, agg, cfg, lattice) == objective(model, agg, cfg).total

    def test_root_between_conflict_bound_and_optimum(self):
        for seed in range(8):
            ds, agg, cfg, lattice = random_instance(seed)
            root = node_bound([None] * (ds.p + 1), agg, cfg, lattice)
            _, best = brute_force_solve(agg, cfg, lattice)
            assert conflict_lower_bound(agg, cfg) <= root <= best.total

    @pytest.mark.parametrize("seed", range(6))
    def test_below_every_completion(self, seed):
        ds, agg, cfg, lattice = random_instance(seed)
        rng = np.random.default_rng(seed + 100)
        bounds = lattice.bounds_for(ds.p)
        for _ in range(3):
            partial = [None]  # free intercept
            fixed_idx = []
            for j in range(ds.p):
                if rng.random() < 0.5:
                    partial.append(int(rng.integers(-bounds[j], bounds[j] + 1)))
                    fixed_idx.append(j)
                else:
                    partial.append(None)
            got = node_bound(partial, agg, cfg, lattice)

            # exhaustive completions of the free entries
            best = None
            free = [j for j in range(ds.p) if partial[j + 1] is None]
            coef_ranges = [range(-int(bounds[j]), int(bounds[j]) + 1) for j in free]
            for lam0 in range(-lattice.intercept_bound, lattice.intercept_bound + 1):
                for vals in product(*coef_ranges):
                    coefs = [0] * ds.p
                    for j in fixed_idx:
                        coefs[j] = partial[j + 1]
                    for j, v in zip(free, vals):
                        coefs[j] = v
                    model = ScoringSystem.from_dense(lam0, coefs, ds.feature_names)
                    total = objective(model, agg, cfg).total
                    if best is None or total < best:
                        best = total
            assert got <= best


class TestExactUnits:
    # loss units are summed in float64; a class weight whose denominator
    # could push the sums to 2**53 must be refused rather than rounded
    @staticmethod
    def instance(w_plus):
        ds = synth_generate([0.5, 0.4, 0.6, 0.3], [1.0, -0.8, 0.6, -0.4],
                            n=3000, seed=8, bias=-0.1)
        lattice = LatticeSpec(2, 4)
        return ds, aggregate(ds), PenaltyConfig.auto(w_plus, ds.n, ds.p, lattice), lattice

    @pytest.mark.parametrize("w_plus", [Fraction("1.000000000000001"),
                                        1 + Fraction(1, (2 ** 53 - 1) // 6000 + 1),
                                        1 + Fraction(1, 10 ** 21)])
    def test_denominator_beyond_limit_rejected(self, w_plus):
        ds, agg, cfg, lattice = self.instance(w_plus)
        with pytest.raises(ValueError, match="denominator"):
            solve(agg, cfg, lattice, quick_cfg())
        model = ScoringSystem.from_dense(1, [1, -1, 1, 0], ds.feature_names)
        with pytest.raises(ValueError, match="denominator"):
            polish(model, agg, cfg, lattice)

    def test_denominator_at_limit_is_exact(self):
        ds, agg, cfg, lattice = self.instance(1 + Fraction(1, (2 ** 53 - 1) // 6000))
        report, pool = solve(agg, cfg, lattice, quick_cfg())
        _, want = brute_force_solve(agg, cfg, lattice)
        assert report.status == "optimal"
        assert report.best_objective == want.total
        for model, value in pool.entries:
            assert objective(model, agg, cfg).total == value.total
        _, value = polish(report.best, agg, cfg, lattice)
        assert value.total <= report.best_objective

    @pytest.mark.parametrize("seed", range(6))
    def test_penalty_denominators_beyond_int64(self, seed, monkeypatch, tree_search):
        # the solver keeps totals as ints over lcm(unit_den, c0's and
        # epsilon's denominators); here that denominator is past 2**84, so
        # totals held in int64 would wrap or refuse to convert. Every child
        # bound the search prunes with is checked against the Fraction
        # oracle of its kind too, since a wrong bound need not change the
        # optimum; a node-limited solve of a wider instance, where the rule
        # leaves the shallow depths to the interval bound, is checked too.
        _, agg, cfg, lattice = random_instance(seed)
        cfg = PenaltyConfig(1, 1, Fraction(1, 3 * 10 ** 22), Fraction(1, 7 * 10 ** 24),
                            cfg.max_terms)
        assert cfg.c0.denominator > 2 ** 64 and cfg.epsilon.denominator > 2 ** 64
        batched = _Search.children
        checked = []

        def checked_children(search, depth):
            kids = batched(search, depth)
            coefs = [None] * search.p
            for j in search.order[:depth]:
                coefs[j] = 0
            for j, v in search.terms:
                coefs[j] = v
            j = search.order[depth]
            for v, kid in zip(search.values[j], kids):
                if kid is not None and not kid[0]:
                    coefs[j] = v
                    kind, want = pruning_relaxation(coefs, None, search.agg, search.cfg,
                                                    lattice)
                    assert search.fraction(kid[1]) == want
                    checked.append(kind)
            return kids

        monkeypatch.setattr(_Search, "children", checked_children)
        report, pool = solve(agg, cfg, lattice, quick_cfg())
        _, want = brute_force_solve(agg, cfg, lattice)
        assert report.search == "tree"
        assert report.status == "optimal"
        assert report.best_objective == want.total
        assert report.lower_bound == want.total
        for model, value in pool.entries:
            assert objective(model, agg, cfg).total == value.total
        assert checked

        agg, wide, lattice = _uneven_instances()[seed % 3 + 2]
        wide = replace(cfg, max_terms=wide.max_terms)
        report, _ = solve(agg, wide, lattice, quick_cfg(node_limit=60))
        assert report.search == "tree"
        assert objective(report.best, agg, wide).total == report.best_objective
        assert set(checked) == {"grouped", "interval"}


class TestPool:
    def make(self, totals):
        pool = SolutionPool(3)
        for i, t in enumerate(totals):
            m = ScoringSystem.from_dense(i, [1], ["x"])
            v = ObjectiveValue(Fraction(t), 1, 1, Fraction(t))
            pool.add(m, v)
        return pool

    def test_sorted_and_capped(self):
        pool = self.make([5, 1, 3, 2, 4])
        totals = [v.total for _, v in pool.entries]
        assert totals == sorted(totals)
        assert len(pool) == 3
        assert totals[0] == 1

    def test_deduplication(self):
        pool = SolutionPool(5)
        m = ScoringSystem.from_dense(1, [2], ["x"])
        v = ObjectiveValue(Fraction(1), 1, 2, Fraction(1))
        assert pool.add(m, v)
        assert not pool.add(m, v)
        assert len(pool) == 1

    def test_best_with_at_most(self):
        pool = SolutionPool(10)
        dense = ScoringSystem.from_dense(0, [1, 1], ["a", "b"])
        sparse = ScoringSystem.from_dense(0, [1, 0], ["a", "b"])
        pool.add(dense, ObjectiveValue(Fraction(1, 10), 2, 2, Fraction(1, 10)))
        pool.add(sparse, ObjectiveValue(Fraction(2, 10), 1, 1, Fraction(2, 10)))
        model, _ = pool.best_with_at_most(1)
        assert model.l0 == 1
        model, _ = pool.best_with_at_most(2)
        assert model.l0 == 2

    def test_negative_budget_has_no_model(self):
        # no model has fewer than zero terms, however many the pool holds
        pool = SolutionPool(10)
        for coefs, total in (([0, 0], Fraction(3, 10)), ([1, 1], Fraction(1, 10))):
            pool.add(ScoringSystem.from_dense(0, coefs, ["a", "b"]),
                     ObjectiveValue(total, sum(coefs), sum(coefs), total))
        assert pool.best_with_at_most(0)[0].l0 == 0
        assert pool.best_with_at_most(-1) is None
        assert pool.best_total(-1) is None
        assert pool.best_total(-3) is None

    @pytest.mark.parametrize("capacity", [1, 2, 3, 500])
    def test_matches_reference_pool(self, capacity):
        # seeded add sequences with repeated keys, equal totals and every
        # term count from 0 to 4; both pools must agree after every add.
        # The solver offers its candidates by integer totals over a common
        # denominator, so the pool is driven that way too, against the
        # reference fed the equal Fractions.
        rng = np.random.default_rng(capacity)
        n_adds = 3 * capacity + 300
        den = 8
        for by_units in (False, False, False, True, True):
            pool, ref = SolutionPool(capacity), ReferencePool(capacity)
            for _ in range(n_adds):
                coefs = rng.integers(-1, 2, size=4) * (rng.random(4) < rng.random())
                model = ScoringSystem.from_dense(int(rng.integers(-3, 4)), coefs, list("abcd"))
                units = int(rng.integers(0, 40))
                total = Fraction(units, den)
                value = ObjectiveValue(total, model.l0, model.l1, total)
                if by_units:
                    added = pool.offer(units, model.key(), model.l0, lambda: (model, value))
                else:
                    added = pool.add(model, value)
                assert added == ref.add(model, value)
                assert len(pool) == len(ref)
                assert [(m.key(), v) for m, v in pool.entries] == \
                    [(m.key(), v) for m, v in ref.entries]
                for k in range(5):
                    assert pool.best_with_at_most(k) == ref.best_with_at_most(k)

    def test_capacity_one_keeps_every_level(self):
        # seeded offers with 0 to 4 terms: a pool of one must keep, for
        # every k, the least-total entry with at most k terms among all
        # offers, however many entries that leaves it holding
        rng = np.random.default_rng(17)
        pool, offered = SolutionPool(1), []
        for i in range(400):
            coefs = rng.integers(-1, 2, size=4) * (rng.random(4) < rng.random())
            model = ScoringSystem.from_dense(int(rng.integers(-3, 4)), coefs, list("abcd"))
            total = int(rng.integers(0, 60))
            offered.append((total, model.key(), model.l0))
            pool.offer(total, model.key(), model.l0, lambda m=model, t=total: (m, t))
            for k in range(5):
                want = min(((t, key) for t, key, l0 in offered if l0 <= k), default=None)
                got = pool.best_with_at_most(k)
                assert (None if got is None else (got[1], got[0].key())) == want
                assert pool.best_total(k) == (None if want is None else want[0])

    @pytest.mark.parametrize("capacity", [1, 3, 500])
    def test_builds_only_entries_read(self, capacity):
        # counting builders: offers build nothing, a read builds each entry
        # it returns once, and a candidate evicted unread is never built
        rng = np.random.default_rng(capacity)
        built = []

        def builder(model, total):
            def build():
                built.append(model.key())
                return model, total
            return build

        pool = SolutionPool(capacity)
        read_midway = []
        n_offers = 2 * capacity + 300
        for i in range(n_offers):
            # a distinct intercept per offer keeps every key distinct
            model = ScoringSystem.from_dense(i, rng.integers(-1, 2, size=4), list("abcd"))
            total = int(rng.integers(0, 60))
            pool.offer(total, model.key(), model.l0, builder(model, total))
            if i == n_offers // 2:
                assert built == []
                read_midway = [pool.best()[0].key()]
                assert built == read_midway
        assert built == read_midway
        built.clear()
        frontier = {id(e) for e in pool._level if e is not None}
        assert len(pool) == max(capacity, len(frontier))

        first = pool.best()[0].key()
        assert built == ([] if [first] == read_midway else [first])
        keys = [model.key() for model, _ in pool.entries]
        assert sorted(built) == sorted(set(keys) - set(read_midway))

        before = list(built)
        assert [model.key() for model, _ in pool.entries] == keys
        assert pool.best()[0].key() == first
        for k in range(5):
            pool.best_with_at_most(k)
        assert built == before


def _solve_outputs(agg, cfg, lattice, pool_size, node_limit):
    """Everything a solve returns that does not depend on the clock."""
    telemetry = []
    report, pool = solve(agg, cfg, lattice,
                         SolveConfig(time_limit=60, pool_size=pool_size, node_limit=node_limit),
                         telemetry=telemetry.append)
    return (replace(report, wall_time=None, seed_time=None),
            [pool.best_with_at_most(k) for k in range(cfg.max_terms + 1)],
            pool.entries,
            [{k: v for k, v in r.items() if k != "time"} for r in telemetry])


def test_early_rejection_is_exact(monkeypatch, tree_search):
    # the search drops a leaf the pool rejects by total before making its
    # key; without that shortcut every leaf reaches offer(), and each solve
    # must come out the same. Wider instances under a pool of one or two
    # fill it with their sparsity frontier, where the rule's at-level
    # clause decides
    cases = [(random_instance(seed)[1:], pool_size, node_limit)
             for seed in range(30) for pool_size in (1, 2, 3, 5) for node_limit in (None, 7, 40)]
    cases += [(wide_instance(seed)[1:], pool_size, None)
              for seed in range(10) for pool_size in (1, 2)]
    fast = [_solve_outputs(*inst, pool_size, node_limit) for inst, pool_size, node_limit in cases]
    assert {report.search for report, *_ in fast} == {"tree"}
    monkeypatch.setattr(SolutionPool, "rejects", lambda self, total, l0: False)
    for (inst, pool_size, node_limit), got in zip(cases, fast):
        assert got == _solve_outputs(*inst, pool_size, node_limit), (pool_size, node_limit)


def test_pool_size_leaves_solve_unchanged(tree_search):
    # pruning reads the pool's best total at each term budget, which the
    # pool keeps at every capacity: reports and per-level picks must not
    # depend on the pool size
    cases = [random_instance(seed)[1:] for seed in range(20)]
    cases += [wide_instance(seed)[1:] for seed in range(8)]
    for agg, cfg, lattice in cases:
        for node_limit in (None, 40):
            outputs = []
            for pool_size in (1, 2, 3, 500):
                report, pool = solve(agg, cfg, lattice, SolveConfig(
                    time_limit=60, pool_size=pool_size, node_limit=node_limit))
                assert report.search == "tree"
                outputs.append((replace(report, wall_time=None, seed_time=None),
                                [pool.best_with_at_most(k)[0].key()
                                 for k in range(cfg.max_terms + 1)]))
            assert all(out == outputs[-1] for out in outputs), node_limit


def test_solve_leaves_no_cycle():
    # an unbuilt pool entry must not keep the search alive: with the cycle
    # collector off, the search is freed as soon as its report and pool are
    _, agg, cfg, lattice = random_instance(5)
    gc.collect()
    gc.disable()
    try:
        report, pool = solve(agg, cfg, lattice, quick_cfg(pool=5))
        assert len(pool) >= 2
        pool.best()
        del report, pool
        assert not [o for o in gc.get_objects() if isinstance(o, _Search)]
    finally:
        gc.enable()


def test_intercept_grid_clipped_to_coefficient_reach(tree_search):
    # past the coefficients' reach every score has the intercept's sign, so
    # no curve changes there: the search reads 2 min(L, sum(b) + 1) + 1
    # intercepts, and an intercept bound far past sum(b) + 1 = 16 gives the
    # same solve as 16
    ds = synth_generate([0.3, 0.5, 0.4, 0.6, 0.2], [1.0, -1.0, 0.5, 0.8, -0.6], 300, seed=1)
    agg = aggregate(ds)
    cfg = PenaltyConfig.auto(1, ds.n, ds.p, LatticeSpec(3, 16), max_terms=3)
    outputs = []
    for bound in (10, 16, 10 ** 6):
        lattice = LatticeSpec(3, bound)
        search = _Search(agg, cfg, lattice, quick_cfg(), None)
        assert len(search.lam0_grid) == 2 * min(bound, 16) + 1
        outputs.append(_solve_outputs(agg, cfg, lattice, 20, 200))
    assert outputs[1] == outputs[2]
    assert outputs[1][0].status == "node_limit"
    assert outputs[1][0].search == "tree"


def test_branching_follows_per_feature_class_signals():
    # the search derives every feature's class signal from one product per
    # class; the branching order and each value order must be the ones a
    # masked sum per feature gives, also for a feature no row sets and for
    # one, set on every row, whose signal ties the base rate
    instances = [random_instance(seed)[1:] for seed in range(12)] + _uneven_instances()[-1:]
    X = np.array([[1, 0, 1, 1], [0, 0, 1, 1], [1, 0, 0, 1], [0, 0, 0, 1], [1, 0, 1, 1]],
                 dtype=np.uint8)
    ds = BinaryDataset(tuple(FeatureSpec(f"x{j}") for j in range(4)), X,
                       np.array([1, -1, 1, -1, -1], dtype=np.int8))
    lattice = LatticeSpec((2, 3, 1, 2), 4)
    instances.append((aggregate(ds), PenaltyConfig.auto(1, ds.n, ds.p, lattice), lattice))
    kinds = set()
    for agg, cfg, lattice in instances:
        search = _Search(agg, cfg, lattice, quick_cfg(), None)
        order, values = reference_branching(search)
        assert search.order == order
        assert search.values == values
        for j in range(agg.p):
            cond, prev = class_signal(search, j)
            kinds.add("unset" if cond is None else "tie" if cond == prev else "set")
    assert kinds == {"unset", "tie", "set"}


class TestLimits:
    # limits a solve or sweep could not honour are refused up front
    def test_nan_time_limit_rejected(self):
        with pytest.raises(ValueError, match="time_limit"):
            SolveConfig(time_limit=float("nan"))
        assert SolveConfig(time_limit=float("inf")).time_limit == float("inf")

    def test_negative_node_limit_rejected(self):
        with pytest.raises(ValueError, match="node_limit"):
            SolveConfig(node_limit=-3)
        assert SolveConfig(node_limit=0).node_limit == 0


class TestAnytimeBehavior:
    def test_telemetry_bound_below_incumbent_and_monotone(self):
        ds, agg, cfg, lattice = random_instance(17)
        samples = []
        solve(agg, cfg, lattice, quick_cfg(), telemetry=samples.append)
        assert samples
        prev_bound = None
        prev_inc = None
        for s in samples:
            inc, bound = Fraction(s["incumbent"]), Fraction(s["bound"])
            assert bound <= inc
            if prev_bound is not None:
                assert bound >= prev_bound
                assert inc <= prev_inc
            prev_bound, prev_inc = bound, inc

    def test_node_limit_returns_incumbent(self):
        ds, agg, cfg, lattice = random_instance(23)
        report, pool = solve(agg, cfg, lattice, quick_cfg(node_limit=5))
        assert report.status in ("node_limit", "optimal")
        assert report.best is not None
        assert report.lower_bound <= report.best_objective
        assert len(pool) >= 1

    def test_zero_node_limit_still_feasible(self):
        ds, agg, cfg, lattice = random_instance(29)
        report, pool = solve(agg, cfg, lattice, quick_cfg(node_limit=0))
        assert report.best is not None
        assert objective(report.best, agg, cfg).total == report.best_objective

    def test_determinism_under_node_limit(self):
        ds, agg, cfg, lattice = random_instance(31)
        r1, p1 = solve(agg, cfg, lattice, quick_cfg(node_limit=40))
        r2, p2 = solve(agg, cfg, lattice, quick_cfg(node_limit=40))
        assert r1.best_objective == r2.best_objective
        assert r1.lower_bound == r2.lower_bound
        assert r1.nodes_explored == r2.nodes_explored
        assert r1.status == r2.status
        assert [m.key() for m, _ in p1.entries] == [m.key() for m, _ in p2.entries]


class TestEndpointsAndErrors:
    def test_all_positive_data_weight_endpoint(self):
        # W- = 0 admits no validated config, but brute force still shows the
        # optimum is the always-positive intercept-only model
        X = np.array([[0, 1], [1, 0], [1, 1], [0, 0]], dtype=np.uint8)
        y = np.ones(4, dtype=np.int8)
        ds = BinaryDataset((FeatureSpec("a"), FeatureSpec("b")), X, y)
        cfg = PenaltyConfig(2, 0, Fraction(1, 1000), Fraction(1, 10**6), max_terms=2)
        model, value = brute_force_solve(aggregate(ds), cfg, LatticeSpec(2, 3))
        assert model.l0 == 0 and model.intercept == 1
        assert value.weighted_error == 0

    def test_invalid_penalties_rejected(self):
        ds, agg, _, lattice = random_instance(2)
        bad = PenaltyConfig(1, 1, Fraction(1, 2), Fraction(1, 10**9))
        with pytest.raises(ValueError):
            solve(agg, bad, lattice, quick_cfg())

    def test_feature_names_of_another_length_rejected(self):
        ds, agg, cfg, lattice = random_instance(3)
        names = list(ds.feature_names)
        for wrong in (names[:-1], names + ["extra"]):
            with pytest.raises(ValueError, match=f"feature_names has {len(wrong)}"):
                solve(agg, cfg, lattice, quick_cfg(), feature_names=wrong)

    def test_brute_force_lattice_guard(self):
        rng = np.random.default_rng(0)
        X = (rng.random((10, 8)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(10) < 0.5, 1, -1).astype(np.int8)
        y[0] = 1
        y[1] = -1
        ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(8)), X, y)
        cfg = PenaltyConfig(1, 1, Fraction(1, 1000), Fraction(1, 10**9))
        with pytest.raises(ValueError):
            brute_force_solve(aggregate(ds), cfg, LatticeSpec(10, 100))


def test_single_feature_separable_recovery():
    X = np.array([[1], [1], [1], [0], [0]], dtype=np.uint8)
    y = np.array([1, 1, 1, -1, -1], dtype=np.int8)
    ds = BinaryDataset((FeatureSpec("flag"),), X, y)
    agg = aggregate(ds)
    lattice = LatticeSpec(1, 2)
    cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
    model, value = brute_force_solve(agg, cfg, lattice)
    assert value.weighted_error == 0
    report, _ = solve(agg, cfg, lattice, quick_cfg())
    assert report.best_objective == value.total
    assert objective(report.best, agg, cfg).weighted_error == 0


def test_penalty_separation_preserves_accuracy_order():
    # with auto-derived penalties, minimizing the full objective also
    # minimizes the weighted error, and at equal error the term count:
    # verified by full enumeration, including the asymmetric weight 4/5
    # whose error quantum undercuts min(W+, W-)
    from itertools import product as iproduct

    for seed, w_plus in ((1, Fraction(4, 5)), (4, 1), (9, Fraction(19, 10))):
        rng = np.random.default_rng(seed)
        n, p = 20, 3
        X = (rng.random((n, p)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
        y[0], y[1] = 1, -1
        ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(p)), X, y)
        agg = aggregate(ds)
        lattice = LatticeSpec(2, 3)
        cfg = PenaltyConfig.auto(w_plus, n, p, lattice)
        cfg.validate_for(n, p, lattice)

        best_total = None
        best_key = None
        total_winner = None
        for lam0 in range(-3, 4):
            for coefs in iproduct(range(-2, 3), repeat=p):
                m = ScoringSystem.from_dense(lam0, coefs, ds.feature_names)
                val = objective(m, agg, cfg)
                key = (val.weighted_error, val.l0_count, val.l1_sum)
                if best_key is None or key < best_key:
                    best_key = key
                if best_total is None or val.total < best_total:
                    best_total = val.total
                    total_winner = key
        assert total_winner == best_key


def test_per_feature_bounds_through_solver():
    rng = np.random.default_rng(3)
    X = (rng.random((25, 3)) < 0.5).astype(np.uint8)
    y = np.where(rng.random(25) < 0.5, 1, -1).astype(np.int8)
    y[0], y[1] = 1, -1
    ds = BinaryDataset(tuple(FeatureSpec(f"f{j}") for j in range(3)), X, y)
    agg = aggregate(ds)
    lattice = LatticeSpec((1, 2, 3), 4)
    cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
    report, pool = solve(agg, cfg, lattice, quick_cfg())
    _, want = brute_force_solve(agg, cfg, lattice)
    assert report.status == "optimal"
    assert report.best_objective == want.total
    bounds = lattice.bounds_for(3)
    for model, _ in pool.entries:
        for j, c in model.terms:
            assert abs(c) <= bounds[j]


def test_single_class_dataset():
    X = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    y = np.ones(3, dtype=np.int8)
    ds = BinaryDataset((FeatureSpec("a"), FeatureSpec("b")), X, y)
    agg = aggregate(ds)
    lattice = LatticeSpec(2, 3)
    cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
    report, _ = solve(agg, cfg, lattice, quick_cfg())
    assert report.status == "optimal"
    assert objective(report.best, agg, cfg).weighted_error == 0
    assert report.best.l0 == 0  # the intercept alone suffices


def _uneven_instances():
    """A 7-feature instance with conflict pairs and uneven per-feature
    bounds, under every term cap from 1 to 7."""
    ds = synth_generate([0.3, 0.6, 0.5, 0.4, 0.7, 0.5, 0.35],
                        [0.9, -0.7, 0.5, -0.4, 0.3, -0.6, 0.2], n=500, seed=3, bias=0.1)
    agg = aggregate(ds)
    assert len(agg.conflict_pairs)
    lattice = LatticeSpec((3, 1, 4, 2, 5, 2, 3), 6)
    cfg = PenaltyConfig.auto(Fraction(7, 5), ds.n, ds.p, lattice, max_terms=7)
    return [(agg, replace(cfg, max_terms=cap), lattice) for cap in range(1, 8)]


@pytest.mark.usefixtures("tree_search")
class TestSiblingBatching:
    def test_sibling_curves_count_every_offset(self):
        # every sibling's curve against a direct count at every offset, for
        # zero, one and two coefficients set by random rows, so that most
        # segments read views narrower than the widened grid, and with
        # scores beyond both ends of it
        rng = np.random.default_rng(41)
        checked = 0
        for seed in range(8):
            _, agg, cfg, _ = random_instance(seed)
            units, _ = loss_units(agg, cfg)
            is_pos = np.arange(len(units)) < agg.n_pos_patterns
            steps, start = exact_steps(units, agg.n_pos_patterns)
            scores = rng.integers(-9, 10, size=len(units))
            for n_coef in range(3):
                bs = rng.integers(1, 3, size=n_coef).tolist()
                seg = rng.integers(0, 1 << n_coef, size=len(units))
                lo, width = int(rng.integers(-5, 2)), int(rng.integers(1, 8))
                curves = sibling_curves(sibling_plan(steps, start, seg, bs, lo, width), scores)
                assert curves.shape == tuple(2 * b + 1 for b in bs) + (width,)
                for idx in np.ndindex(*curves.shape[:-1]):
                    v = [i - b for i, b in zip(idx, bs)]
                    move = sum((seg >> l & 1) * x for l, x in enumerate(v))
                    for q in range(width):
                        score = scores + move + lo + q
                        lost = np.where(is_pos, score <= 0, score >= 1) * units
                        assert curves[idx + (q,)] == lost.sum()
                        checked += 1
        assert checked > 500

    def test_children_match_per_node_code(self, monkeypatch):
        # at every frame of the search, each child scored in the batch must
        # equal the child's own leaf or bound, reached by fixing its value.
        # Every interval bound and every 40th bound are also checked against
        # the Fraction oracle of the relaxation the rule picks for the
        # child's free features, and every 10th leaf against the model's
        # exact objective, which a loss-curve dtype too narrow for the
        # instance's unit totals would miss.
        batched = _Search.children
        seen = {"leaf": 0, "bound": 0, "grouped": 0, "interval": 0}
        rule = {}  # (search, free features): whether the rule admits them
        dtypes = set()  # bytes per loss unit of the searches' curves

        def checked(search, depth):
            kids = batched(search, depth)
            dtypes.add(np.dtype(search.dtype).itemsize)
            j = search.order[depth]
            for v, kid in zip(search.values[j], kids):
                l0 = search.n_nonzero + (v != 0)
                is_leaf, score, lam0 = kid
                assert is_leaf == (depth + 1 == search.p or l0 == search.cap)
                search.apply(j, v)
                if is_leaf:
                    assert (score, lam0) == search.leaf()
                    seen["leaf"] += 1
                    if seen["leaf"] % 10 == 0:
                        model = ScoringSystem(lam0, search.terms,
                                              tuple(f"f{i}" for i, _ in search.terms), search.p)
                        assert objective(model, search.agg, search.cfg).weighted_error == \
                            Fraction(score, search.unit_den)
                else:
                    assert lam0 is None and score == search.bound()
                    seen["bound"] += 1
                    free = tuple(search.order[depth + 1:])
                    if (search, free) not in rule:
                        rule[search, free] = grouped_rule_admits(free, search.agg, lattice)
                    if not rule[search, free] or seen["bound"] % 40 == 0:
                        coefs = [None] * search.p
                        for i in search.order[:depth + 1]:
                            coefs[i] = 0
                        for i, c in search.terms:
                            coefs[i] = c
                        kind, want = pruning_relaxation(coefs, None, search.agg, search.cfg,
                                                        lattice)
                        assert search.fraction(score) == want
                        seen[kind] += 1
                search.undo(j, v)
            return kids

        monkeypatch.setattr(_Search, "children", checked)
        searches = set()
        for seed in range(12):
            _, agg, cfg, lattice = random_instance(seed)
            searches.add(solve(agg, cfg, lattice, quick_cfg())[0].search)
        # unit totals that need 16-, 32- and 64-bit loss curves
        uneven = _uneven_instances()
        for w_plus in (Fraction(10001, 10000), Fraction(10**7 + 1, 10**7)):
            agg, cfg, lattice = uneven[3]
            uneven.append((agg, PenaltyConfig.auto(w_plus, agg.source_n, agg.p, lattice,
                                                   max_terms=4), lattice))
        for agg, cfg, lattice in uneven:
            searches.add(solve(agg, cfg, lattice, quick_cfg(node_limit=2000))[0].search)
        # a wider instance, whose shallow nodes the rule leaves to the
        # root's interval bound
        rng = np.random.default_rng(1)
        ds = synth_generate(rng.uniform(0.1, 0.8, 10), rng.normal(0, 0.8, 10), 2000,
                            seed=1, bias=-0.2)
        lattice = LatticeSpec((2, 1, 2, 2, 1, 2, 2, 1, 2, 2), 10)
        cfg = PenaltyConfig.auto(Fraction(1, 5), ds.n, ds.p, lattice, max_terms=4)
        searches.add(solve(aggregate(ds), cfg, lattice, quick_cfg(node_limit=300))[0].search)
        assert searches == {"tree"}
        assert seen["leaf"] > 1000 and seen["bound"] > 1000
        assert seen["grouped"] and seen["interval"]
        assert dtypes == {2, 4, 8}

    def test_greedy_seed_matches_per_leaf_seed(self, monkeypatch):
        # seeding's product and curves in blocks of one row and one
        # feature, by default, and all at once; the uneven instances have
        # conflict pairs and per-feature bounds, and the last one a weight
        # denominator at class_units' limit
        instances = [random_instance(seed)[1:] for seed in range(12)] + _uneven_instances()
        agg, _, lattice = instances[-1]
        den = (2 ** 53 - 1) // (2 * agg.source_n)
        instances.append((agg, PenaltyConfig.auto(Fraction(den + 1, den), agg.source_n, agg.p,
                                                  lattice, max_terms=7), lattice))
        loss_module = sys.modules["intscore.loss"]
        for leaf_elements in (1, loss_module._LEAF_ELEMENTS, 1 << 62):
            monkeypatch.setattr(loss_module, "_LEAF_ELEMENTS", leaf_elements)
            for agg, cfg, lattice in instances:
                searches = [_Search(agg, cfg, lattice, quick_cfg(), None) for _ in range(2)]
                for search in searches:
                    search.record(0, 0, *search.leaf())
                searches[0].greedy_seed(float("inf"))
                per_leaf_greedy_seed(searches[1])
                batched, per_leaf = searches
                assert [batched.pool.best_total(k) for k in range(batched.cap + 1)] == \
                    [per_leaf.pool.best_total(k) for k in range(per_leaf.cap + 1)]
                assert [(m.key(), v) for m, v in batched.pool.entries] == \
                    [(m.key(), v) for m, v in per_leaf.pool.entries]
                assert not batched.base.any() and batched.terms == ()
        assert np.dtype(searches[0].dtype).itemsize == 8


# Outputs of a node-limited solve. Any change to node order, value order,
# bounds, intercept tie-breaks or pool eviction shows up here. Recorded first
# with the solver that scored one child at a time (commit e60a35b), at a
# 15,000-node limit; re-recorded at 5,000 nodes when the deep nodes took the
# grouped bound, which proves this instance optimal in 8,884 nodes.
PINNED_POOL = [
    ((-1, (1, 1), (4, -1), (8, -1), (9, 1)), '10963/34000'),
    ((-2, (1, 1), (4, -1), (8, -1), (9, 2)), '1096301/3400000'),
    ((-1, (1, 1), (4, -1), (8, -2), (9, 1)), '1096301/3400000'),
    ((-2, (1, 1), (4, -1), (8, -2), (9, 2)), '548151/1700000'),
    ((-1, (1, 1), (5, 1), (6, -1), (8, -1)), '54849/170000'),
    ((-2, (1, 1), (5, 2), (6, -1), (8, -1)), '1096981/3400000'),
    ((-1, (1, 1), (5, 1), (6, -2), (8, -1)), '1096981/3400000'),
    ((-1, (1, 1), (5, 1), (6, -1), (8, -2)), '1096981/3400000'),
    ((-2, (1, 1), (5, 2), (6, -2), (8, -1)), '548491/1700000'),
    ((-2, (1, 1), (5, 2), (6, -1), (8, -2)), '548491/1700000'),
    ((-1, (1, 1), (5, 1), (6, -2), (8, -2)), '548491/1700000'),
    ((-2, (1, 1), (5, 2), (6, -2), (8, -2)), '1096983/3400000'),
    ((-1, (1, 1), (3, -1), (5, 1), (8, -1)), '54917/170000'),
    ((-2, (1, 1), (3, -1), (5, 2), (8, -1)), '1098341/3400000'),
    ((-1, (1, 1), (3, -2), (5, 1), (8, -1)), '1098341/3400000'),
    ((-1, (1, 1), (3, -1), (5, 1), (8, -2)), '1098341/3400000'),
    ((-2, (1, 1), (3, -2), (5, 2), (8, -1)), '549171/1700000'),
    ((-2, (1, 1), (3, -1), (5, 2), (8, -2)), '549171/1700000'),
    ((-1, (1, 1), (3, -2), (5, 1), (8, -2)), '549171/1700000'),
    ((-2, (1, 1), (3, -2), (5, 2), (8, -2)), '1098343/3400000'),
    ((-1, (3, -1), (4, 1), (5, 1), (8, -1)), '55257/170000'),
    ((-2, (3, -1), (4, 1), (5, 2), (8, -1)), '1105141/3400000'),
    ((-1, (3, -2), (4, 1), (5, 1), (8, -1)), '1105141/3400000'),
    ((-1, (3, -1), (4, 1), (5, 1), (8, -2)), '1105141/3400000'),
    ((-2, (3, -2), (4, 1), (5, 2), (8, -1)), '552571/1700000'),
    ((-2, (3, -1), (4, 1), (5, 2), (8, -2)), '552571/1700000'),
    ((-1, (3, -2), (4, 1), (5, 1), (8, -2)), '552571/1700000'),
    ((-2, (3, -2), (4, 1), (5, 2), (8, -2)), '1105143/3400000'),
    ((-1, (1, 1), (8, -1), (9, 1)), '222109/680000'),
    ((0,), '41/125'),
]
PINNED_TELEMETRY = [
    (0, '41/125', '123/500'),
    (31, '11099/34000', '123/500'),
    (792, '55427/170000', '123/500'),
    (922, '10963/34000', '123/500'),
    (1024, '10963/34000', '123/500'),
    (2048, '10963/34000', '123/500'),
    (3072, '10963/34000', '123/500'),
    (4096, '10963/34000', '123/500'),
    (5000, '10963/34000', '123/500'),
]


def test_pinned_node_limited_solve(tree_search):
    rng = np.random.default_rng(1)
    ds = synth_generate(rng.uniform(0.1, 0.8, 10), rng.normal(0, 0.8, 10), 2000,
                        seed=1, bias=-0.2)
    agg = aggregate(ds)
    assert len(agg.conflict_pairs)
    lattice = LatticeSpec((2, 1, 2, 2, 1, 2, 2, 1, 2, 2), 10)
    cfg = PenaltyConfig.auto(Fraction(4, 5), ds.n, ds.p, lattice, max_terms=4)
    telemetry = []
    report, pool = solve(agg, cfg, lattice,
                         SolveConfig(time_limit=60, pool_size=30, node_limit=5000),
                         telemetry=telemetry.append)
    assert (report.nodes_explored, report.status, report.search) == (5000, "node_limit", "tree")
    # greedy seeding runs first and its time is reported
    assert 0 < report.seed_time <= report.wall_time
    assert report.to_json()["seed_time"] == report.seed_time
    assert (report.best_objective, report.lower_bound) == \
        (Fraction(10963, 34000), Fraction(123, 500))
    assert [(m.key(), frac_str(v.total)) for m, v in pool.entries] == PINNED_POOL
    assert [(r["nodes"], r["incumbent"], r["bound"]) for r in telemetry] == PINNED_TELEMETRY
