import gc
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from intscore.common import frac_str
from intscore.data import BinaryDataset, FeatureSpec, aggregate, synth_generate
from intscore.loss import exact_steps, loss_units, sibling_curves, sibling_plan
from intscore.model import LatticeSpec, ObjectiveValue, PenaltyConfig, ScoringSystem, objective
from intscore.polish import polish
from intscore.solver import (
    SolutionPool,
    SolveConfig,
    _Search,
    brute_force_solve,
    conflict_lower_bound,
    node_bound,
    solve,
)

from instances import a1a2_dataset, random_instance, wide_instance
from oracles import (ReferencePool, grouped_relaxation, grouped_rule_admits, pattern_relaxation,
                     per_leaf_greedy_seed)


def quick_cfg(pool=20, **kw):
    return SolveConfig(time_limit=30.0, pool_size=pool, **kw)


def pruning_relaxation(coefs, intercept, agg, cfg, lattice):
    """(kind, value): the relaxation the solver bounds a node with, by the
    rule on its free features, at a fixed intercept or (None) least over
    the intercept grid, from the Fraction oracles."""
    free = [j for j, c in enumerate(coefs) if c is None]
    kind = "grouped" if grouped_rule_admits(free, agg, lattice) else "interval"
    oracle = grouped_relaxation if kind == "grouped" else pattern_relaxation
    grid = range(-lattice.intercept_bound, lattice.intercept_bound + 1) \
        if intercept is None else [intercept]
    return kind, min(oracle(coefs, lam0, agg, cfg, lattice) for lam0 in grid)


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
        # relaxation where the rule admits the node's free features and the
        # per-pattern interval relaxation elsewhere, at a fixed intercept
        # (inside the grid or not) or least over the grid
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
        # the interval one at every intercept, so node_bound, whichever the
        # rule picks, is at least the interval bound
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
    def test_penalty_denominators_beyond_int64(self, seed, monkeypatch):
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
        assert report.status == "optimal"
        assert report.best_objective == want.total
        assert report.lower_bound == want.total
        for model, value in pool.entries:
            assert objective(model, agg, cfg).total == value.total
        assert checked

        agg, wide, lattice = _uneven_instances()[seed % 3 + 2]
        wide = replace(cfg, max_terms=wide.max_terms)
        report, _ = solve(agg, wide, lattice, quick_cfg(node_limit=60))
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
        assert len(pool) == capacity

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
    return (replace(report, wall_time=None),
            [pool.best_with_at_most(k) for k in range(cfg.max_terms + 1)],
            pool.entries,
            [{k: v for k, v in r.items() if k != "time"} for r in telemetry])


def test_early_rejection_is_exact(monkeypatch):
    # the search drops a leaf the pool rejects by total before making its
    # key; without that shortcut every leaf reaches offer(), and each solve
    # must come out the same. Wider instances under a pool of one or two
    # lose sparse levels from the pool, where the rule's at-level clause
    # decides
    cases = [(random_instance(seed)[1:], pool_size, node_limit)
             for seed in range(30) for pool_size in (1, 2, 3, 5) for node_limit in (None, 7, 40)]
    cases += [(wide_instance(seed)[1:], pool_size, None)
              for seed in range(10) for pool_size in (1, 2)]
    fast = [_solve_outputs(*inst, pool_size, node_limit) for inst, pool_size, node_limit in cases]
    monkeypatch.setattr(SolutionPool, "rejects", lambda self, total, l0: False)
    for (inst, pool_size, node_limit), got in zip(cases, fast):
        assert got == _solve_outputs(*inst, pool_size, node_limit), (pool_size, node_limit)


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


class TestSiblingBatching:
    def test_sibling_curves_count_every_offset(self):
        # every sibling's curve against a direct count at every offset, for
        # zero, one and two coefficients, with constant moves of either sign
        # and per-value moves of either sign or none, so that most segments
        # read views narrower than the widened grid, and with scores beyond
        # both ends of it
        rng = np.random.default_rng(41)
        constants, checked = set(), 0
        for seed in range(6):
            _, agg, cfg, _ = random_instance(seed)
            units, _ = loss_units(agg, cfg)
            is_pos = np.arange(len(units)) < agg.n_pos_patterns
            steps, start = exact_steps(units, agg.n_pos_patterns)
            scores = rng.integers(-9, 10, size=len(units))
            for n_coef in range(3):
                bs = rng.integers(1, 3, size=n_coef).tolist()
                n_seg = int(rng.integers(1, 5))
                seg = rng.integers(0, n_seg, size=len(units))
                moves = rng.integers(-3, 4, size=(n_seg, n_coef + 1)).tolist()
                moves[0][:n_coef] = [0] * n_coef
                lo, width = int(rng.integers(-5, 2)), int(rng.integers(1, 8))
                curves = sibling_curves(sibling_plan(steps, start, seg, moves, bs, lo, width),
                                        scores)
                assert curves.shape == tuple(2 * b + 1 for b in bs) + (width,)
                constants.update(np.sign([m[-1] for m in moves]).tolist())
                for idx in np.ndindex(*curves.shape[:-1]):
                    v = [i - b for i, b in zip(idx, bs)]
                    move = np.array([m[-1] + sum(a * x for a, x in zip(m, v)) for m in moves])
                    for q in range(width):
                        score = scores + move[seg] + lo + q
                        lost = np.where(is_pos, score <= 0, score >= 1) * units
                        assert curves[idx + (q,)] == lost.sum()
                        checked += 1
        assert constants == {-1, 0, 1} and checked > 500

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
        for seed in range(12):
            _, agg, cfg, lattice = random_instance(seed)
            solve(agg, cfg, lattice, quick_cfg())
        # unit totals that need 16-, 32- and 64-bit loss curves
        uneven = _uneven_instances()
        for w_plus in (Fraction(10001, 10000), Fraction(10**7 + 1, 10**7)):
            agg, cfg, lattice = uneven[3]
            uneven.append((agg, PenaltyConfig.auto(w_plus, agg.source_n, agg.p, lattice,
                                                   max_terms=4), lattice))
        for agg, cfg, lattice in uneven:
            solve(agg, cfg, lattice, quick_cfg(node_limit=2000))
        # interval-bound nodes deep enough that the edges of negative rows
        # with x_j = 1, the third segment of the batch, move the bound
        rng = np.random.default_rng(1)
        ds = synth_generate(rng.uniform(0.1, 0.8, 10), rng.normal(0, 0.8, 10), 2000,
                            seed=1, bias=-0.2)
        lattice = LatticeSpec((2, 1, 2, 2, 1, 2, 2, 1, 2, 2), 10)
        cfg = PenaltyConfig.auto(Fraction(1, 5), ds.n, ds.p, lattice, max_terms=4)
        solve(aggregate(ds), cfg, lattice, quick_cfg(node_limit=300))
        assert seen["leaf"] > 1000 and seen["bound"] > 1000
        assert seen["grouped"] and seen["interval"]
        assert dtypes == {2, 4, 8}

    def test_greedy_seed_matches_per_leaf_seed(self):
        instances = [random_instance(seed)[1:] for seed in range(12)]
        for agg, cfg, lattice in instances + _uneven_instances():
            searches = [_Search(agg, cfg, lattice, quick_cfg(), None) for _ in range(2)]
            for search in searches:
                search.record(0, 0, *search.leaf())
            searches[0].greedy_seed(float("inf"))
            per_leaf_greedy_seed(searches[1])
            batched, per_leaf = searches
            assert batched.best_leq == per_leaf.best_leq
            assert [(m.key(), v) for m, v in batched.pool.entries] == \
                [(m.key(), v) for m, v in per_leaf.pool.entries]
            assert not batched.base.any() and batched.terms == ()


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


def test_pinned_node_limited_solve():
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
    assert (report.nodes_explored, report.status) == (5000, "node_limit")
    assert (report.best_objective, report.lower_bound) == \
        (Fraction(10963, 34000), Fraction(123, 500))
    assert [(m.key(), frac_str(v.total)) for m, v in pool.entries] == PINNED_POOL
    assert [(r["nodes"], r["incumbent"], r["bound"]) for r in telemetry] == PINNED_TELEMETRY
