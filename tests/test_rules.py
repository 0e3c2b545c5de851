from fractions import Fraction

import numpy as np
import pytest

from intscore.rules import mine_rules, rule_metrics, rules_csv

from oracles import enumerate_rules, filter_rules_any
from test_data import small_dataset


def lift_fixture():
    """Two features engineered so the pair rule has support 0.07,
    confidence 0.83 and lift 83/59 (~1.41) over prevalence 0.59.

    N = 8300; cell (1,1): 700 rows, 581 positive; cells (1,0)/(0,1): 1300
    rows with 800 positive each; cell (0,0): 5000 rows, 2716 positive.
    """
    rows = []
    rows += [((1, 1), 1)] * 581 + [((1, 1), -1)] * 119
    rows += [((1, 0), 1)] * 800 + [((1, 0), -1)] * 500
    rows += [((0, 1), 1)] * 800 + [((0, 1), -1)] * 500
    rows += [((0, 0), 1)] * 2716 + [((0, 0), -1)] * 2284
    return small_dataset(rows)


class TestRuleMetrics:
    def test_always_true_antecedent(self):
        ds = small_dataset([((1,), 1)] * 3 + [((1,), -1)] * 2)
        m = rule_metrics(ds, (0,))
        assert m.support == Fraction(3, 5)
        assert m.confidence == Fraction(3, 5)
        assert m.lift == 1

    def test_worked_example_values(self):
        ds = lift_fixture()
        m = rule_metrics(ds, (0, 1))
        assert m.support == Fraction(7, 100)
        assert m.confidence == Fraction(83, 100)
        assert m.lift == Fraction(83, 59)
        assert round(float(m.lift), 2) == 1.41

    def test_never_active_flagged(self):
        ds = small_dataset([((0, 1), 1), ((0, 1), -1)])
        m = rule_metrics(ds, (0,))
        assert not m.defined
        assert m.support == 0

    def test_matches_conditional_probabilities(self):
        from intscore.data import conditional_probabilities

        rng = np.random.default_rng(2)
        X = (rng.random((120, 5)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(120) < 0.5, 1, -1).astype(np.int8)
        ds = small_dataset(list(zip(map(tuple, X.tolist()), y.tolist())))
        cond = conditional_probabilities(ds)
        for j, name in enumerate(ds.feature_names):
            m = rule_metrics(ds, (j,))
            assert m.confidence == cond[name]


class TestMineRules:
    def test_deterministic_implication(self):
        rows = [((1, 0), 1)] * 10 + [((0, 1), 1)] * 10 + [((0, 1), -1)] * 20
        ds = small_dataset(rows)
        mined = mine_rules(ds, Fraction(1, 20), Fraction(99, 100))
        assert mined
        top = mined[0]
        assert top.antecedent == (0,)
        assert top.confidence == 1
        assert top.lift == Fraction(40, 20)  # 1 / prevalence

    def test_pair_rule_ranks_first_under_thresholds(self):
        ds = lift_fixture()
        mined = mine_rules(ds, Fraction(5, 100), Fraction(7, 10))
        assert mined[0].antecedent == (0, 1)
        assert mined[0].lift == Fraction(83, 59)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 201))
        p = int(rng.integers(3, 11))
        X = (rng.random((n, p)) < rng.uniform(0.2, 0.7)).astype(np.uint8)
        y = np.where(rng.random(n) < 0.55, 1, -1).astype(np.int8)
        if not (y == 1).any():
            y[0] = 1
        ds = small_dataset(list(zip(map(tuple, X.tolist()), y.tolist())))
        min_s, min_c = Fraction(1, 20), Fraction(1, 2)
        mined = mine_rules(ds, min_s, min_c)
        want = enumerate_rules(X.tolist(), y.tolist(), min_s, min_c)
        got = {(r.antecedent, r.support, r.confidence, r.lift) for r in mined}
        assert got == {(ant, s, c, l) for ant, s, c, l in want}

    def test_anti_monotonicity(self):
        rng = np.random.default_rng(9)
        X = (rng.random((150, 6)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(150) < 0.5, 1, -1).astype(np.int8)
        y[0] = 1
        ds = small_dataset(list(zip(map(tuple, X.tolist()), y.tolist())))
        mined = mine_rules(ds, Fraction(1, 100), Fraction(1, 100))
        singles = {r.antecedent[0]: r.support for r in mined if len(r.antecedent) == 1}
        for r in mined:
            if len(r.antecedent) == 2:
                a, b = r.antecedent
                assert r.support <= rule_metrics(ds, (a,)).support
                assert r.support <= rule_metrics(ds, (b,)).support

    def test_row_order_invariance(self):
        rng = np.random.default_rng(4)
        X = (rng.random((80, 4)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(80) < 0.5, 1, -1).astype(np.int8)
        y[0] = 1
        ds = small_dataset(list(zip(map(tuple, X.tolist()), y.tolist())))
        perm = rng.permutation(80)
        ds2 = small_dataset(list(zip(map(tuple, X[perm].tolist()), y[perm].tolist())))
        a = mine_rules(ds, Fraction(1, 10), Fraction(2, 5))
        b = mine_rules(ds2, Fraction(1, 10), Fraction(2, 5))
        assert [(r.antecedent, r.lift) for r in a] == [(r.antecedent, r.lift) for r in b]

    def test_threshold_validation(self):
        ds = small_dataset([((1,), 1), ((0,), -1)])
        with pytest.raises(ValueError):
            mine_rules(ds, 0, Fraction(1, 2))

    def test_csv_layout(self):
        ds = lift_fixture()
        mined = mine_rules(ds, Fraction(5, 100), Fraction(7, 10))
        text = rules_csv(mined)
        lines = text.splitlines()
        assert lines[0] == "rule,lift,support,confidence"
        assert lines[1].startswith('"x1 AND x2",1.4068,0.0700,0.8300')


def test_post_filter_keeps_rules_touching_selected_features():
    ds = lift_fixture()
    mined = mine_rules(ds, Fraction(1, 100), Fraction(1, 100))
    only_x1 = filter_rules_any(mined, [0])
    assert only_x1
    for r in only_x1:
        assert 0 in r.antecedent
    assert len(only_x1) < len(mined)
