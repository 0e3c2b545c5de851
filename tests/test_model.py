import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intscore.data import aggregate
from intscore.model import (
    LatticeSpec,
    ObjectiveValue,
    PenaltyConfig,
    ScoringSystem,
    big_m_loss,
    derive_c0_bound,
    derive_epsilon_bound,
    objective,
    trivial_model,
)

from oracles import row_weighted_error
from test_data import small_dataset


def a1a2_dataset():
    """Four patterns over (a1, a2); positive exactly when both are 0."""
    return small_dataset([((0, 0), 1), ((1, 0), -1), ((0, 1), -1), ((1, 1), -1)])


class TestScorePredict:
    def test_empty_model_scores_zero(self):
        m = ScoringSystem(0, (), (), 4)
        assert m.score([1, 0, 1, 1]) == 0
        assert m.predict([1, 0, 1, 1]) == -1

    def test_points_table_sum(self):
        # 2 + 2 points on the two active rows of a five-term sheet
        names = ("age_at_release_18_to_24", "prior_arrests>=5",
                 "prior_arrest_for_misdemeanor", "no_prior_arrests", "age_at_release>=40")
        m = ScoringSystem(0, ((0, 2), (1, 2), (2, 1), (3, -1), (4, -1)), names, 5)
        assert m.score([1, 1, 0, 0, 0]) == 4

    def test_nor_style_model(self):
        m = ScoringSystem(1, ((0, -1), (1, -1)), ("a1", "a2"), 2)
        assert m.score([1, 1]) == -1
        assert m.predict([1, 1]) == -1
        assert m.predict([0, 0]) == 1

    def test_margins(self):
        m = ScoringSystem(0, ((0, 1),), ("x1",), 1)
        assert m.score([0]) == 0 and m.predict([0]) == -1
        assert m.score([1]) == 1 and m.predict([1]) == 1

    def test_length_mismatch(self):
        m = ScoringSystem(0, (), (), 3)
        with pytest.raises(ValueError):
            m.score([1, 0])

    def test_json_round_trip(self):
        m = ScoringSystem(-2, ((1, 3), (4, -1)), ("b", "e"), 6)
        back = ScoringSystem.from_json(m.to_json())
        assert back == m


@settings(max_examples=50, deadline=None)
@given(st.integers(-20, 20), st.lists(st.integers(-5, 5), min_size=1, max_size=6),
       st.data())
def test_predict_iff_score_at_least_one(lam0, coefs, data):
    m = ScoringSystem.from_dense(lam0, coefs, [f"x{j}" for j in range(len(coefs))])
    pattern = [data.draw(st.integers(0, 1)) for _ in coefs]
    assert (m.predict(pattern) == 1) == (m.score(pattern) >= 1)


class TestObjective:
    def cfg(self, n, p, w_plus=1):
        return PenaltyConfig.auto(w_plus, n, p, LatticeSpec(10, 100))

    def test_zero_model_misses_all_positives(self):
        ds = small_dataset([((1, 0), 1)] * 3 + [((0, 1), -1)] * 2)
        cfg = self.cfg(5, 2)
        val = objective(ScoringSystem(0, (), (), 2), aggregate(ds), cfg)
        assert val.weighted_error == Fraction(3, 5)
        assert val.l0_count == 0 and val.l1_sum == 0
        assert val.total == Fraction(3, 5)

    def test_nor_model_zero_error(self):
        ds = a1a2_dataset()
        cfg = self.cfg(4, 2)
        m = ScoringSystem(1, ((0, -1), (1, -1)), ("x1", "x2"), 2)
        val = objective(m, aggregate(ds), cfg)
        assert val.weighted_error == 0
        assert val.l0_count == 2 and val.l1_sum == 2
        assert val.total == cfg.c0 * 2 + cfg.epsilon * 2

    def test_matches_row_oracle(self):
        rng = np.random.default_rng(9)
        X = (rng.random((50, 4)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(50) < 0.6, 1, -1).astype(np.int8)
        ds = small_dataset(list(zip(map(tuple, X.tolist()), y.tolist())))
        agg = aggregate(ds)
        cfg = PenaltyConfig.auto(Fraction(3, 2), 50, 4, LatticeSpec(5, 20))
        for _ in range(20):
            coefs = rng.integers(-5, 6, size=4).tolist()
            lam0 = int(rng.integers(-8, 9))
            m = ScoringSystem.from_dense(lam0, coefs, ds.feature_names)
            got = objective(m, agg, cfg)
            want_err = row_weighted_error(lam0, coefs, X.tolist(), y.tolist(),
                                          cfg.w_plus, cfg.w_minus)
            assert got.weighted_error == want_err
            assert got.total == want_err + cfg.c0 * got.l0_count + cfg.epsilon * got.l1_sum

    def test_intercept_not_penalized(self):
        ds = a1a2_dataset()
        cfg = self.cfg(4, 2)
        a = objective(ScoringSystem(0, (), (), 2), aggregate(ds), cfg)
        b = objective(ScoringSystem(-2, (), (), 2), aggregate(ds), cfg)
        assert a.l0_count == b.l0_count == 0
        assert a.l1_sum == b.l1_sum == 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        X = (rng.random((30, 3)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(30) < 0.5, 1, -1).astype(np.int8)
        ds = small_dataset(list(zip(map(tuple, X.tolist()), y.tolist())))
        cfg = self.cfg(30, 3)
        m = ScoringSystem.from_dense(1, [2, -1, 0], ds.feature_names)
        base = objective(m, aggregate(ds), cfg).total

        perm_rows = rng.permutation(30)
        ds_r = small_dataset(list(zip(map(tuple, X[perm_rows].tolist()),
                                      y[perm_rows].tolist())))
        assert objective(m, aggregate(ds_r), cfg).total == base

        col_perm = [2, 0, 1]
        ds_c = small_dataset(list(zip(map(tuple, X[:, col_perm].tolist()), y.tolist())))
        m_c = ScoringSystem.from_dense(1, [0, 2, -1], ds_c.feature_names)
        assert objective(m_c, aggregate(ds_c), cfg).total == base

    def test_smaller_l1_wins_at_equal_loss_and_l0(self):
        ds = a1a2_dataset()
        cfg = self.cfg(4, 2)
        agg = aggregate(ds)
        small = ScoringSystem(1, ((0, -1), (1, -1)), ("a", "b"), 2)
        scaled = ScoringSystem(2, ((0, -2), (1, -2)), ("a", "b"), 2)
        v_small, v_scaled = objective(small, agg, cfg), objective(scaled, agg, cfg)
        assert v_small.weighted_error == v_scaled.weighted_error
        assert v_small.l0_count == v_scaled.l0_count
        assert v_small.total < v_scaled.total

    def test_scaling_never_changes_predictions(self):
        rng = np.random.default_rng(6)
        X = (rng.random((40, 3)) < 0.5).astype(np.uint8)
        m = ScoringSystem.from_dense(1, [2, -1, 3], ["a", "b", "c"])
        m3 = ScoringSystem.from_dense(3, [6, -3, 9], ["a", "b", "c"])
        assert np.array_equal(m.predictions(X), m3.predictions(X))


class TestParameterBounds:
    def test_c0_bound_values(self):
        assert derive_c0_bound(1, 1, 100, 5) == Fraction(1, 500)
        assert derive_c0_bound(Fraction("1.9"), Fraction("0.1"), 10, 2) == Fraction(1, 200)
        assert derive_c0_bound(1, 1, 1, 1) == 1

    def test_c0_bound_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            derive_c0_bound(0, 0, 10, 2)

    def test_epsilon_bound_values(self):
        lat = LatticeSpec(10, 100)
        assert derive_epsilon_bound(Fraction(1, 200), 100, lat, 5) == Fraction(1, 10_000)
        # c0 >= 1/N: the 1/N branch of the min applies
        assert derive_epsilon_bound(Fraction(2, 100), 100, lat, 5) == \
            Fraction(1, 100) / 50
        assert derive_epsilon_bound(Fraction(1, 2), 1, LatticeSpec(1, 1), 1) == Fraction(1, 2)

    def test_penalty_config_validation(self):
        lat = LatticeSpec(10, 100)
        cfg = PenaltyConfig.auto(1, 100, 5, lat)
        cfg.validate_for(100, 5, lat)
        bad = PenaltyConfig(1, 1, Fraction(1, 100), Fraction(1, 10**6))
        with pytest.raises(ValueError):
            bad.validate_for(100, 5, lat)  # c0 above min(W)/NP
        with pytest.raises(ValueError):
            replace(cfg, max_terms=0)

    def test_weights_must_sum_to_two(self):
        with pytest.raises(ValueError):
            PenaltyConfig(1, Fraction(1, 2), Fraction(1, 100), Fraction(1, 10**6))


class TestBigM:
    def test_positive_pattern(self):
        assert big_m_loss([1, 1], 1, LatticeSpec(10, 100)) == 121

    def test_negative_all_zero(self):
        assert big_m_loss([0, 0], -1, LatticeSpec(10, 100)) == 100

    def test_general_margin_identity(self):
        # gamma=1 general-form constant on a positive pattern equals the
        # aggregated constant: max over the lattice of (1 - score)
        rng = np.random.default_rng(2)
        lat = LatticeSpec(3, 7)
        for _ in range(20):
            pattern = rng.integers(0, 2, size=4)
            worst = 7 + int(3 * pattern.sum())  # most negative achievable score
            assert big_m_loss(pattern, 1, lat) == 1 + worst

    def test_per_feature_bounds(self):
        lat = LatticeSpec((2, 5, 1), 10)
        assert big_m_loss([1, 0, 1], 1, lat) == 1 + 10 + 2 + 1
        assert big_m_loss([0, 1, 0], -1, lat) == 10 + 5


class TestLatticeSpec:
    def test_defaults(self):
        lat = LatticeSpec()
        assert lat.max_l1(8) == 80
        assert lat.intercept_bound == 100

    def test_json_round_trip(self):
        lat = LatticeSpec((1, 2, 3), 9)
        assert LatticeSpec.from_json(lat.to_json()) == lat

    def test_json_ignores_old_margin_key(self):
        doc = {"coef_bound": 5, "intercept_bound": 9, "margin": "1/2"}
        assert LatticeSpec.from_json(doc) == LatticeSpec(5, 9)
        assert "margin" not in LatticeSpec(5, 9).to_json()

    def test_numpy_bounds_stored_as_ints(self):
        # numpy integers, as a per-feature bound array yields them, are
        # stored as Python ints, so the lattice and a model citing it
        # serialize as JSON
        lat = LatticeSpec(np.int64(5), np.int64(20))
        assert type(lat.coef_bound) is int and type(lat.intercept_bound) is int
        assert lat.to_json() == {"coef_bound": 5, "intercept_bound": 20}
        assert LatticeSpec.from_json(lat.to_json()) == lat == LatticeSpec(5, 20)
        model = ScoringSystem.from_dense(1, [2, 0], ["a", "b"])
        assert json.loads(model.to_json(lattice=lat))["lattice"] == lat.to_json()
        per_feature = LatticeSpec(np.array([2, 3]), np.int32(4))
        assert per_feature.to_json() == {"coef_bound": [2, 3], "intercept_bound": 4}


def test_trivial_models():
    pos, neg = trivial_model(3, True), trivial_model(3, False)
    assert pos.predict([0, 0, 0]) == 1
    assert neg.predict([1, 1, 1]) == -1


def test_objective_value_identity():
    cfg = PenaltyConfig(1, 1, Fraction(1, 1000), Fraction(1, 10**7))
    v = ObjectiveValue.build(Fraction(1, 4), 3, 7, cfg)
    assert v.total == Fraction(1, 4) + 3 * cfg.c0 + 7 * cfg.epsilon
