import csv
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intscore import data
from intscore.data import (
    BandRule,
    BinaryDataset,
    DataError,
    FeatureSpec,
    FoldAssignment,
    ThresholdRule,
    aggregate,
    aggregate_counts,
    binarize_continuous,
    conditional_probabilities,
    load_csv,
    make_folds,
    synth_generate,
    write_csv,
)

from oracles import expand, reference_load_csv, row_weighted_error

# 48 criminal-history style column names (ascii comparators), used to check
# that a realistically named wide file loads cleanly.
CRIMINAL_HISTORY_COLUMNS = [
    "female", "prior_alcohol_abuse", "prior_drug_abuse",
    "age_at_release<=17", "age_at_release_18_to_24", "age_at_release_25_to_29",
    "age_at_release_30_to_39", "age_at_release>=40",
    "released_unconditional", "released_conditional",
    "time_served<=6mo", "time_served_7_to_12mo", "time_served_13_to_24mo",
    "time_served_25_to_60mo", "time_served>=61mo",
    "infraction_in_prison",
    "age_1st_arrest<=17", "age_1st_arrest_18_to_24", "age_1st_arrest_25_to_29",
    "age_1st_arrest_30_to_39", "age_1st_arrest>=40",
    "age_1st_confinement<=17", "age_1st_confinement_18_to_24",
    "age_1st_confinement_25_to_29", "age_1st_confinement_30_to_39",
    "age_1st_confinement>=40",
    "prior_arrest_for_drug", "prior_arrest_for_property",
    "prior_arrest_for_public_order", "prior_arrest_for_general_violence",
    "prior_arrest_for_domestic_violence", "prior_arrest_for_sexual_violence",
    "prior_arrest_for_fatal_violence",
    "prior_arrest_for_multiple_types", "prior_arrest_for_felony",
    "prior_arrest_for_misdemeanor", "prior_arrest_for_local_ordinance",
    "prior_arrest_with_firearms_involved", "prior_arrest_with_child_involved",
    "no_prior_arrests", "prior_arrests>=1", "prior_arrests>=2", "prior_arrests>=5",
    "multiple_prior_prison_time", "any_prior_jail_time", "multiple_prior_jail_time",
    "any_prior_probation_or_fine", "multiple_prior_probation_or_fine",
]


def small_dataset(rows):
    """rows: list of (feature tuple, label)."""
    X = np.array([r[0] for r in rows], dtype=np.uint8)
    y = np.array([r[1] for r in rows], dtype=np.int8)
    feats = tuple(FeatureSpec(f"x{j + 1}") for j in range(X.shape[1]))
    return BinaryDataset(feats, X, y)


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f1,f2,y\n1,0,+1\n1,0,+1\n0,1,-1\n")
        ds = load_csv(f, "y", "+1")
        assert ds.n == 3 and ds.p == 2
        assert list(ds.y) == [1, 1, -1]
        assert ds.feature_names == ("f1", "f2")

    def test_non_binary_cell_names_the_cell(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f1,f2,y\n1,2,+1\n")
        with pytest.raises(DataError) as err:
            load_csv(f, "y", "+1")
        assert "f2" in str(err.value) and "'2'" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv", "y", "+1")

    def test_duplicate_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f1,f1,y\n1,0,+1\n")
        with pytest.raises(DataError):
            load_csv(f, "y", "+1")

    def test_missing_label_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f1,f2\n1,0\n")
        with pytest.raises(DataError):
            load_csv(f, "y", "+1")

    def test_three_label_tokens(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("f1,y\n1,a\n0,b\n1,c\n")
        with pytest.raises(DataError):
            load_csv(f, "y", "a")

    def test_wide_criminal_history_file(self, tmp_path):
        rng = np.random.default_rng(0)
        X = (rng.random((5, 48)) < 0.5).astype(int)
        lines = [",".join(CRIMINAL_HISTORY_COLUMNS + ["arrest"])]
        for i, row in enumerate(X):
            lines.append(",".join(str(v) for v in row) + ("," + ("1" if i % 2 else "0")))
        f = tmp_path / "wide.csv"
        f.write_text("\n".join(lines) + "\n")
        ds = load_csv(f, "arrest", "1")
        assert ds.p == 48
        assert ds.feature_names == tuple(CRIMINAL_HISTORY_COLUMNS)

    def test_csv_round_trip(self, tmp_path):
        ds = small_dataset([((1, 0), 1), ((0, 0), -1), ((1, 1), 1)])
        f = tmp_path / "out.csv"
        write_csv(ds, f)
        back = load_csv(f, "y", "1")
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)

    def _write(self, tmp_path, text):
        f = tmp_path / "d.csv"
        f.write_bytes(text.encode("utf-8"))
        return f

    def _error(self, tmp_path, text):
        f = self._write(tmp_path, text)
        with pytest.raises(DataError) as err:
            load_csv(f, "y", "1")
        return str(err.value).replace(str(f), "F")

    @pytest.mark.parametrize("text", ["f1,f2,y\n1,0,1\n0,1,0\n",
                                      "f1,f2,y\r\n1,0,1\r\n0,1,0\r\n",
                                      "f1,f2,y\n1,0,1\n0,1,0"])
    def test_line_endings(self, tmp_path, text):
        ds = load_csv(self._write(tmp_path, text), "y", "1")
        assert ds.X.tolist() == [[1, 0], [0, 1]] and ds.y.tolist() == [1, -1]
        assert ds.X.dtype == np.uint8 and ds.y.dtype == np.int8

    @pytest.mark.parametrize("text, message", [
        ("f1,f2,y\n1,0,1\n\n0,1,0\n", "F:3: expected 3 cells, got 0"),
        ("f1,f2,y\n1,0,1\n0,1\n", "F:3: expected 3 cells, got 2"),
        ("f1,f2,y\n1,0,1\n0,1,0,1\n", "F:3: expected 3 cells, got 4"),
        ("f1,f2,y\n1,x,1\n0,1\n", "F:2: column 'f2' has non-binary cell 'x'"),
        ("f1,f2,y\n1,0\n0,x,1\n", "F:2: expected 3 cells, got 2"),
        ("f1,f2,y\n1,0,1\nx,1\n", "F:3: expected 3 cells, got 2"),
        ("f1,f2,y\n1,0,1\n2,3,0\n", "F:3: column 'f1' has non-binary cell '2'"),
        ("f1,f2,y\n1,,1\n10,0,0\n", "F:2: column 'f2' has non-binary cell ''"),
        ("f1,f2,y\n1,0,1\n10,,0\n", "F:3: column 'f1' has non-binary cell '10'"),
        ("y,f1,f2\n1,1,0\n0,0,\u00e9\n", "F:3: column 'f2' has non-binary cell '\u00e9'"),
        ('f1,y\n1,"a\nb"\n2,0\n', "F:3: column 'f1' has non-binary cell '2'"),
        ("f1,y\n", "F: no data rows"),
        ("", "F: empty file"),
        ("f1,y\n1,1\n0,b\n1,c\n", "F: more than two label tokens: ['1', 'b', 'c']"),
        ("f1,y\n1,0\n0,0\n", "F: positive token '1' never occurs"),
    ])
    def test_first_error_in_file_order(self, tmp_path, text, message):
        assert self._error(tmp_path, text) == message

    def test_reader_error_after_a_bad_line(self, tmp_path):
        # csv.reader fails on line 3, after line 2's bad cell
        huge = "1," + "x" * 200_000 + "\n"
        assert self._error(tmp_path, "f1,y\n2,1\n" + huge) == \
            "F:2: column 'f1' has non-binary cell '2'"
        with pytest.raises(csv.Error):
            load_csv(self._write(tmp_path, "f1,y\n1,1\n" + huge), "y", "1")

    def test_quoted_cells(self, tmp_path):
        ds = load_csv(self._write(tmp_path, 'f1,f2,y\n"0",1,"a,b"\n1,"1",c\n'), "y", "a,b")
        assert ds.X.tolist() == [[0, 1], [1, 1]] and ds.y.tolist() == [1, -1]

    @pytest.mark.parametrize("text, y", [("f1,y\n1,a\n0,b\n1,a\n", [1, -1, 1]),
                                         ("f1,y\n1,a\n0,a\n", [1, 1])])
    def test_one_or_two_label_tokens(self, tmp_path, text, y):
        ds = load_csv(self._write(tmp_path, text), "y", "a")
        assert ds.y.tolist() == y


def _csv_outcome(reader, path, positive):
    try:
        ds = reader(path, "y", positive)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)
    return ds.feature_names, ds.X.dtype, ds.X.tolist(), ds.y.dtype, ds.y.tolist()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["f1,f2,y\n", "y,f1\n", "f1,y,f2\n", ""]),
       st.text(alphabet='01,"a\n\r', max_size=40),
       st.sampled_from(["1", "0", "a"]),
       st.sampled_from([1, 2, 3, 4096]))
def test_load_csv_matches_reference(header, body, positive, block):
    # small blocks put block boundaries between the rows of these texts
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data, "_CSV_BLOCK", block):
        path = Path(tmp) / "d.csv"
        path.write_bytes((header + body).encode("utf-8"))
        assert _csv_outcome(load_csv, path, positive) == \
            _csv_outcome(reference_load_csv, path, positive)


class TestBinarize:
    def test_age_bands(self):
        ages = [17, 22, 45]
        rules = [BandRule("age", None, 17), BandRule("age", 18, 24), BandRule("age", 40, None)]
        cols = binarize_continuous(ages, rules)
        got = np.stack([c for _, c in cols], axis=1)
        assert np.array_equal(got, np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert [s.name for s, _ in cols] == ["age<=17", "age_18_to_24", "age>=40"]

    def test_threshold_rule(self):
        cols = binarize_continuous([0, 5, 7], [ThresholdRule("arrests", ">=", 5)])
        assert list(cols[0][1]) == [0, 1, 1]
        assert cols[0][0].name == "arrests>=5"

    def test_partition_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        ages = rng.integers(14, 80, size=200)
        rules = [BandRule("age", None, 17), BandRule("age", 18, 24),
                 BandRule("age", 25, 29), BandRule("age", 30, 39), BandRule("age", 40, None)]
        cols = np.stack([c for _, c in binarize_continuous(ages, rules)], axis=1)
        assert np.array_equal(cols.sum(axis=1), np.ones(200))

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            binarize_continuous([1.0, float("nan")], [ThresholdRule("v", ">=", 1)])

    def test_overlapping_bands_rejected(self):
        with pytest.raises(DataError):
            binarize_continuous([1.0], [BandRule("v", None, 20), BandRule("v", 18, 24)])


class TestAggregate:
    def test_counts_and_conflicts(self):
        ds = small_dataset([((1, 0), 1)] * 3 + [((1, 0), -1)] + [((0, 1), -1)] * 2)
        agg = aggregate(ds)
        assert agg.n_pos_patterns == 1 and agg.n_neg_patterns == 2
        assert int(agg.pos_counts[0]) == 3
        assert sorted(agg.neg_counts.tolist()) == [1, 2]
        assert agg.conflict_pairs.shape == (1, 2)
        s, t = agg.conflict_pairs[0]
        assert np.array_equal(agg.pos_patterns[s], agg.neg_patterns[t])

    def test_all_distinct_rows(self):
        ds = small_dataset([((0, 0), 1), ((0, 1), 1), ((1, 0), -1), ((1, 1), -1)])
        agg = aggregate(ds)
        assert agg.n_pos_patterns + agg.n_neg_patterns == ds.n
        assert agg.conflict_pairs.shape == (0, 2)

    def test_round_trip_multiset(self):
        rng = np.random.default_rng(11)
        X = (rng.random((60, 3)) < 0.5).astype(np.uint8)
        y = np.where(rng.random(60) < 0.5, 1, -1).astype(np.int8)
        ds = small_dataset(list(zip(map(tuple, X.tolist()), y.tolist())))
        back = expand(aggregate(ds))
        orig = sorted((tuple(r), int(l)) for r, l in zip(ds.X, ds.y))
        rebuilt = sorted((tuple(r), int(l)) for r, l in zip(back.X, back.y))
        assert orig == rebuilt

    def test_pattern_loss_equals_row_loss(self):
        # aggregated evaluation must agree with a naive per-row evaluation
        from intscore.model import ScoringSystem, objective, PenaltyConfig, LatticeSpec

        rng = np.random.default_rng(5)
        X = (rng.random((500, 6)) < 0.4).astype(np.uint8)
        y = np.where(rng.random(500) < 0.5, 1, -1).astype(np.int8)
        ds = small_dataset(list(zip(map(tuple, X.tolist()), y.tolist())))
        agg = aggregate(ds)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, LatticeSpec(3, 10))
        for _ in range(10):
            coefs = rng.integers(-3, 4, size=6)
            lam0 = int(rng.integers(-5, 6))
            model = ScoringSystem.from_dense(lam0, coefs, ds.feature_names)
            got = objective(model, agg, cfg).weighted_error
            want = row_weighted_error(lam0, coefs.tolist(), X.tolist(), y.tolist(),
                                      cfg.w_plus, cfg.w_minus)
            assert got == want


def _unique_reference(pos_rows, pos_counts, neg_rows, neg_counts):
    """aggregate_counts by np.unique(axis=0) on the rows and a dict of
    patterns for the conflict pairs."""
    def distinct(rows, counts):
        if len(rows) == 0:
            return np.empty((0, rows.shape[1]), dtype=np.uint8), np.empty(0, dtype=np.int64)
        pats, inverse = np.unique(rows, axis=0, return_inverse=True)
        return pats, np.bincount(inverse.ravel(), weights=counts,
                                 minlength=len(pats)).astype(np.int64)

    pos_p, pos_c = distinct(pos_rows, pos_counts)
    neg_p, neg_c = distinct(neg_rows, neg_counts)
    where = {tuple(r): t for t, r in enumerate(neg_p.tolist())}
    pairs = [(s, where[tuple(r)]) for s, r in enumerate(pos_p.tolist()) if tuple(r) in where]
    return pos_p, pos_c, neg_p, neg_c, np.array(pairs, dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("width", [0, 1, 7, 48, 64, 65, 130])
@pytest.mark.parametrize("sizes", [(40, 30), (25, 0), (0, 25), (1, 1)])
def test_aggregate_counts_matches_unique(width, sizes):
    rng = np.random.default_rng(width * 100 + sum(sizes))
    # rows drawn from a small pool, so patterns repeat and occur in both classes
    pool = (rng.random((12, width)) < 0.5).astype(np.uint8)
    pool[1, :] = 1
    rows = [pool[rng.integers(0, len(pool), size)] for size in sizes]
    counts = [rng.integers(1, 5, size) for size in sizes]
    agg = aggregate_counts(rows[0], counts[0], rows[1], counts[1], int(sum(map(sum, counts))))
    want = _unique_reference(rows[0], counts[0], rows[1], counts[1])
    got = (agg.pos_patterns, agg.pos_counts, agg.neg_patterns, agg.neg_counts,
           agg.conflict_pairs)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
    if sizes == (40, 30):
        assert len(agg.conflict_pairs) > 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.tuples(*[st.integers(0, 1)] * 3), st.sampled_from([-1, 1])),
                min_size=1, max_size=40))
def test_aggregation_round_trip_property(rows):
    ds = small_dataset(rows)
    agg = aggregate(ds)
    assert int(agg.pos_counts.sum()) == ds.n_positive
    assert int(agg.neg_counts.sum()) == ds.n_negative
    back = expand(agg)
    assert sorted((tuple(r), int(l)) for r, l in zip(ds.X, ds.y)) == \
        sorted((tuple(r), int(l)) for r, l in zip(back.X, back.y))


class TestFolds:
    def test_balanced_thirty(self):
        ds = small_dataset([((1,), 1)] * 15 + [((0,), -1)] * 15)
        fa = make_folds(ds, seed=7, test_ratio=Fraction(1, 3))
        assert int(fa.test_mask.sum()) == 10
        assert int((fa.test_mask & (ds.y == 1)).sum()) == 5
        train = ~fa.test_mask
        sizes = [int((fa.cv_fold == k).sum()) for k in range(5)]
        assert sizes == [4] * 5
        assert np.all(fa.cv_fold[train] >= 0)
        assert np.all(fa.cv_fold[fa.test_mask] == -1)

    def test_deterministic(self):
        ds = small_dataset([((1,), 1)] * 20 + [((0,), -1)] * 25)
        a = make_folds(ds, seed=3)
        b = make_folds(ds, seed=3)
        assert np.array_equal(a.test_mask, b.test_mask)
        assert np.array_equal(a.cv_fold, b.cv_fold)

    def test_large_split_size(self):
        n = 33796
        rng = np.random.default_rng(0)
        y = np.where(rng.random(n) < 0.59, 1, -1).astype(np.int8)
        X = np.ones((n, 1), dtype=np.uint8)
        ds = BinaryDataset((FeatureSpec("x1"),), X, y)
        fa = make_folds(ds, seed=1, test_ratio=Fraction(1, 3))
        assert int(fa.test_mask.sum()) in (11265, 11266)

    def test_stratification_within_one_row(self):
        ds = small_dataset([((1,), 1)] * 12 + [((0,), -1)] * 33)
        fa = make_folds(ds, seed=5)
        pos = ds.y == 1
        for k in range(5):
            m = fa.fold_valid_mask(k)
            # 8 training positives (12 minus 4 test) over 5 folds -> 1 or 2 per fold
            assert int((m & pos).sum()) in (1, 2)

    def test_fold_sizes_within_one(self):
        ds = small_dataset([((1,), 1)] * 13 + [((0,), -1)] * 30)
        fa = make_folds(ds, seed=2)
        sizes = [int((fa.cv_fold == k).sum()) for k in range(5)]
        assert max(sizes) - min(sizes) <= 1

    def test_class_smaller_than_folds(self):
        ds = small_dataset([((1,), 1)] * 4 + [((0,), -1)] * 30)
        with pytest.raises(DataError):
            make_folds(ds, seed=0, test_ratio=Fraction(1, 3))

    @pytest.mark.parametrize("n_folds", [-1, 0, 1])
    def test_fewer_than_two_folds_rejected(self, n_folds):
        ds = small_dataset([((1,), 1)] * 15 + [((0,), -1)] * 15)
        with pytest.raises(DataError, match="at least 2 folds"):
            make_folds(ds, seed=0, n_folds=n_folds)

    def test_more_folds_than_int8_holds_rejected(self):
        ds = small_dataset([((1,), 1)] * 300 + [((0,), -1)] * 300)
        with pytest.raises(DataError, match="at most 127"):
            make_folds(ds, seed=0, n_folds=200)
        fa = make_folds(ds, seed=0, n_folds=127)
        assert sorted(set(fa.cv_fold.tolist())) == list(range(-1, 127))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda tm, cf: (tm, np.where(cf == 4, 7, cf), 5), "fold ids in 0..4"),
        (lambda tm, cf: (tm, np.where(cf == 4, -2, cf), 5), "fold ids in 0..4"),
        (lambda tm, cf: (tm[:10], cf, 5), "one length"),
        (lambda tm, cf: (tm, np.where(tm, 0, cf), 5), "-1 exactly on the test rows"),
        (lambda tm, cf: (tm, np.where(cf == -1, 2, np.where(cf == 2, -1, cf)), 5),
         "-1 exactly on the test rows"),
        (lambda tm, cf: (tm, np.where(cf == 4, 3, cf), 5), "every fold"),
        (lambda tm, cf: (tm, cf, 1), "at least 2 folds"),
        (lambda tm, cf: (tm, cf, 128), "at most 127"),
    ], ids=["id-beyond-n-folds", "negative-id", "length-mismatch", "fold-on-test-row",
            "train-row-marked-test", "merged-fold", "one-fold", "too-many-folds"])
    def test_inconsistent_assignment_rejected(self, corrupt, message):
        # an assignment a sweep would fail on late or misread is refused
        # when it is made
        ds = small_dataset([((1,), 1)] * 300 + [((0,), -1)] * 300)
        fa = make_folds(ds, seed=4)
        test_mask, cv_fold, n_folds = corrupt(fa.test_mask, fa.cv_fold.astype(np.int64))
        with pytest.raises(DataError, match=message):
            FoldAssignment(test_mask, cv_fold, fa.seed, fa.test_ratio, n_folds)

    def test_json_round_trip(self):
        ds = small_dataset([((1,), 1)] * 10 + [((0,), -1)] * 20)
        fa = make_folds(ds, seed=9)
        back = FoldAssignment.from_json(fa.to_json())
        assert np.array_equal(back.test_mask, fa.test_mask)
        assert np.array_equal(back.cv_fold, fa.cv_fold)
        assert back.seed == fa.seed and back.test_ratio == fa.test_ratio


class TestConditionalProbabilities:
    def test_half(self):
        ds = small_dataset([((1,), 1), ((1,), -1)])
        assert conditional_probabilities(ds)["x1"] == Fraction(1, 2)

    def test_never_active_flagged(self):
        ds = small_dataset([((0, 1), 1), ((0, 1), -1)])
        table = conditional_probabilities(ds)
        assert table["x1"] is None
        assert table["x2"] == Fraction(1, 2)

    def test_matches_generator(self):
        # P(y=+1 | x1=1) engineered near 0.83 via a strong logistic weight
        ds = synth_generate([0.5, 0.5], [2.48, 0.0], n=10_000, seed=42, bias=-0.9)
        est = conditional_probabilities(ds)["x1"]
        assert abs(float(est) - 0.83) < 0.03


class TestSynth:
    def test_symmetric_prevalence(self):
        ds = synth_generate([0.5] * 3, [0.0] * 3, n=10_000, seed=1, bias=0.0)
        assert abs(ds.n_positive / ds.n - 0.5) < 0.02

    def test_marginal_fidelity(self):
        ds = synth_generate([0.06], [0.0], n=10_000, seed=2, names=["female"])
        freq = float(ds.X[:, 0].mean())
        assert abs(freq - 0.06) < 0.01

    def test_target_prevalence(self):
        # bias = logit(0.59) with zero weights pins P(y=+1) at 59%
        ds = synth_generate([0.5] * 4, [0.0] * 4, n=10_000, seed=3, bias=0.36397)
        assert abs(ds.n_positive / ds.n - 0.59) < 0.02

    def test_deterministic(self):
        a = synth_generate([0.3, 0.7], [1.0, -1.0], n=50, seed=11)
        b = synth_generate([0.3, 0.7], [1.0, -1.0], n=50, seed=11)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_bad_marginal(self):
        with pytest.raises(DataError):
            synth_generate([0.0], [0.0], n=10, seed=0)
