"""Binary classification datasets: ingestion, binarization, aggregation, splits.

Datasets are immutable once built. Feature matrices are 0/1 uint8 arrays,
labels are -1/+1 int8 vectors.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, repeat
from typing import Optional, Sequence

import numpy as np

from .common import as_fraction, frac_str


class DataError(ValueError):
    """Malformed input data (bad cell, bad header, bad rule)."""


# ---------------------------------------------------------------------------
# feature specs and binarization rules
# ---------------------------------------------------------------------------

_COMPARATORS = {"<=", ">=", "<", ">"}


@dataclass(frozen=True)
class ThresholdRule:
    """Single-cut rule: active when `source <comparator> value`."""

    source: str
    comparator: str
    value: float

    def __post_init__(self):
        if self.comparator not in _COMPARATORS:
            raise DataError(f"unknown comparator {self.comparator!r}")
        if not math.isfinite(self.value):
            raise DataError("threshold cut must be finite")

    def matches(self, x: np.ndarray) -> np.ndarray:
        if self.comparator == "<=":
            return x <= self.value
        if self.comparator == ">=":
            return x >= self.value
        if self.comparator == "<":
            return x < self.value
        return x > self.value

    def label(self) -> str:
        v = format(self.value, "g")
        return f"{self.source}{self.comparator}{v}"


@dataclass(frozen=True)
class BandRule:
    """Closed-interval rule: active when low <= source <= high.

    Either endpoint may be None (unbounded side).
    """

    source: str
    low: Optional[float]
    high: Optional[float]

    def __post_init__(self):
        if self.low is None and self.high is None:
            raise DataError("band rule needs at least one finite endpoint")
        for v in (self.low, self.high):
            if v is not None and not math.isfinite(v):
                raise DataError("band endpoints must be finite or None")
        if self.low is not None and self.high is not None and self.low > self.high:
            raise DataError(f"empty band [{self.low}, {self.high}]")

    def matches(self, x: np.ndarray) -> np.ndarray:
        ok = np.ones(len(x), dtype=bool)
        if self.low is not None:
            ok &= x >= self.low
        if self.high is not None:
            ok &= x <= self.high
        return ok

    def overlaps(self, other: "BandRule") -> bool:
        a_lo = -math.inf if self.low is None else self.low
        a_hi = math.inf if self.high is None else self.high
        b_lo = -math.inf if other.low is None else other.low
        b_hi = math.inf if other.high is None else other.high
        return max(a_lo, b_lo) <= min(a_hi, b_hi)

    def label(self) -> str:
        lo, hi = self.low, self.high
        if lo is None:
            return f"{self.source}<={format(hi, 'g')}"
        if hi is None:
            return f"{self.source}>={format(lo, 'g')}"
        return f"{self.source}_{format(lo, 'g')}_to_{format(hi, 'g')}"


@dataclass(frozen=True)
class FeatureSpec:
    """One binary input column: either native 0/1 or a thresholded encoding."""

    name: str
    kind: str = "binary"  # "binary" | "thresholded-continuous"
    rule: Optional[object] = None  # ThresholdRule | BandRule for thresholded kind

    def __post_init__(self):
        if not self.name:
            raise DataError("feature name must be non-empty")
        if self.kind not in ("binary", "thresholded-continuous"):
            raise DataError(f"unknown feature kind {self.kind!r}")
        if self.kind == "thresholded-continuous" and self.rule is None:
            raise DataError(f"feature {self.name!r} needs a threshold rule")

    def to_json(self) -> dict:
        doc = {"name": self.name, "kind": self.kind}
        if isinstance(self.rule, ThresholdRule):
            doc["rule"] = {"source": self.rule.source,
                           "comparator": self.rule.comparator,
                           "value": self.rule.value}
        elif isinstance(self.rule, BandRule):
            doc["rule"] = {"source": self.rule.source,
                           "low": self.rule.low, "high": self.rule.high}
        return doc

    @staticmethod
    def from_json(doc: dict) -> "FeatureSpec":
        rule = None
        r = doc.get("rule")
        if r is not None:
            if "comparator" in r:
                rule = ThresholdRule(r["source"], r["comparator"], r["value"])
            else:
                rule = BandRule(r["source"], r["low"], r["high"])
        return FeatureSpec(doc["name"], doc.get("kind", "binary"), rule)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryDataset:
    """N x P matrix of 0/1 features plus a -1/+1 label vector."""

    features: tuple
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.uint8)
        y = np.ascontiguousarray(self.y, dtype=np.int8)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DataError("X must be a non-empty 2-D matrix")
        if y.shape != (X.shape[0],):
            raise DataError("label vector length must match the row count")
        if X.shape[1] != len(self.features):
            raise DataError("feature list length must match the column count")
        if X.max(initial=0) > 1:
            raise DataError("feature matrix entries must be 0 or 1")
        if not np.all(np.abs(y) == 1):
            raise DataError("labels must be -1 or +1")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", tuple(self.features))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def feature_names(self) -> tuple:
        return tuple(f.name for f in self.features)

    @property
    def n_positive(self) -> int:
        return int(np.sum(self.y == 1))

    @property
    def n_negative(self) -> int:
        return int(np.sum(self.y == -1))

    def subset(self, mask: np.ndarray) -> "BinaryDataset":
        """Row-filtered copy sharing the feature specs."""
        return BinaryDataset(self.features, self.X[mask], self.y[mask])


@dataclass(frozen=True)
class AggregatedDataset:
    """Distinct positive/negative patterns with multiplicities.

    conflict_pairs lists (positive-pattern index, negative-pattern index)
    for every pattern that occurs with both labels.

    set_counts is polish's memo of the rows' weight-free set-count
    matrices, built on first use and kept for every later solve on these
    rows, at any weight; it takes no part in construction, comparison or
    repr.
    """

    pos_patterns: np.ndarray
    pos_counts: np.ndarray
    neg_patterns: np.ndarray
    neg_counts: np.ndarray
    conflict_pairs: np.ndarray
    source_n: int
    set_counts: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("pos_patterns", "neg_patterns"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.uint8)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("pos_counts", "neg_counts"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        pairs = np.ascontiguousarray(self.conflict_pairs, dtype=np.int64).reshape(-1, 2)
        pairs.setflags(write=False)
        object.__setattr__(self, "conflict_pairs", pairs)
        total = int(self.pos_counts.sum()) + int(self.neg_counts.sum())
        if total != self.source_n:
            raise DataError("pattern counts must sum to the source row count")

    @property
    def p(self) -> int:
        return self.pos_patterns.shape[1] if self.pos_patterns.size else self.neg_patterns.shape[1]

    @property
    def n_pos_patterns(self) -> int:
        return self.pos_patterns.shape[0]

    @property
    def n_neg_patterns(self) -> int:
        return self.neg_patterns.shape[0]


def aggregate(dataset: BinaryDataset) -> AggregatedDataset:
    """Collapse repeated rows into distinct patterns per class and find
    the patterns that occur with both labels."""
    ones = np.ones(dataset.n, dtype=np.int64)
    pos, neg = dataset.y == 1, dataset.y == -1
    return aggregate_counts(dataset.X[pos], ones[pos], dataset.X[neg], ones[neg], dataset.n)


def aggregate_counts(pos_rows, pos_counts, neg_rows, neg_counts,
                     source_n: int) -> AggregatedDataset:
    """Aggregate 0/1 rows that carry multiplicities: the distinct patterns
    of each class in lexicographic order with their summed counts, and the
    patterns that occur with both labels.

    Rows are bit-packed into big-endian 64-bit words, which sort in the
    rows' lexicographic order."""
    width = pos_rows.shape[1]

    def distinct(rows, counts):
        # 8 columns to a byte, zero-padded to whole 64-bit words, at least one
        packed = np.zeros((len(rows), 8 * max(1, -(-width // 64))), dtype=np.uint8)
        packed[:, :-(-width // 8)] = np.packbits(rows, axis=1)
        keys = packed.view(">u8").astype(np.uint64)
        order, new = _sorted_keys(keys)
        first = order[new]
        summed = np.add.reduceat(np.asarray(counts, dtype=np.int64)[order], np.flatnonzero(new))
        return np.unpackbits(packed[first], axis=1, count=width), summed, keys[first]

    pos_p, pos_c, pos_k = distinct(pos_rows, pos_counts)
    neg_p, neg_c, neg_k = distinct(neg_rows, neg_counts)
    # the sort is stable, so a pattern of both classes is two equal keys,
    # the positive one first
    order, new = _sorted_keys(np.concatenate([pos_k, neg_k]))
    twin = np.flatnonzero(~new)
    pairs = np.stack([order[twin - 1], order[twin] - len(pos_k)], axis=1)
    return AggregatedDataset(pos_p, pos_c, neg_p, neg_c, pairs, source_n)


def _sorted_keys(keys: np.ndarray):
    """The stable order that sorts the rows of keys lexicographically, and
    whether each row in that order differs from the one before it."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, new


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

# rows checked at a time: the reader holds one block of cell lists, not the file
_CSV_BLOCK = 4096


def _first(flags: np.ndarray, default: int) -> int:
    """Index of the first true flag, or default."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if len(hits) else default


def _binary_rows(path, feat_names, label_idx: int, rows: list, line: int):
    """The 0/1 matrix and the label cells of rows read by csv.reader, the
    first of them from line `line`, or the DataError of the first bad row.

    Each row is checked in C (pop the label, join the feature cells, look
    for an empty cell), then every feature character in one numpy pass."""
    p = len(feat_names)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    n = _first(lengths != p + 1, len(rows))
    rows = rows[:n]  # the rows before the first wrong cell count
    labels = list(map(list.pop, rows, repeat(label_idx)))
    # a row of p one-character cells joins to p characters and has no empty
    # cell; '' and '10' also join to two
    joined = list(map("".join, rows))
    odd = (np.fromiter(map(len, joined), dtype=np.int64, count=n) != p) \
        | np.fromiter(map(list.__contains__, rows, repeat("")), dtype=bool, count=n)
    m = _first(odd, n)
    X = np.frombuffer("".join(joined[:m]).encode("ascii", "replace"), dtype=np.uint8) - 48
    bad = _first(X > 1, m * p) // p
    if bad < n:
        k, cell = next((k, c) for k, c in enumerate(rows[bad]) if c not in ("0", "1"))
        raise DataError(
            f"{path}:{line + bad}: column {feat_names[k]!r} has non-binary cell {cell!r}")
    if n < len(lengths):
        raise DataError(f"{path}:{line + n}: expected {p + 1} cells, got {lengths[n]}")
    return X.reshape(n, p), labels


def load_csv(path, label_column: str, positive_token: str) -> BinaryDataset:
    """Read a header-ed CSV of 0/1 cells plus one label column.

    Labels equal to positive_token map to +1; the single other observed
    token maps to -1.

    csv.reader is the only tokenizer, so quoting, line endings and encoding
    errors are its own. Its rows are checked a block at a time with array
    operations. The error raised is the first in file order: the lowest
    line, on it a wrong cell count before a bad cell, and the leftmost bad
    column; label errors come only after every row passes.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate column names in header")
        if label_column not in header:
            raise DataError(f"{path}: label column {label_column!r} not found")
        label_idx = header.index(label_column)
        feat_names = [h for h in header if h != label_column]
        if not feat_names:
            raise DataError(f"{path}: no feature columns")

        blocks, labels = [], []
        while True:
            rows, failure = [], None
            try:
                rows.extend(islice(reader, _CSV_BLOCK))
            except (csv.Error, UnicodeDecodeError, OSError) as exc:
                failure = exc  # raised after the rows read before it are checked
            X, block_labels = _binary_rows(path, feat_names, label_idx, rows, 2 + len(labels))
            blocks.append(X)
            labels += block_labels
            if failure is not None:
                raise failure
            if len(rows) < _CSV_BLOCK:
                break

    if not labels:
        raise DataError(f"{path}: no data rows")
    tokens = set(labels)
    if positive_token not in tokens:
        raise DataError(f"{path}: positive token {positive_token!r} never occurs")
    others = tokens - {positive_token}
    if len(others) > 1:
        raise DataError(f"{path}: more than two label tokens: {sorted(tokens)}")

    positive = np.fromiter(map(positive_token.__eq__, labels), dtype=bool, count=len(labels))
    features = tuple(FeatureSpec(name) for name in feat_names)
    return BinaryDataset(features, np.concatenate(blocks), np.where(positive, 1, -1))


def write_csv(dataset: BinaryDataset, path, label_column: str = "y",
              positive_token: str = "1", negative_token: str = "0") -> None:
    """Inverse of load_csv."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [label_column])
        for row, label in zip(dataset.X, dataset.y):
            writer.writerow([str(int(v)) for v in row]
                            + [positive_token if label == 1 else negative_token])


# ---------------------------------------------------------------------------
# binarization of continuous columns
# ---------------------------------------------------------------------------

def binarize_continuous(raw_column: Sequence[float], cuts: Sequence[object]):
    """Encode a numeric column as one binary indicator per cut rule.

    Band rules must be pairwise non-overlapping; when they also cover the
    observed values, each row activates exactly one band column.
    Returns a list of (FeatureSpec, uint8 column) pairs.
    """
    x = np.asarray(raw_column, dtype=float)
    if x.ndim != 1:
        raise DataError("raw column must be 1-D")
    if np.isnan(x).any():
        bad = int(np.flatnonzero(np.isnan(x))[0])
        raise DataError(f"NaN in input column at row {bad}")
    if not cuts:
        raise DataError("at least one cut rule is required")

    bands = [r for r in cuts if isinstance(r, BandRule)]
    for i in range(len(bands)):
        for j in range(i + 1, len(bands)):
            if bands[i].overlaps(bands[j]):
                raise DataError(
                    f"overlapping band rules {bands[i].label()!r} and {bands[j].label()!r}")

    out = []
    for rule in cuts:
        if not isinstance(rule, (ThresholdRule, BandRule)):
            raise DataError(f"unsupported cut rule {rule!r}")
        col = rule.matches(x).astype(np.uint8)
        spec = FeatureSpec(rule.label(), "thresholded-continuous", rule)
        out.append((spec, col))
    return out


# ---------------------------------------------------------------------------
# train/test split and cross-validation folds
# ---------------------------------------------------------------------------

def _check_n_folds(n_folds: int) -> None:
    if not 2 <= n_folds <= 127:  # fold ids are stored as int8
        raise DataError(f"cross-validation needs at least 2 folds and at most 127, "
                        f"not {n_folds}")


@dataclass(frozen=True)
class FoldAssignment:
    """Stratified test split plus a stratified k-fold partition of the rest.

    cv_fold is -1 on test rows and in {0..n_folds-1} on training rows, and
    every fold holds at least one training row.
    """

    test_mask: np.ndarray
    cv_fold: np.ndarray
    seed: int
    test_ratio: Fraction
    n_folds: int = 5

    def __post_init__(self):
        _check_n_folds(self.n_folds)
        tm = np.ascontiguousarray(self.test_mask, dtype=bool)
        cf = np.asarray(self.cv_fold)
        if tm.ndim != 1 or cf.shape != tm.shape:
            raise DataError(f"test_mask of shape {tm.shape} and cv_fold of shape "
                            f"{cf.shape} must be 1-D and of one length")
        if not np.array_equal(cf == -1, tm):
            raise DataError("cv_fold must be -1 exactly on the test rows")
        train = cf[~tm]
        if np.any((train < 0) | (train >= self.n_folds)):
            raise DataError(f"training rows need fold ids in 0..{self.n_folds - 1}")
        if not np.bincount(train, minlength=self.n_folds).all():
            raise DataError("every fold needs at least one training row")
        cf = np.ascontiguousarray(cf, dtype=np.int8)
        tm.setflags(write=False)
        cf.setflags(write=False)
        object.__setattr__(self, "test_mask", tm)
        object.__setattr__(self, "cv_fold", cf)

    @property
    def n(self) -> int:
        return len(self.test_mask)

    def train_mask(self) -> np.ndarray:
        return ~self.test_mask

    def fold_train_mask(self, fold: int) -> np.ndarray:
        return (~self.test_mask) & (self.cv_fold != fold)

    def fold_valid_mask(self, fold: int) -> np.ndarray:
        return self.cv_fold == fold

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "test_ratio": frac_str(self.test_ratio),
            "n_folds": self.n_folds,
            "test_indices": [int(i) for i in np.flatnonzero(self.test_mask)],
            "fold_of_row": [int(v) for v in self.cv_fold],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "FoldAssignment":
        doc = json.loads(text)
        fold = np.array(doc["fold_of_row"], dtype=np.int8)
        mask = np.zeros(len(fold), dtype=bool)
        mask[doc["test_indices"]] = True
        return FoldAssignment(mask, fold, int(doc["seed"]),
                              as_fraction(doc["test_ratio"]), int(doc["n_folds"]))


def make_folds(dataset: BinaryDataset, seed: int,
               test_ratio=Fraction(1, 3), n_folds: int = 5) -> FoldAssignment:
    """Deterministic stratified split: a test set of about N*test_ratio rows,
    then n_folds CV folds over the remaining rows, both preserving class
    proportions to within one row."""
    ratio = as_fraction(test_ratio)
    if not (0 < ratio < 1):
        raise DataError("test_ratio must be strictly between 0 and 1")
    _check_n_folds(n_folds)

    rng = np.random.default_rng(seed)
    y = dataset.y
    class_rows = [np.flatnonzero(y == 1), np.flatnonzero(y == -1)]

    # per-class test counts by largest remainder, totalling round(N * ratio)
    exact = [Fraction(len(rows)) * ratio for rows in class_rows]
    base = [int(e) for e in exact]
    total_target = int(Fraction(dataset.n) * ratio + Fraction(1, 2))
    order = sorted(range(len(exact)), key=lambda c: (exact[c] - base[c], c), reverse=True)
    deficit = total_target - sum(base)
    test_counts = list(base)
    for c in order[:max(deficit, 0)]:
        test_counts[c] += 1

    test_mask = np.zeros(dataset.n, dtype=bool)
    cv_fold = np.full(dataset.n, -1, dtype=np.int8)
    cursor = 0
    for rows, k in zip(class_rows, test_counts):
        perm = rng.permutation(rows)
        test_mask[perm[:k]] = True
        train_rows = perm[k:]
        if 0 < len(train_rows) < n_folds:
            raise DataError(
                f"a class has {len(train_rows)} training rows, fewer than {n_folds} folds")
        for r in train_rows:
            cv_fold[r] = cursor % n_folds
            cursor += 1
    return FoldAssignment(test_mask, cv_fold, seed, ratio, n_folds)


# ---------------------------------------------------------------------------
# descriptive statistics and synthetic data
# ---------------------------------------------------------------------------

def conditional_probabilities(dataset: BinaryDataset) -> dict:
    """P(y=+1 | x_j=1) per feature name; None where the feature never fires."""
    out = {}
    pos = dataset.y == 1
    for j, name in enumerate(dataset.feature_names):
        active = dataset.X[:, j] == 1
        denom = int(active.sum())
        if denom == 0:
            out[name] = None
        else:
            out[name] = Fraction(int((active & pos).sum()), denom)
    return out


def prevalence(dataset: BinaryDataset) -> Fraction:
    return Fraction(dataset.n_positive, dataset.n)


def synth_generate(marginals, weights, n: int, seed: int,
                   bias: float = 0.0, names=None) -> BinaryDataset:
    """Synthetic dataset: independent Bernoulli features with the given
    marginals, labels from a logistic model sigma(bias + w.x)."""
    marg = np.asarray(marginals, dtype=float)
    w = np.asarray(weights, dtype=float)
    if marg.ndim != 1 or w.shape != marg.shape:
        raise DataError("marginals and weights must be 1-D vectors of equal length")
    if np.any(marg <= 0) or np.any(marg >= 1):
        raise DataError("marginals must lie strictly inside (0, 1)")
    if n < 1:
        raise DataError("n must be at least 1")

    rng = np.random.default_rng(seed)
    X = (rng.random((n, len(marg))) < marg).astype(np.uint8)
    logits = bias + X @ w
    prob = 1.0 / (1.0 + np.exp(-logits))
    y = np.where(rng.random(n) < prob, 1, -1).astype(np.int8)
    if names is None:
        names = [f"x{j + 1}" for j in range(len(marg))]
    features = tuple(FeatureSpec(str(nm)) for nm in names)
    return BinaryDataset(features, X, y)
