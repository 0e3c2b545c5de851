"""Integer scoring-system model: lattice, penalties, objective.

Score convention: score(x) = intercept + sum_j coef_j * x_j. A pattern is
predicted +1 exactly when its integer score is >= 1, so positives carry a
margin of 1 and negatives a margin of 0. The training objective is

    (W+/N) * sum_pos_wrong + (W-/N) * sum_neg_wrong
        + c0 * (# nonzero coefficients) + epsilon * (sum of |coefficients|),

with the intercept excluded from both penalty terms. All objective
arithmetic is exact rational; no floats touch optimality decisions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .common import as_fraction, frac_str
from .data import AggregatedDataset


@dataclass(frozen=True)
class LatticeSpec:
    """Finite coefficient set: |coef_j| <= coef bound, |intercept| <= intercept_bound.

    coef_bound may be a single int applied to every feature or a per-feature
    sequence.
    """

    coef_bound: object = 10
    intercept_bound: int = 100

    def __post_init__(self):
        # both bounds are stored as Python ints, so they serialize as JSON
        if isinstance(self.coef_bound, (int, np.integer)):
            bounds = int(self.coef_bound)
            if bounds < 1:
                raise ValueError("coefficient bound must be >= 1")
        else:
            bounds = tuple(int(b) for b in self.coef_bound)
            if not bounds or any(b < 1 for b in bounds):
                raise ValueError("all coefficient bounds must be >= 1")
        object.__setattr__(self, "coef_bound", bounds)
        object.__setattr__(self, "intercept_bound", int(self.intercept_bound))
        if self.intercept_bound < 1:
            raise ValueError("intercept bound must be >= 1")

    def bounds_for(self, p: int) -> np.ndarray:
        """Per-feature bound vector of length p."""
        if isinstance(self.coef_bound, int):
            return np.full(p, int(self.coef_bound), dtype=np.int64)
        if len(self.coef_bound) != p:
            raise ValueError(f"lattice has {len(self.coef_bound)} bounds, dataset has {p} features")
        return np.array(self.coef_bound, dtype=np.int64)

    def max_l1(self, p: int) -> int:
        """Largest possible sum of |coef_j| over the lattice."""
        return int(self.bounds_for(p).sum())

    def to_json(self) -> dict:
        cb = self.coef_bound if isinstance(self.coef_bound, int) else list(self.coef_bound)
        return {"coef_bound": cb, "intercept_bound": self.intercept_bound}

    @staticmethod
    def from_json(doc: dict) -> "LatticeSpec":
        """Inverse of to_json; a "margin" key written by older versions is ignored."""
        cb = doc["coef_bound"]
        cb = cb if isinstance(cb, int) else tuple(cb)
        return LatticeSpec(cb, doc["intercept_bound"])


def derive_c0_bound(w_plus, w_minus, n: int, p: int) -> Fraction:
    """Largest sparsity penalty that never trades accuracy for sparsity:
    min(W+, W-) / (N * P). Valid c0 values are strictly below this."""
    wp, wm = as_fraction(w_plus), as_fraction(w_minus)
    if wp < 0 or wm < 0:
        raise ValueError("class weights must be nonnegative")
    if wp == 0 and wm == 0:
        raise ValueError("class weights cannot both be zero")
    if n < 1 or p < 1:
        raise ValueError("n and p must be >= 1")
    return min(wp, wm) / (n * p)


def derive_epsilon_bound(c0, n: int, lattice: LatticeSpec, p: int) -> Fraction:
    """Largest coefficient-magnitude penalty that only breaks ties toward
    coprime coefficients: min(1/N, c0) / max-lattice-l1. Valid epsilon
    values are strictly below this."""
    c0 = as_fraction(c0)
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    return min(Fraction(1, n), c0) / lattice.max_l1(p)


def weight_quantum(w_plus, w_minus) -> Fraction:
    """Smallest positive weighted-misclassification-count difference, i.e.
    the gcd of the class weights as rationals.

    The smallest change in N * weighted_error between two models is this
    quantum, which can undercut min(W+, W-) at asymmetric weights (for
    example gcd(4/5, 6/5) = 2/5 < 4/5). Deriving c0 from the quantum keeps
    a sparsity saving strictly cheaper than any accuracy loss.
    """
    a, b = as_fraction(w_plus), as_fraction(w_minus)
    if a == 0:
        return b
    if b == 0:
        return a
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return Fraction(math.gcd(int(a * den), int(b * den)), den)


@dataclass(frozen=True)
class PenaltyConfig:
    """Class weights and sparsity penalties for one training run."""

    w_plus: Fraction
    w_minus: Fraction
    c0: Fraction
    epsilon: Fraction
    max_terms: int = 8

    def __post_init__(self):
        wp, wm = as_fraction(self.w_plus), as_fraction(self.w_minus)
        c0, eps = as_fraction(self.c0), as_fraction(self.epsilon)
        if wp < 0 or wm < 0:
            raise ValueError("class weights must be nonnegative")
        if wp + wm != 2:
            raise ValueError(f"class weights must sum to 2, got {wp} + {wm}")
        if c0 <= 0 or eps <= 0:
            raise ValueError("c0 and epsilon must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        for name, val in (("w_plus", wp), ("w_minus", wm), ("c0", c0), ("epsilon", eps)):
            object.__setattr__(self, name, val)

    def validate_for(self, n: int, p: int, lattice: LatticeSpec) -> None:
        """Check the penalties against the closed-form validity bounds."""
        c0_cap = derive_c0_bound(self.w_plus, self.w_minus, n, p)
        if not self.c0 < c0_cap:
            raise ValueError(f"c0={self.c0} must be below {c0_cap} for N={n}, P={p}")
        eps_cap = derive_epsilon_bound(self.c0, n, lattice, p)
        if not self.epsilon < eps_cap:
            raise ValueError(f"epsilon={self.epsilon} must be below {eps_cap}")

    @staticmethod
    def auto(w_plus, n: int, p: int, lattice: LatticeSpec,
             max_terms: int = 8) -> "PenaltyConfig":
        """Penalties for a given positive-class weight (w_minus = 2 - w_plus).

        c0 is set to half the weight quantum over N*P, which sits strictly
        below the closed-form cap and guarantees the strict priority order
        accuracy > sparsity > coefficient magnitude at any rational weights.
        """
        wp = as_fraction(w_plus)
        wm = 2 - wp
        c0 = weight_quantum(wp, wm) / (2 * n * p)
        eps = derive_epsilon_bound(c0, n, lattice, p) / 2
        return PenaltyConfig(wp, wm, c0, eps, max_terms)

    def to_json(self) -> dict:
        return {"w_plus": frac_str(self.w_plus), "w_minus": frac_str(self.w_minus),
                "c0": frac_str(self.c0), "epsilon": frac_str(self.epsilon),
                "max_terms": self.max_terms}

    @staticmethod
    def from_json(doc: dict) -> "PenaltyConfig":
        return PenaltyConfig(as_fraction(doc["w_plus"]), as_fraction(doc["w_minus"]),
                             as_fraction(doc["c0"]), as_fraction(doc["epsilon"]),
                             int(doc["max_terms"]))


@dataclass(frozen=True)
class ScoringSystem:
    """A points table: integer intercept plus sparse nonzero integer terms.

    terms maps 0-based feature index -> nonzero coefficient; term_names
    carries the matching feature names for presentation.
    """

    intercept: int
    terms: tuple  # ((index, coef), ...) sorted by index
    term_names: tuple
    n_features: int

    def __post_init__(self):
        terms = tuple(sorted((int(j), int(c)) for j, c in self.terms))
        if any(c == 0 for _, c in terms):
            raise ValueError("terms must have nonzero coefficients")
        idxs = [j for j, _ in terms]
        if len(set(idxs)) != len(idxs):
            raise ValueError("duplicate term index")
        if idxs and (idxs[0] < 0 or idxs[-1] >= self.n_features):
            raise ValueError("term index out of range")
        if len(self.term_names) != len(terms):
            raise ValueError("term_names must match terms")
        object.__setattr__(self, "intercept", int(self.intercept))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "term_names", tuple(str(s) for s in self.term_names))

    @staticmethod
    def from_dense(intercept: int, coefs: Sequence[int], feature_names) -> "ScoringSystem":
        coefs = list(int(c) for c in coefs)
        terms = [(j, c) for j, c in enumerate(coefs) if c != 0]
        names = [feature_names[j] for j, _ in terms]
        return ScoringSystem(intercept, tuple(terms), tuple(names), len(coefs))

    def coef_vector(self) -> np.ndarray:
        v = np.zeros(self.n_features, dtype=np.int64)
        for j, c in self.terms:
            v[j] = c
        return v

    @property
    def l0(self) -> int:
        return len(self.terms)

    @property
    def l1(self) -> int:
        return sum(abs(c) for _, c in self.terms)

    def key(self) -> tuple:
        """Canonical identity of the coefficient vector, used for
        de-duplication and lexicographic tie-breaking."""
        return (self.intercept,) + self.terms

    def score(self, pattern) -> int:
        """Exact integer score of one 0/1 pattern."""
        pattern = np.asarray(pattern)
        if pattern.shape != (self.n_features,):
            raise ValueError(
                f"pattern has length {pattern.shape}, model expects {self.n_features}")
        total = self.intercept
        for j, c in self.terms:
            total += c * int(pattern[j])
        return total

    def predict(self, pattern) -> int:
        """+1 when score >= 1, else -1."""
        return 1 if self.score(pattern) >= 1 else -1

    def scores(self, X: np.ndarray) -> np.ndarray:
        """Vectorized scores for an (n, p) 0/1 matrix."""
        if X.shape[1] != self.n_features:
            raise ValueError(f"matrix has {X.shape[1]} columns, model expects {self.n_features}")
        total = np.full(X.shape[0], self.intercept, dtype=np.int64)
        for j, c in self.terms:
            total += c * X[:, j].astype(np.int64)
        return total

    def predictions(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.scores(X) >= 1, 1, -1).astype(np.int8)

    def validate_lattice(self, lattice: LatticeSpec, max_terms: Optional[int] = None) -> None:
        bounds = lattice.bounds_for(self.n_features)
        if abs(self.intercept) > lattice.intercept_bound:
            raise ValueError("intercept outside the lattice")
        for j, c in self.terms:
            if abs(c) > bounds[j]:
                raise ValueError(f"coefficient {c} for feature {j} outside the lattice")
        if max_terms is not None and self.l0 > max_terms:
            raise ValueError(f"model has {self.l0} terms, cap is {max_terms}")

    def to_json(self, lattice: Optional[LatticeSpec] = None,
                config: Optional[PenaltyConfig] = None,
                provenance: Optional[dict] = None) -> str:
        doc = {
            "intercept": self.intercept,
            "terms": [{"feature": nm, "index": j, "points": c}
                      for (j, c), nm in zip(self.terms, self.term_names)],
            "n_features": self.n_features,
        }
        if lattice is not None:
            doc["lattice"] = lattice.to_json()
        if config is not None:
            doc["config"] = config.to_json()
        if provenance is not None:
            doc["provenance"] = provenance
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def from_json(text: str) -> "ScoringSystem":
        doc = json.loads(text)
        terms = tuple((t["index"], t["points"]) for t in doc["terms"])
        names = tuple(t["feature"] for t in doc["terms"])
        return ScoringSystem(doc["intercept"], terms, names, doc["n_features"])


@dataclass(frozen=True)
class ObjectiveValue:
    """Exact decomposition of the training objective."""

    weighted_error: Fraction
    l0_count: int
    l1_sum: int
    total: Fraction

    @staticmethod
    def build(weighted_error: Fraction, l0_count: int, l1_sum: int,
              cfg: PenaltyConfig) -> "ObjectiveValue":
        total = weighted_error + cfg.c0 * l0_count + cfg.epsilon * l1_sum
        return ObjectiveValue(weighted_error, l0_count, l1_sum, total)

    def to_json(self) -> dict:
        return {"weighted_error": frac_str(self.weighted_error),
                "l0_count": self.l0_count, "l1_sum": self.l1_sum,
                "total": frac_str(self.total)}


def weighted_error_counts(model: ScoringSystem, agg: AggregatedDataset) -> tuple:
    """(positive rows misclassified, negative rows misclassified), exact."""
    if agg.p != model.n_features:
        raise ValueError(f"dataset has {agg.p} features, model expects {model.n_features}")
    pos_wrong = 0
    if agg.n_pos_patterns:
        s = model.scores(agg.pos_patterns)
        pos_wrong = int(agg.pos_counts[s <= 0].sum())
    neg_wrong = 0
    if agg.n_neg_patterns:
        s = model.scores(agg.neg_patterns)
        neg_wrong = int(agg.neg_counts[s >= 1].sum())
    return pos_wrong, neg_wrong


def objective(model: ScoringSystem, agg: AggregatedDataset,
              cfg: PenaltyConfig) -> ObjectiveValue:
    """Exact objective of a model on aggregated data."""
    pos_wrong, neg_wrong = weighted_error_counts(model, agg)
    n = agg.source_n
    werr = cfg.w_plus * Fraction(pos_wrong, n) + cfg.w_minus * Fraction(neg_wrong, n)
    return ObjectiveValue.build(werr, model.l0, model.l1, cfg)


def big_m_loss(pattern, label, lattice: LatticeSpec):
    """Tightest loss-activation constant for one pattern in the aggregated
    formulation: margin + intercept bound + sum of bounds over active
    features, where the margin is 1 for positives and 0 for negatives.

    Given an (n, p) matrix of patterns, and a label or a vector of n labels,
    returns the n constants as an array."""
    pattern = np.asarray(pattern)
    if pattern.max(initial=0) > 1 or pattern.min(initial=0) < 0:
        raise ValueError("pattern must be 0/1")
    bounds = lattice.bounds_for(pattern.shape[-1])
    big_m = lattice.intercept_bound + (pattern == 1) @ bounds + (np.asarray(label) == 1)
    return int(big_m) if pattern.ndim == 1 else big_m


def trivial_model(p: int, positive: bool) -> ScoringSystem:
    """The constant classifier: intercept 1 (always +1) or 0 (always -1)."""
    return ScoringSystem(1 if positive else 0, (), (), p)
