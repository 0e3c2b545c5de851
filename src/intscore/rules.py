"""IF-THEN association rules for the positive outcome.

A rule's antecedent is one or two feature conditions (x_j = 1); the
consequent is always y = +1. Support is the empirical probability of
antecedent and outcome together, confidence the conditional probability of
the outcome given the antecedent, and lift the ratio of that confidence to
the outcome prevalence. Mining is exhaustive over antecedents up to size
two with the standard anti-monotonicity pruning: a pair is considered only
when both singletons meet the support threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np

from .common import as_fraction, frac_float
from .data import BinaryDataset


@dataclass(frozen=True)
class RuleMetrics:
    support: Fraction
    confidence: Optional[Fraction]  # None when the antecedent never fires
    lift: Optional[Fraction]

    @property
    def defined(self) -> bool:
        return self.confidence is not None


@dataclass(frozen=True)
class AssociationRule:
    antecedent: tuple       # 1 or 2 feature indices
    antecedent_names: tuple
    support: Fraction
    confidence: Fraction
    lift: Fraction

    def condition(self) -> str:
        return " AND ".join(self.antecedent_names)


def rule_metrics(dataset: BinaryDataset, antecedent) -> RuleMetrics:
    """Support, confidence and lift of (all antecedent features = 1) -> y=+1."""
    idx = tuple(int(j) for j in antecedent)
    if not idx:
        raise ValueError("antecedent must be nonempty")
    active = np.all(dataset.X[:, idx] == 1, axis=1)
    hits = int(active.sum())
    both = int((active & (dataset.y == 1)).sum())
    support = Fraction(both, dataset.n)
    if hits == 0:
        return RuleMetrics(support, None, None)
    confidence = Fraction(both, hits)
    prevalence = Fraction(dataset.n_positive, dataset.n)
    lift = confidence / prevalence if prevalence > 0 else None
    return RuleMetrics(support, confidence, lift)


def mine_rules(dataset: BinaryDataset, min_support, min_confidence,
               max_antecedent: int = 2):
    """All rules meeting both thresholds, sorted by descending lift, then
    confidence, then support, then antecedent indices."""
    min_support = as_fraction(min_support)
    min_confidence = as_fraction(min_confidence)
    if not (0 < min_support <= 1) or not (0 < min_confidence <= 1):
        raise ValueError("thresholds must lie in (0, 1]")
    if max_antecedent not in (1, 2):
        raise ValueError("antecedent size cap must be 1 or 2")

    names = dataset.feature_names
    singles = {}
    out = []
    for j in range(dataset.p):
        m = rule_metrics(dataset, (j,))
        singles[j] = m
        if m.defined and m.support >= min_support and m.confidence >= min_confidence:
            out.append(AssociationRule((j,), (names[j],), m.support,
                                       m.confidence, m.lift))

    if max_antecedent >= 2:
        # a pair can only reach the support threshold if both singletons do
        frequent = [j for j, m in singles.items() if m.support >= min_support]
        for a, b in combinations(frequent, 2):
            m = rule_metrics(dataset, (a, b))
            if m.defined and m.support >= min_support and m.confidence >= min_confidence:
                out.append(AssociationRule((a, b), (names[a], names[b]),
                                           m.support, m.confidence, m.lift))

    out.sort(key=lambda r: (-r.lift, -r.confidence, -r.support, r.antecedent))
    return out


def rules_csv(rules) -> str:
    """Table layout: rule condition, lift, support, confidence."""
    lines = ["rule,lift,support,confidence"]
    for r in rules:
        lines.append(f"\"{r.condition()}\",{frac_float(r.lift):.4f},"
                     f"{frac_float(r.support):.4f},{frac_float(r.confidence):.4f}")
    return "\n".join(lines) + "\n"

