"""Independent reference implementations used only to check the package.

Everything here is deliberately naive: plain Python loops and Fractions,
no shared code with the library's evaluation or search paths.
"""

from fractions import Fraction
from itertools import product


def row_weighted_error(intercept, coefs, X, y, w_plus, w_minus):
    """Weighted 0-1 loss computed row by row from first principles."""
    n = len(y)
    pos_wrong = 0
    neg_wrong = 0
    for row, label in zip(X, y):
        s = intercept + sum(c * int(v) for c, v in zip(coefs, row))
        if label == 1 and s <= 0:
            pos_wrong += 1
        elif label == -1 and s >= 1:
            neg_wrong += 1
    return Fraction(w_plus) * Fraction(pos_wrong, n) + Fraction(w_minus) * Fraction(neg_wrong, n)


def row_objective(intercept, coefs, X, y, cfg):
    """Full objective (loss + penalties) from the dense coefficient list."""
    loss = row_weighted_error(intercept, coefs, X, y, cfg.w_plus, cfg.w_minus)
    l0 = sum(1 for c in coefs if c != 0)
    l1 = sum(abs(c) for c in coefs)
    return loss + cfg.c0 * l0 + cfg.epsilon * l1


def enumerate_lattice(p, coef_bound, intercept_bound):
    """All (intercept, coefs) tuples, intercept varying slowest so the
    iteration order is lexicographic over (intercept, coef_1, ..., coef_p)."""
    coef_ranges = [range(-coef_bound, coef_bound + 1)] * p
    for lam0 in range(-intercept_bound, intercept_bound + 1):
        for coefs in product(*coef_ranges):
            yield lam0, coefs


def exhaustive_optimum(X, y, cfg, coef_bound, intercept_bound):
    """Global minimum of the full objective over the lattice; first model
    found wins ties, i.e. the lexicographically smallest optimum."""
    best = None
    best_model = None
    for lam0, coefs in enumerate_lattice(len(X[0]), coef_bound, intercept_bound):
        if sum(1 for c in coefs if c != 0) > cfg.max_terms:
            continue
        val = row_objective(lam0, coefs, X, y, cfg)
        if best is None or val < best:
            best = val
            best_model = (lam0, coefs)
    return best, best_model


def all_optimal_models(X, y, cfg, coef_bound, intercept_bound):
    """Every lattice model achieving the global optimum."""
    best, _ = exhaustive_optimum(X, y, cfg, coef_bound, intercept_bound)
    out = []
    for lam0, coefs in enumerate_lattice(len(X[0]), coef_bound, intercept_bound):
        if sum(1 for c in coefs if c != 0) > cfg.max_terms:
            continue
        if row_objective(lam0, coefs, X, y, cfg) == best:
            out.append((lam0, coefs))
    return best, out


def enumerate_rules(X, y, min_support, min_confidence, max_antecedent=2):
    """Brute-force one- and two-variable association rules for y=+1."""
    n = len(y)
    p = len(X[0])
    prev = Fraction(sum(1 for lab in y if lab == 1), n)
    singles = [(j,) for j in range(p)]
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    out = []
    for ant in singles + (pairs if max_antecedent >= 2 else []):
        hits = sum(1 for row in X if all(row[j] == 1 for j in ant))
        both = sum(1 for row, lab in zip(X, y)
                   if lab == 1 and all(row[j] == 1 for j in ant))
        if hits == 0:
            continue
        support = Fraction(both, n)
        confidence = Fraction(both, hits)
        lift = confidence / prev if prev > 0 else None
        if support >= Fraction(min_support) and confidence >= Fraction(min_confidence):
            out.append((ant, support, confidence, lift))
    return out


def restricted_optimum(X, y, w_plus, w_minus, support, coef_bound, intercept_bound):
    """Exhaustive optimum of the penalty-free restricted problem.

    Minimizes (loss, sum|coef|, coefficient tuple, (|intercept|, intercept))
    over all assignments to the support positions, everything else zero.
    """
    p = len(X[0])
    best_key = None
    best = None
    for coefs in product(*[range(-coef_bound, coef_bound + 1)] * len(support)):
        dense = [0] * p
        for j, c in zip(support, coefs):
            dense[j] = c
        for lam0 in range(-intercept_bound, intercept_bound + 1):
            loss = row_weighted_error(lam0, dense, X, y, w_plus, w_minus)
            key = (loss, sum(abs(c) for c in coefs), tuple(coefs), (abs(lam0), lam0))
            if best_key is None or key < best_key:
                best_key = key
                best = (lam0, tuple(dense))
    return best_key, best


def pattern_relaxation(coefs, intercept, agg, cfg, lattice):
    """Per-pattern interval relaxation of a node at a fixed intercept.

    coefs has one entry per feature, None for a free coefficient. Each free
    coefficient ranges over [-bound_j, bound_j] independently per pattern.
    A pattern counts as lost when its whole score interval violates its
    margin; a conflict pair not decided that way adds its cheaper side;
    penalties cover the fixed coefficients.
    """
    bounds = [int(b) for b in lattice.bounds_for(len(coefs))]
    n = agg.source_n

    def score_range(row):
        base, slack = intercept, 0
        for x, c, b in zip(row, coefs, bounds):
            if x and c is None:
                slack += b
            elif x:
                base += c
        return base - slack, base + slack

    pos_hi = [score_range(row)[1] for row in agg.pos_patterns.tolist()]
    neg_lo = [score_range(row)[0] for row in agg.neg_patterns.tolist()]
    pos_counts, neg_counts = agg.pos_counts.tolist(), agg.neg_counts.tolist()
    total = sum((cfg.c0 + cfg.epsilon * abs(c) for c in coefs if c), Fraction(0))
    for hi, count in zip(pos_hi, pos_counts):
        if hi <= 0:
            total += cfg.w_plus * Fraction(count, n)
    for lo, count in zip(neg_lo, neg_counts):
        if lo >= 1:
            total += cfg.w_minus * Fraction(count, n)
    for s, t in agg.conflict_pairs.tolist():
        if pos_hi[s] > 0 and neg_lo[t] < 1:
            total += min(cfg.w_plus * pos_counts[s], cfg.w_minus * neg_counts[t]) / n
    return total
