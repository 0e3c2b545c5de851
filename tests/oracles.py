"""Independent reference implementations used only to check the package.

Everything here is deliberately naive: plain Python loops and Fractions,
no shared code with the library's evaluation or search paths. Three
exceptions check batched code against per-node code built on the same
loss curves: per_leaf_greedy_seed drives the solver's own per-node
primitives, restricted_bound_units bounds one polish node at a time, and
per_node_polish is polish's search one node at a time.
_polished_pool and _best_at_k are model selection as first written, a
dedupe dict, a sort and a walk, over the library's own polish. expand and
filter_rules_any are helpers only the tests use: the inverse of aggregate,
and a post-filter of mined rules.
The readers and writers at the end are earlier, cell-by-cell versions of
the library's CSV reader and MPS writer, kept to pin their exact output.
"""

import csv
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from itertools import product

import numpy as np

from intscore.common import frac_float
from intscore.data import AggregatedDataset, BinaryDataset, DataError, FeatureSpec
from intscore.loss import curve_plan, least_loss, loss_curves
from intscore.model import LatticeSpec, ObjectiveValue, PenaltyConfig, ScoringSystem
from intscore.mps import VARIANTS, _loss_rows
from intscore.polish import polish


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


def _lattice_objectives(agg: AggregatedDataset, cfg: PenaltyConfig, lattice: LatticeSpec):
    """(total, (lam0, coefs, werr, l0, l1)) of every lattice model with at
    most max_terms terms, in ascending lexicographic order of (intercept,
    coef_1, ..., coef_P). Guarded to 10^7 lattice points."""
    p = agg.p
    bounds = lattice.bounds_for(p)
    size = 2 * lattice.intercept_bound + 1
    for b in bounds:
        size *= 2 * int(b) + 1
        if size > 10**7:
            raise ValueError("lattice too large for exhaustive enumeration")

    pos = agg.pos_patterns.astype(np.int64)
    neg = agg.neg_patterns.astype(np.int64)
    n = agg.source_n
    coef_ranges = [range(-int(b), int(b) + 1) for b in bounds]
    for lam0 in range(-lattice.intercept_bound, lattice.intercept_bound + 1):
        for coefs in product(*coef_ranges):
            l0 = sum(1 for c in coefs if c != 0)
            if l0 > cfg.max_terms:
                continue
            cvec = np.array(coefs, dtype=np.int64)
            pos_wrong = int(agg.pos_counts[(pos @ cvec + lam0) <= 0].sum()) if len(pos) else 0
            neg_wrong = int(agg.neg_counts[(neg @ cvec + lam0) >= 1].sum()) if len(neg) else 0
            werr = cfg.w_plus * Fraction(pos_wrong, n) + cfg.w_minus * Fraction(neg_wrong, n)
            l1 = sum(abs(c) for c in coefs)
            yield werr + cfg.c0 * l0 + cfg.epsilon * l1, (lam0, coefs, werr, l0, l1)


def brute_force_solve(agg: AggregatedDataset, cfg: PenaltyConfig,
                      lattice: LatticeSpec):
    """Exhaustive lattice enumeration; the reference answer for solve().

    Keeps strict improvements in _lattice_objectives' order, so ties
    resolve to the smallest (intercept, coefficients) tuple.
    """
    best_total, best = None, None
    for total, model in _lattice_objectives(agg, cfg, lattice):
        if best_total is None or total < best_total:
            best_total, best = total, model
    lam0, coefs, werr, l0, l1 = best
    model = ScoringSystem.from_dense(lam0, coefs, [f"f{j}" for j in range(agg.p)])
    return model, ObjectiveValue.build(werr, l0, l1, cfg)


def brute_force_frontier(agg: AggregatedDataset, cfg: PenaltyConfig, lattice: LatticeSpec):
    """The least objective with at most k terms, for k = 0 .. min(max_terms,
    P), by exhaustive lattice enumeration."""
    best = [None] * (min(cfg.max_terms, agg.p) + 1)
    for total, (_, _, _, l0, _) in _lattice_objectives(agg, cfg, lattice):
        if best[l0] is None or total < best[l0]:
            best[l0] = total
    for k in range(1, len(best)):
        best[k] = min(best[k - 1], best[k])
    return best


def conflict_lower_bound(agg: AggregatedDataset, cfg: PenaltyConfig) -> Fraction:
    """Unavoidable weighted error from patterns occurring with both labels:
    each such pair misclassifies at least its cheaper side."""
    total = Fraction(0)
    for s, t in agg.conflict_pairs:
        total += min(cfg.w_plus * int(agg.pos_counts[s]),
                     cfg.w_minus * int(agg.neg_counts[t]))
    return total / agg.source_n


def expand(agg: AggregatedDataset, features=None) -> BinaryDataset:
    """Inverse of aggregate up to row order: repeat each pattern by its count."""
    xs, ys = [], []
    for pats, counts, label in ((agg.pos_patterns, agg.pos_counts, 1),
                                (agg.neg_patterns, agg.neg_counts, -1)):
        for row, c in zip(pats, counts):
            xs.append(np.repeat(row[None, :], c, axis=0))
            ys.append(np.full(c, label, dtype=np.int8))
    X = np.concatenate(xs, axis=0)
    y = np.concatenate(ys)
    if features is None:
        features = tuple(FeatureSpec(f"x{j + 1}") for j in range(agg.p))
    return BinaryDataset(features, X, y)


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


def filter_rules_any(rules, indices):
    """Keep rules whose antecedent uses at least one of the given features;
    a reporting post-filter, not a mining parameter."""
    wanted = set(int(j) for j in indices)
    return [r for r in rules if wanted & set(r.antecedent)]


def restricted_optimum(X, y, w_plus, w_minus, support, coef_bound, intercept_bound):
    """Exhaustive optimum of the penalty-free restricted problem.

    coef_bound is one bound for every feature or a sequence of them, one
    per feature. Minimizes (loss, sum|coef|, coefficient tuple, (|intercept|, intercept))
    over all assignments to the support positions, everything else zero.
    Each coefficient tuple's row scores are computed once; the rows each
    intercept misclassifies are then counted by bisection on the sorted
    scores of each class, in integers, and each key's loss is one Fraction.
    """
    p, n = len(X[0]), len(y)
    bounds = [coef_bound] * len(support) if isinstance(coef_bound, int) \
        else [coef_bound[j] for j in support]
    w_plus, w_minus = Fraction(w_plus), Fraction(w_minus)
    den = w_plus.denominator * w_minus.denominator
    a, b = int(w_plus * den), int(w_minus * den)
    pos_rows = [[int(row[j]) for j in support] for row, label in zip(X, y) if label == 1]
    neg_rows = [[int(row[j]) for j in support] for row, label in zip(X, y) if label == -1]
    best_key = None
    best = None
    for coefs in product(*[range(-b, b + 1) for b in bounds]):
        pos = sorted(sum(c * x for c, x in zip(coefs, row)) for row in pos_rows)
        neg = sorted(sum(c * x for c, x in zip(coefs, row)) for row in neg_rows)
        l1 = sum(abs(c) for c in coefs)
        for lam0 in range(-intercept_bound, intercept_bound + 1):
            # positives are lost at score + lam0 <= 0, negatives at >= 1
            pos_wrong = bisect_right(pos, -lam0)
            neg_wrong = len(neg) - bisect_left(neg, 1 - lam0)
            loss = Fraction(a * pos_wrong + b * neg_wrong, den * n)
            key = (loss, l1, tuple(coefs), (abs(lam0), lam0))
            if best_key is None or key < best_key:
                best_key = key
                dense = [0] * p
                for j, c in zip(support, coefs):
                    dense[j] = c
                best = (lam0, tuple(dense))
    return best_key, best


def lattice_labelings(bounds, intercept_bound):
    """The least (l1, coefficient tuple) model of each labeling of the 2^k
    cells of {0,1}^k that the lattice of coefficient bounds bounds (one
    per position) and intercepts -intercept_bound .. intercept_bound
    produces, by enumerating every lattice point: {bit mask of the cells
    scored >= 1: coefficient tuple}. Cell x has bit i of x on position i.
    An intercept beyond sum(bounds) + 1 labels every cell alike, so the
    intercepts are tried only up to there. Unlike the rest of this module
    it uses numpy, one intercept at a time over every tuple, so that the
    21^4 tuples of a 4-term 10/100 lattice take a second or two."""
    k = len(bounds)
    tuples = sorted(product(*[range(-b, b + 1) for b in bounds]),
                    key=lambda c: (sum(map(abs, c)), c))
    cells = np.array([[(x >> i) & 1 for i in range(k)] for x in range(1 << k)])
    scores = np.array(tuples, dtype=np.int64) @ cells.T
    weights = 1 << np.arange(1 << k)
    half = min(intercept_bound, sum(bounds) + 1)
    first = {}  # mask -> the least rank of a tuple producing it
    for lam0 in range(-half, half + 1):
        masks, rank = np.unique((scores + lam0 >= 1) @ weights, return_index=True)
        for mask, r in zip(masks.tolist(), rank.tolist()):
            first[mask] = min(first.get(mask, r), r)
    return {mask: tuples[r] for mask, r in first.items()}


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


def grouped_relaxation(coefs, intercept, agg, cfg, lattice):
    """Grouped relaxation of a node at a fixed intercept.

    coefs has one entry per feature, None for a free coefficient. Patterns
    with the same values on the free features form a group. The group's
    free coefficients add one shared offset t to all its scores, t in
    [-H, H], H the sum of the bounds of the free features it has set, and
    the group costs its least weighted loss over t. Penalties cover the
    fixed coefficients.
    """
    bounds = [int(b) for b in lattice.bounds_for(len(coefs))]
    free = [j for j, c in enumerate(coefs) if c is None]
    groups = {}
    for patterns, counts, is_pos in ((agg.pos_patterns, agg.pos_counts, True),
                                     (agg.neg_patterns, agg.neg_counts, False)):
        for row, count in zip(patterns.tolist(), counts.tolist()):
            base = intercept + sum(c * x for c, x in zip(coefs, row) if c is not None)
            groups.setdefault(tuple(row[j] for j in free), []).append((base, count, is_pos))
    # the class weights as integers over their common denominator
    den = cfg.w_plus.denominator * cfg.w_minus.denominator
    w_pos, w_neg = int(cfg.w_plus * den), int(cfg.w_minus * den)
    total = sum((cfg.c0 + cfg.epsilon * abs(c) for c in coefs if c), Fraction(0))
    for mask, members in groups.items():
        reach = sum(bounds[j] for j, x in zip(free, mask) if x)
        best = None
        for t in range(-reach, reach + 1):
            pos_lost = sum(n for base, n, is_pos in members if is_pos and base + t <= 0)
            neg_lost = sum(n for base, n, is_pos in members if not is_pos and base + t >= 1)
            loss = w_pos * pos_lost + w_neg * neg_lost
            best = loss if best is None else min(best, loss)
        total += Fraction(best, den * agg.source_n)
    return total


def grouped_rule_admits(free, agg, lattice):
    """Whether the solver bounds a node whose free features are `free` by
    the grouped relaxation: groups x (2 (L + H) + 1) x (2 b + 1) is at most
    2**14, for the groups of the patterns by their values on free, H the
    widest group's offset reach, L the intercept bound clipped to the sum of
    the coefficient bounds plus one, and b the largest coefficient bound."""
    bounds = [int(b) for b in lattice.bounds_for(agg.p)]
    masks = {tuple(row[j] for j in free)
             for row in agg.pos_patterns.tolist() + agg.neg_patterns.tolist()}
    reach = max(sum(bounds[j] for j, x in zip(free, mask) if x) for mask in masks)
    grid = min(lattice.intercept_bound, sum(bounds) + 1)
    return len(masks) * (2 * (grid + reach) + 1) * (2 * max(bounds) + 1) <= 2 ** 14


def sliding_min(rows, w):
    """Minimum over every length-w window along axis 1 (van Herk)."""
    if w == 1:
        return rows
    g, t = rows.shape
    nblocks = -(-t // w)
    pad = nblocks * w - t
    if pad:
        rows = np.concatenate([rows, np.full((g, pad), np.inf)], axis=1)
    blocks = rows.reshape(g, nblocks, w)
    pref = np.minimum.accumulate(blocks, axis=2).reshape(g, -1)
    suff = np.minimum.accumulate(blocks[:, :, ::-1], axis=2)[:, :, ::-1].reshape(g, -1)
    idx = np.arange(t - w + 1)
    return np.minimum(suff[:, idx], pref[:, idx + w - 1])


def restricted_bound_units(search, depth):
    """Grouped bound, in loss units, of a polish search's current node at
    depth, one node at a time: its rows grouped by their mask over the free
    features order[depth:], each group's window minima taken by
    sliding_min. The reference that the batched child bounds reproduce."""
    free = search.order[depth:]
    weights = 1 << np.arange(len(free), dtype=np.int64)
    gid, inverse = np.unique(weights @ search.cols[free], return_inverse=True)
    half = (np.bitwise_and.outer(gid, weights) > 0).astype(np.int64) @ search.bounds[free]
    pad = int(half.max())
    plan = curve_plan(search.steps, search.start, inverse.ravel(), len(gid),
                      -(search.grid_half + pad), len(search.lam0_grid) + 2 * pad)
    curves = loss_curves(plan, search.base)
    profile = np.zeros(len(search.lam0_grid))
    for s in np.unique(half).tolist():
        window_min = sliding_min(curves[half == s], 2 * s + 1)
        profile += window_min[:, pad - s:pad - s + len(search.lam0_grid)].sum(axis=0)
    return int(profile.min())


def per_node_polish(search):
    """Polish's restricted search as first written: depth first, one node
    at a time on the shared row state, each node's children bounded by one
    grouped_bounds call at base and pruned by (bound, l1) > best[:2], and
    the last two coefficients of each node scored by its own leaf batch,
    offered under the same (loss, l1, coefficient tuple) rule with the
    canonical intercept. Runs on a _RestrictedSearch state after its seed(),
    if any, and leaves in search.best what its batched run() must leave."""
    coef = np.zeros(search.k, dtype=np.int64)
    absv = {}

    def offer(feats, l1_fixed):
        profile = search.leaf_curves(feats)
        units = profile.min(axis=-1)
        u = int(units.min())
        if feats not in absv:
            absv[feats] = sum(np.ix_(*[np.abs(np.arange(-b, b + 1))
                                       for b in search.bounds[list(feats)]]),
                              np.zeros((), dtype=np.int64))
        l1 = np.where(units == u, absv[feats], np.iinfo(np.int64).max)
        key = (u, l1_fixed + int(l1.min()))
        if search.best is not None and key > search.best[:2]:
            return
        idx = np.unravel_index(int(np.argmax(l1 == l1.min())), l1.shape)
        full = coef.copy()
        for j, i in zip(feats, idx):
            full[j] = int(i) - int(search.bounds[j])
        key += (tuple(int(c) for c in full),)
        if search.best is None or key < search.best[:3]:
            _, lam0 = least_loss(profile[idx], search.lam0_grid, search.lam0_order)
            search.best = key + (int(lam0),)

    def run(depth, l1_fixed):
        if search.k - depth <= 2:
            offer(tuple(sorted(search.order[depth:])), l1_fixed)
            return
        j = search.order[depth]
        b = int(search.bounds[j])
        child = search.child_bounds(depth).tolist()
        for v in search.values[j].tolist():
            l1 = l1_fixed + abs(v)
            if search.best is not None and (child[v + b], l1) > search.best[:2]:
                continue
            search.move(j, v)
            coef[j] = v
            run(depth + 1, l1)
            search.move(j, -v)
            coef[j] = 0

    run(0, 0)


class ReferencePool:
    """The solution pool written plainly: every add walks the whole pool
    for the best entry at its term level, and every eviction recomputes
    the sparsity frontier from scratch and removes no entry on it."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = []  # (total, key, model, value)
        self._keys = set()

    def __len__(self):
        return len(self._entries)

    def _frontier_flags(self):
        flags = []
        best_l0 = None
        for _, _, model, _ in self._entries:
            on = best_l0 is None or model.l0 < best_l0
            flags.append(on)
            if on:
                best_l0 = model.l0
        return flags

    def add(self, model, value):
        key = model.key()
        if key in self._keys:
            return False
        item = (value.total, key, model, value)
        if len(self._entries) >= self.capacity:
            beats_worst = item[:2] < self._entries[-1][:2]
            at_level = self.best_with_at_most(model.l0)
            improves_frontier = at_level is None or value.total < at_level[1].total
            if not (beats_worst or improves_frontier):
                return False
        insort(self._entries, item)
        self._keys.add(key)
        if len(self._entries) > self.capacity:
            # the last entry off the frontier; none when all are on it
            flags = self._frontier_flags()
            for i in range(len(self._entries) - 1, -1, -1):
                if not flags[i]:
                    _, worst_key, _, _ = self._entries.pop(i)
                    self._keys.discard(worst_key)
                    break
        return True

    @property
    def entries(self):
        return [(model, value) for _, _, model, value in self._entries]

    def best_with_at_most(self, k):
        for _, _, model, value in self._entries:
            if model.l0 <= k:
                return model, value
        return None


def _polished_pool(pool, agg, cfg, lattice):
    """Polish every pool entry, de-duplicate, order by (total, coefficients).

    The polished result is determined by the entry's support alone, so each
    distinct support is optimized once, from its first entry, and no other
    entry is built.
    """
    seen = {}
    for _, read in pool.first_per_support():
        out, value = polish(read()[0], agg, cfg, lattice)
        key = out.key()
        if key not in seen or value.total < seen[key][1].total:
            seen[key] = (out, value)
    return sorted(seen.values(), key=lambda mv: (mv[1].total, mv[0].key()))


def _best_at_k(entries, k):
    for model, value in entries:
        if model.l0 <= k:
            return model, value
    return None


def per_leaf_greedy_seed(search):
    """The solver's greedy forward selection scoring one extension at a
    time: fix the coefficient, evaluate the node's own leaf, record it and
    free the coefficient again. Runs on a solver search state, whose
    batched greedy_seed must leave the same pool and incumbents."""
    chosen = []
    for _ in range(search.cap):
        best = None
        fixed = dict(search.terms)
        for j in range(search.p):
            if j in fixed:
                continue
            for v in search.values[j][1:]:
                search.apply(j, v)
                total = search.record(j, 0, *search.leaf())
                search.undo(j, v)
                if best is None or total < best[0]:
                    best = (total, j, v)
        if best is None:
            break
        _, j, v = best
        search.apply(j, v)
        chosen.append((j, v))
    for j, v in reversed(chosen):
        search.undo(j, v)


def class_signal(search, j):
    """Feature j's class signal, from masked sums over the rows of a solver
    search state: the positive share of the rows that set j (None where no
    row does) and the positive share of all rows."""
    agg = search.agg
    prev = Fraction(int(agg.pos_counts.sum()), agg.source_n)
    on = search.cols[j] == 1
    active_pos = int(agg.pos_counts[on[:search.n_pos]].sum())
    active = active_pos + int(agg.neg_counts[on[search.n_pos:]].sum())
    if active == 0:
        return None, prev
    return Fraction(active_pos, active), prev


def reference_branching(search):
    """The branching order and every feature's value order, one
    class_signal at a time: features by falling |cond - prev| (a feature
    no row sets last), then index; values 0, then +-1, +-2, ... led by the
    sign of cond - prev (positive where no row sets the feature)."""
    keyed, values = [], []
    for j in range(search.p):
        cond, prev = class_signal(search, j)
        keyed.append((-(abs(cond - prev) if cond is not None else Fraction(-1)), j))
        lead = 1 if cond is None or cond >= prev else -1
        values.append([0] + [v for mag in range(1, int(search.bounds[j]) + 1)
                             for v in (lead * mag, -lead * mag)])
    return [j for _, j in sorted(keyed)], values


def reference_load_csv(path, label_column, positive_token):
    """The cell-by-cell CSV reader that data.load_csv must match: the same
    dataset, or the same exception type and message."""
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

        rows, labels = [], []
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}")
            vals = []
            for j, cell in enumerate(cells):
                if j == label_idx:
                    labels.append(cell)
                    continue
                if cell not in ("0", "1"):
                    raise DataError(
                        f"{path}:{lineno}: column {header[j]!r} has non-binary cell {cell!r}")
                vals.append(int(cell))
            rows.append(vals)

    if not rows:
        raise DataError(f"{path}: no data rows")
    tokens = set(labels)
    if positive_token not in tokens:
        raise DataError(f"{path}: positive token {positive_token!r} never occurs")
    others = tokens - {positive_token}
    if len(others) > 1:
        raise DataError(f"{path}: more than two label tokens: {sorted(tokens)}")

    X = np.array(rows, dtype=np.uint8)
    y = np.array([1 if t == positive_token else -1 for t in labels], dtype=np.int8)
    features = tuple(FeatureSpec(n) for n in feat_names)
    return BinaryDataset(features, X, y)


def _reference_num(x) -> str:
    if isinstance(x, Fraction):
        x = frac_float(x)
    if x == int(x) and abs(x) < 1e11:
        return str(int(x))
    text = repr(float(x))
    if len(text) <= 12:
        return text
    text = format(float(x), ".6e")
    if len(text) <= 12:
        return text
    return format(float(x), ".5e")


def _reference_field(name, value):
    return f"{name:<8}  {_reference_num(value):<12}"


def _reference_lines(lead, fields):
    head = f"    {lead:<8}  "
    return "\n".join((head + "   ".join(fields[i:i + 2])).rstrip()
                     for i in range(0, len(fields), 2))


def reference_export_mps(agg, cfg, lattice, variant="aggregated", active_set=None):
    """The string-formatting MPS writer that mps.export_mps must match byte
    for byte. It shares only the loss-row table (mps._loss_rows), and names
    the loss rows and Z columns itself."""
    _num, _field, _lines = _reference_num, _reference_field, _reference_lines
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if variant == "polish" and active_set is None:
        raise ValueError("the polish variant requires an active set")

    loss = _loss_rows(agg, lattice, variant, active_set)
    bounds = lattice.bounds_for(agg.p)
    labels, counts = loss.labels.tolist(), loss.counts.tolist()
    # general rows are numbered 1.. across both classes, the others 1.. per class
    n_pos = 0 if variant == "general" else labels.count(1)
    numbers = [i + 1 if i < n_pos else i + 1 - n_pos for i in range(len(labels))]
    tags = {1: "LS", -1: "LS"} if variant == "general" else {1: "LP", -1: "LN"}
    names = [f"{tags[label]}{i:06d}" for label, i in zip(labels, numbers)]
    z_names = [f"{'ZS' if label == 1 else 'ZT'}{i:06d}" for label, i in zip(labels, numbers)]
    cf_names = [f"CF{c:06d}" for c in range(1, len(loss.pairs) + 1)]
    conflict = {}  # loss row -> its conflict row
    for name, (s, u) in zip(cf_names, loss.pairs.tolist()):
        conflict[s] = conflict[u] = name
    # the PE, L0U, L0L, L1U and L1L rows of each penalized feature
    links = {} if variant == "polish" else {
        j: (f"PE{j + 1:06d}", f"L0U{j + 1:05d}", f"L0L{j + 1:05d}",
            f"L1U{j + 1:05d}", f"L1L{j + 1:05d}") for j in loss.cols}

    out = [f"NAME          SCORE{variant[:3].upper()}", "ROWS", " N  COST"]
    out += [f" G  {name}" for name in names]
    out += [f" E  {name}" for name in cf_names]
    if links:
        out.append(" L  CAP")
    for pe, l0u, l0l, l1u, l1l in links.values():
        out += [f" E  {pe}", f" L  {l0u}", f" G  {l0l}", f" L  {l1u}", f" G  {l1l}"]

    out += ["COLUMNS", "    MARKER0                 'MARKER'                 'INTORG'"]
    row_fields = [_field(name, label) for name, label in zip(names, labels)]
    out.append(_lines("LAM00000", row_fields))
    lams = [("LAM00000", lattice.intercept_bound)]  # the columns written, with bounds
    for j in loss.cols:
        fields = [row_fields[i] for i in np.flatnonzero(loss.pats[:, j]).tolist()]
        if j in links:
            fields += [_field(row, 1) for row in links[j][1:]]
        if fields:  # a column without entries cannot be written
            lams.append((f"LAM{j + 1:05d}", int(bounds[j])))
            out.append(_lines(lams[-1][0], fields))
    out.append("    MARKER1                 'MARKER'                 'INTEND'")

    costs = {(label, count): _field("COST", weight * Fraction(count, agg.source_n))
             for label, weight in ((1, cfg.w_plus), (-1, cfg.w_minus))
             for count in set(counts)}
    for i, (z, name, big_m) in enumerate(zip(z_names, names, loss.big_m.tolist())):
        fields = [costs[labels[i], counts[i]], _field(name, big_m)]
        if i in conflict:
            fields.append(_field(conflict[i], 1))
        out.append(_lines(z, fields))
    for j, (pe, l0u, l0l, l1u, l1l) in links.items():
        b = int(bounds[j])
        out += [_lines(f"F{j + 1:07d}", [_field("COST", 1), _field(pe, 1)]),
                _lines(f"A{j + 1:07d}", [_field(pe, -cfg.c0), _field(l0u, -b),
                                         _field(l0l, b), _field("CAP", 1)]),
                _lines(f"B{j + 1:07d}", [_field(pe, -cfg.epsilon), _field(l1u, -1),
                                         _field(l1l, 1)])]

    rhs = [_field(name, 1) for name, r in zip(names, loss.rhs.tolist()) if r]
    rhs += [_field(name, 1) for name in cf_names]
    if links:
        rhs.append(_field("CAP", cfg.max_terms))
    out.append("RHS")
    if rhs:
        out.append(_lines("RHS", rhs))

    out.append("BOUNDS")
    for name, bound in lams:
        out += [f" LO BND       {name:<8}  {_num(-bound)}",
                f" UP BND       {name:<8}  {_num(bound)}"]
    out += [f" BV BND       {z:<8}" for z in z_names]
    for j in links:
        out += [f" BV BND       A{j + 1:07d}",
                f" UP BND       B{j + 1:07d}  {_num(int(bounds[j]))}"]
    out.append("ENDATA")
    return "\n".join(out) + "\n"
