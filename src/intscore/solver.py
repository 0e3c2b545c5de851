"""Exact minimization of the scoring-system objective, by one of two searches.

A rule on the input alone (_support_search_fits) picks the support search
when supports are few: cap = min(max_terms, P) is at most
polish.TABLE_TERMS, every support of at most cap features has a lattice
that admits its labeling table, the support count fits the node limit,
and the work fits _SUPPORT_ELEMENTS. It scores every support at once, one
batch per support size (polish.table_optima), and offers each support's
optimum, its polish result, to the pool. That is exact: let m* be an
optimum with at most k terms, on support T. polish(T) loses no more than
m*, and if it loses less, it loses at least one weight quantum over N less,
while its penalty exceeds m*'s by less than min(1/N, c0), which is below
that quantum over N for any c0 validate_for accepts; at equal loss it has
no larger l1 and no more terms. So the least total over the supports of
at most k features is the optimum with at most k terms, and the pool's
frontier is exact. An optimum that sets a coefficient to 0 is a smaller
support's optimum too, so it is offered from there. One support scored is
one node, and the search never stops part way: a partial enumeration has
no lower bound. It ends optimal with gap 0.

Every other input is searched by branch and bound, the tree search. It
branches on feature coefficients only. Features are branched in
descending order of class signal |P(y=+1 | x_j=1) - P(y=+1)|, with
candidate values tried outward from 0. The intercept is never branched on:
the loss as a function of a shared offset added to every score is a step
function, so one loss curve over the intercept grid (loss.loss_curves)
gives the loss of every intercept at once.

The search keeps its rows, their scores under the fixed coefficients
(base; unfixed ones count as zero), the clipped intercept grid and its
plans in loss.Rows, the state polish's search keeps too. A leaf is the
curve of base at its least point, with ties broken toward the smallest
intercept. A node is bounded by one of two relaxations of its free
coefficients, plus its fixed ones' penalties:

- The grouped bound (loss.grouped_bounds, the kernel polish prunes with)
  groups the rows by their values on the free features. A group's free
  coefficients add one shared offset in [-H_g, H_g], H_g the sum of the
  bounds of the free features it has set, so it adds the least value of
  its exact loss curve over that window. A conflict pair (one pattern
  occurring with both labels) falls in one group and is costed exactly.
- The root's interval bound, computed once, lets each pattern's
  coefficients reach their limits on their own, upward for a positive
  pattern and downward for a negative one (its edge score). Conflict pairs
  are folded into its step weights: a pair costs its cheaper side over the
  offsets where neither of its rows is surely lost. Every completion of a
  node completes the root, so its loss is at least this bound.

One rule picks the bound from the node's free features F and the lattice
alone: the grouped one when groups(F) x (2 (L + H_max(F)) + 1) x (2 b_max +
1) <= _GROUPED_ELEMENTS, the size of the block that bounds all siblings at
once (L is the clipped grid's half-width, H_max the widest group's reach
and b_max the largest coefficient bound), the root's one otherwise.
Freeing a feature never merges groups or narrows a reach, so a path is
bounded by the root's bound at its wide, shallow nodes and by the grouped
one from some depth on. The search's free sets are the suffixes of its
branching order, so Rows.branch builds their groupings from the deepest
depth up and stops at the first one the rule refuses. The grouped bound
only tightens as coefficients are fixed and is at least the root's bound,
and fixed penalties only grow, so the bound is monotone along any search
path: the proven lower bound never decreases and exhausting the tree
certifies optimality. bound(), children() and node_bound() all apply the
rule.

Children are scored as siblings, never one at a time. Setting the free
coefficient j to v moves only the rows with x_j = 1, by v. So one
loss-curve pass over the rows split by x_j, on an intercept grid widened by
the moves, gives the leaf of every value of j at once
(loss.sibling_curves); the grouped bounds of every value come the same way
from one pass over the children's groups split by x_j
(loss.grouped_bounds), each from a plan that Rows keeps. The search
scores all children of a node on its first visit and then walks them in
value order: a leaf child is recorded, an inner child is pruned on its
bound, and only a child the search descends into is applied to base, so
pruned and leaf children never touch the state. Greedy seeding scores
every value of every free feature at once, from one product of the rows'
feature columns with their step weights per step (loss.feature_leaves).

Pruning keeps one incumbent per sparsity budget, read off the solution
pool: a subtree is cut only when its bound exceeds the best total found
within the smallest term budget the subtree could still fit. This costs
some pruning power but leaves the pool holding the best model at every
sparsity level, which the cross-validation pipeline consumes directly.

All bookkeeping is in integers, so results are exact. Losses are whole
units of 1/(c*N), c being the common denominator of the class weights, and
every objective total is one Python int over the common denominator of the
loss units, c0 and epsilon. Totals stay Python ints: that denominator can
pass 2**64 when c0 or epsilon is set by hand. Totals, incumbents, bounds
and the pool's order are compared as ints. Rationals and models are built
only for the pool entries a caller reads, and for the report and its
telemetry. A leaf the pool would turn away on its total alone is dropped
before its terms and key are made.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .common import frac_str
from .data import AggregatedDataset
from .loss import (Rows, curve_plan, feature_leaves, grouped_bounds, grouped_plan, least_loss,
                   loss_curves, loss_units, refined_groups)
from .model import (
    LatticeSpec,
    ObjectiveValue,
    PenaltyConfig,
    ScoringSystem,
)
from .polish import TABLE_TERMS, THRESHOLD_FUNCTIONS, table_admits, table_optima

_TINY = Fraction(1, 10**12)

# the most curve elements (groups x offset grid x values of one coefficient)
# a sibling block may cost for the grouped bound to bound it
_GROUPED_ELEMENTS = 1 << 14
# the most work the support search may take on: supports x (distinct
# patterns + labelings of the widest table), each unit about 9 ns on a
# 2-vCPU VM, so about 0.6 s
_SUPPORT_ELEMENTS = 1 << 26


@dataclass(frozen=True)
class SolveConfig:
    """Search limits. The term cap is PenaltyConfig.max_terms."""

    time_limit: float = 60.0
    pool_size: int = 500
    node_limit: Optional[int] = None

    def __post_init__(self):
        if not self.time_limit > 0:  # nan too: no clock ever passes it
            raise ValueError("time_limit must be positive")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be >= 0")
        if self.pool_size < 1:
            raise ValueError("pool_size must be >= 1")


class SolutionPool:
    """Best distinct feasible solutions, ascending by (total, coefficients).

    The sparsity frontier is indexed by term budget: _level[k] is the best
    entry with at most k terms, for k up to the largest term count offered.
    A new entry updates the levels from its own term count upward and stops
    at the first it does not lead. An entry is on the frontier exactly when
    it leads its own level, and eviction never removes one: a pool over
    capacity drops its last entry off the frontier, or none when all are on
    it. So the best entry at each term count survives at every capacity,
    for downstream term-count tuning, and a pool holds at most
    max(capacity, frontier size) entries.

    An entry is held as (total, key, l0, build) and its (model, value) is
    built the first time a caller reads it, once; an entry evicted unread
    is never built.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("pool capacity must be >= 1")
        self.capacity = capacity
        self._entries = []  # (total, key, l0, build)
        self._keys = set()
        self._built = {}  # key -> (ScoringSystem, ObjectiveValue) of entries read
        self._level = []  # the best entry with at most k terms, k = 0, 1, ...

    def __len__(self):
        return len(self._entries)

    def add(self, model: ScoringSystem, value: ObjectiveValue) -> bool:
        return self.offer(value.total, model.key(), model.l0, lambda: (model, value))

    def _at_level(self, l0):
        """The best entry with at most l0 >= 0 terms, or None."""
        level = self._level
        return level[min(l0, len(level) - 1)] if level else None

    def best_total(self, k: int):
        """The least total with at most k terms, or None."""
        entry = self._at_level(k) if k >= 0 else None
        return None if entry is None else entry[0]

    def rejects(self, total, l0: int) -> bool:
        """True when offer() would surely turn away any candidate with this
        total and term count, whatever its key: the pool is full, the last
        entry's total is below it, and an entry with at most l0 terms has
        a total no larger."""
        if len(self._entries) < self.capacity or not total > self._entries[-1][0]:
            return False
        at_level = self._at_level(l0)
        return at_level is not None and not total < at_level[0]

    def offer(self, total, key: tuple, l0: int, build: Callable) -> bool:
        """add() for a candidate known by its total, model key and term
        count. build() returns its (model, value). It is stored, not
        called: it runs when a caller first reads the entry, which may be
        long after offer returns, so it must bind the values it builds
        from, not variables that change later. total orders the pool: the
        objective value, or (as the solver passes it) that value times one
        common denominator, an int. One pool takes one kind of total.

        A full pool turns the candidate away when an entry with at most l0
        terms has no larger total and the candidate does not precede the
        last entry, a rule that holds wherever rejects() does."""
        if key in self._keys:
            return False
        head = (total, key)
        at_level = self._at_level(l0)
        if len(self._entries) >= self.capacity and at_level is not None \
                and not total < at_level[0] and not head < self._entries[-1][:2]:
            return False
        item = (total, key, l0, build)
        insort(self._entries, item)
        self._keys.add(key)
        level = self._level
        level.extend([level[-1] if level else None] * (l0 + 1 - len(level)))
        for k in range(l0, len(level)):
            if level[k] is not None and not head < level[k][:2]:
                break
            level[k] = item
        if len(self._entries) > self.capacity:
            for victim in range(len(self._entries) - 1, -1, -1):
                worst = self._entries[victim]
                if level[worst[2]] is not worst:  # the last entry off the frontier
                    del self._entries[victim]
                    self._keys.discard(worst[1])
                    self._built.pop(worst[1], None)
                    break
        return True

    def _read(self, entry):
        """The (model, value) of a pool entry, built on its first read."""
        got = self._built.get(entry[1])
        if got is None:
            got = self._built[entry[1]] = entry[3]()
        return got

    def best(self):
        if not self._entries:
            return None
        return self._read(self._entries[0])

    @property
    def entries(self):
        return [self._read(e) for e in self._entries]

    def first_per_support(self):
        """(support, read) for the first entry of each distinct support (the
        sorted features with nonzero coefficients), in pool order. read()
        returns the entry's (model, value), built on the first read; an
        entry no caller reads is never built."""
        seen, out = set(), []
        for e in self._entries:
            support = tuple(j for j, _ in e[1][1:])
            if support not in seen:
                seen.add(support)
                out.append((support, functools.partial(self._read, e)))
        return out

    def best_with_at_most(self, k: int):
        """Best (model, value) using at most k terms, or None."""
        entry = self._at_level(k) if k >= 0 else None
        return None if entry is None else self._read(entry)


@dataclass(frozen=True)
class SolveReport:
    best: ScoringSystem
    best_objective: Fraction
    lower_bound: Fraction
    gap: Fraction
    nodes_explored: int
    wall_time: float
    status: str  # optimal | time_limit | node_limit
    search: str  # tree | support
    seed_time: float = 0.0  # seconds of greedy seeding; the support search seeds none

    def to_json(self) -> dict:
        return {
            "best_objective": frac_str(self.best_objective),
            "lower_bound": frac_str(self.lower_bound),
            "gap": frac_str(self.gap),
            "nodes_explored": self.nodes_explored,
            "wall_time": self.wall_time,
            "seed_time": self.seed_time,
            "status": self.status,
            "search": self.search,
        }


def relative_gap(best: Fraction, bound: Fraction) -> Fraction:
    if best == bound:
        return Fraction(0)
    return (best - bound) / max(best, _TINY)


def node_bound(partial, agg: AggregatedDataset, cfg: PenaltyConfig,
               lattice: LatticeSpec) -> Fraction:
    """Lower bound on the objective of every completion of a partial
    assignment: the bound the search prunes with, the grouped relaxation
    where the rule admits the partial's free features and elsewhere the
    root's interval relaxation plus the penalties of the fixed
    coefficients (see the module docstring).

    partial has length P+1: entry 0 is the intercept, entries 1..P the
    feature coefficients; None marks a free entry ranging over its lattice
    interval. A fixed intercept may be any integer.
    """
    if len(partial) != agg.p + 1:
        raise ValueError(f"partial assignment must have length {agg.p + 1}")
    search = _Search(agg, cfg, lattice, SolveConfig(), None)
    for j, v in enumerate(partial[1:]):
        if v is not None:
            search.apply(j, int(v))
    return search.fraction(search.bound(partial[0]))


# ---------------------------------------------------------------------------
# internal search machinery
# ---------------------------------------------------------------------------

def _build_entry(names, p, unit_den, den, terms, lam0, units, l0, l1, total):
    """(model, value) of a leaf the search recorded. It takes plain values,
    not the search, so a pool entry left unbuilt holds no search state."""
    return (ScoringSystem(lam0, terms, tuple(names[k] for k, _ in terms), p),
            ObjectiveValue(Fraction(units, unit_den), l0, l1, Fraction(total, den)))


def _names(feature_names, p):
    return list(feature_names) if feature_names is not None else [f"f{j}" for j in range(p)]


def _scales(cfg, unit_den):
    """(den, unit_scale, c0_units, eps_units): a total is an int over den,
    unit_scale per loss unit (of 1/unit_den), c0_units per term and
    eps_units per unit of coefficient magnitude."""
    den = math.lcm(unit_den, cfg.c0.denominator, cfg.epsilon.denominator)
    return (den, den // unit_den, cfg.c0.numerator * (den // cfg.c0.denominator),
            cfg.epsilon.numerator * (den // cfg.epsilon.denominator))


def _support_search_fits(agg, cfg, lattice, scfg) -> bool:
    """The rule that picks the support search over the tree search, from
    the input alone: cap = min(max_terms, P) is at most TABLE_TERMS, every
    support of k <= cap features admits labeling_table(k), the supports fit
    the node limit, and the work is at most _SUPPORT_ELEMENTS, each support
    being scored against every distinct pattern (polish._cell_counts) and
    every labeling of its table. Table k needs every bound of the support
    to reach TABLE_REACH[k] and its clipped intercept half-width min(L, sum
    of its bounds + 1) to reach TABLE_HALF[k], so the k features of least
    bounds decide for every support of size k."""
    cap = min(cfg.max_terms, agg.p)
    if cap > TABLE_TERMS:
        return False
    supports = sum(math.comb(agg.p, k) for k in range(cap + 1))
    if scfg.node_limit is not None and supports > scfg.node_limit:
        return False
    patterns = agg.n_pos_patterns + agg.n_neg_patterns
    if supports * (patterns + THRESHOLD_FUNCTIONS[cap]) > _SUPPORT_ELEMENTS:
        return False
    least = np.sort(lattice.bounds_for(agg.p))
    return all(table_admits(least[:k], min(lattice.intercept_bound, int(least[:k].sum()) + 1))
               for k in range(cap + 1))


@functools.lru_cache(maxsize=None)
def _supports(p: int, k: int) -> np.ndarray:
    """Every support of k of p features, an (m, k) read-only array of
    sorted positions in lexicographic order, built once per process."""
    supports = np.array(list(itertools.combinations(range(p), k)),
                        dtype=np.int64).reshape(math.comb(p, k), k)
    supports.setflags(write=False)
    return supports


def _support_search(agg, cfg, lattice, scfg, telemetry, names):
    """solve() by scoring every support of at most cap features with its
    labeling table, one batch per support size (polish.table_optima), and
    offering each support's optimum to the pool. It never stops part way,
    so it always ends optimal."""
    started = time.monotonic()
    p, cap = agg.p, min(cfg.max_terms, agg.p)
    _, unit_den = loss_units(agg, cfg)
    den, unit_scale, c0_units, eps_units = _scales(cfg, unit_den)
    pool = SolutionPool(scfg.pool_size)
    nodes = 0
    for k in range(cap + 1):
        supports = _supports(p, k)
        units, lam0, coefs = table_optima(agg, cfg, lattice.intercept_bound, supports)
        nodes += len(supports)
        # an optimum that sets a coefficient to 0 is a smaller support's too
        full = (coefs != 0).all(axis=1)
        for feats, u, lam, c, l1 in zip(supports[full].tolist(), units[full].tolist(),
                                        lam0[full].tolist(), coefs[full].tolist(),
                                        np.abs(coefs[full]).sum(axis=1).tolist()):
            total = u * unit_scale + c0_units * k + eps_units * l1
            if pool.rejects(total, k):
                continue
            terms = tuple(zip(feats, c))
            pool.offer(total, (lam,) + terms, k, functools.partial(
                _build_entry, names, p, unit_den, den, terms, lam, u, k, l1, total))
        if telemetry is not None:
            incumbent = Fraction(pool.best_total(cap), den)
            telemetry({"time": time.monotonic() - started, "nodes": nodes,
                       "incumbent": frac_str(incumbent),
                       "bound": frac_str(incumbent if k == cap else Fraction(0))})
    best_model, best_value = pool.best()
    report = SolveReport(best=best_model, best_objective=best_value.total,
                         lower_bound=best_value.total, gap=Fraction(0), nodes_explored=nodes,
                         wall_time=time.monotonic() - started, status="optimal",
                         search="support")
    return report, pool


class _Search(Rows):
    """Mutable state shared across the branch-and-bound recursion."""

    def __init__(self, agg, cfg, lattice, scfg, feature_names):
        super().__init__(agg, cfg, lattice.bounds_for(agg.p), lattice.intercept_bound)
        self.agg = agg
        self.cfg = cfg
        self.names = _names(feature_names, agg.p)

        p = self.p = agg.p
        self.cap = min(cfg.max_terms, p)
        self.den, self.unit_scale, self.c0_units, self.eps_units = _scales(cfg, self.unit_den)
        # a conflict pair costs its cheaper side from the positive's step,
        # where the positive stops being surely lost, to the negative's,
        # where the negative becomes surely lost
        s = agg.conflict_pairs[:, 0]
        t = agg.conflict_pairs[:, 1] + self.n_pos
        pair = np.minimum(self.units[s], self.units[t])
        self.bound_steps = self.steps.copy()
        self.bound_steps[s] += pair
        self.bound_steps[t] -= pair

        conds, prev = self._class_signals()
        self.values = [self._value_order(j, cond, prev) for j, cond in enumerate(conds)]

        # the root's bound: siblings over no coefficient at the edge scores,
        # the highest a completion of the root can give a positive row and
        # the lowest it can give a negative one
        reach = self.bounds @ self.cols
        self.edge = np.concatenate([reach[:self.n_pos], -reach[self.n_pos:]])
        self.root_units = self._edge_units(-self.grid_half, len(self.lam0_grid))

        # the values of the widest coefficient, for the grouped rule, which
        # refuses every depth above the first one it refuses
        self.block = 2 * int(self.bounds.max(initial=0)) + 1
        self.branch(self._feature_order(conds, prev), self._fits)

        # the penalty a value of feature j adds to its node's total
        self.value_cost = [[self._total(0, v != 0, abs(v)) for v in vals]
                           for vals in self.values]

        self.fixed = np.zeros(p, dtype=bool)
        self.terms = ()  # the nonzero fixed coefficients as model terms
        self.n_nonzero = 0
        self.l1_fixed = 0

        self.pool = SolutionPool(scfg.pool_size)
        self.nodes = 0

    # -- branching order ----------------------------------------------------

    def _class_signals(self):
        """The positive share of the rows that set each feature, None for a
        feature no row sets, and the positive share of all rows."""
        pos = (self.cols[:, :self.n_pos] @ self.agg.pos_counts).tolist()
        neg = (self.cols[:, self.n_pos:] @ self.agg.neg_counts).tolist()
        prev = Fraction(int(self.agg.pos_counts.sum()), self.agg.source_n)
        return [Fraction(a, a + b) if a + b else None for a, b in zip(pos, neg)], prev

    @staticmethod
    def _feature_order(conds, prev):
        signal = [abs(cond - prev) if cond is not None else Fraction(-1) for cond in conds]
        return sorted(range(len(conds)), key=lambda j: (-signal[j], j))

    def _value_order(self, j, cond, prev):
        lead = 1 if cond is None or cond >= prev else -1
        vals = [0]
        for mag in range(1, int(self.bounds[j]) + 1):
            vals.extend((lead * mag, -lead * mag))
        return vals

    # -- incremental assignment ----------------------------------------------

    def _move(self, j, v, sign):
        """Fix coefficient j to v (sign 1), or free it again (sign -1)."""
        if v:
            self.move(j, sign * v)
            self.n_nonzero += sign
            self.l1_fixed += sign * abs(v)
            self.terms = self._with(j, v) if sign > 0 \
                else tuple(t for t in self.terms if t[0] != j)
        self.fixed[j] = sign > 0

    def apply(self, j, v):
        self._move(j, v, 1)

    def undo(self, j, v):
        self._move(j, v, -1)

    # -- bounding and leaf evaluation -----------------------------------------

    def _with(self, j, v):
        """The fixed terms with coefficient j set to v."""
        return tuple(sorted(self.terms + ((j, v),))) if v else self.terms

    def _total(self, units, l0, l1) -> int:
        """units of loss plus the penalties of l0 terms of magnitude sum l1,
        as a total over den."""
        return units * self.unit_scale + self.c0_units * l0 + self.eps_units * l1

    def fraction(self, total) -> Fraction:
        """The objective value of a total."""
        return Fraction(total, self.den)

    def _fits(self, half) -> bool:
        """The rule that picks a node's bound, from its free features alone:
        the grouped bound when the groups of the rows by their values on
        the free features, with offset reaches half, give a sibling block of
        at most _GROUPED_ELEMENTS, and the root's interval bound otherwise.
        Freeing one more feature never merges groups or narrows a reach, so
        the rule that refuses a free set refuses every set containing it."""
        size = len(half) * (2 * (self.grid_half + int(half.max())) + 1) * self.block
        return size <= _GROUPED_ELEMENTS

    def _grouping(self, free):
        """(inverse, half): the rows grouped by their values on the
        features free, as refined_groups gives them, or None when the rule
        refuses free."""
        for grouping in refined_groups(self.cols, free, self.bounds):
            if not self._fits(grouping[1]):
                return None
        return grouping

    def bound(self, lam0=None) -> int:
        """Lower bound on every completion of the current node, least over
        the intercept grid (or at the intercept lam0), plus the penalties of
        the fixed coefficients, as a total over den. It is the grouped bound
        where the rule admits the node's free features, and elsewhere the
        root's interval bound, the loss of the edge scores."""
        grouping = self._grouping(np.flatnonzero(~self.fixed).tolist())
        if grouping is not None:
            lo, width = (-self.grid_half, len(self.lam0_grid)) if lam0 is None \
                else (int(lam0), 1)
            plan = grouped_plan(self.steps, self.start, *grouping,
                                np.zeros_like(self.base), 0, lo, width)
            units = grouped_bounds(plan, self.base, self.dtype)[0]
        elif lam0 is None:
            units = self.root_units
        else:
            units = self._edge_units(int(lam0), 1)
        return self._total(int(units), self.n_nonzero, self.l1_fixed)

    def _edge_units(self, lo, width) -> int:
        """The interval bound over the intercepts lo .. lo + width - 1: the
        least loss of the edge scores, with the conflict pairs' steps."""
        plan = curve_plan(self.bound_steps, self.start, np.zeros_like(self.base), 1, lo, width)
        return int(loss_curves(plan, self.edge, self.dtype).min())

    def leaf(self):
        """(units, lam0): the loss of the current coefficients at their
        canonical intercept; unfixed coefficients are zero here."""
        units, lam0 = least_loss(self.leaf_curves(()), self.lam0_grid, self.lam0_order)
        return int(units), int(lam0)

    def child_leaves(self, j, at):
        """leaf() of every child that sets the free coefficient j to
        values[j][c], for each position c in at: (units, lam0) lists."""
        units, lam0 = least_loss(self.leaf_curves((j,)), self.lam0_grid, self.lam0_order)
        pos = [self.values[j][c] + int(self.bounds[j]) for c in at]
        return units[pos].tolist(), lam0[pos].tolist()

    def sibling_bounds(self, depth, at):
        """bound() of every child that sets the free coefficient j =
        order[depth] to values[j][c], for each position c in at; only the
        grouped bound makes a pass."""
        j = self.order[depth]
        if depth + 1 in self.groupings:
            # the children's free features are order[depth + 1:]
            pos = [self.values[j][c] + int(self.bounds[j]) for c in at]
            first = min(pos)
            units = self.child_bounds(depth, first, max(pos) - first + 1)[
                [i - first for i in pos]].tolist()
        else:
            units = [self.root_units] * len(at)
        fixed, cost = self._total(0, self.n_nonzero, self.l1_fixed), self.value_cost[j]
        return [u * self.unit_scale + fixed + cost[c] for c, u in zip(at, units)]

    def children(self, depth):
        """Every child of the current node at `depth`, scored at once
        without touching the state: for each value of feature order[depth],
        in value order, (True, units, lam0) for a leaf or (False, bound,
        None) for an inner node. A node is expanded only below the term
        cap, so every child fits under it."""
        j = self.order[depth]
        vals = self.values[j]
        kids = [None] * len(vals)
        leaves, inner = [], []
        for c, v in enumerate(vals):
            l0 = self.n_nonzero + (v != 0)
            (leaves if depth + 1 == self.p or l0 == self.cap else inner).append(c)
        if leaves:
            units, lam0 = self.child_leaves(j, leaves)
            for c, u, lam in zip(leaves, units, lam0):
                kids[c] = (True, u, lam)
        if inner:
            for c, bound in zip(inner, self.sibling_bounds(depth, inner)):
                kids[c] = (False, bound, None)
        return kids

    def record(self, j, v, units, lam0):
        """Offer the leaf that adds coefficient j = v to the fixed ones (v
        = 0 adds none), with intercept lam0 and loss units, to the pool;
        return its total."""
        l0, l1 = self.n_nonzero + (v != 0), self.l1_fixed + abs(v)
        total = self._total(units, l0, l1)
        if self.pool.rejects(total, l0):
            return total
        terms = self._with(j, v)
        build = functools.partial(_build_entry, self.names, self.p, self.unit_den, self.den,
                                  terms, lam0, units, l0, l1, total)
        self.pool.offer(total, (lam0,) + terms, l0, build)
        return total

    def greedy_seed(self, deadline):
        """Deterministic forward selection used to warm-start the incumbents:
        at each sparsity step, score every single-coefficient extension of
        the current support at once (loss.feature_leaves), record each in
        (feature, value order), and keep the first best."""
        chosen = []
        b = int(self.bounds.max(initial=0))
        for _ in range(self.cap):
            best = None
            fixed = dict(self.terms)
            units, lam0 = (a.tolist() for a in feature_leaves(
                self.cols, self.steps, self.start, self.base, b, self.lam0_grid,
                self.lam0_order, self.dtype))
            for j in range(self.p):
                if j in fixed:
                    continue
                for v in self.values[j][1:]:
                    total = self.record(j, v, units[j][v + b], lam0[j][v + b])
                    if best is None or total < best[0]:
                        best = (total, j, v)
            if best is None or time.monotonic() > deadline:
                break
            _, j, v = best
            self.apply(j, v)
            chosen.append((j, v))
        for j, v in reversed(chosen):
            self.undo(j, v)

    @property
    def incumbent_total(self):
        return self.pool.best_total(self.cap)


def solve(agg: AggregatedDataset, cfg: PenaltyConfig, lattice: LatticeSpec,
          scfg: SolveConfig, telemetry: Optional[Callable] = None,
          feature_names=None):
    """Minimize the objective over the coefficient lattice, by the support
    search where the rule admits the input and by the tree search elsewhere
    (see the module docstring); report.search says which.

    Returns (SolveReport, SolutionPool). Deterministic for fixed inputs when
    limited by node count; a wall-clock limit returns a valid incumbent and
    bound but may cut the tree at a machine-dependent point. A node is one
    tree node, or one support scored.
    """
    if agg.source_n < 1:
        raise ValueError("dataset is empty")
    cfg.validate_for(agg.source_n, agg.p, lattice)
    if feature_names is not None and len(feature_names) != agg.p:
        raise ValueError(f"dataset has {agg.p} features, feature_names has {len(feature_names)}")
    if _support_search_fits(agg, cfg, lattice, scfg):
        return _support_search(agg, cfg, lattice, scfg, telemetry, _names(feature_names, agg.p))

    search = _Search(agg, cfg, lattice, scfg, feature_names)
    started = time.monotonic()
    deadline = started + scfg.time_limit

    # seed with the best intercept-only model so an incumbent always exists
    # even under a zero node budget, then warm-start with greedy forward
    # selection (everything it touches lands in the pool)
    search.record(0, 0, *search.leaf())
    seeding = time.monotonic()
    search.greedy_seed(started + 0.4 * scfg.time_limit)
    seed_time = time.monotonic() - seeding

    # frames[d] enumerates values for feature order[d]; "kids" holds all of
    # its children, scored at once (search.children) on its first visit;
    # "applied" is the value of the child being descended into, the only
    # child ever pushed onto the shared incremental state
    frames = [{"bound": search.bound(), "next": 0, "applied": None, "kids": None}]
    levels = search.pool._level  # pool.best_total(k), unwrapped for the loop below
    status = "optimal"

    def lower_bound():
        lb = search.incumbent_total
        for d, f in enumerate(frames):
            if f["next"] < len(search.values[search.order[d]]) and f["bound"] < lb:
                lb = f["bound"]
        return lb

    def emit():
        if telemetry is not None:
            telemetry({"time": time.monotonic() - started,
                       "nodes": search.nodes,
                       "incumbent": frac_str(search.fraction(search.incumbent_total)),
                       "bound": frac_str(search.fraction(lower_bound()))})

    emit()
    last_emit = 0
    last_incumbent = search.incumbent_total

    while frames:
        if search.nodes - last_emit >= 1024:
            emit()
            last_emit = search.nodes
        if time.monotonic() > deadline:
            status = "time_limit"
            break
        if scfg.node_limit is not None and search.nodes >= scfg.node_limit:
            status = "node_limit"
            break

        depth = len(frames) - 1
        frame = frames[-1]
        j = search.order[depth]
        vals = search.values[j]

        if frame["applied"] is not None:
            search.undo(j, frame["applied"])
            frame["applied"] = None
        if frame["next"] >= len(vals):
            frames.pop()
            continue
        if frame["kids"] is None:
            frame["kids"] = search.children(depth)

        v = vals[frame["next"]]
        kid = frame["kids"][frame["next"]]
        frame["next"] += 1
        search.nodes += 1

        is_leaf, score, lam0 = kid
        if is_leaf:
            search.record(j, v, score, lam0)
            if search.incumbent_total != last_incumbent:
                last_incumbent = search.incumbent_total
                emit()
            continue

        if score > levels[min(search.n_nonzero + (v != 0), len(levels) - 1)][0]:
            continue
        search.apply(j, v)
        frame["applied"] = v
        frames.append({"bound": score, "next": 0, "applied": None, "kids": None})

    exhausted = not frames
    lb = search.fraction(search.incumbent_total if exhausted else lower_bound())

    best_model, best_value = search.pool.best()
    gap = relative_gap(best_value.total, lb)
    if gap == 0:
        status = "optimal"
    report = SolveReport(
        best=best_model,
        best_objective=best_value.total,
        lower_bound=lb,
        gap=gap,
        nodes_explored=search.nodes,
        wall_time=time.monotonic() - started,
        status=status,
        search="tree",
        seed_time=seed_time,
    )
    if telemetry is not None:
        telemetry({"time": report.wall_time, "nodes": search.nodes,
                   "incumbent": frac_str(report.best_objective),
                   "bound": frac_str(lb)})
    return report, search.pool
