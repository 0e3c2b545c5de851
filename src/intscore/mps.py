"""Fixed-format MPS export of the training problem for external MILP solvers.

Three variants of the integer program are emitted:

  general     one loss row per data row, symmetric margin 1 on both classes
  aggregated  one loss row per distinct pattern with multiplicity-weighted
              objective, margin 1 on positives and 0 on negatives, and an
              equality row per conflicting label pair
  polish      the aggregated loss structure restricted to an active set,
              with no penalty terms

Variables: LAMnnnnn integer coefficients (LAM00000 is the intercept),
ZSnnnnnn / ZTnnnnnn binary loss indicators, Annnnnnn binary feature-use
indicators, Bnnnnnnn coefficient magnitudes and Fnnnnnnn per-feature
penalties (continuous). All names stay within 8 characters and numeric
fields within 12, per the fixed layout.

MPS lists the matrix column by column, so each column is written straight
from the pattern arrays. One loss-row table serves all three variants, and
only _loss_rows tells them apart. LAM00000 enters every loss row and LAMj
the rows with x_j = 1, then its four penalty-link rows. A loss row's
coefficient field (+1 on positives, -1 on negatives) is formatted once and
shared by all of those columns. Each Z column holds its cost, its own row's
big-M and its conflict row, if any; each feature then gets its F, A and B
columns. A column's lines are joined as soon as it is built.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .common import frac_float
from .data import AggregatedDataset
from .model import LatticeSpec, PenaltyConfig, big_m_loss
from .polish import project_active

VARIANTS = ("general", "aggregated", "polish")


def _num(x) -> str:
    """Shortest representation that fits the 12-character value field."""
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


def _field(name: str, value) -> str:
    """One (row name, value) pair of a COLUMNS or RHS line."""
    return f"{name:<8}  {_num(value):<12}"


def _lines(lead: str, fields) -> str:
    """The lines of one column (or of the RHS vector), two fields a line."""
    head = f"    {lead:<8}  "
    return "\n".join((head + "   ".join(fields[i:i + 2])).rstrip()
                     for i in range(0, len(fields), 2))


class _LossRows(NamedTuple):
    """The loss rows of one variant, positives first."""

    cols: list           # the exported coefficient columns (0-based features)
    pats: np.ndarray     # full-width patterns, zero off cols
    counts: np.ndarray   # rows each loss row stands for
    labels: np.ndarray   # +1 / -1
    rhs: np.ndarray      # the margin each row's score must reach, 1 or 0
    big_m: np.ndarray
    names: list
    z_names: list
    pairs: np.ndarray    # conflict pairs as (loss row, loss row)


def _loss_rows(agg: AggregatedDataset, lattice: LatticeSpec, variant: str,
               active_set) -> _LossRows:
    """The loss-row table of a variant: the one place the variants differ."""
    if variant == "polish":
        cols = list(active_set.indices)
        data = project_active(agg, active_set)
    else:
        cols = list(range(agg.p))
        data = agg
    n_pos, n_neg = data.n_pos_patterns, data.n_neg_patterns
    pats = np.zeros((n_pos + n_neg, agg.p), dtype=np.uint8)
    pats[:, cols] = np.concatenate([data.pos_patterns, data.neg_patterns])
    counts = np.concatenate([data.pos_counts, data.neg_counts])
    labels = np.repeat([1, -1], [n_pos, n_neg])
    if variant == "general":
        pats, labels = np.repeat(pats, counts, axis=0), np.repeat(labels, counts)
        counts = np.ones(len(labels), dtype=np.int64)
        numbers = np.arange(1, len(labels) + 1)
        tags = {1: "LS", -1: "LS"}
        margin_labels = np.ones_like(labels)  # symmetric margin 1
        pairs = np.empty((0, 2), dtype=np.int64)
    else:
        numbers = np.concatenate([np.arange(1, n_pos + 1), np.arange(1, n_neg + 1)])
        tags = {1: "LP", -1: "LN"}
        margin_labels = labels
        pairs = data.conflict_pairs + [0, n_pos]
    rows = list(zip(labels.tolist(), numbers.tolist()))
    return _LossRows(cols, pats, counts, labels, (margin_labels == 1).astype(np.int64),
                     big_m_loss(pats, margin_labels, lattice),
                     [f"{tags[label]}{i:06d}" for label, i in rows],
                     [f"{'ZS' if label == 1 else 'ZT'}{i:06d}" for label, i in rows],
                     pairs)


def export_mps(agg: AggregatedDataset, cfg: PenaltyConfig, lattice: LatticeSpec,
               variant: str = "aggregated", active_set=None) -> str:
    """Render the training IP as fixed-format MPS text."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if variant == "polish" and active_set is None:
        raise ValueError("the polish variant requires an active set")

    loss = _loss_rows(agg, lattice, variant, active_set)
    bounds = lattice.bounds_for(agg.p)
    labels, counts = loss.labels.tolist(), loss.counts.tolist()
    cf_names = [f"CF{c:06d}" for c in range(1, len(loss.pairs) + 1)]
    conflict = {}  # loss row -> its conflict row
    for name, (s, u) in zip(cf_names, loss.pairs.tolist()):
        conflict[s] = conflict[u] = name
    # the PE, L0U, L0L, L1U and L1L rows of each penalized feature
    links = {} if variant == "polish" else {
        j: (f"PE{j + 1:06d}", f"L0U{j + 1:05d}", f"L0L{j + 1:05d}",
            f"L1U{j + 1:05d}", f"L1L{j + 1:05d}") for j in loss.cols}

    out = [f"NAME          SCORE{variant[:3].upper()}", "ROWS", " N  COST"]
    out += [f" G  {name}" for name in loss.names]
    out += [f" E  {name}" for name in cf_names]
    if links:
        out.append(" L  CAP")
    for pe, l0u, l0l, l1u, l1l in links.values():
        out += [f" E  {pe}", f" L  {l0u}", f" G  {l0l}", f" L  {l1u}", f" G  {l1l}"]

    out += ["COLUMNS", "    MARKER0                 'MARKER'                 'INTORG'"]
    row_fields = [_field(name, label) for name, label in zip(loss.names, labels)]
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
    for i, (z, name, big_m) in enumerate(zip(loss.z_names, loss.names, loss.big_m.tolist())):
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

    rhs = [_field(name, 1) for name, r in zip(loss.names, loss.rhs.tolist()) if r]
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
    out += [f" BV BND       {z:<8}" for z in loss.z_names]
    for j in links:
        out += [f" BV BND       A{j + 1:07d}",
                f" UP BND       B{j + 1:07d}  {_num(int(bounds[j]))}"]
    out.append("ENDATA")
    return "\n".join(out) + "\n"
