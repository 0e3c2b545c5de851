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
fields within 12, per the fixed layout; a longer name raises ValueError.

MPS lists the matrix column by column, so each column is written straight
from the pattern arrays. One loss-row table serves all three variants, and
only _loss_rows tells them apart. LAM00000 enters every loss row and LAMj
the rows with x_j = 1, then its four penalty-link rows. Each Z column holds
its cost, its own row's big-M and its conflict row, if any; each feature
then gets its F, A and B columns.

The text is built as fixed-width byte records, not string by string. A
(name, value) field is a 22-byte row of a field table; each loss row's
(name, +1 or -1) field is formatted once and gathered into every LAM
column that holds it, and each distinct cost and big-M value is formatted
once. A column's lines are laid out two fields to a line and cut after
their last value, so no line ends in blanks.

mps_parts yields the text a section or a column at a time, each part an
ASCII str decoded as soon as its byte records are built, so those bytes
go straight away. export_mps joins the parts and holds the text twice at
its peak, as the parts and their join; `intscore export-mps` writes the
parts to its file as they come and never holds the whole text.
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


_SP, _NL = ord(" "), ord("\n")


def _num(x) -> str:
    """Shortest representation that fits the 12-character value field."""
    if isinstance(x, Fraction):
        x = frac_float(x)
    if x == int(x) and abs(x) < 1e11:
        return str(int(x))
    text = repr(float(x))
    for digits in (6, 5, 4):  # 4 digits fit even a negative 3-digit exponent
        if len(text) <= 12:
            break
        text = format(float(x), f".{digits}e")
    return text


def _names(strings) -> np.ndarray:
    """Names of at most 8 characters, left-justified, as the rows of an
    (m, 8) uint8 table."""
    if max(map(len, strings), default=0) > 8:
        raise ValueError("an MPS name is longer than 8 characters")
    table = np.array(strings, dtype="S8").view(np.uint8).reshape(len(strings), 8)
    table[table == 0] = _SP
    return table


def _fields(names: np.ndarray, texts, which=None) -> np.ndarray:
    """Fields `{name:<8}  {text}` as the rows of an (m, 22) uint8 table, the
    i-th with name names[i] and value texts[which[i]] (texts[i] without
    which). NUL bytes pad each value to 12 characters; a row of NULs, the
    blank field, follows the last, so index -1 reads it."""
    values = np.array(texts, dtype="S12").view(np.uint8).reshape(len(texts), 12)
    if which is not None:
        values = values[which]
    table = np.zeros((len(values) + 1, 22), dtype=np.uint8)
    table[:-1, :8] = names
    table[:-1, 8:10] = _SP
    table[:-1, 10:] = values
    return table


def _lines(leads, table, left, right) -> str:
    """COLUMNS or RHS lines `    {lead:<8}  {left}   {right}`, each ending
    after its last value: leads are 8-byte names, one per line or one for
    all, and left and right index fields of table, right -1 for none."""
    # every line is laid out 61 bytes wide, and the NULs that pad its last
    # value (and a missing right field) are then dropped; a left field that
    # a right one follows is padded with blanks instead
    pad = np.where(right >= 0, _SP, 0).astype(np.uint8)[:, None]
    buf = np.empty((len(left), 62), dtype=np.uint8)
    buf[:, :4] = buf[:, 12:14] = _SP
    buf[:, 4:12] = leads
    np.maximum(table[left], pad, out=buf[:, 14:36])
    buf[:, 36:39] = pad
    buf[:, 39:61] = table[right]
    buf[:, 61] = _NL
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def _column(lead: str, table, idx) -> str:
    """The lines of one column (or of the RHS vector): the fields of table
    at idx, two to a line."""
    idx = np.append(idx, -1) if len(idx) % 2 else np.asarray(idx)
    return _lines(_names([lead]), table, idx[0::2], idx[1::2])


def _short_column(lead: str, fields) -> str:
    """A column given as a few (row name, value) pairs."""
    names, values = zip(*fields)
    return _column(lead, _fields(_names(names), [_num(v) for v in values]),
                   np.arange(len(fields)))


def _records(prefix: str, names: np.ndarray) -> str:
    """One line `{prefix}{name}` for each 8-byte name."""
    buf = np.full((len(names), len(prefix) + 9), _NL, dtype=np.uint8)
    buf[:, :len(prefix)] = np.frombuffer(prefix.encode("ascii"), dtype=np.uint8)
    buf[:, len(prefix):-1] = names
    return buf.tobytes().decode("ascii")


def _plain(lines) -> str:
    """Lines of text written as they are."""
    return "".join(f"{line}\n" for line in lines)


class _LossRows(NamedTuple):
    """The loss rows of one variant, positives first."""

    cols: list           # the exported coefficient columns (0-based features)
    pats: np.ndarray     # full-width patterns, zero off cols
    counts: np.ndarray   # rows each loss row stands for
    labels: np.ndarray   # +1 / -1
    rhs: np.ndarray      # the margin each row's score must reach, 1 or 0
    big_m: np.ndarray
    names: np.ndarray    # (n, 8) uint8 table of loss-row names
    z_names: np.ndarray  # (n, 8) uint8 table of Z-column names
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
        tags = b"LSLS"
        margin_labels = np.ones_like(labels)  # symmetric margin 1
        pairs = np.empty((0, 2), dtype=np.int64)
    else:
        numbers = np.concatenate([np.arange(1, n_pos + 1), np.arange(1, n_neg + 1)])
        tags = b"LPLN"
        margin_labels = labels
        pairs = data.conflict_pairs + [0, n_pos]
    negative = (labels < 0).astype(np.intp)
    names = _numbered(tags, negative, numbers)
    z_names = _numbered(b"ZSZT", negative, numbers)
    return _LossRows(cols, pats, counts, labels, (margin_labels == 1).astype(np.int64),
                     big_m_loss(pats, margin_labels, lattice), names, z_names, pairs)


def _numbered(tags: bytes, which: np.ndarray, numbers: np.ndarray) -> np.ndarray:
    """Names `{tag}{number:06d}` as the rows of an (m, 8) uint8 table, row
    i taking the two-letter tag which[i] of tags and the number numbers[i];
    a number past six digits would make a name longer than 8 characters."""
    if len(numbers) and int(numbers.max()) > 999_999:
        raise ValueError("an MPS name is longer than 8 characters")
    table = np.empty((len(numbers), 8), dtype=np.uint8)
    table[:, :2] = np.frombuffer(tags, dtype=np.uint8).reshape(-1, 2)[which]
    table[:, 2:] = numbers[:, None] // 10 ** np.arange(5, -1, -1) % 10 + ord("0")
    return table


def export_mps(agg: AggregatedDataset, cfg: PenaltyConfig, lattice: LatticeSpec,
               variant: str = "aggregated", active_set=None) -> str:
    """Render the training IP as fixed-format MPS text."""
    return "".join(mps_parts(agg, cfg, lattice, variant, active_set))


def mps_parts(agg: AggregatedDataset, cfg: PenaltyConfig, lattice: LatticeSpec,
              variant: str = "aggregated", active_set=None):
    """The text of export_mps as an iterator of str parts, a section or a
    column at a time; the arguments are checked before any part is built."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if variant == "polish" and active_set is None:
        raise ValueError("the polish variant requires an active set")
    return _parts(agg, cfg, lattice, variant, active_set)


def _parts(agg, cfg, lattice, variant, active_set):
    loss = _loss_rows(agg, lattice, variant, active_set)
    n, bounds = len(loss.labels), lattice.bounds_for(agg.p)
    rows = loss.names
    cf_names = [f"CF{c:06d}" for c in range(1, len(loss.pairs) + 1)]
    # the PE, L0U, L0L, L1U and L1L rows of each penalized feature
    links = {} if variant == "polish" else {
        j: (f"PE{j + 1:06d}", f"L0U{j + 1:05d}", f"L0L{j + 1:05d}",
            f"L1U{j + 1:05d}", f"L1L{j + 1:05d}") for j in loss.cols}

    yield _plain([f"NAME          SCORE{variant[:3].upper()}", "ROWS", " N  COST"])
    yield _records(" G  ", rows)
    head = [f" E  {name}" for name in cf_names]
    if links:
        head.append(" L  CAP")
    for pe, l0u, l0l, l1u, l1l in links.values():
        head += [f" E  {pe}", f" L  {l0u}", f" G  {l0l}", f" L  {l1u}", f" G  {l1l}"]
    yield _plain(head + [
        "COLUMNS", "    MARKER0                 'MARKER'                 'INTORG'"])

    # every loss row's coefficient field (+1 on positives, -1 on negatives),
    # then the four link-row fields (1) of each penalized feature
    link_rows = [row for j in loss.cols if j in links for row in links[j][1:]]
    which = np.zeros(n + len(link_rows), dtype=np.intp)
    which[:n] = loss.labels < 0  # the value "1" or "-1"
    table = _fields(np.vstack([rows, _names(link_rows)]), ["1", "-1"], which)
    yield _column("LAM00000", table, np.arange(n))
    lams = [("LAM00000", lattice.intercept_bound)]  # the columns written, with bounds
    for k, j in enumerate(loss.cols):
        idx = np.flatnonzero(loss.pats[:, j])
        if j in links:
            idx = np.append(idx, n + 4 * k + np.arange(4))
        if len(idx):  # a column without entries cannot be written
            lams.append((f"LAM{j + 1:05d}", int(bounds[j])))
            yield _column(lams[-1][0], table, idx)
    yield _plain(["    MARKER1                 'MARKER'                 'INTEND'"])

    # Z column i: its cost and its loss row's big-M on one line, then its
    # conflict row, if any, on a second; costs depend on (label, count) only
    cost_keys, cost_of = np.unique(loss.labels * loss.counts, return_inverse=True)
    big_ms, big_m_of = np.unique(loss.big_m, return_inverse=True)
    texts = [_num((cfg.w_plus if key > 0 else cfg.w_minus) * Fraction(abs(key), agg.source_n))
             for key in cost_keys.tolist()] + [_num(m) for m in big_ms.tolist()] + ["1"]
    conflict = np.full(n, -1)
    conflict[loss.pairs[:, 0]] = conflict[loss.pairs[:, 1]] = np.arange(len(loss.pairs))
    table = _fields(
        np.vstack([np.broadcast_to(_names(["COST"]), (n, 8)), rows, _names(cf_names)]),
        texts, np.concatenate([cost_of.ravel(), len(cost_keys) + big_m_of.ravel(),
                               np.full(len(cf_names), len(texts) - 1)]))
    i, has_cf = np.arange(n), conflict >= 0
    keep = np.stack([np.ones(n, dtype=bool), has_cf], axis=1)
    left = np.stack([i, 2 * n + conflict], axis=1)[keep]
    right = np.stack([n + i, np.full(n, -1)], axis=1)[keep]
    zs = loss.z_names
    yield _lines(zs[np.repeat(i, 1 + has_cf)], table, left, right)
    for j, (pe, l0u, l0l, l1u, l1l) in links.items():
        b = int(bounds[j])
        yield _short_column(f"F{j + 1:07d}", [("COST", 1), (pe, 1)])
        yield _short_column(f"A{j + 1:07d}", [(pe, -cfg.c0), (l0u, -b), (l0l, b), ("CAP", 1)])
        yield _short_column(f"B{j + 1:07d}", [(pe, -cfg.epsilon), (l1u, -1), (l1l, 1)])

    cap = ["CAP"] if links else []
    rhs_names = np.vstack([rows[loss.rhs == 1], _names(cf_names + cap)])
    which = np.zeros(len(rhs_names), dtype=np.intp)
    which[len(which) - len(cap):] = 1  # CAP's right-hand side is max_terms, every other 1
    yield _plain(["RHS"])
    if len(which):
        yield _column("RHS", _fields(rhs_names, ["1", _num(cfg.max_terms)], which),
                      np.arange(len(which)))

    yield _plain(["BOUNDS"] + [line for name, bound in lams for line in (
        f" LO BND       {name:<8}  {_num(-bound)}", f" UP BND       {name:<8}  {_num(bound)}")])
    yield _records(" BV BND       ", zs)
    yield _plain([line for j in links for line in (
        f" BV BND       A{j + 1:07d}", f" UP BND       B{j + 1:07d}  {_num(int(bounds[j]))}")]
        + ["ENDATA"])
