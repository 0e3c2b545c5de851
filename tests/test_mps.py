import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from intscore import mps
from intscore.data import BinaryDataset, FeatureSpec, aggregate, aggregate_counts, synth_generate
from intscore.model import LatticeSpec, PenaltyConfig, ScoringSystem, big_m_loss, objective
from intscore.mps import VARIANTS, _names, _num, export_mps
from intscore.polish import ActiveSet
from intscore.solver import SolveConfig, solve

from instances import a1a2_dataset, random_instance
from mps_reader import parse_mps, solve_mps
from oracles import reference_export_mps


def conflict_fixture():
    """Three distinct patterns, one of them labeled both ways."""
    X = np.array([[0, 0], [0, 0], [1, 0]], dtype=np.uint8)
    y = np.array([1, -1, -1], dtype=np.int8)
    return BinaryDataset((FeatureSpec("a1"), FeatureSpec("a2")), X, y)


class TestStructure:
    def test_aggregated_counts(self):
        ds = conflict_fixture()
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, LatticeSpec(2, 2))
        text = export_mps(aggregate(ds), cfg, LatticeSpec(2, 2), "aggregated")
        doc = parse_mps(text)
        zs = [c for c in doc["col_order"] if c.startswith("ZS")]
        zt = [c for c in doc["col_order"] if c.startswith("ZT")]
        assert len(zs) + len(zt) == 3
        conflicts = [r for r in doc["row_order"] if r.startswith("CF")]
        assert len(conflicts) == 1
        assert doc["rows"][conflicts[0]] == "E"

    def test_general_has_one_loss_row_per_example(self):
        ds = conflict_fixture()
        extra = BinaryDataset(ds.features,
                              np.vstack([ds.X, [[1, 1], [0, 1]]]).astype(np.uint8),
                              np.concatenate([ds.y, [1, -1]]).astype(np.int8))
        cfg = PenaltyConfig.auto(1, extra.n, extra.p, LatticeSpec(2, 2))
        text = export_mps(aggregate(extra), cfg, LatticeSpec(2, 2), "general")
        doc = parse_mps(text)
        loss_rows = [r for r in doc["row_order"] if r.startswith("LS")]
        assert len(loss_rows) == 5

    def test_polish_requires_active_set(self):
        ds = conflict_fixture()
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, LatticeSpec(2, 2))
        with pytest.raises(ValueError):
            export_mps(aggregate(ds), cfg, LatticeSpec(2, 2), "polish")

    def test_polish_restricts_columns(self):
        ds, agg, cfg, lattice = random_instance(4)
        text = export_mps(agg, cfg, lattice, "polish", ActiveSet((0,)))
        doc = parse_mps(text)
        lams = [c for c in doc["col_order"] if c.startswith("LAM")]
        assert lams == ["LAM00000", "LAM00001"]
        assert not any(c.startswith("F") for c in doc["col_order"])

    def test_names_and_fields_fit_fixed_format(self):
        ds, agg, cfg, lattice = random_instance(0)
        text = export_mps(agg, cfg, lattice, "aggregated")
        for line in text.splitlines():
            if line.startswith((" ", "    ")) and "'MARKER'" not in line:
                for token in line.split():
                    assert len(token) <= 12
        doc = parse_mps(text)
        for name in doc["col_order"] + doc["row_order"]:
            assert len(name) <= 8

    def test_integer_markers_cover_coefficients(self):
        ds, agg, cfg, lattice = random_instance(1)
        doc = parse_mps(export_mps(agg, cfg, lattice, "aggregated"))
        lams = [c for c in doc["col_order"] if c.startswith("LAM")]
        assert len(lams) == ds.p + 1
        for c in lams:
            assert c in doc["integer"]
            lo, up = doc["bounds"][c]
            assert lo == -up and up >= 1

    @pytest.mark.parametrize("x", [-1e-100, -1.2345678e-300, 1e300, -1e300, 1e11 + 0.5,
                                   -123456789012.5, Fraction(-1, 3 ** 250), Fraction(2, 3)])
    def test_values_fit_the_field(self, x):
        text = _num(x)
        assert len(text) <= 12 and float(text) == pytest.approx(float(x), rel=1e-4)

    def test_long_names_rejected(self):
        assert _names(["ZS999999"]).tobytes() == b"ZS999999"
        with pytest.raises(ValueError):
            _names(["ZS1000000"])

    def test_rows_past_six_digits_rejected(self):
        # the general variant numbers its rows across both classes, so
        # 999,999 rows name the last ZS999999 and one more row is refused
        lattice = LatticeSpec(2, 2)
        for n, fits in ((999_999, True), (1_000_000, False)):
            agg = aggregate_counts(np.ones((1, 1), dtype=np.uint8), np.array([n - 1]),
                                   np.zeros((1, 1), dtype=np.uint8), np.array([1]), n)
            if fits:
                loss = mps._loss_rows(agg, lattice, "general", None)
                assert loss.names[-1].tobytes() == b"LS999999"
                assert loss.z_names[[0, -1]].tobytes() == b"ZS000001ZT999999"
            else:
                with pytest.raises(ValueError, match="longer than 8"):
                    mps._loss_rows(agg, lattice, "general", None)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 3, 5, 8])
    def test_aggregated_matches_solver(self, seed):
        ds, agg, cfg, lattice = random_instance(seed)
        report, _ = solve(agg, cfg, lattice, SolveConfig(time_limit=30, pool_size=10))
        text = export_mps(agg, cfg, lattice, "aggregated")
        obj, values, status = solve_mps(text)
        assert status == 0
        assert math.isclose(obj, float(report.best_objective),
                            rel_tol=1e-6, abs_tol=1e-7)
        # reconstruct the external solver's model and re-derive its exact
        # objective: it must equal the proven optimum
        lam0 = round(values["LAM00000"])
        coefs = [round(values[f"LAM{j + 1:05d}"]) for j in range(ds.p)]
        model = ScoringSystem.from_dense(lam0, coefs, ds.feature_names)
        assert objective(model, agg, cfg).total == report.best_objective

    def test_general_variant_solves(self):
        ds = a1a2_dataset()
        agg = aggregate(ds)
        lattice = LatticeSpec(2, 2)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice)
        obj, values, status = solve_mps(export_mps(agg, cfg, lattice, "general"))
        assert status == 0
        # symmetric margin forces negatives to score <= -1: zero loss needs
        # doubled coefficients relative to the asymmetric optimum
        assert round(values["LAM00001"]) == -2
        assert round(values["LAM00002"]) == -2
        assert obj < float(cfg.w_plus / ds.n)  # still a zero-error solution

    def test_polish_variant_matches_restricted_optimum(self):
        ds, agg, cfg, lattice = random_instance(6)
        from intscore.polish import polish
        from intscore.model import trivial_model

        m = ScoringSystem.from_dense(1, [1] * ds.p, ds.feature_names)
        if m.l0 > cfg.max_terms:
            m = ScoringSystem.from_dense(1, [1, 1] + [0] * (ds.p - 2), ds.feature_names)
        polished, value = polish(m, agg, cfg, lattice)
        text = export_mps(agg, cfg, lattice, "polish", ActiveSet.of(m))
        obj, values, status = solve_mps(text)
        assert status == 0
        assert math.isclose(obj, float(value.weighted_error), rel_tol=1e-6, abs_tol=1e-7)


def _instance(case):
    if case == "conflict":
        ds = conflict_fixture()
        lattice = LatticeSpec(2, 2)
        return aggregate(ds), PenaltyConfig.auto(1, ds.n, ds.p, lattice), lattice
    _, agg, cfg, lattice = random_instance(case)
    return agg, cfg, lattice


def _loss_rows(agg, variant, active):
    """(row, Z column, label, full-width pattern, count) of every loss row the
    variant must write, and its conflict pairs as (row, row) indices, built
    straight from the patterns."""
    classes = [(1, list(zip(agg.pos_patterns, agg.pos_counts.tolist()))),
               (-1, list(zip(agg.neg_patterns, agg.neg_counts.tolist())))]
    if variant == "polish":
        for label, members in classes:
            merged = {}
            for pattern, count in members:
                key = tuple(int(pattern[j]) for j in active)
                merged[key] = merged.get(key, 0) + count
            members[:] = []
            for key in sorted(merged):
                full = np.zeros(agg.p, dtype=np.uint8)
                full[list(active)] = key
                members.append((full, merged[key]))
    if variant == "general":
        rows = [(label, pattern) for label, members in classes
                for pattern, count in members for _ in range(count)]
        return [(f"LS{i:06d}", f"{'ZS' if label == 1 else 'ZT'}{i:06d}", label, pattern, 1)
                for i, (label, pattern) in enumerate(rows, 1)], []
    table = []
    for label, members in classes:
        row_tag, z_tag = ("LP", "ZS") if label == 1 else ("LN", "ZT")
        table += [(f"{row_tag}{i:06d}", f"{z_tag}{i:06d}", label, pattern, count)
                  for i, (pattern, count) in enumerate(members, 1)]
    where = {}
    for i, (_, _, label, pattern, _) in enumerate(table):
        where.setdefault(pattern.tobytes(), {})[label] = i
    pairs = [(both[1], both[-1]) for both in where.values() if len(both) == 2]
    return table, sorted(pairs)


def _close(parsed, exact):
    """Equal to within the rounding of a 12-character value field."""
    return abs(parsed - float(exact)) <= 1e-5 * abs(float(exact))


@pytest.mark.parametrize("variant", ["general", "aggregated", "polish"])
@pytest.mark.parametrize("case", list(range(12)) + ["conflict"])
def test_every_entry_matches_the_patterns(case, variant):
    agg, cfg, lattice = _instance(case)
    p, n = agg.p, agg.source_n
    bounds = lattice.bounds_for(p)
    active = tuple(range(0, p, 2)) if variant == "polish" else tuple(range(p))
    text = export_mps(agg, cfg, lattice, variant,
                      ActiveSet(active) if variant == "polish" else None)
    doc = parse_mps(text)
    matrix = {row: {} for row in doc["row_order"]}
    cost = {}
    for col, entries in doc["cols"].items():
        for row, value in entries:
            target = cost if row == doc["objective_row"] else matrix[row]
            assert col not in target
            target[col] = value
    lam = {j: f"LAM{j + 1:05d}" for j in range(p)}

    table, pairs = _loss_rows(agg, variant, active)
    margin_label = {1: 1, -1: 1 if variant == "general" else -1}
    for row, z, label, pattern, count in table:
        expected = {"LAM00000": label}
        expected.update({lam[j]: label for j in active if pattern[j]})
        expected[z] = big_m_loss(pattern, margin_label[label], lattice)
        assert matrix[row] == expected, row
        assert doc["rows"][row] == "G"
        assert doc["rhs"].get(row, 0) == (1 if margin_label[label] == 1 else 0)
        weight = cfg.w_plus if label == 1 else cfg.w_minus
        assert _close(cost[z], weight * Fraction(count, n)), z
        assert doc["bounds"][z] == [0.0, 1.0] and z in doc["integer"]
    for c, (s, t) in enumerate(pairs, 1):
        row = f"CF{c:06d}"
        assert matrix[row] == {table[s][1]: 1, table[t][1]: 1}
        assert doc["rows"][row] == "E" and doc["rhs"][row] == 1

    cols_with_entries = {col for entries in matrix.values() for col in entries}
    assert doc["bounds"]["LAM00000"] == [-lattice.intercept_bound, lattice.intercept_bound]
    for j in active:
        if lam[j] in cols_with_entries:
            assert doc["bounds"][lam[j]] == [-bounds[j], bounds[j]]
            assert lam[j] in doc["integer"]
    penalty = {}  # row -> (sense, entries), exact once the PE rows are checked
    if variant != "polish":
        penalty["CAP"] = ("L", {f"A{j + 1:07d}": 1 for j in range(p)})
        assert doc["rhs"]["CAP"] == cfg.max_terms
        for j in range(p):
            a, b, f, bj = f"A{j + 1:07d}", f"B{j + 1:07d}", f"F{j + 1:07d}", int(bounds[j])
            pe = f"PE{j + 1:06d}"
            assert matrix[pe].keys() == {f, a, b}
            assert _close(-matrix[pe][a], cfg.c0) and _close(-matrix[pe][b], cfg.epsilon)
            assert doc["rhs"].get(pe, 0) == 0
            penalty[pe] = ("E", {f: 1, a: matrix[pe][a], b: matrix[pe][b]})
            penalty[f"L0U{j + 1:05d}"] = ("L", {lam[j]: 1, a: -bj})
            penalty[f"L0L{j + 1:05d}"] = ("G", {lam[j]: 1, a: bj})
            penalty[f"L1U{j + 1:05d}"] = ("L", {lam[j]: 1, b: -1})
            penalty[f"L1L{j + 1:05d}"] = ("G", {lam[j]: 1, b: 1})
            assert cost[f] == 1
            assert a in doc["integer"] and doc["bounds"][b] == [0.0, bj]
    for row, (sense, entries) in penalty.items():
        assert matrix[row] == entries and doc["rows"][row] == sense, row
    loss_rows = {row for row, *_ in table}
    conflict_rows = {f"CF{c:06d}" for c in range(1, len(pairs) + 1)}
    assert set(doc["row_order"]) == loss_rows | conflict_rows | set(penalty)
    assert set(cost) == {z for _, z, *_ in table} | {f"F{j + 1:07d}" for j in range(p)
                                                     if variant != "polish"}


def _active_sets(variant, p):
    if variant != "polish":
        return [None]
    return [ActiveSet(()), ActiveSet(tuple(range(0, p, 2))), ActiveSet(tuple(range(p)))]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("case", list(range(12)) + ["conflict"])
def test_text_matches_reference(case, variant):
    # byte for byte, spacing included, which parse_mps cannot see
    agg, cfg, lattice = _instance(case)
    for active in _active_sets(variant, agg.p):
        assert export_mps(agg, cfg, lattice, variant, active) == \
            reference_export_mps(agg, cfg, lattice, variant, active)


@pytest.mark.parametrize("variant", VARIANTS)
def test_wide_text_matches_reference(variant):
    rng = np.random.default_rng(4)
    ds = synth_generate(rng.uniform(0.05, 0.9, 20), rng.normal(0, 0.6, 20), 2_000, seed=9)
    agg = aggregate(ds)
    entries = np.concatenate([agg.pos_patterns, agg.neg_patterns]).sum(axis=0) % 2
    assert set(entries.tolist()) == {0, 1}  # columns end on a full and on a half line
    lattice = LatticeSpec(10, 100)
    cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice, 8)
    for active in _active_sets(variant, agg.p):
        assert export_mps(agg, cfg, lattice, variant, active) == \
            reference_export_mps(agg, cfg, lattice, variant, active)


@pytest.mark.parametrize("variant", VARIANTS)
def test_export_holds_the_text_less_than_three_times(variant):
    # the parts and their join, and no byte copy of either
    rng = np.random.default_rng(6)
    ds = synth_generate(rng.uniform(0.05, 0.9, 20), rng.normal(0, 0.6, 20), 5_000, seed=2)
    agg = aggregate(ds)
    lattice = LatticeSpec(10, 100)
    cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice, 8)
    active = ActiveSet(tuple(range(ds.p))) if variant == "polish" else None
    tracemalloc.start()
    try:
        text = export_mps(agg, cfg, lattice, variant, active)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)
