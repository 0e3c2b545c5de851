import json
import time
from pathlib import Path

import pytest

from intscore import cli, mps
from intscore.cli import main
from intscore.data import aggregate, load_csv, synth_generate, write_csv
from intscore.model import LatticeSpec, PenaltyConfig, ScoringSystem
from intscore.polish import ActiveSet


@pytest.fixture
def dataset_csv(tmp_path):
    ds = synth_generate([0.5, 0.4, 0.6], [2.0, -2.0, 0.0], n=200, seed=5, bias=-0.3)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run("train", "--no-such-flag") == 1

    def test_missing_file_is_two(self, tmp_path, capsys):
        assert run("train", tmp_path / "nope.csv", "--output", tmp_path / "m.json") == 2

    def test_bad_cell_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,y\n7,1\n0,0\n")
        assert run("rules", bad) == 2

    def test_bad_weight_is_one(self, dataset_csv, tmp_path, capsys):
        assert run("train", dataset_csv, "--w-plus", "3",
                   "--output", tmp_path / "m.json") == 1

    def test_inexact_weight_is_one(self, dataset_csv, tmp_path, capsys):
        # its denominator 10**15 is too large for exact loss sums
        assert run("train", dataset_csv, "--w-plus", "1.000000000000001",
                   "--output", tmp_path / "m.json") == 1
        assert "largest allowed" in capsys.readouterr().err


class TestTrain:
    def test_writes_model_report_manifest_and_sheet(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = run("train", dataset_csv, "--coef-bound", "2",
                   "--intercept-bound", "4", "--max-terms", "3",
                   "--node-limit", "3000", "--pool", "20", "--output", out)
        assert code == 0
        assert out.exists()
        assert Path(f"{out}.report.json").exists()
        assert Path(f"{out}.manifest.json").exists()
        sheet = capsys.readouterr().out
        assert "PREDICT POSITIVE OUTCOME IF SCORE >" in sheet
        model = ScoringSystem.from_json(out.read_text())
        assert model.l0 <= 3
        report = json.loads(Path(f"{out}.report.json").read_text())
        assert report["status"] in ("optimal", "node_limit", "time_limit")
        assert 0 <= report["seed_time"] <= report["wall_time"]

    def test_rerun_is_byte_identical(self, dataset_csv, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        common = ["--coef-bound", "2", "--intercept-bound", "4", "--max-terms", "2",
                  "--node-limit", "2000", "--pool", "10", "--seed", "7"]
        assert run("train", dataset_csv, "--output", a, *common) == 0
        assert run("train", dataset_csv, "--output", b, *common) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_endpoint_warns_and_outputs_trivial(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run("train", dataset_csv, "--w-plus", "2", "--output", out) == 0
        err = capsys.readouterr().err
        assert "trivial" in err
        model = ScoringSystem.from_json(out.read_text())
        assert model.l0 == 0 and model.intercept == 1

    def test_telemetry_lines(self, dataset_csv, tmp_path, capsys):
        tele = tmp_path / "t.ndjson"
        assert run("train", dataset_csv, "--coef-bound", "2", "--intercept-bound", "4",
                   "--node-limit", "500", "--pool", "5",
                   "--telemetry", tele, "--output", tmp_path / "m.json") == 0
        lines = [json.loads(l) for l in tele.read_text().splitlines()]
        assert lines
        for rec in lines:
            assert {"time", "nodes", "incumbent", "bound"} <= set(rec)


class TestEncode:
    def test_band_and_threshold_rules(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("age,arrests,female,y\n17,0,1,1\n22,5,0,0\n45,7,0,1\n")
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({
            "label_column": "y", "positive_token": "1",
            "features": [
                {"source": "age", "rules": [
                    {"kind": "band", "low": None, "high": 17},
                    {"kind": "band", "low": 18, "high": 24},
                    {"kind": "band", "low": 40, "high": None}]},
                {"source": "arrests", "rules": [
                    {"kind": "threshold", "comparator": ">=", "value": 5}]},
                {"source": "female", "kind": "binary"},
            ]}))
        out = tmp_path / "encoded.csv"
        assert run("encode", raw, "--rules", rules, "--output", out) == 0
        ds = load_csv(out, "y", "1")
        assert ds.p == 5
        assert list(ds.X[0]) == [1, 0, 0, 0, 1]
        assert list(ds.X[1]) == [0, 1, 0, 1, 0]
        assert Path(f"{out}.specs.json").exists()

    def test_malformed_rule_reports_entry(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text("age,y\n17,1\n")
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps({"label_column": "y", "features": [
            {"source": "age", "rules": [{"kind": "mystery"}]}]}))
        assert run("encode", raw, "--rules", rules, "--output", tmp_path / "o.csv") == 2
        assert "features[0]" in capsys.readouterr().err


class TestEvaluate:
    def test_report_fields(self, dataset_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run("train", dataset_csv, "--coef-bound", "2", "--intercept-bound", "4",
            "--node-limit", "2000", "--pool", "10", "--output", model_path)
        capsys.readouterr()
        report_path = tmp_path / "eval.json"
        code = run("evaluate", model_path, dataset_csv, "--max-fpr", "0.5",
                   "--output", report_path, "--calibration-csv", tmp_path / "cal.csv")
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert "test TPR" in doc and "test FPR" in doc
        assert "fpr_within_limit" in doc
        assert (tmp_path / "cal.csv").read_text().startswith("score_lo,")

    def test_feature_mismatch_is_data_error(self, dataset_csv, tmp_path, capsys):
        model = ScoringSystem.from_dense(0, [1, 0], ["a", "b"])
        path = tmp_path / "m.json"
        path.write_text(model.to_json())
        assert run("evaluate", path, dataset_csv) == 2


class TestSweepCommand:
    def test_outputs(self, tmp_path, capsys):
        ds = synth_generate([0.5, 0.5], [3.0, -3.0], n=120, seed=9, bias=0.0)
        data = tmp_path / "d.csv"
        write_csv(ds, data)
        outdir = tmp_path / "sweepout"
        code = run("sweep", data, "--grid", "0.5,1,1.5", "--coef-bound", "2",
                   "--intercept-bound", "4", "--max-terms", "2", "--pool", "10",
                   "--node-limit", "2000", "--plot", "--outdir", outdir)
        assert code == 0
        assert (outdir / "curve.json").exists()
        assert (outdir / "curve.csv").exists()
        assert (outdir / "curve.svg").exists()
        assert (outdir / "folds.json").exists()
        assert (outdir / "manifest.json").exists()
        doc = json.loads((outdir / "curve.json").read_text())
        assert len(doc["points"]) == 3

    def test_pool_smaller_than_term_cap(self, tmp_path, capsys):
        # a pool of 2 under a cap of 3 terms used to lose the sparse levels
        # that model selection reads, and every point failed
        ds = synth_generate([0.5, 0.3, 0.6, 0.4], [2.0, -2.0, 0.5, 1.0], n=600, seed=7,
                            bias=-0.3)
        data = tmp_path / "d.csv"
        write_csv(ds, data)
        code = run("sweep", data, "--grid", "1/2,1", "--pool", "2", "--max-terms", "3",
                   "--node-limit", "200", "--outdir", tmp_path / "out")
        assert code == 0
        assert "(0 failed)" in capsys.readouterr().out

    def test_preset_names(self, tmp_path, capsys):
        # unknown preset falls through the fraction parser and fails as usage
        ds = synth_generate([0.5], [0.0], n=30, seed=1)
        data = tmp_path / "d.csv"
        write_csv(ds, data)
        assert run("sweep", data, "--grid", "warpspeed",
                   "--outdir", tmp_path / "o") == 1


class TestOtherCommands:
    def test_rules_to_stdout(self, dataset_csv, capsys):
        assert run("rules", dataset_csv, "--min-support", "0.05",
                   "--min-confidence", "0.5") == 0
        out = capsys.readouterr().out
        assert out.startswith("rule,lift,support,confidence")

    def test_export_mps(self, dataset_csv, tmp_path, capsys):
        # the file written part by part is the in-process text, byte for byte
        ds = load_csv(dataset_csv, "y", "1")
        lattice = LatticeSpec(2, 4)
        cfg = PenaltyConfig.auto(1, ds.n, ds.p, lattice, 8)
        for variant in mps.VARIANTS:
            out = tmp_path / f"{variant}.mps"
            active = ("--active", "x1,x3") if variant == "polish" else ()
            assert run("export-mps", dataset_csv, "--coef-bound", "2", "--intercept-bound", "4",
                       "--variant", variant, *active, "--output", out) == 0
            text = mps.export_mps(aggregate(ds), cfg, lattice, variant,
                                  ActiveSet((0, 2)) if variant == "polish" else None)
            assert text.startswith("NAME") and text.endswith("ENDATA\n")
            assert out.read_bytes() == text.encode("ascii")

    def test_failed_export_leaves_no_file(self, dataset_csv, tmp_path, capsys, monkeypatch):
        # the F, A and B columns come after the LAM and Z columns are written
        def fail(*args):
            raise RuntimeError("column builder failed")
        monkeypatch.setattr(mps, "_short_column", fail)
        with pytest.raises(RuntimeError, match="column builder failed"):
            run("export-mps", dataset_csv, "--output", tmp_path / "model.mps")
        assert list(tmp_path.iterdir()) == [dataset_csv]

    def test_print_round_trip(self, dataset_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run("train", dataset_csv, "--coef-bound", "2", "--intercept-bound", "4",
            "--node-limit", "2000", "--pool", "10", "--output", model_path)
        capsys.readouterr()
        assert run("print", model_path, "--outcome-label", "REARREST") == 0
        sheet = capsys.readouterr().out
        assert "PREDICT REARREST IF SCORE >" in sheet
        from intscore.sheet import parse_sheet
        model = ScoringSystem.from_json(model_path.read_text())
        parsed = parse_sheet(sheet, feature_names=["x1", "x2", "x3"])
        assert parsed.intercept == model.intercept
        assert dict(parsed.terms) == dict(model.terms)

    def test_synth_then_replay(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert run("synth", "--marginals", "0.5,0.3", "--weights", "1.0,-1.0",
                   "--n", "50", "--seed", "3", "--output", out) == 0
        first = out.read_bytes()
        manifest = Path(f"{out}.manifest.json")
        assert manifest.exists()
        assert run("replay", manifest) == 0
        assert out.read_bytes() == first

    def test_config_file_overrides_flags(self, dataset_csv, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("max-terms = 1\nnode-limit = 1500\n")
        out = tmp_path / "m.json"
        assert run("--config", cfgfile, "train", dataset_csv, "--max-terms", "3",
                   "--coef-bound", "2", "--intercept-bound", "4",
                   "--pool", "10", "--output", out) == 0
        model = ScoringSystem.from_json(out.read_text())
        assert model.l0 <= 1

    @pytest.mark.parametrize("line, cmd, code", [
        ("positive = 1", "train", 0),  # declares no type: stays the string "1"
        ("grid = 1", "sweep", 0),
        ("node-limit = many", "train", 1),  # declares int
    ])
    def test_config_values_take_declared_types(self, dataset_csv, tmp_path, capsys,
                                               line, cmd, code):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        out = ("--output", tmp_path / "m.json") if cmd == "train" \
            else ("--outdir", tmp_path / "sweep")
        assert run("--config", cfgfile, cmd, dataset_csv, "--coef-bound", "2",
                   "--intercept-bound", "4", "--max-terms", "2", "--pool", "10",
                   "--node-limit", "500", *out) == code


def test_bad_jobs_environment(dataset_csv, tmp_path, capsys, monkeypatch):
    # INTSCORE_JOBS is the default of sweep's --jobs, so only sweep reads it
    monkeypatch.setenv("INTSCORE_JOBS", "two")
    model = tmp_path / "m.json"
    model.write_text(ScoringSystem.from_dense(0, [1, 0, 0], ["x1", "x2", "x3"]).to_json())
    assert run("print", model) == 0
    assert run("sweep", dataset_csv, "--outdir", tmp_path / "o") == 1
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--time-limit", "nan"), ("--node-limit", "-3")])
def test_broken_solve_limit_is_usage_error(dataset_csv, tmp_path, capsys, flag, value):
    # no clock ever passes a nan time limit, and a negative node limit
    # stopped every solve at once
    assert run("train", dataset_csv, flag, value, "--output", tmp_path / "m.json") == 1
    assert flag.strip("-").replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_negative_jobs_is_usage_error(dataset_csv, tmp_path, capsys):
    assert run("sweep", dataset_csv, "--jobs", "-1", "--node-limit", "50",
               "--outdir", tmp_path / "o") == 1
    assert "jobs" in capsys.readouterr().err


def test_zero_jobs_environment_is_usage_error(dataset_csv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("INTSCORE_JOBS", "0")
    assert run("sweep", dataset_csv, "--node-limit", "50", "--outdir", tmp_path / "o") == 1
    assert "jobs" in capsys.readouterr().err


def test_encode_wide_table(tmp_path, capsys):
    # 25 raw columns expand to 48 indicator columns: 13 binary passthroughs,
    # five 5-band sources, one 4-band source, six thresholds
    import numpy as np
    rng = np.random.default_rng(0)
    n = 40
    header, cells, features = [], [], []
    for i in range(13):
        name = f"bin{i}"
        header.append(name)
        cells.append(rng.integers(0, 2, n))
        features.append({"source": name, "kind": "binary"})
    for i in range(5):
        name = f"age{i}"
        header.append(name)
        cells.append(rng.integers(10, 80, n))
        features.append({"source": name, "rules": [
            {"kind": "band", "low": None, "high": 17},
            {"kind": "band", "low": 18, "high": 24},
            {"kind": "band", "low": 25, "high": 29},
            {"kind": "band", "low": 30, "high": 39},
            {"kind": "band", "low": 40, "high": None}]})
    header.append("months")
    cells.append(rng.integers(0, 100, n))
    features.append({"source": "months", "rules": [
        {"kind": "band", "low": None, "high": 6},
        {"kind": "band", "low": 7, "high": 12},
        {"kind": "band", "low": 13, "high": 24},
        {"kind": "band", "low": 25, "high": None}]})
    for i in range(6):
        name = f"count{i}"
        header.append(name)
        cells.append(rng.integers(0, 10, n))
        features.append({"source": name, "rules": [
            {"kind": "threshold", "comparator": ">=", "value": 5}]})
    assert len(header) == 25

    raw = tmp_path / "raw.csv"
    lines = [",".join(header + ["y"])]
    labels = rng.integers(0, 2, n)
    for r in range(n):
        lines.append(",".join(str(int(col[r])) for col in cells) + f",{labels[r]}")
    raw.write_text("\n".join(lines) + "\n")
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"label_column": "y", "positive_token": "1",
                                 "features": features}))
    out = tmp_path / "wide.csv"
    assert run("encode", raw, "--rules", rules, "--output", out) == 0
    ds = load_csv(out, "y", "1")
    assert ds.p == 48


def test_parse_grid_presets():
    from intscore.cli import _parse_grid
    from intscore.evaluation import PRESET_GRIDS

    for name, grid in PRESET_GRIDS.items():
        assert _parse_grid(name) == grid
    assert _parse_grid("0.5, 1") == (__import__("fractions").Fraction(1, 2), 1)


def test_sweep_parallel_jobs(tmp_path, capsys):
    # points computed in two worker processes, each from its own copy of
    # the shared training-set aggregates, give the serial sweep's curve
    ds = synth_generate([0.5, 0.5, 0.3], [2.5, -2.5, 1.0], n=100, seed=4, bias=0.0)
    data = tmp_path / "d.csv"
    write_csv(ds, data)
    curves = []
    for jobs in ("2", "1"):
        outdir = tmp_path / f"jobs-{jobs}"
        code = run("sweep", data, "--grid", "0.8,1,1.2", "--coef-bound", "2",
                   "--intercept-bound", "4", "--max-terms", "2", "--pool", "8",
                   "--node-limit", "1500", "--jobs", jobs, "--outdir", outdir)
        assert code == 0
        curves.append((outdir / "curve.json").read_bytes())
    doc = json.loads(curves[0])
    assert [p["status"] for p in doc["points"]] == ["ok"] * 3
    assert curves[0] == curves[1]


def test_manifest_times_the_command(tmp_path, capsys, monkeypatch):
    # started is read when main dispatches the command, finished after the
    # command's work
    events = []

    def clock(fmt, *rest):
        events.append("clock")
        return str(len(events) - 1)

    generate = cli.synth_generate

    def generating(*args, **kwargs):
        events.append("run")
        return generate(*args, **kwargs)

    monkeypatch.setattr(time, "strftime", clock)
    monkeypatch.setattr(cli, "synth_generate", generating)
    out = tmp_path / "d.csv"
    assert run("synth", "--marginals", "0.5,0.3", "--weights", "1.0,-1.0", "--n", "50",
               "--output", out) == 0
    doc = json.loads(Path(f"{out}.manifest.json").read_text())
    assert int(doc["started"]) < events.index("run") < int(doc["finished"])


def _synth_manifest(tmp_path):
    out = tmp_path / "synth.csv"
    assert run("synth", "--marginals", "0.5,0.3", "--weights", "1.0,-1.0", "--n", "50",
               "--seed", "3", "--output", out) == 0
    return json.loads(Path(f"{out}.manifest.json").read_text())


def _model_doc(tmp_path):
    return json.loads(ScoringSystem.from_dense(0, [1, 0, -2], ["x1", "x2", "x3"]).to_json())


def _rules_doc(tmp_path):
    return {"label_column": "y", "features": [
        {"source": "age", "rules": [{"kind": "band", "low": None, "high": 20},
                                    {"kind": "threshold", "comparator": ">=", "value": 30}]}]}


def _edited(doc, path, *value):
    """A copy of doc with the entry at path set to value, or deleted when
    no value is given."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    if value:
        inner[path[-1]] = value[0]
    else:
        del inner[path[-1]]
    return doc


# for each command that reads a JSON document: how to build a valid one,
# how to run the command on it, and a document missing a required key and
# one with a value of the wrong type
_JSON_INPUTS = {
    "print": (_model_doc, lambda f, tmp, data: ("print", f),
              lambda d: _edited(d, ("terms",)), lambda d: _edited(d, ("intercept",), "0")),
    "evaluate": (_model_doc, lambda f, tmp, data: ("evaluate", f, data),
                 lambda d: _edited(d, ("n_features",)),
                 lambda d: _edited(d, ("terms", 0, "points"), 2.5)),
    "encode": (_rules_doc,
               lambda f, tmp, data: ("encode", tmp / "raw.csv", "--rules", f,
                                     "--output", tmp / "enc.csv"),
               lambda d: _edited(d, ("features", 0, "rules", 1, "comparator")),
               lambda d: _edited(d, ("features", 0, "rules", 0, "low"), "x")),
    "replay": (_synth_manifest, lambda f, tmp, data: ("replay", f),
               lambda d: _edited(d, ("config",)), lambda d: _edited(d, ("command",), "synth")),
}


@pytest.mark.parametrize("cmd", sorted(_JSON_INPUTS))
@pytest.mark.parametrize("fault", ["not json", "list", "missing key", "wrong type"])
def test_malformed_json_input_is_data_error(dataset_csv, tmp_path, capsys, cmd, fault):
    # a model, rules or manifest file the command cannot read is a data
    # error that names the file, never a traceback or a usage error
    (tmp_path / "raw.csv").write_text("age,y\n17,1\n35,0\n")
    valid, argv, missing, wrong = _JSON_INPUTS[cmd]
    doc = valid(tmp_path)
    text = {"not json": "{not json", "list": json.dumps([doc]),
            "missing key": json.dumps(missing(doc)), "wrong type": json.dumps(wrong(doc))}
    bad = tmp_path / "input.json"
    bad.write_text(text[fault])
    capsys.readouterr()
    assert run(*argv(bad, tmp_path, dataset_csv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(bad) in err


def test_json_inputs_read_when_valid(dataset_csv, tmp_path, capsys):
    # the documents the malformed variants are made from are read
    (tmp_path / "raw.csv").write_text("age,y\n17,1\n35,0\n")
    for cmd, (valid, argv, _, _) in _JSON_INPUTS.items():
        good = tmp_path / f"{cmd}.json"
        good.write_text(json.dumps(valid(tmp_path)))
        assert run(*argv(good, tmp_path, dataset_csv)) == 0, cmd


class _FullDisk:
    """A file that takes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, parts):
        for part in parts:
            self.fh.write(part[:len(part) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")


@pytest.mark.parametrize("cmd, target", [("train", "model.json"), ("sweep", "curve.json")])
def test_failed_write_leaves_no_file(dataset_csv, tmp_path, capsys, monkeypatch, cmd, target):
    def opening(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        return _FullDisk(fh) if Path(path).name == target + ".partial" else fh

    monkeypatch.setattr(cli, "open", opening, raising=False)
    out = tmp_path / "out"
    where = ("--output", out / "model.json") if cmd == "train" \
        else ("--grid", "1", "--outdir", out)
    with pytest.raises(OSError, match="No space left"):
        run(cmd, dataset_csv, "--coef-bound", "2", "--intercept-bound", "4", "--max-terms", "2",
            "--pool", "10", "--node-limit", "500", *where)
    assert not (out / target).exists()
    assert not (out / f"{target}.partial").exists()


def _manifest_config(path):
    return json.loads(Path(path).read_text())["config"]


def test_manifest_config_is_every_option(dataset_csv, tmp_path, capsys):
    # the parsed options after the config file's overrides, whatever the command
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("max-terms = 1\n")
    out = tmp_path / "m.json"
    assert run("--config", cfgfile, "train", dataset_csv, "--max-terms", "3", "--coef-bound", "2",
               "--intercept-bound", "4", "--pool", "10", "--node-limit", "500",
               "--output", out) == 0
    config = _manifest_config(f"{out}.manifest.json")
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "cmd")
    train = {a.dest for a in commands.choices["train"]._actions} - {"help"}
    assert set(config) == train
    assert config["max_terms"] == 1 and config["coef_bound"] == 2 and config["report"] is None

    mps_out = tmp_path / "p.mps"
    assert run("export-mps", dataset_csv, "--coef-bound", "3", "--intercept-bound", "5",
               "--variant", "polish", "--active", "x1,x3", "--output", mps_out) == 0
    config = _manifest_config(f"{mps_out}.manifest.json")
    assert (config["coef_bound"], config["intercept_bound"], config["active"]) == (3, 5, "x1,x3")

    outdir = tmp_path / "sweep"
    assert run("sweep", dataset_csv, "--grid", "1", "--coef-bound", "2", "--intercept-bound", "4",
               "--max-terms", "2", "--pool", "10", "--node-limit", "500",
               "--outdir", outdir) == 0
    config = _manifest_config(outdir / "manifest.json")
    assert (config["coef_bound"], config["intercept_bound"], config["grid"]) == (2, 4, "1")


def test_replay_refuses_an_edited_config_file(tmp_path, capsys):
    # the config file is a run input: replay after an edit is a data error,
    # as for a changed dataset
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("n = 50\n")
    out = tmp_path / "synth.csv"
    assert run("--config", cfgfile, "synth", "--marginals", "0.5,0.3", "--weights", "1.0,-1.0",
               "--n", "80", "--output", out) == 0
    manifest = Path(f"{out}.manifest.json")
    assert str(cfgfile) in json.loads(manifest.read_text())["input_hashes"]
    assert run("replay", manifest) == 0
    cfgfile.write_text("n = 60\n")
    capsys.readouterr()
    assert run("replay", manifest) == 2
    assert str(cfgfile) in capsys.readouterr().err
