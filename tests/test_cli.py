import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import kraus_set_to_dict, save_kraus_set
from qmeter.cli import main, parse_complex, parse_dims, parse_grid
from qmeter.errors import SchemaError
from qmeter.serialization import matrix_to_literal
from qmeter.measurement import KrausSet


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


@pytest.fixture
def projective_file(tmp_path):
    ks = KrausSet(operators=(np.diag([1.0, 0.0]).astype(complex),
                             np.diag([0.0, 1.0]).astype(complex)),
                  labels=("up", "down"), complete=True)
    path = tmp_path / "projective.json"
    save_kraus_set(ks, path)
    return str(path)


@pytest.fixture
def absorber_file(tmp_path):
    op = np.zeros((2, 2), dtype=complex)
    op[0, 1] = 1.0
    obj = kraus_set_to_dict(KrausSet(operators=(op,), labels=("n=1",), complete=False))
    obj["complete"] = True  # claims completeness it does not have
    return write_json(tmp_path / "absorber.json", obj)


class TestParsing:
    def test_complex_forms(self):
        assert parse_complex("0.5+0.3i") == 0.5 + 0.3j
        assert parse_complex("0.5+0.3j") == 0.5 + 0.3j
        assert parse_complex("1+i") == 1 + 1j
        assert parse_complex("-j") == -1j
        assert parse_complex("2") == 2 + 0j
        with pytest.raises(SchemaError):
            parse_complex("one plus i")

    def test_grid_forms(self):
        assert parse_grid("-2..2") == [-2.0, -1.0, 0.0, 1.0, 2.0]
        assert parse_grid("0.5,1.5") == [0.5, 1.5]
        with pytest.raises(SchemaError):
            parse_grid("5..1")

    def test_dims(self):
        assert parse_dims("2..4") == (2, 3, 4)
        assert parse_dims("2,5") == (2, 5)


class TestValidate:
    def test_pass(self, projective_file, capsys):
        assert main(["validate", projective_file]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fail_when_claims_complete(self, absorber_file, capsys):
        assert main(["validate", absorber_file]) == 1
        out = capsys.readouterr().out
        assert "deviation" in out

    def test_declared_partial_passes(self, tmp_path, capsys):
        op = np.zeros((2, 2), dtype=complex)
        op[0, 1] = 1.0
        ks = KrausSet(operators=(op,), labels=("n=1",), complete=False)
        path = tmp_path / "partial.json"
        save_kraus_set(ks, path)
        assert main(["validate", str(path)]) == 0
        assert "partial" in capsys.readouterr().out

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_missing_file(self):
        assert main(["validate", "/nonexistent/set.json"]) == 2


class TestCharacterize:
    def test_photon_preset_row(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["characterize", "--preset", "photon", "--dim", "4",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_bytes())
        row = report["report"]["outcomes"][0]["rows"][0]
        assert row["observable"] == "n"
        assert abs(row["estimate"] - 1.0) < 1e-12
        assert abs(row["resolution"]) < 1e-12
        assert abs(row["disturbance"] - 1.0) < 1e-12
        assert (out / "characterization.csv").exists()
        assert "manifest" in report

    def test_teleport_preset(self, tmp_path):
        # teleportation has no characterize preset; its one path is the scenario config
        config = write_json(tmp_path / "teleport.json", {
            "scenario": "classical_teleport", "dim": 60, "alpha": "0.5+0.3i"})
        out = tmp_path / "tp"
        assert main(["scenario", config, "--out", str(out)]) == 0
        body = json.loads((out / "scenario.json").read_bytes())["report"]["body"]
        assert body["estimate"]["re"] == pytest.approx(0.5, abs=5e-7)
        assert body["estimate"]["im"] == pytest.approx(0.3, abs=5e-7)
        for quadrature in ("x", "y"):
            assert body[f"resolution_{quadrature}"] == pytest.approx(0.25, abs=5e-7)
            assert body[f"disturbance_{quadrature}"] == pytest.approx(0.5, abs=5e-7)

    def test_preset_needs_dim(self, capsys):
        assert main(["characterize", "--preset", "photon"]) == 2
        err = capsys.readouterr().err
        assert "input error:" in err and "dim" in err

    def test_preset_and_scenario_config_give_equal_rows(self, tmp_path):
        preset, scenario = tmp_path / "preset", tmp_path / "scenario"
        assert main(["characterize", "--preset", "qnd", "--dim", "12", "--sigma", "3",
                     "--grid=-5..16", "--out", str(preset)]) == 0
        config = write_json(tmp_path / "qnd.json", {
            "scenario": "qnd", "dim": 12, "pointer_sigma": 3,
            "outcome_grid": list(range(-5, 17))})
        assert main(["scenario", config, "--out", str(scenario)]) == 0
        rows = (preset / "characterization.csv").read_text()
        assert len(rows.splitlines()) == 23  # header + 22 outcomes with one row each
        assert (scenario / "characterization.csv").read_text() == rows

    def test_qnd_preset(self, tmp_path):
        out = tmp_path / "qnd"
        assert main(["characterize", "--preset", "qnd", "--dim", "12",
                     "--sigma", "3", "--grid=-5..16", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_bytes())
        rows = [row for outcome in report["report"]["outcomes"]
                for row in outcome["rows"]]
        assert all(abs(r["disturbance"]) <= 1e-12 for r in rows)

    def test_kraus_file_with_pair(self, projective_file, tmp_path, capsys):
        out = tmp_path / "proj"
        assert main(["characterize", projective_file, "--names", "sz,sx",
                     "--pair", "sz,sx", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "pair (sz,sx)" in printed
        assert (out / "pairs.csv").exists()
        assert (out / "disturbance_records.csv").exists()

    def test_outcome_filter(self, projective_file, capsys):
        assert main(["characterize", projective_file, "--names", "sz",
                     "--outcome", "up"]) == 0
        printed = capsys.readouterr().out
        assert "up" in printed and "down" not in printed

    def test_outcome_flag_characterizes_only_the_selected_outcomes(self, tmp_path, monkeypatch):
        # --outcome m=0 writes m=0's bytes of the full run, and characterize
        # makes one final-result pass per observable instead of 51 each
        argv = ["characterize", "--preset", "qnd", "--dim", "30", "--sigma", "5",
                "--grid=-10..40", "--names", "n,x", "--pair", "n,x"]
        full, one = tmp_path / "full", tmp_path / "one"
        assert main(argv + ["--out", str(full)]) == 0
        module = importlib.import_module("qmeter.characterize")
        calls = []
        kernel = module.final_statistics
        monkeypatch.setattr(module, "final_statistics",
                            lambda *args: calls.append(args) or kernel(*args))
        assert main(argv + ["--outcome", "m=0", "--out", str(one)]) == 0
        assert len(calls) == 2
        for name in ("characterization.csv", "disturbance_records.csv", "pairs.csv"):
            full_lines, one_lines = ((d / name).read_bytes().splitlines() for d in (full, one))
            selected = [line for line in full_lines[1:] if line.startswith(b"m=0,")]
            assert selected and one_lines == full_lines[:1] + selected
        full_report, one_report = (json.loads((d / "report.json").read_bytes())["report"]
                                   for d in (full, one))
        assert one_report["outcomes"] == [o for o in full_report["outcomes"]
                                          if o["outcome"] == "m=0"]
        assert one_report["completeness"] == full_report["completeness"]

    def test_unknown_observable_is_input_error(self, projective_file):
        assert main(["characterize", projective_file, "--names", "bogus"]) == 2

    def test_unknown_outcome_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["characterize", "--preset", "photon", "--dim", "3",
                     "--outcome", "n=1", "--outcome", "bogus", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "input error:" in err and "'bogus'" in err and "'n=1'" not in err
        assert not out.exists()

    def test_tsv_format(self, projective_file, tmp_path):
        out = tmp_path / "tsv"
        assert main(["characterize", projective_file, "--names", "sz",
                     "--out", str(out), "--format", "tsv"]) == 0
        text = (out / "characterization.tsv").read_text()
        assert text.startswith("# outcome\t")


def partial_nan_kraus_file(tmp_path):
    literal = matrix_to_literal(np.diag([1.0, 0.5]).astype(complex))
    literal["data"][3][0] = float("nan")
    return write_json(tmp_path / "nan.json",
                      {"dim": 2, "complete": False,
                       "outcomes": [{"label": "0", "matrix": literal}]})


EAVESDROP = {"scenario": "eavesdrop", "dim": 2, "observables": {"A": "sz", "B": "sx"},
             "kraus": {"dim": 2, "outcomes": [
                 {"label": "0", "matrix": matrix_to_literal(np.diag([1.0, 0.0]))},
                 {"label": "1", "matrix": matrix_to_literal(np.diag([0.0, 1.0]))}]}}
QND = {"scenario": "qnd", "dim": 6, "pointer_sigma": 2, "outcome_grid": [0, 1, 2, 3, 4, 5]}
IDENTITY_SET = {"dim": 2, "outcomes": [{"label": "0", "matrix": matrix_to_literal(np.eye(2))}]}
UPPER = matrix_to_literal(np.triu(np.ones((2, 2))))  # not Hermitian


@pytest.mark.parametrize("argv", [
    ["verify", "--dims", "abc"],
    ["verify", "--dims", "0..2"],
    ["verify", "--dims", "3..2"],
    ["verify", "--dims", ","],
    ["verify", "--samples", "-3"],
    ["verify", "--seed", "-1"],
    ["verify", "--seed", str(2 ** 128)],
    ["characterize", "--preset", "photon", "--dim", "1"],
    ["characterize", "--preset", "qnd", "--dim", "4", "--sigma", "-1", "--grid=0..4"],
    ["characterize", "--preset", "qnd", "--dim", "4", "--sigma", "1", "--grid=1,nan"],
    ["scenario", {"scenario": "bogus", "dim": 2}],
    ["scenario", {"scenario": "qnd", "dim": 4, "pointer_sigma": 0,
                  "outcome_grid": [0, 1, 2]}],
    ["scenario", {"scenario": "cloning", "dim": 2, "observables": {"A": "sx"}}],
    ["validate", partial_nan_kraus_file],
    ["characterize", partial_nan_kraus_file, "--names", "sz"],
    ["scenario", {"scenario": "cloning", "dim": 2, "observables": {"A": "sx"},
                  "states": [[[float("nan"), 0.0], [0.0, 0.0]]]}],
    ["scenario", {"scenario": "cloning", "dim": 2, "observables": {"A": "sx"},
                  "states": [[[1.0, 0.0]]]}],
    ["scenario", {"scenario": "photon", "dim": 3, "observables": {"A": "sz"}}],
    *(["scenario", {**EAVESDROP, field: value}]
      for field in ("trials", "seed") for value in (1.5, 2.0, True, "3")),
    ["scenario", {**EAVESDROP, "seed": -1}],
    ["scenario", {**EAVESDROP, "seed": 2 ** 128}],
    ["scenario", EAVESDROP, "--seed", str(2 ** 128)],
    *(["scenario", {"scenario": "qnd", "dim": 6, "pointer_sigma": 2, "outcome_grid": grid}]
      for grid in ([0, "a", 3], [0, float("nan"), 3], [0, True, 3])),
    ["scenario", {"scenario": "qnd", "dim": 6, "pointer_sigma": float("inf"),
                  "outcome_grid": [0, 1, 2]}],
    *(["scenario", {"scenario": "classical_teleport", "dim": 8, "alpha": alpha}]
      for alpha in ([float("nan"), 0], "nan", True, [True, 0], [0.5])),
    *(["scenario", {"scenario": "photon", "dim": dim}] for dim in (1, 2.0, True, "3")),
    *(["characterize", "--preset", "photon", "--dim", "3", *flags]
      for flags in (["--sigma", "2"], ["--grid=0..3"], ["--sigma", "2", "--grid=0..3"])),
    *(["scenario", {"scenario": "photon", "dim": 3, **fields}]
      for fields in ({"pointer_sigma": 2}, {"outcome_grid": [0, 1, 2]})),
    ["scenario", {"scenario": "photon", "dim": 3, "alpha": "0.5", "forwarding": "reprepare",
                  "trials": 7}],
    ["scenario", {**QND, "seed": 5}],
    ["scenario", QND, "--seed", "5"],
    ["scenario", {**EAVESDROP, "trails": 100000}],
    ["scenario", {**EAVESDROP, "observables": {"A": "sz", "B": "sx", "C": "sy"}}],
    ["validate", {"dim": 2, "outcomes": [
        {"label": "0", "matrix": {"rows": True, "cols": 2, "data": [[1, 0], [0, 0]]}}]}],
    ["validate", {**IDENTITY_SET, "dim": 2.0}],
    ["validate", {"dim": True, "outcomes": [
        {"label": "0", "matrix": {"rows": 1, "cols": 1, "data": [[1, 0]]}}]}],
    ["validate", {"outcomes": [{"label": "0", "matrix": matrix_to_literal(np.eye(2))},
                               {"label": "1", "matrix": matrix_to_literal(np.eye(3))}]}],
    ["characterize", IDENTITY_SET, "--observables", {"dim": 3, "observables": [{"name": "n"}]}],
    ["scenario", {"scenario": "cloning", "dim": 2, "observables": {"A": "sx"},
                  "states": [[[1.0, 0.0], [1.0, 0.0]]]}],
    ["characterize", IDENTITY_SET, "--observables",
     {"dim": 2, "observables": [{"name": "up", "matrix": UPPER}]}],
    ["scenario", {"scenario": "photon", "dim": 2, "observables": {"A": UPPER}}],
    ["characterize", IDENTITY_SET, "--observables", {"dim": 2, "observables": 5}],
    ["scenario", {"scenario": "cloning", "dim": 2, "observables": {"A": "sx"}, "states": 5}],
    ["scenario", {**EAVESDROP, "kraus": {"file": 5}}],
    ["scenario", {"scenario": "classical_teleport", "dim": 4, "alpha": "3+0i"}],
    ["characterize", "--preset", "qnd", "--dim", "10", "--sigma", "0.1", "--grid=0,1"],
    ["scenario", {"scenario": "qnd", "dim": 10, "pointer_sigma": 0.1, "outcome_grid": [0, 1]}],
    ["validate", {"dim": 2, "outcomes": [IDENTITY_SET["outcomes"][0]] * 2}],
], ids=["verify-dims", "verify-dim-zero", "verify-dims-empty-range", "verify-dims-empty-list",
        "verify-samples", "verify-seed", "verify-seed-2^128", "photon-dim", "qnd-sigma",
        "qnd-grid-nan-flag", "scenario-name",
        "scenario-sigma", "scenario-missing-field", "validate-nan", "characterize-nan", "scenario-state-nan",
        "scenario-state-dim", "scenario-observable-dim",
        *(f"scenario-{field}-{kind}" for field in ("trials", "seed")
          for kind in ("fraction", "float", "bool", "string")),
        "scenario-seed-negative", "scenario-seed-2^128", "scenario-seed-flag-2^128",
        "scenario-grid-string", "scenario-grid-nan", "scenario-grid-bool", "scenario-sigma-inf",
        "scenario-alpha-nan-pair", "scenario-alpha-nan-string", "scenario-alpha-bool",
        "scenario-alpha-bool-pair", "scenario-alpha-short-pair",
        *(f"scenario-dim-{kind}" for kind in ("one", "float", "bool", "string")),
        "photon-sigma-flag", "photon-grid-flag", "photon-sigma-grid-flags",
        "scenario-photon-sigma", "scenario-photon-grid", "scenario-photon-unread-fields",
        "scenario-qnd-seed", "scenario-qnd-seed-flag", "scenario-unknown-field",
        "scenario-unknown-observable-key", "validate-rows-bool", "validate-dim-float",
        "validate-dim-bool", "validate-mixed-dims", "characterize-observables-dim",
        "scenario-state-not-unit", "characterize-observable-not-hermitian",
        "scenario-observable-not-hermitian", "characterize-observables-not-list",
        "scenario-states-not-list", "scenario-kraus-file-not-path",
        "scenario-alpha-beyond-truncation", "qnd-grid-leaves-level-flag",
        "scenario-qnd-grid-leaves-level", "validate-duplicate-labels"])
def test_bad_input_is_input_error(argv, tmp_path, capsys):
    argv = [write_json(tmp_path / f"arg{i}.json", a) if isinstance(a, dict)
            else a(tmp_path) if callable(a) else a for i, a in enumerate(argv)]
    assert main(argv) == 2
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize("dim", ["2", True, 1])
def test_malformed_dim_is_named_before_observables(dim, tmp_path, capsys):
    config = {**EAVESDROP, "dim": dim}
    assert main(["scenario", write_json(tmp_path / "cfg.json", config)]) == 2
    err = capsys.readouterr().err
    assert "input error: scenario config: dim must be" in err
    assert "observable" not in err


@pytest.mark.parametrize("argv", [
    ["validate", "k.json", "--seed", "1"],
    ["validate", "k.json", "--format", "csv"],
    ["validate", "k.json", "--out", "o"],
    ["characterize", "k.json", "--seed", "1"],
    ["verify", "--format", "csv"],
    ["scenario", "c.json", "--tol", "1e-3"],
])
def test_flags_without_effect_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--dims", "2", "--samples", "5", "--bound-scale", "nan"],
    ["verify", "--dims", "2", "--samples", "5", "--tol", "inf"],
    ["validate", "k.json", "--tol", "nan"],
    ["characterize", "k.json", "--tol=-inf"],
    ["characterize", "--preset", "qnd", "--dim", "4", "--sigma", "nan", "--grid=0..4"],
])
def test_non_finite_float_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["validate", "k.json", "--tol=-1e-9"], "expected a number >= 0"),
    (["characterize", "k.json", "--tol=-1"], "expected a number >= 0"),
    (["verify", "--dims", "2", "--samples", "5", "--tol=-1e-10"],
     "expected a number >= 0"),
    (["verify", "--dims", "2", "--samples", "5", "--bound-scale", "0"],
     "expected a number > 0"),
    (["verify", "--dims", "2", "--samples", "5", "--bound-scale=-1"],
     "expected a number > 0"),
], ids=["validate-tol", "characterize-tol", "verify-tol", "bound-scale-zero",
        "bound-scale-negative"])
def test_out_of_range_float_flags_are_rejected(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_zero_tolerance_is_accepted(projective_file, capsys):
    assert main(["validate", projective_file, "--tol", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


@pytest.mark.parametrize("command", ["characterize", "verify", "scenario"])
def test_manifest_records_the_argv_given(command, tmp_path, monkeypatch):
    # main(argv) records argv, not the arguments of the process that calls it
    config = write_json(tmp_path / "photon.json", {"scenario": "photon", "dim": 3})
    argv = {"characterize": ["characterize", "--preset", "photon", "--dim", "3"],
            "verify": ["verify", "--dims", "2", "--samples", "2"],
            "scenario": ["scenario", config]}[command] + ["--out", str(tmp_path / "out")]
    monkeypatch.setattr(sys, "argv", ["gen.py", "SRC", "OUT"])
    assert main(argv) == 0
    [report] = (tmp_path / "out").glob("*.json")
    assert json.loads(report.read_bytes())["manifest"]["command"] == argv
    monkeypatch.setattr(sys, "argv", ["qmeter", *argv])
    assert main() == 0
    assert json.loads(report.read_bytes())["manifest"]["command"] == argv


def test_manifest_records_only_applied_tolerances(tmp_path):
    for name, obj in (("tp", {"scenario": "classical_teleport", "dim": 20}),
                      ("sc", {"scenario": "photon", "dim": 3})):
        config, out = write_json(tmp_path / f"{name}.json", obj), tmp_path / name
        assert main(["scenario", config, "--out", str(out)]) == 0
        assert json.loads((out / "scenario.json").read_bytes())["manifest"]["tolerances"] == {}


class TestVerify:
    def test_small_run_passes(self, capsys):
        assert main(["verify", "--dims", "2..3", "--samples", "20",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "resolution_disturbance" in out
        assert "PASS" in out

    def test_deterministic_single_case(self, capsys):
        assert main(["verify", "--dims", "2", "--samples", "1", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--dims", "2", "--samples", "1", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_bound_scale_negative_control(self, capsys):
        assert main(["verify", "--dims", "2", "--samples", "5", "--seed", "5",
                     "--bound-scale", "1.01"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "worst offender" in captured.err

    def test_report_written(self, tmp_path):
        out = tmp_path / "verify"
        assert main(["verify", "--dims", "2", "--samples", "5", "--seed", "5",
                     "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_bytes())
        names = [r["name"] for r in report["report"]["relations"]]
        assert len(names) == 6


class TestScenario:
    def eavesdrop_config(self, tmp_path, seed=11, trials=20000):
        e0 = matrix_to_literal(np.diag([1.0, 0.0]).astype(complex))
        e1 = matrix_to_literal(np.diag([0.0, 1.0]).astype(complex))
        config = {
            "scenario": "eavesdrop",
            "dim": 2,
            "observables": {"A": "sz", "B": "sx"},
            "kraus": {"dim": 2, "complete": True, "outcomes": [
                {"label": "0", "matrix": e0}, {"label": "1", "matrix": e1}]},
            "trials": trials,
            "seed": seed,
        }
        return write_json(tmp_path / "eavesdrop.json", config)

    def test_eavesdrop_end_to_end(self, tmp_path, capsys):
        config = self.eavesdrop_config(tmp_path)
        out = tmp_path / "run1"
        assert main(["scenario", config, "--out", str(out)]) == 0
        report = json.loads((out / "scenario.json").read_bytes())
        bases = report["report"]["body"]["bases"]
        assert bases[0]["empirical"]["mean"] == 0.0
        assert abs(bases[1]["empirical"]["mean"] - 2.0) \
            <= 3 * bases[1]["empirical"]["std_error"]
        assert (out / "eavesdrop.csv").exists()

    def test_fixed_seed_bit_identical_reports(self, tmp_path):
        config = self.eavesdrop_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["scenario", config, "--out", str(out1)]) == 0
        assert main(["scenario", config, "--out", str(out2)]) == 0
        r1 = json.loads((out1 / "scenario.json").read_bytes())["report"]
        r2 = json.loads((out2 / "scenario.json").read_bytes())["report"]
        assert r1 == r2

    def test_identity_eve_zero_disturbance(self, tmp_path):
        config = {
            "scenario": "eavesdrop", "dim": 2,
            "observables": {"A": "sz", "B": "sx"},
            "kraus": {"dim": 2, "complete": True, "outcomes": [
                {"label": "id", "matrix": matrix_to_literal(np.eye(2))}]},
            "trials": 5000, "seed": 3,
        }
        path = write_json(tmp_path / "identity.json", config)
        out = tmp_path / "ident"
        assert main(["scenario", path, "--out", str(out)]) == 0
        report = json.loads((out / "scenario.json").read_bytes())
        for block in report["report"]["body"]["bases"]:
            assert block["empirical"]["mean"] == 0.0

    def test_qnd_scenario_config(self, tmp_path):
        config = {
            "scenario": "qnd", "dim": 16, "pointer_sigma": 5.0,
            "outcome_grid": [float(g) for g in range(-8, 25)],
        }
        path = write_json(tmp_path / "qnd.json", config)
        out = tmp_path / "qnd_out"
        assert main(["scenario", path, "--out", str(out)]) == 0
        report = json.loads((out / "scenario.json").read_bytes())
        rows = [row for outcome in report["report"]["body"]["outcomes"]
                for row in outcome["rows"]]
        assert all(abs(r["disturbance"]) <= 1e-12 for r in rows)

    def test_schema_error_diagnostics(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"scenario": "eavesdrop"})
        assert main(["scenario", path]) == 2
        assert "dim" in capsys.readouterr().err

    def test_seed_override_flag(self, tmp_path):
        config = self.eavesdrop_config(tmp_path, seed=11, trials=4096)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["scenario", config, "--seed", "77", "--out", str(out1)]) == 0
        assert main(["scenario", config, "--seed", "78", "--out", str(out2)]) == 0
        r1 = json.loads((out1 / "scenario.json").read_bytes())["report"]
        r2 = json.loads((out2 / "scenario.json").read_bytes())["report"]
        assert r1 != r2


class TestObservablesFile:
    def test_characterize_with_observable_file(self, projective_file, tmp_path, capsys):
        custom = {"dim": 2, "observables": [
            {"name": "sz"},
            {"name": "tilted", "matrix": matrix_to_literal(
                np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex))},
        ]}
        obs_path = write_json(tmp_path / "obs.json", custom)
        assert main(["characterize", projective_file,
                     "--observables", obs_path, "--pair", "sz,tilted"]) == 0
        printed = capsys.readouterr().out
        assert "tilted" in printed
        assert "pair (sz,tilted)" in printed


class TestCloningScenario:
    def test_cloning_config(self, tmp_path):
        config = {
            "scenario": "cloning", "dim": 2,
            "observables": {"A": "sx"},
            "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        path = write_json(tmp_path / "cloning.json", config)
        out = tmp_path / "clone_out"
        assert main(["scenario", path, "--out", str(out)]) == 0
        report = json.loads((out / "scenario.json").read_bytes())
        rows = report["report"]["body"]["rows"]
        assert len(rows) == 2
        for row in rows:
            assert abs(row["disturbance"] - 2.0) < 1e-12


class TestCloningSetViaFile:
    def test_sy_eigenbasis_pair_slack_nonnegative(self, tmp_path, capsys):
        # measure-and-prepare set from the sy eigenbasis, checked as a file
        yplus = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
        yminus = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)
        ks = KrausSet(operators=(np.outer(yplus, yplus.conj()),
                                 np.outer(yminus, yminus.conj())),
                      labels=("y+", "y-"), complete=True)
        path = tmp_path / "sy_cloning.json"
        save_kraus_set(ks, path)
        out = tmp_path / "sy_out"
        assert main(["characterize", str(path), "--names", "sz,sx",
                     "--pair", "sz,sx", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_bytes())
        for outcome in report["report"]["outcomes"]:
            for pair in outcome["pairs"]:
                assert pair["resolution_check"]["slack"] >= -1e-10
                assert pair["disturbance_check"]["slack"] >= -1e-10
                assert pair["disturbance_check"]["satisfied"]


def test_report_bytes_identical_apart_from_timestamp(tmp_path):
    e0 = matrix_to_literal(np.diag([1.0, 0.0]).astype(complex))
    e1 = matrix_to_literal(np.diag([0.0, 1.0]).astype(complex))
    config = write_json(tmp_path / "cfg.json", {
        "scenario": "eavesdrop", "dim": 2,
        "observables": {"A": "sz", "B": "sx"},
        "kraus": {"dim": 2, "complete": True, "outcomes": [
            {"label": "0", "matrix": e0}, {"label": "1", "matrix": e1}]},
        "trials": 8192, "seed": 5,
    })
    # the same command twice, since the manifest records the --out path
    out = tmp_path / "r"
    assert main(["scenario", config, "--out", str(out)]) == 0
    p1 = json.loads((out / "scenario.json").read_bytes())
    assert main(["scenario", config, "--out", str(out)]) == 0
    p2 = json.loads((out / "scenario.json").read_bytes())
    p1["manifest"]["timestamp"] = p2["manifest"]["timestamp"] = "masked"
    assert p1 == p2


class TestScenarioTableOutputs:
    def test_teleport_scenario_csv(self, tmp_path):
        config = write_json(tmp_path / "teleport.json", {
            "scenario": "classical_teleport", "dim": 40, "alpha": "0.2+0.1i",
        })
        out = tmp_path / "tp"
        assert main(["scenario", config, "--out", str(out)]) == 0
        text = (out / "teleport.csv").read_text()
        assert text.splitlines()[0] == "quadrature,estimate,resolution,disturbance,tail_mass"
        assert len(text.splitlines()) == 3

    def test_cloning_scenario_csv(self, tmp_path):
        config = write_json(tmp_path / "cloning.json", {
            "scenario": "cloning", "dim": 2,
            "observables": {"A": "sx"},
            "states": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        })
        out = tmp_path / "cl"
        assert main(["scenario", config, "--out", str(out)]) == 0
        lines = (out / "cloning.csv").read_text().splitlines()
        assert len(lines) == 3  # header + two outcomes


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestShippedConfigs:
    def test_every_scenario_has_a_config(self):
        scenarios = {json.loads(path.read_bytes())["scenario"] for path in CONFIGS.glob("*.json")}
        assert scenarios == {"photon", "qnd", "classical_teleport", "eavesdrop", "cloning"}

    @pytest.mark.parametrize("name", sorted(path.name for path in CONFIGS.glob("*.json")))
    def test_config_runs(self, name, tmp_path):
        out = tmp_path / "out"
        assert main(["scenario", str(CONFIGS / name), "--out", str(out)]) == 0
        assert (out / "scenario.json").exists()
