import dataclasses
import json
import math
import tempfile
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from oracles import random_complete_kraus_set, save_kraus_set
from qmeter import cli, serialization
from qmeter import (
    CharacterizationReport,
    CompletenessReport,
    DisturbanceReport,
    KrausSet,
    ObservableRow,
    OutcomeCharacterization,
    SchemaError,
    ScenarioConfig,
    characterize,
    named_observable,
    run_scenario,
)
from qmeter.serialization import (
    characterization_rows,
    disturbance_record_rows,
    kraus_set_from_dict,
    load_kraus_set,
    matrix_from_literal,
    matrix_to_literal,
    observable_from_spec,
    observables_from_dict,
    pair_rows,
    report_json_bytes,
    report_tables,
    table_cells,
    write_table,
)
from qmeter.backaction import DisturbanceRecords


class TestMatrixLiteral:
    def test_round_trip_exact(self):
        rng = np.random.Generator(np.random.Philox(key=101))
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        literal = matrix_to_literal(m)
        text = json.dumps(literal)
        back = matrix_from_literal(json.loads(text))
        assert np.array_equal(back, m)

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            matrix_from_literal([1, 2, 3])
        with pytest.raises(SchemaError):
            matrix_from_literal({"rows": 2, "cols": 2})
        with pytest.raises(SchemaError):
            matrix_from_literal({"rows": 2, "cols": 2, "data": [[1, 0]]})
        with pytest.raises(SchemaError):
            matrix_from_literal({"rows": 2, "cols": 1, "data": [[1, 0], ["x", 0]]})
        with pytest.raises(SchemaError):
            matrix_from_literal({"rows": 2, "cols": 1, "data": [[1, 0], [True, 0]]})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entries_rejected(self, bad):
        # Python's json module parses NaN and Infinity, so the loader must check
        parsed = json.loads(json.dumps({"rows": 1, "cols": 2, "data": [[1, 0], [0, bad]]}))
        with pytest.raises(SchemaError, match="finite"):
            matrix_from_literal(parsed)
        with pytest.raises(SchemaError):
            matrix_from_literal({"rows": 0, "cols": 2, "data": []})


class TestKrausFile:
    def test_file_round_trip_identical(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=103))
        kraus = random_complete_kraus_set(3, 4, rng)
        path = tmp_path / "set.json"
        save_kraus_set(kraus, path)
        loaded = load_kraus_set(path)
        assert loaded.complete == kraus.complete
        assert loaded.labels == tuple(str(l) for l in kraus.labels)
        for a, b in zip(loaded.operators, kraus.operators):
            assert np.array_equal(a, b)
        # serialize -> reload once more: still entrywise identical
        path2 = tmp_path / "set2.json"
        save_kraus_set(loaded, path2)
        again = load_kraus_set(path2)
        for a, b in zip(again.operators, loaded.operators):
            assert np.array_equal(a, b)

    def test_dict_schema_checks(self):
        with pytest.raises(SchemaError):
            kraus_set_from_dict({"outcomes": []})
        with pytest.raises(SchemaError):
            kraus_set_from_dict({"dim": 2, "outcomes": [{"label": "a"}]})
        good = {"dim": 2, "outcomes": [
            {"label": "a", "matrix": matrix_to_literal(np.eye(2))}], "complete": True}
        ks = kraus_set_from_dict(good)
        assert ks.labels == ("a",)
        bad_dim = dict(good, dim=3)
        with pytest.raises(SchemaError):
            kraus_set_from_dict(bad_dim)
        with pytest.raises(SchemaError):
            kraus_set_from_dict(dict(good, complete="yes"))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,\n  "outcomes": [}\n')
        with pytest.raises(SchemaError, match="line 2"):
            load_kraus_set(path)


class TestObservables:
    def test_from_spec_by_name_and_literal(self):
        obs = observable_from_spec("sz", 2)
        assert obs.name == "sz"
        literal = matrix_to_literal(np.diag([3.0, -1.0]))
        obs2 = observable_from_spec(literal, 2, name="custom")
        assert np.allclose(obs2.eigenvalues, [-1.0, 3.0])
        with pytest.raises(SchemaError):
            observable_from_spec("mystery", 2)
        with pytest.raises(SchemaError):
            observable_from_spec(literal, 3)

    def test_observables_file_schema(self):
        obj = {"dim": 2, "observables": [
            {"name": "sz"},
            {"name": "custom", "matrix": matrix_to_literal(np.eye(2))},
        ]}
        table = observables_from_dict(obj)
        assert set(table) == {"sz", "custom"}
        with pytest.raises(SchemaError):
            observables_from_dict({"observables": []})


class TestReportSerialization:
    def build_report(self):
        ks = KrausSet(operators=(np.diag([1.0, 0.5]).astype(complex),), complete=False)
        sz = named_observable("sz")
        sx = named_observable("sx")
        return characterize(ks, {"sz": sz, "sx": sx}, pairs=[("sz", "sx")])

    def test_deterministic_bytes(self):
        report = self.build_report()
        assert report_json_bytes(report) == report_json_bytes(self.build_report())

    def test_flat_tables(self):
        report = self.build_report()
        header, runs = characterization_rows(report)
        assert header[:3] == ["outcome", "status", "observable"]
        assert len(list(table_cells(header, runs))) == 2  # one outcome x two observables
        header, runs = pair_rows(report)
        assert len(list(table_cells(header, runs))) == 1
        header, runs = disturbance_record_rows(report)
        rows = list(table_cells(header, runs))
        assert len(runs) == 2 and len(rows) >= 2
        # values round-trip through repr
        value = float(rows[0][-1])
        assert value >= 0.0

    def test_report_tables_by_report_type(self):
        report = self.build_report()
        tables = report_tables(report)
        assert list(tables) == ["characterization", "pairs", "disturbance_records"]
        assert tables["pairs"] == pair_rows(report)
        photon = run_scenario(ScenarioConfig(scenario="photon", dim=3))
        assert report_tables(photon) == report_tables(photon.body)
        assert list(report_tables(photon)) == list(tables)
        teleport = run_scenario(ScenarioConfig(scenario="classical_teleport", dim=8))
        assert list(report_tables(teleport)) == ["teleport"]
        assert report_tables({"x": 1.0}) == {}

    def test_json_is_loadable_and_sorted(self):
        payload = json.loads(report_json_bytes(self.build_report()))
        assert "report" in payload
        keys = list(payload["report"].keys())
        assert keys == sorted(keys)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                       np.float64("nan"), complex(float("nan"), 1.0),
                                       np.array([[1.0, np.inf]])])
    def test_non_finite_values_are_strict_json(self, value):
        text = report_json_bytes({"x": value}).decode("utf-8")

        def reject(token):
            raise AssertionError(f"bare {token} in {text!r}")

        json.loads(text, parse_constant=reject)


def to_jsonable(value):
    """Reference converter: the report as plain JSON-ready dicts and lists,
    disturbance records as a list of one dict per record."""
    if isinstance(value, DisturbanceRecords):
        keys = [f.name for f in dataclasses.fields(value)]
        return [to_jsonable(dict(zip(keys, row)))
                for row in zip(*(getattr(value, key).tolist() for key in keys))]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        if value.ndim == 2:
            literal = matrix_to_literal(value)
            if not np.isfinite(value).all():
                literal["data"] = to_jsonable(literal["data"])
            return literal
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, complex):
        return {"re": to_jsonable(value.real), "im": to_jsonable(value.imag)}
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def oracle_json_bytes(report, manifest=None) -> bytes:
    """The report bytes as json.dumps writes them from to_jsonable."""
    payload = {"report": to_jsonable(report)}
    if manifest is not None:
        payload["manifest"] = to_jsonable(manifest)
    return (json.dumps(payload, sort_keys=True, indent=2,
                       separators=(",", ": ")) + "\n").encode("utf-8")


@dataclasses.dataclass(frozen=True)
class Leaf:
    zeta: object
    alpha: float


@dataclasses.dataclass(frozen=True)
class Node:
    items: tuple
    child: object
    label: str


@dataclasses.dataclass(frozen=True)
class Empty:
    pass


FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1e22, -1e16, 0.1])
SCALARS = (st.none() | st.booleans() | st.integers() | FLOATS
           | st.text() | st.complex_numbers()
           | FLOATS.map(np.float64) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
           | st.booleans().map(np.bool_)
           | hnp.arrays(np.complex128, st.integers(0, 4))
           | hnp.arrays(np.float64, st.integers(0, 4))
           | hnp.arrays(np.complex128, hnp.array_shapes(min_dims=2, max_dims=2,
                                                       min_side=0, max_side=3))
           | st.builds(Empty))
KEYS = st.text() | st.integers() | FLOATS | st.booleans() | st.none()
VALUES = st.recursive(SCALARS, lambda inner: (
    st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4)
    | st.dictionaries(KEYS, inner, max_size=3).map(MappingProxyType)
    | st.builds(Leaf, zeta=inner, alpha=FLOATS)
    | st.builds(Node, items=st.lists(inner, max_size=3).map(tuple), child=inner,
                label=st.text())), max_leaves=20)


RECORD_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e22, 1e-7, -1e16, 0.1]) | st.floats(
    allow_nan=False, allow_infinity=False)
# labels that csv.writer must quote, or leave alone, and a % for the template
LABELS = st.text(st.sampled_from([",", '"', "\n", "\r", " ", "%", "\t", "a", "é"]),
                 max_size=4) | st.text(max_size=4)


@st.composite
def record_runs(draw):
    """DisturbanceRecords of 0 to 4 finite rows, or with one nan or infinity."""
    n = draw(st.integers(0, 4))
    cells = draw(st.lists(RECORD_FLOATS, min_size=5 * n, max_size=5 * n))
    if n and draw(st.booleans()):
        cells[draw(st.integers(0, 5 * n - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    return DisturbanceRecords(*np.array(cells, dtype=np.float64).reshape(5, n))


def records_report(runs) -> CharacterizationReport:
    """A characterization report with one (outcome, observable) row per
    (outcome label, observable name, records) run."""
    outcomes = tuple(OutcomeCharacterization(
        outcome=label, status="ok", pairs=(), rows=(ObservableRow(
            observable=name, estimate=0.0, resolution=0.0, disturbance=0.0,
            disturbance_report=DisturbanceReport(observable=name, value=0.0, trace_form=0.0,
                                                 records=records)),))
        for label, name, records in runs)
    return CharacterizationReport(completeness=CompletenessReport(0.0, 1e-9, True),
                                  declared_complete=True, outcomes=outcomes)


def nested(value, wrappers):
    """``value`` inside a list, an object and a dataclass, one per wrapper."""
    for wrapper in wrappers:
        value = {"list": [value, 1.5], "dict": {"run": value, "z": None},
                 "node": Node(items=(value,), child=-0.0, label="n")}[wrapper]
    return value


class TestReportBytes:
    """report_json_bytes writes exactly what json.dumps wrote from to_jsonable."""

    @settings(max_examples=300, deadline=None)
    @given(record_runs(), st.lists(st.sampled_from(["list", "dict", "node"]), max_size=4))
    def test_float_records_match_oracle(self, records, wrappers):
        # a finite run of two or more records is written in one format call,
        # any other run record by record; both at every indent depth
        report = nested(records, wrappers)
        assert report_json_bytes(report) == oracle_json_bytes(report)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(LABELS, LABELS, record_runs()), max_size=4))
    def test_record_tables_match_oracle(self, runs):
        # one % format per run against csv.writer and a tab join over repr'd
        # cells, one row per record
        report = records_report(runs)
        assert report_json_bytes(report) == oracle_json_bytes(report)
        with tempfile.TemporaryDirectory() as tmp:
            for fmt in ("csv", "tsv"):
                got, want = Path(tmp, f"got.{fmt}"), Path(tmp, f"want.{fmt}")
                write_table(got, *report_tables(report)["disturbance_records"], fmt)
                oracles.write_rows(want, *oracles.disturbance_record_rows(report), fmt)
                assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(VALUES, st.none() | VALUES)
    def test_matches_oracle(self, report, manifest):
        assert report_json_bytes(report, manifest) == oracle_json_bytes(report, manifest)

    @pytest.mark.parametrize("value", [{1, 2}, object(), np.complex64(1.0), Leaf])
    def test_unencodable_value_is_type_error(self, value):
        with pytest.raises(TypeError):
            report_json_bytes({"x": [value]})

    @pytest.mark.parametrize("argv", [
        ["characterize", "--preset", "qnd", "--dim", "12", "--sigma", "3",
         "--grid=-5..16", "--names", "n,x", "--pair", "n,x"],
        ["verify", "--dims", "2..3", "--samples", "50"],
    ], ids=["characterize-qnd", "verify"])
    def test_cli_reports_match_oracle(self, argv, tmp_path, monkeypatch):
        written, seen = [], []
        records_json = serialization._records_json

        def recording(report, manifest=None):
            data = report_json_bytes(report, manifest)
            written.append((report, data, oracle_json_bytes(report, manifest)))
            return data

        def counting(records, nl):
            seen.append(records)
            return records_json(records, nl)

        monkeypatch.setattr(cli, "report_json_bytes", recording)
        monkeypatch.setattr(serialization, "_records_json", counting)
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        [(report, data, expected)] = written
        assert b'"timestamp": "' in data
        assert data == expected
        assert [p.read_bytes() for p in tmp_path.glob("*.json")] == [data]
        # every run of disturbance records goes through the column writer, and
        # each of characterize's holds two or more finite records, so it is
        # written in one format call; the verify report has no records
        runs = [row.disturbance_report.records for outcome in getattr(report, "outcomes", ())
                for row in outcome.rows]
        assert [id(records) for records in seen] == [id(records) for records in runs]
        assert all(len(r.final_value) >= 2 and np.isfinite(np.stack(dataclasses.astuple(r))).all()
                   for r in seen)
        assert len(seen) == {"characterize": 22 * 2, "verify": 0}[argv[0]]  # outcomes x {n, x}
        if runs:
            oracles.write_rows(tmp_path / "want.csv", *oracles.disturbance_record_rows(report),
                               "csv")
            assert (tmp_path / "disturbance_records.csv").read_bytes() == \
                (tmp_path / "want.csv").read_bytes()
