"""JSON and CSV interchange for matrices, measurement sets and reports.

The matrix literal is ``{"rows": R, "cols": C, "data": [[re, im], ...]}`` in
row-major order; floats serialize via their shortest round-tripping decimal
form, so literal round-trips are entrywise exact.

Reports are written in one pass over the report objects, as string pieces
joined once. The bytes are those ``json.dumps(..., sort_keys=True, indent=2,
separators=(",", ": "))`` gives for the report as plain dicts and lists, but
without its pure-Python indenting encoder or a copy of the report. Non-finite
floats are written as the strings "nan", "inf" and "-inf". Identical runs give
identical bytes apart from the manifest timestamp.

Disturbance records are held as float64 columns. A run of two or more
records, all finite, is written in one ``%`` format of a ``%r`` template of
one record, cached per indent, over the interleaved columns' ``tolist()``,
so all its float formatting runs in C; a run holding a nan or an infinity
goes record by record, with the same bytes as json.dumps.

Flat tables are runs of rows that share their leading text cells (see
``write_table``): the records table has one run per (outcome, observable).
Each run is written with one ``%`` format as well, its labels quoted once as
``csv.writer`` quotes them, so the CSV bytes are those csv.writer writes for
the rows with every value cell given as its repr.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import time
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

import numpy as np

from .backaction import DisturbanceRecords
from .characterize import CharacterizationReport
from .errors import DimensionMismatch, NotHermitian, SchemaError, UnknownObservable
from .measurement import KrausSet
from .operators import HermitianObservable, as_complex_matrix, eigendecompose, named_observable
from .scenarios import (
    CloningReport,
    EavesdropReport,
    ScenarioReport,
    TeleportationCharacterization,
    require_integer,
)


def matrix_to_literal(matrix) -> dict:
    arr = as_complex_matrix(matrix)
    return {
        "rows": int(arr.shape[0]),
        "cols": int(arr.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in arr.reshape(-1)],
    }


def complex_vector_from_pairs(pairs, where: str) -> np.ndarray:
    """A non-empty list [[re, im], ...] with finite numeric (not bool) parts as a
    complex128 vector."""
    if not isinstance(pairs, list) or not pairs:
        raise SchemaError(f"{where}: expected a non-empty list of [re, im] pairs")
    out = np.empty(len(pairs), dtype=np.complex128)
    for i, pair in enumerate(pairs):
        if (not isinstance(pair, list) or len(pair) != 2 or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)):
            raise SchemaError(f"{where}[{i}]: expected [re, im]")
        if not all(math.isfinite(v) for v in pair):
            raise SchemaError(f"{where}[{i}]: entries must be finite, got {pair}")
        out[i] = complex(pair[0], pair[1])
    return out


def _require_count(where: str, name: str, value) -> None:
    """A positive integer field of a matrix literal or Kraus set, as an input error."""
    try:
        require_integer(name, value, minimum=1)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def matrix_from_literal(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: expected an object, got {type(obj).__name__}")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise SchemaError(f"{where}: missing field {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    _require_count(where, "rows", rows)
    _require_count(where, "cols", cols)
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(
            f"{where}.data: expected {rows * cols} [re, im] pairs, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}")
    out = complex_vector_from_pairs(data, f"{where}.data").reshape(rows, cols)
    out.setflags(write=False)
    return out


def kraus_set_from_dict(obj, where: str = "kraus") -> KrausSet:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where}: expected an object")
    if "outcomes" not in obj or not isinstance(obj["outcomes"], list) or not obj["outcomes"]:
        raise SchemaError(f"{where}.outcomes: expected a non-empty list")
    dim = obj.get("dim")
    if dim is not None:
        _require_count(where, "dim", dim)
    operators = []
    labels = []
    for i, entry in enumerate(obj["outcomes"]):
        here = f"{where}.outcomes[{i}]"
        if not isinstance(entry, Mapping) or "matrix" not in entry:
            raise SchemaError(f"{here}: expected an object with a matrix")
        matrix = matrix_from_literal(entry["matrix"], f"{here}.matrix")
        if dim is not None and matrix.shape != (dim, dim):
            raise SchemaError(
                f"{here}.matrix: shape {matrix.shape} does not match dim {dim}")
        operators.append(matrix)
        labels.append(str(entry.get("label", i)))
    complete = obj.get("complete", True)
    if not isinstance(complete, bool):
        raise SchemaError(f"{where}.complete: expected a boolean")
    try:
        return KrausSet(operators=tuple(operators), labels=tuple(labels), complete=complete)
    except ValueError as exc:  # duplicate labels
        raise SchemaError(f"{where}.outcomes: {exc}") from None


def load_json(path) -> Any:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def load_kraus_set(path) -> KrausSet:
    return kraus_set_from_dict(load_json(path), where=str(path))


def observable_from_spec(spec, dim: int, name: str | None = None,
                         where: str = "observable") -> HermitianObservable:
    """Resolve an observable given by preset name or matrix literal."""
    if isinstance(spec, str):
        try:
            return named_observable(spec, dim)
        except UnknownObservable:
            raise SchemaError(f"{where}: unknown observable name {spec!r}") from None
        except DimensionMismatch as exc:
            raise SchemaError(f"{where}: {exc}") from None
    if isinstance(spec, Mapping):
        matrix = matrix_from_literal(spec, where)
        if matrix.shape != (dim, dim):
            raise SchemaError(f"{where}: shape {matrix.shape} does not match dim {dim}")
        try:
            return eigendecompose(matrix, name=name)
        except NotHermitian as exc:
            raise SchemaError(f"{where}: {exc}") from None
    raise SchemaError(f"{where}: expected a name or a matrix literal")


def observables_from_dict(obj, where: str = "observables") -> dict[str, HermitianObservable]:
    """Load a named-observable file: {"dim": d, "observables": [{name, matrix}]}."""
    if not isinstance(obj, Mapping) or "observables" not in obj or "dim" not in obj:
        raise SchemaError(f"{where}: expected an object with dim and observables")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise SchemaError(f"{where}.dim: expected an integer >= 2")
    if not isinstance(obj["observables"], list):
        raise SchemaError(f"{where}.observables: expected a list")
    out: dict[str, HermitianObservable] = {}
    for i, entry in enumerate(obj["observables"]):
        here = f"{where}.observables[{i}]"
        if not isinstance(entry, Mapping) or "name" not in entry:
            raise SchemaError(f"{here}: expected an object with a name")
        name = str(entry["name"])
        spec = entry.get("matrix", name)
        out[name] = observable_from_spec(spec, dim, name=name, where=here)
    return out


_INDENT = "  "


@functools.cache
def _dataclass_keys(cls: type) -> tuple[tuple[str, str], ...] | None:
    """Field names of a dataclass type in sorted order, each paired with its
    encoded ``"name": `` key; None for any other type."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple((name, encode_basestring_ascii(name) + ": ")
                 for name in sorted(f.name for f in dataclasses.fields(cls)))


# Disturbance-record keys in the sorted order of their JSON objects.
_RECORD_KEYS = tuple(sorted(f.name for f in dataclasses.fields(DisturbanceRecords)))


def _record_columns(records: DisturbanceRecords, keys) -> np.ndarray:
    """The records as a (rows, len(keys)) float64 array, columns in ``keys`` order."""
    return np.column_stack([getattr(records, key) for key in keys])


@functools.cache
def _record_template(nl: str) -> str:
    """The ``%r`` template of one disturbance record's JSON object, keys
    sorted, starting on the line ``nl``."""
    inner = nl + _INDENT
    return ("{" + inner + ("," + inner).join(
        encode_basestring_ascii(key) + ": %r" for key in _RECORD_KEYS) + nl + "}")


def _records_json(records: DisturbanceRecords, nl: str) -> str:
    """The JSON array of disturbance records, one key-sorted object per row,
    starting on the line ``nl``. Two or more rows, all finite, are written in
    one format call; any other run goes row by row, nan and the infinities as
    strings."""
    table = _record_columns(records, _RECORD_KEYS)
    inner = nl + _INDENT
    if len(table) >= 2 and np.isfinite(table).all():
        body = ("," + inner).join([_record_template(inner)] * len(table))
        return "[" + inner + body % tuple(table.ravel().tolist()) + nl + "]"
    parts: list[str] = []
    _write_container("[]", [("", dict(zip(_RECORD_KEYS, row))) for row in table.tolist()],
                     nl, parts.append)
    return "".join(parts)


def _float_json(value: float) -> str:
    """Shortest round-trip decimal; "nan", "inf" and "-inf" as strings, since
    JSON has no literal for them."""
    text = float.__repr__(value)
    return text if math.isfinite(value) else '"' + text + '"'


def _write_container(brackets: str, members, nl: str, out) -> None:
    """An array or object from (prefix, value) members, where the prefix is
    the encoded ``"key": `` of an object member and empty for an array item."""
    if not members:
        out(brackets)
        return
    inner = nl + _INDENT
    sep = brackets[0] + inner
    for prefix, item in members:
        out(sep + prefix)
        _write_json(item, inner, out)
        sep = "," + inner
    out(nl + brackets[1])


def _write_json(value, nl: str, out) -> None:
    """Append the JSON text of ``value`` to ``out`` in pieces. ``nl`` is the
    newline plus indent of the line ``value`` starts on.

    Dataclasses and Mappings become objects with sorted keys (Mapping keys
    through ``str``), lists, tuples and 1-D arrays become arrays, 2-D arrays
    matrix literals, complex numbers ``{"im", "re"}`` objects and numpy
    scalars their Python value; anything else JSON cannot hold is a
    TypeError.
    """
    cls = value.__class__
    if cls is float:
        out(_float_json(value))
        return
    if cls is DisturbanceRecords:
        out(_records_json(value, nl))
        return
    keys = _dataclass_keys(cls)
    if keys is not None:
        _write_container("{}", [(key, getattr(value, name)) for name, key in keys], nl, out)
    elif isinstance(value, str):
        out(encode_basestring_ascii(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        out(_float_json(value))
    elif isinstance(value, (list, tuple)):
        _write_container("[]", [("", item) for item in value], nl, out)
    elif isinstance(value, Mapping):
        items = sorted({str(k): v for k, v in value.items()}.items())
        _write_container("{}", [(encode_basestring_ascii(k) + ": ", v) for k, v in items],
                         nl, out)
    elif isinstance(value, np.ndarray):
        if value.ndim == 2:
            _write_json(matrix_to_literal(value), nl, out)
        else:
            _write_container("[]", [("", item) for item in value.tolist()], nl, out)
    elif isinstance(value, (np.floating, np.integer, np.bool_)):
        _write_json(value.item(), nl, out)
    elif isinstance(value, complex):
        _write_json({"re": value.real, "im": value.imag}, nl, out)
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def report_json_bytes(report, manifest: "RunManifest | None" = None) -> bytes:
    """Deterministic JSON encoding of a report (optionally with its manifest),
    written in one pass over the report objects."""
    payload: dict[str, Any] = {"report": report}
    if manifest is not None:
        payload["manifest"] = manifest
    parts: list[str] = []
    _write_json(payload, "\n", parts.append)
    parts.append("\n")
    return "".join(parts).encode("utf-8")


def write_table(path, header: list[str], runs, fmt: str = "csv") -> None:
    """Write a table as CSV, or gnuplot-friendly TSV with a # header.

    ``runs`` holds (labels, values) pairs: the text cells that open one or
    more rows, and the remaining cells of those rows, row after row, as Python
    floats, ints and bools written as their repr. Each row has
    ``len(header) - len(labels)`` values; a run whose labels fill the header
    is one row. Every run is written with one ``%`` format, its labels quoted
    once as csv.writer quotes them."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)

        def line(cells) -> str:
            buf.seek(0)
            buf.truncate()
            writer.writerow(cells)
            return buf.getvalue()
        sep, end, head = ",", "\r\n", line(header)
    elif fmt == "tsv":
        def line(cells) -> str:
            return "\t".join(cells) + "\n"
        sep, end, head = "\t", "\n", "# " + line(header)
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(head)
        for labels, values in runs:
            width = len(header) - len(labels)
            if not width:
                fh.write(line(labels))
                continue
            # the labels and a placeholder cell, cut before the placeholder
            prefix = line([*labels, "x"])[:-1 - len(end)].replace("%", "%%")
            template = prefix + sep.join(["%r"] * width) + end
            fh.write(template * (len(values) // width) % tuple(values))


def table_cells(header: list[str], runs):
    """The rows of a table (see write_table) as lists of cell text."""
    for labels, values in runs:
        width = len(header) - len(labels)
        if not width:
            yield list(labels)
            continue
        for i in range(0, len(values), width):
            yield [*labels, *map(repr, values[i:i + width])]


def characterization_rows(report) -> tuple[list[str], list]:
    """Flat per-(outcome, observable) rows for a characterization report."""
    header = ["outcome", "status", "observable", "estimate", "resolution", "disturbance"]
    runs = []
    for outcome in report.outcomes:
        if outcome.status != "ok":
            runs.append(((outcome.outcome, outcome.status, "", "", "", ""), ()))
            continue
        for row in outcome.rows:
            runs.append(((outcome.outcome, "ok", row.observable),
                         (row.estimate, row.resolution, row.disturbance)))
    return header, runs


def pair_rows(report) -> tuple[list[str], list]:
    header = ["outcome", "observable_a", "observable_b",
              "resolution_a", "resolution_b", "pair_bound", "pair_slack", "pair_ok",
              "disturbance_b", "rd_bound", "rd_slack", "rd_ok"]
    runs = []
    for outcome in report.outcomes:
        for pair in outcome.pairs:
            rc, dc = pair.resolution_check, pair.disturbance_check
            runs.append(((outcome.outcome, pair.observable_a, pair.observable_b),
                         (rc.var_a, rc.var_b, rc.bound, rc.slack, rc.satisfied,
                          dc.disturbance, dc.bound, dc.slack, dc.satisfied)))
    return header, runs


def disturbance_record_rows(report) -> tuple[list[str], list]:
    """Per-final-value disturbance records across all outcomes and observables,
    one run per (outcome, observable)."""
    header = ["outcome", "observable", "final_value", "weight",
              "random", "systematic", "total"]
    runs = []
    for outcome in report.outcomes:
        for row in outcome.rows:
            table = _record_columns(row.disturbance_report.records, header[2:])
            runs.append(((outcome.outcome, row.observable), table.ravel().tolist()))
    return header, runs


def teleport_rows(report) -> tuple[list[str], list]:
    header = ["quadrature", "estimate", "resolution", "disturbance", "tail_mass"]
    runs = [(("x",), (report.estimate.real, report.resolution_x,
                      report.disturbance_x, report.tail_mass)),
            (("y",), (report.estimate.imag, report.resolution_y,
                      report.disturbance_y, report.tail_mass))]
    return header, runs


def cloning_rows(report) -> tuple[list[str], list]:
    header = ["outcome", "observable", "estimate", "resolution", "disturbance"]
    runs = [((row.outcome, report.observable), (row.estimate, row.resolution, row.disturbance))
            for row in report.rows]
    return header, runs


def eavesdrop_rows(report) -> tuple[list[str], list]:
    header = ["observable", "outcome", "analytic", "empirical_mean",
              "std_error", "count", "within_three_se"]
    runs = []
    for block in report.bases:
        for outcome, stat in (("(all)", block), *((o.outcome, o) for o in block.outcomes)):
            runs.append(((block.observable, outcome),
                         (stat.analytic, stat.empirical.mean, stat.empirical.std_error,
                          stat.empirical.count, stat.within_three_se)))
    return header, runs


# The flat tables written next to each report type, by table name.
_TABLES = {
    CharacterizationReport: (("characterization", characterization_rows),
                             ("pairs", pair_rows),
                             ("disturbance_records", disturbance_record_rows)),
    TeleportationCharacterization: (("teleport", teleport_rows),),
    CloningReport: (("cloning", cloning_rows),),
    EavesdropReport: (("eavesdrop", eavesdrop_rows),),
}


def report_tables(report) -> dict[str, tuple[list[str], list]]:
    """Header and runs (see write_table) of every flat table of a report (a
    scenario's come from its body); report types without tables give none."""
    if isinstance(report, ScenarioReport):
        report = report.body
    return {name: rows(report) for name, rows in _TABLES.get(type(report), ())}


def sha256_path(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded in every CLI report.

    Two runs with the same manifest (timestamp aside) must produce the same
    report bytes.
    """

    command: tuple[str, ...]
    inputs: dict[str, str]
    tolerances: dict[str, float]
    seed: int | None
    version: str
    timestamp: str


def make_manifest(command, inputs: dict[str, str], tolerances: dict[str, float],
                  seed: int | None, version: str) -> RunManifest:
    return RunManifest(
        command=tuple(str(c) for c in command),
        inputs=dict(inputs),
        tolerances=dict(tolerances),
        seed=seed,
        version=version,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
