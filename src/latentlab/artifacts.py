"""The package's on-disk formats, and the only code in it that writes a file:
JSON and CSV text, and each stage's header (checked by its field table) and
native binary, refused when missing, malformed or stale."""

from __future__ import annotations

import csv
import json
import math
import sys
from collections import namedtuple
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_integer(value) or isinstance(value, float)


# What each JSON type (or, for some fields, value) in a field table accepts,
# keyed by the name that a refusal gives.
JSON_KINDS = {
    "an integer": _is_integer,
    "a non-negative integer": lambda v: _is_integer(v) and v >= 0,
    "a positive integer": lambda v: _is_integer(v) and v > 0,
    "a finite number": lambda v: _is_number(v) and abs(v) <= sys.float_info.max,
    # NaN fails every comparison, so these refuse it with the infinities.
    "a number in (0, 1)": lambda v: _is_number(v) and 0 < v < 1,
    "a number in (0, 1]": lambda v: _is_number(v) and 0 < v <= 1,
    "a number in [0, 1]": lambda v: _is_number(v) and 0 <= v <= 1,
    "a boolean": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a list": lambda v: isinstance(v, list),
    "an object": lambda v: isinstance(v, dict),
    "an [offset, length] pair": lambda v: isinstance(v, list) and len(v) == 2
    and all(_is_integer(x) and x >= 0 for x in v),
    '"C" or "F"': lambda v: v in ("C", "F"),
    '"float32"': lambda v: v == "float32",
    '"float64"': lambda v: v == "float64",
}


# A field table maps each field of a JSON object to its `JSON_KINDS` type,
# whether the object must hold it (a null counts as absent) and, for a list
# or an object, the type of each entry.
Field = namedtuple("Field", "kind required entries", defaults=(True, None))


def check_fields(obj: dict, table: Mapping[str, Field]) -> tuple[str, str] | None:
    """The first field of ``obj`` that ``table`` refuses, as ``(key, problem)``:
    in table order a required field that is "missing", or a field or entry
    that "[entry <e>] must be <type>, got <value>"; then the keys the table
    lacks, listed in ``key``, as "unknown".  None if ``table`` accepts ``obj``."""
    for key, field in table.items():
        value = obj.get(key)
        if value is None:
            if field.required:
                return key, "missing"
        elif not JSON_KINDS[field.kind](value):
            return key, f"must be {field.kind}, got {json.dumps(value)}"
        elif field.entries:
            for entry, item in value.items() if isinstance(value, dict) else enumerate(value):
                if not JSON_KINDS[field.entries](item):
                    return key, f"entry {entry!r} must be {field.entries}, got {json.dumps(item)}"
    unknown = sorted(set(obj) - set(table))
    return (", ".join(map(repr, unknown)), "unknown") if unknown else None


# The fields of a ``dataset.json`` header, as ``scm.save_dataset`` writes them.
DATASET_FIELDS = {
    "n": Field("an integer"), "total_dim": Field("an integer"),
    "dtype": Field('"float64"'), "order": Field('"C" or "F"'),
    "column_spans": Field("an object", entries="an [offset, length] pair"),
    "layout": Field("a list", entries="a string"),
    "seed": Field("an integer", False), "scm": Field("an object", False),
}

# The fields of a ``model.json`` header, as ``mae.save_model`` writes them.
# ``mask`` entered the header before ``dtype`` did, so every checkpoint this
# table accepts records one; it is null only for an untrained model, as
# ``mae.init_mae_model`` makes.
MODEL_FIELDS = {
    "layout": Field("a list", entries="a string"), "widths": Field("an object", entries="a positive integer"),
    "d_c": Field("a positive integer"), "d_sm": Field("a non-negative integer"),
    "hidden": Field("a list", entries="a positive integer"), "slope": Field("a number in [0, 1]"),
    "param_seed": Field("a non-negative integer"), "n_params": Field("a non-negative integer"),
    "dtype": Field('"float32"'), "mask": Field("a list", False, "a string"),
}


def write_json(obj, path: Path | None = None) -> str:
    """``obj`` as indented JSON text with sorted keys, also written to ``path`` if given."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return text


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if any(ch in cell for ch in ',"\r\n') else cell


def write_csv(path: Path, header: list[str], rows: list, append: bool = False) -> Path:
    """Write ``rows`` under ``header``, one ``%`` expression per row, which
    writes a float as its ``repr``.  A column whose first cell is a string is
    text, quoted as the csv module quotes it if it holds a comma, a double
    quote or a line break.  ``append`` adds the rows after an existing file's lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = {i for i, cell in enumerate(rows[0]) if isinstance(cell, str)} if rows else ()
    if text:
        rows = [[_quoted(str(c)) if i in text else c for i, c in enumerate(row)] for row in rows]
    row_format = ",".join(["%s"] * len(header))
    lines = [] if append and path.exists() else [",".join(header)]
    lines += [row_format % tuple(row) for row in rows]
    with open(path, "a" if append else "w") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return path


def write_artifact(base: Path, header: dict, values: np.ndarray, order="C", columns=None) -> dict[str, Path]:
    """Write ``<base>.bin`` (``values`` in ``order``), then its ``<base>.json`` header, and given ``columns``
    a ``<base>.csv`` of each value's ``repr`` in the csv module's CRLF dialect; returns the paths by suffix."""
    base.parent.mkdir(parents=True, exist_ok=True)
    written = {"bin": base.with_suffix(".bin"), "json": base.with_suffix(".json")}
    written["bin"].write_bytes(values.tobytes(order=order))
    write_json(header, written["json"])
    if columns is not None:
        written["csv"] = base.with_suffix(".csv")
        with open(written["csv"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows([repr(float(x)) for x in row] for row in values)
    return written


def read_header(path: Path, kind: str, table: Mapping[str, Field], writer: str) -> dict:
    """The JSON object in the UTF-8 text of ``path``, a ``kind`` header
    written by the CLI's ``writer`` stage.  No file, anything else, or an
    object that ``table`` refuses is an error naming the file (and the
    field) and ``writer``."""
    if not path.exists():
        raise FileNotFoundError(f"{kind} not found under {path.parent}; run {writer} first")
    try:
        header = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise ValueError(f"{path} is not UTF-8 text; run {writer} again") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}; run {writer} again") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path} is not a {kind} header; run {writer} again")
    if report := check_fields(header, table):
        key, problem = report
        detail = {"missing": f" has no {key!r} field", "unknown": f" has unknown field(s) {key}"}
        raise ValueError(f"{path}{detail.get(problem, f': its {key!r} field {problem}')}; run {writer} again")
    return header


def read_array(path: Path, shape: tuple[int, ...], dtype, order: str, what: Callable[[np.ndarray], str]):
    """The ``shape`` array of native ``dtype`` values in ``order`` in ``path``;
    refused naming the file and, if one is non-finite, ``what(values)``."""
    expected = np.dtype(dtype).itemsize * math.prod(shape)
    actual = path.stat().st_size
    if actual != expected:
        raise ValueError(f"{path} holds {actual} bytes, but its header calls for {expected}")
    values = np.fromfile(path, dtype=dtype).reshape(shape, order=order)
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: non-finite {what(values)}")
    return values


def _some(ids: set[str]) -> str:
    """At most three of ``ids``, sorted, and how many more there are."""
    shown = sorted(ids)[:3]
    more = f" and {len(ids) - len(shown)} more" if len(ids) > len(shown) else ""
    return ", ".join(shown) + more if shown else "none"


def require_current(path: Path, writer: str, compared: Iterable[tuple[str, object, object]]) -> None:
    """Refuse the artifact whose header is ``path`` when the first of the
    ``compared`` (key, recorded, expected) triples that differ shows it was
    written for other settings; a set of node ids is told by its count."""
    for key, recorded, expected in compared:
        if recorded == expected:
            continue
        if isinstance(expected, set):
            raise ValueError(f"{path} is stale: its {key} has {len(recorded)} nodes, but the config's {key!r} has "
                             f"{len(expected)} (only in the config's {key}: {_some(expected - recorded)}; only in "
                             f"the {path.stem}: {_some(recorded - expected)}); run {writer} again")
        raise ValueError(f"{path} is stale: its {key} is {json.dumps(recorded)}, "
                         f"but the config's {key!r} is {json.dumps(expected)}; run {writer} again")
