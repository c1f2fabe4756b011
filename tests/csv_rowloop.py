"""The row-by-row CSV loader that ``gaflearn.data.load_csv`` replaced.

It reads the file through ``csv.reader`` and applies each check once per
cell. The tests compare the whole-buffer loader against it: on every table
whose quoting is canonical, both must return equal datasets or raise the
same exception with the same message.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from gaflearn.data import DatasetSchema, RawDataset
from gaflearn.errors import ParseError, SchemaError


def _utf8_lines(fh, path: str | Path):
    """The lines of a text file opened as UTF-8; ParseError naming the file
    if it is not UTF-8 (it is decoded in chunks, so no line is named)."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_csv_rows(path: str | Path, schema: DatasetSchema) -> RawDataset:
    """Parse a CSV under the schema; drops and counts rows with the missing marker.

    Field values are stripped of surrounding whitespace. A leading UTF-8
    byte-order mark, as spreadsheet programs write, is skipped. Parse failures
    name the offending line (1-based, header is line 1) and column.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise SchemaError(f"{path}: duplicate column names in header")
        declared = {s.name for s in schema.columns} | {schema.label}
        if set(header) != declared:
            missing_cols = sorted(declared - set(header))
            extra = sorted(set(header) - declared)
            raise SchemaError(
                f"{path}: header mismatch (missing {missing_cols}, undeclared {extra})"
            )
        label_pos = header.index(schema.label)
        feature_names = tuple(h for h in header if h != schema.label)
        specs = tuple(schema.column(name) for name in feature_names)
        positions = [header.index(name) for name in feature_names]

        # each kept row's values go straight into per-column lists; a
        # categorical column's values are coded by first sight in `seen`
        values: list[list] = [[] for _ in specs]
        seen: list[dict[str, int]] = [{} for _ in specs]
        labels: list[str] = []
        n_dropped = 0
        for line_no, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise ParseError(
                    f"{path}: line {line_no}: expected {len(header)} fields, got {len(record)}"
                )
            fields = [f.strip() for f in record]
            if schema.missing is not None and schema.missing in fields:
                n_dropped += 1
                continue
            for spec, pos, column, codes in zip(specs, positions, values, seen):
                value = fields[pos]
                if spec.kind == "numeric":
                    try:
                        number = float(value)
                    except ValueError:
                        raise ParseError(
                            f"{path}: line {line_no}: column {spec.name!r}: "
                            f"{value!r} is not numeric"
                        ) from None
                    if not math.isfinite(number):
                        raise ParseError(
                            f"{path}: line {line_no}: column {spec.name!r}: "
                            f"{value!r} is not a finite number"
                        )
                    column.append(number)
                elif spec.kind == "binary":
                    if value not in ("0", "1"):
                        raise ParseError(
                            f"{path}: line {line_no}: column {spec.name!r}: "
                            f"binary value must be 0 or 1, got {value!r}"
                        )
                    column.append(value == "1")
                else:
                    column.append(codes.setdefault(value, len(codes)))
            label = fields[label_pos]
            if schema.label_values is not None and label not in schema.label_values:
                raise SchemaError(
                    f"{path}: line {line_no}: label {label!r} not in declared label values"
                )
            labels.append(label)

    if not labels:
        raise ParseError(f"{path}: no data rows after cleaning")
    if schema.label_values is not None:
        label_values = schema.label_values
    else:
        label_values = tuple(sorted(set(labels)))
    if len(set(labels)) < 2:
        raise SchemaError(f"{path}: label column has fewer than 2 distinct values")
    columns, levels = [], []
    for spec, column, codes in zip(specs, values, seen):
        if spec.kind == "numeric":
            columns.append(np.array(column, dtype=np.float64))
            levels.append(())
        elif spec.kind == "binary":
            columns.append(np.array(column, dtype=np.uint8))
            levels.append(())
        else:  # recode from order of first sight to sorted order
            levels.append(tuple(sorted(codes)))
            rank = {level: i for i, level in enumerate(levels[-1])}
            sorted_code = np.array([rank[level] for level in codes], dtype=np.intp)
            columns.append(sorted_code[np.array(column, dtype=np.intp)])
    return RawDataset(
        feature_names=feature_names,
        specs=specs,
        columns=tuple(columns),
        levels=tuple(levels),
        labels=tuple(labels),
        label_name=schema.label,
        label_values=label_values,
        n_dropped=n_dropped,
    )
