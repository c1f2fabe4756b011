"""Tabular data loading, binarization into input arguments, stratified splits.

A JSON schema declares the label column and each feature column's kind
(numeric, categorical, or binary) plus optional binning overrides. Numeric
features become equal-frequency interval indicators, categoricals become
one-hot indicators, binary features pass through, so every instance turns
into a 0/1 vector whose entries feed the input arguments of a classifier
graph.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InputShapeError, ParseError, SchemaError, StratificationError

KINDS = ("numeric", "categorical", "binary")


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    bins: int | None = None
    thresholds: tuple[float, ...] | None = None


@dataclass(frozen=True)
class DatasetSchema:
    label: str
    columns: tuple[ColumnSpec, ...]
    label_values: tuple[str, ...] | None = None
    missing: str | None = None

    def column(self, name: str) -> ColumnSpec:
        for spec in self.columns:
            if spec.name == name:
                return spec
        raise KeyError(name)


def schema_from_dict(raw: dict) -> DatasetSchema:
    """Validate a parsed schema document; raises SchemaError on any defect."""
    if not isinstance(raw, dict):
        raise SchemaError("schema must be a JSON object")
    allowed = {"label", "label_values", "missing", "columns"}
    unknown = set(raw) - allowed
    if unknown:
        raise SchemaError(f"unknown schema keys: {sorted(unknown)}")
    label = raw.get("label")
    if not isinstance(label, str) or not label:
        raise SchemaError("schema needs a non-empty 'label' column name")
    columns = raw.get("columns")
    if not isinstance(columns, dict) or not columns:
        raise SchemaError("schema needs a non-empty 'columns' object")
    specs = []
    for name, body in columns.items():
        if name == label:
            raise SchemaError(f"label column {label!r} must not appear in 'columns'")
        if not isinstance(body, dict):
            raise SchemaError(f"column {name!r}: spec must be an object")
        extra = set(body) - {"kind", "bins", "thresholds"}
        if extra:
            raise SchemaError(f"column {name!r}: unknown keys {sorted(extra)}")
        kind = body.get("kind")
        if kind not in KINDS:
            raise SchemaError(f"column {name!r}: kind must be one of {KINDS}, got {kind!r}")
        bins = body.get("bins")
        if bins is not None:
            if kind != "numeric":
                raise SchemaError(f"column {name!r}: 'bins' only applies to numeric columns")
            if not isinstance(bins, int) or bins < 2:
                raise SchemaError(f"column {name!r}: 'bins' must be an integer >= 2")
        thresholds = body.get("thresholds")
        if thresholds is not None:
            if kind != "numeric":
                raise SchemaError(f"column {name!r}: 'thresholds' only applies to numeric columns")
            if bins is not None:
                raise SchemaError(f"column {name!r}: give 'bins' or 'thresholds', not both")
            if not isinstance(thresholds, list) or not thresholds or not all(
                isinstance(t, (int, float)) and not isinstance(t, bool) for t in thresholds
            ):
                raise SchemaError(f"column {name!r}: 'thresholds' must be a non-empty number list")
            try:
                finite = all(math.isfinite(t) for t in thresholds)
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise SchemaError(f"column {name!r}: 'thresholds' must be finite")
            thresholds = tuple(sorted(set(float(t) for t in thresholds)))
        specs.append(ColumnSpec(name=name, kind=kind, bins=bins, thresholds=thresholds))
    label_values = raw.get("label_values")
    if label_values is not None:
        if (
            not isinstance(label_values, list)
            or len(label_values) < 2
            or not all(isinstance(v, str) for v in label_values)
            or len(set(label_values)) != len(label_values)
        ):
            raise SchemaError("'label_values' must list >= 2 distinct strings")
        label_values = tuple(label_values)
    missing = raw.get("missing")
    if missing is not None and (not isinstance(missing, str) or not missing):
        raise SchemaError("'missing' must be a non-empty string or null")
    return DatasetSchema(label=label, columns=tuple(specs), label_values=label_values, missing=missing)


def load_schema(path: str | Path) -> DatasetSchema:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as exc:  # a ValueError too, so it goes first
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    return schema_from_dict(raw)


@dataclass(frozen=True, eq=False)
class RawDataset:
    """Cleaned tabular data: one array per feature column plus string labels.

    ``columns[j]`` holds feature j for every kept row: float64 values for a
    numeric column, 0/1 uint8 values for a binary one, and for a
    categorical one intp codes into ``levels[j]``, that column's levels in
    sorted order. ``levels[j]`` is empty for the other kinds.
    """

    feature_names: tuple[str, ...]
    specs: tuple[ColumnSpec, ...]
    columns: tuple[np.ndarray, ...]
    levels: tuple[tuple[str, ...], ...]
    labels: tuple[str, ...]
    label_name: str
    label_values: tuple[str, ...]
    n_dropped: int

    @property
    def n_instances(self) -> int:
        return len(self.labels)

    def label_indices(self) -> np.ndarray:
        """Each row's label as its index in ``label_values``."""
        index = {name: i for i, name in enumerate(self.label_values)}
        return np.fromiter(map(index.__getitem__, self.labels), np.int64, self.n_instances)


_BOM = b"\xef\xbb\xbf"
_PAD = 8  # zero bytes after the data, so an 8-byte word can be read at any data byte
_WORD_KEY_BYTES = 64  # fields shorter than this are grouped by 8-byte words, longer by a dict
# _LOW[k] keeps the first k bytes of a little-endian 8-byte word
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_HASH_FACTOR = np.uint64(0x9E3779B97F4A7C15)  # odd: 2**64 over the golden ratio


def _read_padded(path: str | Path) -> tuple[bytearray, int]:
    """The file's bytes followed by ``_PAD`` zero bytes, and the file's length."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = bytearray(size + _PAD)
        n = fh.readinto(memoryview(buf)[:size])
        rest = fh.read()  # a file that grew after its size was read
    if rest:
        buf = buf[:n] + rest + bytes(_PAD)
        n += len(rest)
    return buf, n


def _records(buf: bytearray, start: int, n: int):
    """Comma positions, each record's [start, end) bytes, and whether the
    data holds a quote.

    LF, CR and CR LF end a record. A comma or line end after an odd number
    of quotes lies inside a quoted field and separates nothing.
    """
    a = np.frombuffer(buf, np.uint8)
    pos = np.int32 if len(buf) < 2**31 else np.int64
    commas, quotes, lf, cr = (
        np.flatnonzero(a[:n] == byte).astype(pos, copy=False) for byte in b',"\n\r'
    )
    if quotes.size:
        commas, lf, cr = (p[np.searchsorted(quotes, p) % 2 == 0] for p in (commas, lf, cr))
    ends = np.sort(np.concatenate([cr, lf[a[lf - 1] != 13]])) if cr.size else lf
    starts = ends + 1 + ((a[ends] == 13) & (a[ends + 1] == 10))  # the records after them
    starts = np.concatenate([np.array([start], pos), starts])
    ends = np.concatenate([ends, np.array([n], pos)])
    if starts[-1] == n:  # the data ends with a line end
        starts, ends = starts[:-1], ends[:-1]
    return commas, starts, ends, bool(quotes.size)


def _fields(buf: bytearray, commas: np.ndarray, start: int, end: int) -> list[str]:
    """One record's fields as they stand in the file; none for an empty record."""
    if start == end:
        return []
    lo, hi = np.searchsorted(commas, [start, end])
    cuts = [start - 1, *commas[lo:hi].tolist(), end]
    return [buf[i + 1 : j].decode() for i, j in zip(cuts, cuts[1:])]


def _unquote(field: str) -> str | None:
    """A field's value: the field itself if it holds no quote, the text
    between the quotes of a canonically quoted one ("…", with inner quotes
    doubled), None for any other."""
    if '"' not in field:
        return field
    inner = field[1:-1]
    if len(field) > 1 and field[0] == field[-1] == '"' and '"' not in inner.replace('""', ""):
        return inner.replace('""', '"')
    return None


def _shown(text: str) -> str:
    """A cell's repr for an error message, cut after 40 characters."""
    return repr(text if len(text) <= 40 else text[:40] + "...")


def _quoting_error(path, line: int, where: str, field: str) -> ParseError:
    return ParseError(
        f"{path}: line {line}: {where}: {_shown(field)} holds a quote but is not "
        'quoted as "..." with inner quotes doubled'
    )


def _group(buf: bytearray, words: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Fields grouped by their bytes: the index of a field of each group, and
    each field's group.

    A field's key is its bytes read as 8-byte words, with the bytes past its
    end masked off and its length in the top byte of the last word, so that
    fields differing only in trailing NUL bytes stay apart. Fields are
    sorted by a hash of their words; a group whose words differ (a hash
    collision) sends the column to the dict used for long fields.
    """
    lengths = ends - starts
    n_words = int(lengths.max(initial=0)) // 8 + 1
    if 8 * n_words > _WORD_KEY_BYTES:
        return _group_by_dict(buf, starts, ends)
    keys = np.empty((n_words, len(starts)), np.uint64)
    last = len(words) - 1
    for k, key in enumerate(keys):
        word = words[np.minimum(starts + 8 * k, last)]
        np.bitwise_and(word, _LOW[np.clip(lengths - 8 * k, 0, 8)], out=key)
    keys[-1] |= lengths.astype(np.uint64) << np.uint64(56)
    hashed = keys[0]
    for key in keys[1:]:
        hashed = hashed * _HASH_FACTOR + key  # wraps modulo 2**64
    order = np.argsort(hashed)
    new = np.ones(len(order), bool)
    ordered = hashed[order]
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(len(order), np.intp)
    inverse[order] = np.cumsum(new) - 1
    first = order[new]
    if n_words > 1 and (keys[:, first[inverse]] != keys).any():
        return _group_by_dict(buf, starts, ends)
    return first, inverse


def _group_by_dict(buf: bytearray, starts: np.ndarray, ends: np.ndarray):
    """``_group`` with one dict step per field."""
    seen: dict[bytes, int] = {}
    keys = (bytes(buf[i:j]) for i, j in zip(starts.tolist(), ends.tolist()))
    inverse = np.fromiter((seen.setdefault(key, len(seen)) for key in keys), np.intp, len(starts))
    return np.unique(inverse, return_index=True)[1], inverse


def _floats(values: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``float`` of each value (NaN where it raises), and where it did not."""
    numbers = np.full(len(values), np.nan)
    numeric = np.ones(len(values), bool)
    try:
        numbers[:] = np.fromiter(map(float, values), np.float64, len(values))
    except ValueError:
        for i, value in enumerate(values):
            try:
                numbers[i] = float(value)
            except ValueError:
                numeric[i] = False
    return numbers, numeric


def _levels(values: list[str], inverse: np.ndarray, kept: np.ndarray):
    """The sorted distinct values of the kept rows, and each value's index
    among them (-1 for a value no kept row holds)."""
    here = np.zeros(len(values), bool)
    here[inverse[kept]] = True
    levels = tuple(sorted({v for v, h in zip(values, here.tolist()) if h}))
    rank = {level: i for i, level in enumerate(levels)}
    return levels, np.array([rank.get(v, -1) for v in values], dtype=np.intp)


def _first(bad: np.ndarray, inverse: np.ndarray, rows: np.ndarray | None = None) -> int | None:
    """The first row (among ``rows``, a mask) whose value is ``bad``."""
    if not bad.any():
        return None
    hits = bad[inverse] if rows is None else bad[inverse] & rows
    return int(np.argmax(hits)) if hits.any() else None


def load_csv(path: str | Path, schema: DatasetSchema) -> RawDataset:
    """Parse a CSV under the schema; drops and counts rows with the missing marker.

    The dialect: fields separated by commas, records ended by LF, CR LF or
    CR, no limit on a field's size. A field that holds a ``"`` must be
    quoted as ``"..."`` with inner quotes doubled, and may then hold commas
    and line ends; any other quoting fails. Field values are stripped of
    surrounding whitespace. A leading UTF-8 byte-order mark, as spreadsheet
    programs write, is skipped. Parse failures name the offending line
    (1-based, counting records, so a quoted line break does not start a
    line; the header is line 1) and column. The first defect in file order
    is reported, and within a row: its quoting, its field count, its cells
    in header order, then its label.

    The file is read once into a buffer and split in whole-buffer numpy
    passes. Each column's fields are grouped by their bytes, and decoding,
    stripping, the missing marker and the checks run once per distinct
    value, not once per cell.
    """
    buf, n = _read_padded(path)
    start = len(_BOM) if buf.startswith(_BOM) else 0
    try:
        str(memoryview(buf)[start:n], "utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if start == n:
        raise ParseError(f"{path}: empty file")
    commas, starts, ends, quoted = _records(buf, start, n)

    header = []
    for j, field in enumerate(_fields(buf, commas, starts[0], ends[0])):
        value = _unquote(field)
        if value is None:
            raise _quoting_error(path, 1, f"field {j + 1}", field)
        header.append(value.strip())
    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: duplicate column names in header")
    declared = {s.name for s in schema.columns} | {schema.label}
    if set(header) != declared:
        missing_cols = sorted(declared - set(header))
        extra = sorted(set(header) - declared)
        raise SchemaError(f"{path}: header mismatch (missing {missing_cols}, undeclared {extra})")
    feature_names = tuple(h for h in header if h != schema.label)
    specs = tuple(schema.column(name) for name in feature_names)
    n_fields = len(header)

    # Data records: the rows run up to the first non-empty record with the
    # wrong field count, whose own defect counts only if no row has one.
    starts, ends = starts[1:], ends[1:]
    first_comma = np.searchsorted(commas, starts)
    ragged = np.flatnonzero(
        (np.searchsorted(commas, ends) - first_comma + 1 != n_fields) & (starts != ends)
    )
    stop = int(ragged[0]) if ragged.size else len(starts)
    rows = np.flatnonzero(starts[:stop] != ends[:stop])  # each row's record
    inner = commas[n_fields - 1 : first_comma[stop] if ragged.size else len(commas)]
    inner = inner.reshape(-1, n_fields - 1)  # each row's commas

    words = np.ndarray((n + 1,), "<u8", buf, strides=(1,))  # the word at every byte
    defects = []  # ((row, rank, position), error): the least key is raised
    cells = []  # per header position: its distinct values and each row's value
    dropped = np.zeros(len(rows), bool)
    for p, name in enumerate(header):
        field_starts = starts[rows] if p == 0 else inner[:, p - 1] + 1
        field_ends = ends[rows] if p == n_fields - 1 else inner[:, p]
        first, inverse = _group(buf, words, field_starts, field_ends)
        fields = [
            buf[i:j].decode()
            for i, j in zip(field_starts[first].tolist(), field_ends[first].tolist())
        ]
        if quoted:
            values = [_unquote(f) for f in fields]
            row = _first(np.array([v is None for v in values], dtype=bool), inverse)
            if row is not None:
                error = _quoting_error(
                    path, rows[row] + 2, f"column {name!r}", fields[inverse[row]]
                )
                defects.append(((row, 0, p), error))
            fields = [f if v is None else v for f, v in zip(fields, values)]
        values = [f.strip() for f in fields]
        if schema.missing is not None:
            dropped |= np.array([v == schema.missing for v in values], dtype=bool)[inverse]
        cells.append((values, inverse))

    kept = ~dropped
    columns, levels = [], []
    for spec in specs:
        p = header.index(spec.name)
        values, inverse = cells[p]
        codes = inverse[kept]
        if spec.kind == "numeric":
            numbers, numeric = _floats(values)
            row = _first(~np.isfinite(numbers), inverse, kept)
            if row is not None:
                value = values[inverse[row]]
                problem = "is not a finite number" if numeric[inverse[row]] else "is not numeric"
                error = ParseError(
                    f"{path}: line {rows[row] + 2}: column {spec.name!r}: {_shown(value)} {problem}"
                )
                defects.append(((row, 2, p), error))
            columns.append(numbers[codes])
            levels.append(())
        elif spec.kind == "binary":
            ones = np.array([v == "1" for v in values], dtype=bool)
            row = _first(~ones & np.array([v != "0" for v in values], dtype=bool), inverse, kept)
            if row is not None:
                error = ParseError(
                    f"{path}: line {rows[row] + 2}: column {spec.name!r}: "
                    f"binary value must be 0 or 1, got {_shown(values[inverse[row]])}"
                )
                defects.append(((row, 2, p), error))
            columns.append(ones[codes].view(np.uint8))
            levels.append(())
        else:
            column_levels, rank = _levels(values, inverse, kept)
            columns.append(rank[codes])
            levels.append(column_levels)
    values, inverse = cells[header.index(schema.label)]
    if schema.label_values is not None:
        undeclared = np.array([v not in schema.label_values for v in values], dtype=bool)
        row = _first(undeclared, inverse, kept)
        if row is not None:
            error = SchemaError(
                f"{path}: line {rows[row] + 2}: label {_shown(values[inverse[row]])} "
                "not in declared label values"
            )
            defects.append(((row, 3, 0), error))

    if defects:
        raise min(defects, key=lambda defect: defect[0])[1]
    if ragged.size:
        line = stop + 2
        fields = _fields(buf, commas, starts[stop], ends[stop])
        for j, field in enumerate(fields):
            if _unquote(field) is None:
                where = f"column {header[j]!r}" if j < n_fields else f"field {j + 1}"
                raise _quoting_error(path, line, where, field)
        raise ParseError(f"{path}: line {line}: expected {n_fields} fields, got {len(fields)}")
    if not kept.any():
        raise ParseError(f"{path}: no data rows after cleaning")
    present, _ = _levels(values, inverse, kept)
    if len(present) < 2:
        raise SchemaError(f"{path}: label column has fewer than 2 distinct values")
    return RawDataset(
        feature_names=feature_names,
        specs=specs,
        columns=tuple(columns),
        levels=tuple(levels),
        labels=tuple(map(values.__getitem__, inverse[kept].tolist())),
        label_name=schema.label,
        label_values=schema.label_values or present,
        n_dropped=int(dropped.sum()),
    )


@dataclass(frozen=True)
class Indicator:
    """One binary input feature and the predicate on the raw column behind it.

    ``binarize`` encodes a whole column at once; ``matches`` is the
    per-value reference that the tests compare it against.
    """

    name: str
    source_column: str
    kind: str  # numeric_bin | category | binary | always_true
    lo: float | None = None
    hi: float | None = None
    category: str | None = None

    def matches(self, value) -> bool:
        if self.kind == "numeric_bin":
            if self.lo is not None and not value >= self.lo:
                return False
            if self.hi is not None and not value < self.hi:
                return False
            return True
        if self.kind == "category":
            return value == self.category
        if self.kind == "binary":
            return value == 1
        return True  # always_true


@dataclass(frozen=True, eq=False)
class BinarizedDataset:
    indicators: tuple[Indicator, ...]
    matrix: np.ndarray  # (n_instances, n_indicators) uint8 of 0/1
    labels: np.ndarray  # (n_instances,) int class indices
    label_names: tuple[str, ...]

    @property
    def input_argument_names(self) -> tuple[str, ...]:
        return tuple(ind.name for ind in self.indicators)

    @property
    def n_instances(self) -> int:
        return int(self.matrix.shape[0])


def _fmt(t: float) -> str:
    return f"{t:g}"


def _bin_indicators(name: str, thresholds: np.ndarray) -> list[Indicator]:
    """One indicator per interval between consecutive thresholds, open at both ends."""
    if thresholds.size == 0:
        return [Indicator(name=name, source_column=name, kind="always_true")]
    edges = [None, *map(float, thresholds), None]
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo is None:
            label = f"{name}<{_fmt(hi)}"
        elif hi is None:
            label = f"{name}>={_fmt(lo)}"
        else:
            label = f"{_fmt(lo)}<={name}<{_fmt(hi)}"
        out.append(Indicator(label, name, "numeric_bin", lo=lo, hi=hi))
    return out


def binarize(
    raw: RawDataset,
    bins_per_numeric: int = 3,
    fit_indices: Sequence[int] | None = None,
) -> BinarizedDataset:
    """Turn raw features into 0/1 indicator columns.

    Numeric columns get equal-frequency bins with thresholds at empirical
    quantiles (or the schema's explicit thresholds); a value's bin is its
    interval index, one-hot encoded as categories are. Categorical columns
    get one indicator per category; binary columns pass through.
    Thresholds are fitted on ``fit_indices`` rows when given, on all rows
    otherwise.
    Categories are always discovered on the full data so the one-hot
    invariant holds on every row.

    A numeric column is coded with one ``searchsorted`` against its
    thresholds, a categorical column by the level codes it holds. The ones
    of each source column are then set with one index assignment into a
    preallocated C-ordered uint8 (n_instances, n_indicators) matrix, the
    one form every later step reads: one byte per cell, where float64
    takes eight.
    """
    if bins_per_numeric < 2:
        raise ValueError("bins_per_numeric must be >= 2")
    n = raw.n_instances
    fit = np.arange(n) if fit_indices is None else np.asarray(fit_indices, dtype=np.int64)
    if fit.size == 0 or fit.min() < 0 or fit.max() >= n:
        raise InputShapeError("fit_indices must be a non-empty subset of row indices")

    indicators: list[Indicator] = []
    # per source column: its first indicator's position and each row's
    # indicator among its own (None for a binary column, its own indicator)
    ones: list[tuple[int, np.ndarray | None]] = []
    for spec, column, levels in zip(raw.specs, raw.columns, raw.levels):
        first = len(indicators)
        if spec.kind == "numeric":
            if spec.thresholds is not None:
                thresholds = np.asarray(spec.thresholds, dtype=np.float64)
            else:
                k = spec.bins if spec.bins is not None else bins_per_numeric
                qs = [i / k for i in range(1, k)]
                thresholds = np.unique(np.quantile(column[fit], qs))
                if thresholds.size == 0 or column[fit].min() == column[fit].max():
                    thresholds = np.empty(0)
            if thresholds.size == 0:
                warnings.warn(
                    f"numeric column {spec.name!r} is constant on the fitted rows; "
                    "emitting a single always-true indicator"
                )
            indicators.extend(_bin_indicators(spec.name, thresholds))
            # the interval index: how many thresholds lie at or below each value
            ones.append((first, np.searchsorted(thresholds, column, side="right")))
        elif spec.kind == "categorical":
            if len(levels) == 1:
                warnings.warn(f"categorical column {spec.name!r} has a single level")
            indicators.extend(
                Indicator(f"{spec.name}={level}", spec.name, "category", category=level)
                for level in levels
            )
            ones.append((first, column))
        else:  # binary
            indicators.append(Indicator(name=spec.name, source_column=spec.name, kind="binary"))
            ones.append((first, None))

    matrix = np.zeros((n, len(indicators)), dtype=np.uint8)
    rows = np.arange(n)
    for column, (first, codes) in zip(raw.columns, ones):
        if codes is None:
            matrix[:, first] = column
        else:
            matrix[rows, first + codes] = 1
    return BinarizedDataset(
        indicators=tuple(indicators),
        matrix=matrix,
        labels=raw.label_indices(),
        label_names=raw.label_values,
    )


@dataclass(frozen=True, eq=False)
class SplitIndices:
    """Each part's row indices as a sorted, read-only int64 array."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    seed: int


def split_stratified(
    n_instances: int,
    labels: Sequence[int],
    seed: int,
    *,
    label_names: Sequence[str] | None = None,
) -> SplitIndices:
    """Per-class shuffled 70/10/20 partition, deterministic under the seed.

    Each part comes out as a sorted, read-only int64 array; shuffling only
    decides which rows land in which part. Requires >= 10 instances, >= 2
    classes, >= 3 instances in every class, and a class of >= 6, as a class
    of 5 or fewer gives the validation part no row; the error names a small
    class by ``label_names[c]`` when given, else by its index.
    """
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1 or y.shape[0] != n_instances:
        raise InputShapeError(f"expected {n_instances} labels, got shape {y.shape}")
    if n_instances < 10:
        raise StratificationError(f"need at least 10 instances, got {n_instances}")
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise StratificationError("need at least 2 classes to stratify")
    small = classes[counts < 3]
    if small.size:
        named = [label_names[c] for c in small] if label_names is not None else small.tolist()
        raise StratificationError(f"classes {named} have fewer than 3 instances")

    rng = np.random.default_rng(seed)
    parts: tuple[list[np.ndarray], ...] = ([], [], [])  # train, validation, test
    for c in classes:
        perm = rng.permutation(np.flatnonzero(y == c))
        n_train = round(0.7 * perm.size)
        cuts = (n_train, n_train + round(0.1 * perm.size))
        for part, piece in zip(parts, np.split(perm, cuts)):
            part.append(piece)
    train, val, test = (np.sort(np.concatenate(part)) for part in parts)
    if not val.size:
        raise StratificationError(
            "the validation split would be empty: every class has at most 5 instances"
        )
    for part in (train, val, test):
        part.flags.writeable = False
    return SplitIndices(train=train, validation=val, test=test, seed=seed)
