"""Tabular data loading, binarization into input arguments, stratified splits.

A JSON schema declares the label column and each feature column's kind
(numeric, categorical, or binary) plus optional binning overrides. Numeric
features become equal-frequency interval indicators, categoricals become
one-hot indicators, binary features pass through, so every instance turns
into a 0/1 vector whose entries feed the input arguments of a classifier
graph.
"""

from __future__ import annotations

import csv
import json
import math
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


def _utf8_lines(fh, path: str | Path):
    """The lines of a text file opened as UTF-8; ParseError naming the file
    if it is not UTF-8 (it is decoded in chunks, so no line is named)."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_csv(path: str | Path, schema: DatasetSchema) -> RawDataset:
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
    matrix: np.ndarray  # (n_instances, n_indicators) of 0.0/1.0
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
    preallocated C-ordered float64 (n_instances, n_indicators) matrix.
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

    matrix = np.zeros((n, len(indicators)))
    rows = np.arange(n)
    for column, (first, codes) in zip(raw.columns, ones):
        if codes is None:
            matrix[:, first] = column
        else:
            matrix[rows, first + codes] = 1.0
    return BinarizedDataset(
        indicators=tuple(indicators),
        matrix=matrix,
        labels=raw.label_indices(),
        label_names=raw.label_values,
    )


@dataclass(frozen=True)
class SplitIndices:
    train: tuple[int, ...]
    validation: tuple[int, ...]
    test: tuple[int, ...]
    seed: int


def split_stratified(
    n_instances: int,
    labels: Sequence[int],
    seed: int,
    *,
    label_names: Sequence[str] | None = None,
) -> SplitIndices:
    """Per-class shuffled 70/10/20 partition, deterministic under the seed.

    Index lists come out sorted; shuffling only decides which rows land in
    which part. Requires >= 10 instances, >= 2 classes, >= 3 instances in
    every class, and a class of >= 6, as a class of 5 or fewer gives the
    validation part no row; the error names a small class by
    ``label_names[c]`` when given, else by its index.
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
    train: list[int] = []
    val: list[int] = []
    test: list[int] = []
    for c in classes:
        idx = np.flatnonzero(y == c)
        perm = rng.permutation(idx)
        n_c = idx.size
        n_train = round(0.7 * n_c)
        n_val = round(0.1 * n_c)
        train.extend(perm[:n_train].tolist())
        val.extend(perm[n_train : n_train + n_val].tolist())
        test.extend(perm[n_train + n_val :].tolist())
    if not val:
        raise StratificationError(
            "the validation split would be empty: every class has at most 5 instances"
        )
    return SplitIndices(
        train=tuple(sorted(train)),
        validation=tuple(sorted(val)),
        test=tuple(sorted(test)),
        seed=seed,
    )
