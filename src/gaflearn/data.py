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
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    return schema_from_dict(raw)


@dataclass(frozen=True)
class RawDataset:
    """Cleaned tabular data: parsed feature rows plus string labels."""

    feature_names: tuple[str, ...]
    specs: tuple[ColumnSpec, ...]
    rows: tuple[tuple, ...]
    labels: tuple[str, ...]
    label_name: str
    label_values: tuple[str, ...]
    n_dropped: int

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(s.kind for s in self.specs)

    @property
    def n_instances(self) -> int:
        return len(self.rows)

    def label_indices(self) -> np.ndarray:
        """Each row's label as its index in ``label_values``."""
        index = {name: i for i, name in enumerate(self.label_values)}
        return np.fromiter(map(index.__getitem__, self.labels), np.int64, self.n_instances)


def load_csv(path: str | Path, schema: DatasetSchema) -> RawDataset:
    """Parse a CSV under the schema; drops and counts rows with the missing marker.

    Field values are stripped of surrounding whitespace. Parse failures name
    the offending line (1-based, header is line 1) and column.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
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

        rows: list[tuple] = []
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
            parsed = []
            for spec, pos in zip(specs, positions):
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
                    parsed.append(number)
                elif spec.kind == "binary":
                    if value not in ("0", "1"):
                        raise ParseError(
                            f"{path}: line {line_no}: column {spec.name!r}: "
                            f"binary value must be 0 or 1, got {value!r}"
                        )
                    parsed.append(int(value))
                else:
                    parsed.append(value)
            label = fields[label_pos]
            if schema.label_values is not None and label not in schema.label_values:
                raise SchemaError(
                    f"{path}: line {line_no}: label {label!r} not in declared label values"
                )
            rows.append(tuple(parsed))
            labels.append(label)

    if not rows:
        raise ParseError(f"{path}: no data rows after cleaning")
    if schema.label_values is not None:
        label_values = schema.label_values
    else:
        label_values = tuple(sorted(set(labels)))
    if len(set(labels)) < 2:
        raise SchemaError(f"{path}: label column has fewer than 2 distinct values")
    return RawDataset(
        feature_names=feature_names,
        specs=specs,
        rows=tuple(rows),
        labels=tuple(labels),
        label_name=schema.label,
        label_values=label_values,
        n_dropped=n_dropped,
    )


@dataclass(frozen=True)
class Indicator:
    """One binary input feature and the predicate on the raw column behind it.

    ``binarize`` applies the same tests to a whole column at once; ``matches``
    is the per-value reference that the tests compare it against.
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


@dataclass(frozen=True)
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
    if thresholds.size == 0:
        return [Indicator(name=name, source_column=name, kind="always_true")]
    out = [
        Indicator(
            name=f"{name}<{_fmt(thresholds[0])}",
            source_column=name,
            kind="numeric_bin",
            hi=float(thresholds[0]),
        )
    ]
    for lo, hi in zip(thresholds[:-1], thresholds[1:]):
        out.append(
            Indicator(
                name=f"{_fmt(lo)}<={name}<{_fmt(hi)}",
                source_column=name,
                kind="numeric_bin",
                lo=float(lo),
                hi=float(hi),
            )
        )
    out.append(
        Indicator(
            name=f"{name}>={_fmt(thresholds[-1])}",
            source_column=name,
            kind="numeric_bin",
            lo=float(thresholds[-1]),
        )
    )
    return out


def binarize(
    raw: RawDataset,
    bins_per_numeric: int = 3,
    fit_indices: Sequence[int] | None = None,
) -> BinarizedDataset:
    """Turn raw features into 0/1 indicator columns.

    Numeric columns get equal-frequency bins with thresholds at empirical
    quantiles (or the schema's explicit thresholds); categorical columns get
    one indicator per category; binary columns pass through. Thresholds are
    fitted on ``fit_indices`` rows when given, on all rows otherwise.
    Categories are always discovered on the full data so the one-hot
    invariant holds on every row.
    """
    if bins_per_numeric < 2:
        raise ValueError("bins_per_numeric must be >= 2")
    n = raw.n_instances
    fit = np.arange(n) if fit_indices is None else np.asarray(fit_indices, dtype=np.int64)
    if fit.size == 0 or fit.min() < 0 or fit.max() >= n:
        raise InputShapeError("fit_indices must be a non-empty subset of row indices")

    indicators: list[Indicator] = []
    blocks: list[np.ndarray] = []  # (indicators, rows) per source column
    for ci, spec in enumerate(raw.specs):
        values = [row[ci] for row in raw.rows]
        if spec.kind == "numeric":
            arr = np.asarray(values, dtype=np.float64)
            if spec.thresholds is not None:
                thresholds = np.asarray(spec.thresholds, dtype=np.float64)
            else:
                k = spec.bins if spec.bins is not None else bins_per_numeric
                qs = [i / k for i in range(1, k)]
                thresholds = np.unique(np.quantile(arr[fit], qs))
                if thresholds.size == 0 or arr[fit].min() == arr[fit].max():
                    thresholds = np.empty(0)
            if thresholds.size == 0:
                warnings.warn(
                    f"numeric column {spec.name!r} is constant on the fitted rows; "
                    "emitting a single always-true indicator"
                )
            feats = _bin_indicators(spec.name, thresholds)
            indicators.extend(feats)
            block = np.ones((len(feats), n), dtype=bool)
            for col, ind in zip(block, feats):  # Indicator.matches on a whole column
                if ind.lo is not None:
                    col &= arr >= ind.lo
                if ind.hi is not None:
                    col &= arr < ind.hi
            blocks.append(block)
        elif spec.kind == "categorical":
            levels, block = _one_hot(values)
            if len(levels) == 1:
                warnings.warn(f"categorical column {spec.name!r} has a single level")
            indicators.extend(
                Indicator(f"{spec.name}={level}", spec.name, "category", category=level)
                for level in levels
            )
            blocks.append(block)
        else:  # binary
            indicators.append(Indicator(name=spec.name, source_column=spec.name, kind="binary"))
            blocks.append(np.asarray(values, dtype=np.float64)[None])

    return BinarizedDataset(
        indicators=tuple(indicators),
        matrix=np.vstack(blocks).T.astype(np.float64, order="C"),
        labels=raw.label_indices(),
        label_names=raw.label_values,
    )


def _one_hot(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """A categorical column's sorted levels and its (levels, rows) boolean one-hot block."""
    levels = sorted(set(values))
    code = {level: i for i, level in enumerate(levels)}
    codes = np.fromiter(map(code.__getitem__, values), np.int64, len(values))
    return levels, codes == np.arange(len(levels))[:, None]


def raw_feature_matrix(raw: RawDataset) -> tuple[tuple[str, ...], np.ndarray]:
    """Feature matrix without numeric binning: numeric and binary columns
    pass through, categoricals become one-hot indicators."""
    names: list[str] = []
    blocks: list[np.ndarray] = []
    for ci, spec in enumerate(raw.specs):
        values = [row[ci] for row in raw.rows]
        if spec.kind == "categorical":
            levels, block = _one_hot(values)
            names.extend(f"{spec.name}={level}" for level in levels)
            blocks.append(block)
        else:
            names.append(spec.name)
            blocks.append(np.asarray(values, dtype=np.float64)[None])
    return tuple(names), np.vstack(blocks).T.astype(np.float64, order="C")


@dataclass(frozen=True)
class SplitIndices:
    train: tuple[int, ...]
    validation: tuple[int, ...]
    test: tuple[int, ...]
    seed: int


def split_stratified(n_instances: int, labels: Sequence[int], seed: int) -> SplitIndices:
    """Per-class shuffled 70/10/20 partition, deterministic under the seed.

    Index lists come out sorted; shuffling only decides which rows land in
    which part. Requires >= 10 instances, >= 2 classes, and >= 3 instances
    in every class.
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
        raise StratificationError(f"classes {small.tolist()} have fewer than 3 instances")

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
    return SplitIndices(
        train=tuple(sorted(train)),
        validation=tuple(sorted(val)),
        test=tuple(sorted(test)),
        seed=seed,
    )
