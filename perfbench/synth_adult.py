"""Seeded synthetic table shaped like the UCI Adult census data.

The real Adult file is not bundled, so the benchmark writes a stand-in
that fits ``configs/adult.schema.json`` unchanged: the same columns, the
real column cardinalities, about 7% of rows carrying the ``?`` missing
marker, and an income label drawn from a planted sparse rule plus noise
with about 24% positives, so early stopping meets a learnable but noisy
target as it would on the real data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ADULT_ROWS = 48_842
POSITIVE_SHARE = 0.24
MISSING_SHARE = 0.074

# categorical columns of Adult and their number of levels
CARDINALITY = {
    "workclass": 8,
    "education": 16,
    "marital-status": 7,
    "occupation": 14,
    "relationship": 6,
    "race": 5,
    "sex": 2,
    "native-country": 41,
}
# columns that carry the missing marker in the real file
MISSING_COLUMNS = ("workclass", "occupation", "native-country")
HEADER = (
    "age", "workclass", "fnlwgt", "education", "education-num", "marital-status",
    "occupation", "relationship", "race", "sex", "capital-gain", "capital-loss",
    "hours-per-week", "native-country", "income",
)


@dataclass(frozen=True)
class SyntheticTable:
    path: Path
    rows: int
    rows_with_missing: int
    positives: int


def _levels(rng: np.random.Generator, column: str, n: int) -> np.ndarray:
    """Level indices with a skewed (Zipf-like) frequency, as census columns have."""
    k = CARDINALITY[column]
    weights = 1.0 / np.arange(1, k + 1) ** 1.3
    return rng.choice(k, size=n, p=weights / weights.sum())


def write_adult_like(path: Path, seed: int, rows: int = ADULT_ROWS) -> SyntheticTable:
    """Write the table as CSV; the same seed and size give the same bytes."""
    rng = np.random.default_rng(seed)
    cat = {c: _levels(rng, c, rows) for c in CARDINALITY}
    age = np.clip(np.rint(rng.normal(38.6, 13.6, rows)), 17, 90).astype(int)
    fnlwgt = np.rint(np.exp(rng.normal(12.0, 0.55, rows))).astype(int)
    edu_num = cat["education"] + 1
    gain = np.where(
        rng.uniform(size=rows) < 0.08, np.rint(np.exp(rng.normal(8.6, 1.0, rows))), 0
    ).astype(int)
    loss = np.where(
        rng.uniform(size=rows) < 0.05, np.rint(rng.normal(1870, 360, rows)), 0
    ).astype(int)
    hours = np.where(
        rng.uniform(size=rows) < 0.47, 40, np.clip(np.rint(rng.normal(40, 12, rows)), 1, 99)
    ).astype(int)

    # planted sparse rule: a handful of indicators decide most labels
    score = (
        1.6 * (cat["marital-status"] == 0)
        + 1.0 * (edu_num >= 13)
        + 1.8 * (gain > 5000)
        + 0.6 * ((age >= 40) & (age < 60))
        + 0.5 * (hours >= 45)
        + rng.logistic(0.0, 0.6, rows)
    )
    positive = score > np.quantile(score, 1.0 - POSITIVE_SHARE)

    text = {c: np.array([f"{c}-{i:02d}" for i in range(k)])[cat[c]] for c, k in CARDINALITY.items()}
    missing = rng.uniform(size=rows) < MISSING_SHARE
    where = rng.choice(len(MISSING_COLUMNS), size=rows)
    for ci, column in enumerate(MISSING_COLUMNS):
        text[column] = np.where(missing & (where == ci), "?", text[column])

    columns = {
        "age": age, "fnlwgt": fnlwgt, "education-num": edu_num, "capital-gain": gain,
        "capital-loss": loss, "hours-per-week": hours,
        "income": np.where(positive, ">50K", "<=50K"), **text,
    }
    cells = [columns[h].astype(str) for h in HEADER]
    lines = [",".join(HEADER)]
    lines.extend(",".join(row) for row in zip(*cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return SyntheticTable(
        path=path,
        rows=rows,
        rows_with_missing=int(missing.sum()),
        positives=int(positive.sum()),
    )
