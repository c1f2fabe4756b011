"""Loading, binarization, and split behaviour on small hand-checked tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaflearn.data import (
    KINDS,
    ColumnSpec,
    RawDataset,
    binarize,
    load_csv,
    load_schema,
    raw_feature_matrix,
    schema_from_dict,
    split_stratified,
)
from gaflearn.errors import ParseError, SchemaError, StratificationError


def make_schema(columns, label="y", **extra):
    return schema_from_dict({"label": label, "columns": columns, **extra})


def raw_from_table(tmp_path, header, rows, schema):
    path = tmp_path / "t.csv"
    lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return load_csv(path, schema)


NUM_SCHEMA = make_schema({"x": {"kind": "numeric"}})


def test_two_bins_split_at_median(tmp_path):
    rows = [(v, "a" if v <= 3 else "b") for v in [1, 2, 3, 4, 5, 6]]
    raw = raw_from_table(tmp_path, ["x", "y"], rows, NUM_SCHEMA)
    binz = binarize(raw, bins_per_numeric=2)
    assert binz.input_argument_names == ("x<3.5", "x>=3.5")
    assert np.array_equal(binz.matrix[:, 0], [1, 1, 1, 0, 0, 0])
    assert np.array_equal(binz.matrix[:, 1], [0, 0, 0, 1, 1, 1])


def test_three_bins_use_linear_interpolation_quantiles(tmp_path):
    rows = [(v, "a" if v <= 4 else "b") for v in range(1, 10)]
    raw = raw_from_table(tmp_path, ["x", "y"], rows, NUM_SCHEMA)
    binz = binarize(raw, bins_per_numeric=3)
    # quantile at 1/3 of [1..9]: position (9-1)/3 = 8/3, so 3 + 2/3
    lo = binz.indicators[0].hi
    hi = binz.indicators[2].lo
    assert abs(lo - (3 + 2 / 3)) < 1e-12
    assert abs(hi - (6 + 1 / 3)) < 1e-12
    assert binz.indicators[1].name == f"{lo:g}<=x<{hi:g}"
    assert (binz.matrix.sum(axis=1) == 1).all()


def test_explicit_thresholds_override_quantiles(tmp_path):
    schema = make_schema({"age": {"kind": "numeric", "thresholds": [60, 25, 40]}})
    rows = [(a, "lo" if a < 40 else "hi") for a in [18, 30, 45, 70, 25, 59]]
    raw = raw_from_table(tmp_path, ["age", "y"], rows, schema)
    binz = binarize(raw)
    assert binz.input_argument_names == (
        "age<25",
        "25<=age<40",
        "40<=age<60",
        "age>=60",
    )
    assert np.array_equal(
        binz.matrix,
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ],
    )


def test_per_column_bins_override_default(tmp_path):
    schema = make_schema({"x": {"kind": "numeric", "bins": 4}})
    rows = [(v, "a" if v % 2 else "b") for v in range(1, 9)]
    raw = raw_from_table(tmp_path, ["x", "y"], rows, schema)
    binz = binarize(raw, bins_per_numeric=2)
    assert len(binz.indicators) == 4


def test_categorical_one_hot(tmp_path):
    schema = make_schema({"c": {"kind": "categorical"}})
    rows = [("a", "p"), ("b", "q"), ("a", "p")]
    raw = raw_from_table(tmp_path, ["c", "y"], rows, schema)
    binz = binarize(raw)
    assert binz.input_argument_names == ("c=a", "c=b")
    assert np.array_equal(binz.matrix, [[1, 0], [0, 1], [1, 0]])


def test_binary_column_passes_through(tmp_path):
    schema = make_schema({"f": {"kind": "binary"}})
    rows = [(0, "p"), (1, "q"), (1, "p")]
    raw = raw_from_table(tmp_path, ["f", "y"], rows, schema)
    binz = binarize(raw)
    assert binz.input_argument_names == ("f",)
    assert np.array_equal(binz.matrix[:, 0], [0, 1, 1])


def test_constant_numeric_column_warns_and_stays_true(tmp_path):
    schema = make_schema({"x": {"kind": "numeric"}, "z": {"kind": "numeric"}})
    rows = [(5.0, v, "a" if v < 2 else "b") for v in [1, 2, 3, 4]]
    raw = raw_from_table(tmp_path, ["x", "z", "y"], rows, schema)
    with pytest.warns(UserWarning, match="constant"):
        binz = binarize(raw, bins_per_numeric=2)
    assert binz.indicators[0].name == "x"
    assert binz.indicators[0].kind == "always_true"
    assert np.array_equal(binz.matrix[:, 0], [1, 1, 1, 1])


def test_single_level_categorical_warns(tmp_path):
    schema = make_schema({"c": {"kind": "categorical"}})
    rows = [("only", "p"), ("only", "q"), ("only", "p")]
    raw = raw_from_table(tmp_path, ["c", "y"], rows, schema)
    with pytest.warns(UserWarning, match="single level"):
        binz = binarize(raw)
    assert np.array_equal(binz.matrix[:, 0], [1, 1, 1])


def mixed_raw(tmp_path, n=40, seed=0):
    rng = np.random.default_rng(seed)
    schema = make_schema(
        {
            "num": {"kind": "numeric"},
            "cat": {"kind": "categorical"},
            "bit": {"kind": "binary"},
        }
    )
    rows = []
    for _ in range(n):
        rows.append(
            (
                round(float(rng.normal()), 3),
                rng.choice(["r", "g", "b"]),
                int(rng.integers(0, 2)),
                rng.choice(["yes", "no"]),
            )
        )
    return raw_from_table(tmp_path, ["num", "cat", "bit", "y"], rows, schema)


def test_mutual_exclusivity_per_source_feature(tmp_path):
    binz = binarize(mixed_raw(tmp_path), bins_per_numeric=3)
    for source in ("num", "cat"):
        cols = [i for i, ind in enumerate(binz.indicators) if ind.source_column == source]
        sums = binz.matrix[:, cols].sum(axis=1)
        assert (sums == 1).all()
    assert set(np.unique(binz.matrix)) <= {0.0, 1.0}


def test_predicates_reproduce_matrix(tmp_path):
    raw = mixed_raw(tmp_path, seed=9)
    binz = binarize(raw, bins_per_numeric=3)
    col_pos = {name: i for i, name in enumerate(raw.feature_names)}
    for r, row in enumerate(raw.rows):
        for c, ind in enumerate(binz.indicators):
            want = 1.0 if ind.matches(row[col_pos[ind.source_column]]) else 0.0
            assert binz.matrix[r, c] == want


# few values, so columns tie, go constant and meet thresholds drawn from the same pool
NUMBER_POOL = (-1.5, 0.0, 0.25, 1.0, 2.0, 7.0)


@st.composite
def raw_tables(draw):
    """Small RawDatasets mixing all three column kinds, as load_csv builds them."""
    n = draw(st.integers(1, 20))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    specs, columns = [], []
    for j, kind in enumerate(kinds):
        if kind == "numeric":
            values = st.sampled_from(NUMBER_POOL)
            thresholds = draw(st.none() | st.sets(values, min_size=1, max_size=3))
            bins = None if thresholds else draw(st.none() | st.integers(2, 5))
            thresholds = tuple(sorted(thresholds)) if thresholds else None
            specs.append(ColumnSpec(f"c{j}", kind, bins=bins, thresholds=thresholds))
        else:
            values = st.sampled_from(["a", "b", "c", "?"] if kind == "categorical" else [0, 1])
            specs.append(ColumnSpec(f"c{j}", kind))
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    raw = RawDataset(
        feature_names=tuple(spec.name for spec in specs),
        specs=tuple(specs),
        rows=tuple(zip(*columns)),
        labels=tuple(draw(st.lists(st.sampled_from(["p", "q"]), min_size=n, max_size=n))),
        label_name="y",
        label_values=("q", "p"),  # not sorted, so the declared order must be kept
        n_dropped=0,
    )
    fit = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    return raw, draw(st.integers(2, 4)), fit


@pytest.mark.filterwarnings("ignore:.*(constant|single level)")
@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(raw_tables())
def test_binarize_matches_indicator_predicates_and_stays_one_hot(table):
    raw, bins_per_numeric, fit = table
    binz = binarize(raw, bins_per_numeric, fit_indices=fit)
    col_pos = {name: i for i, name in enumerate(raw.feature_names)}
    want = [
        [1.0 if ind.matches(row[col_pos[ind.source_column]]) else 0.0 for ind in binz.indicators]
        for row in raw.rows
    ]
    assert binz.matrix.dtype == np.float64 and binz.matrix.flags["C_CONTIGUOUS"]
    assert binz.matrix.shape == (raw.n_instances, len(binz.indicators))
    assert np.array_equal(binz.matrix, want)
    for spec in raw.specs:
        if spec.kind != "binary":
            cols = [i for i, ind in enumerate(binz.indicators) if ind.source_column == spec.name]
            assert (binz.matrix[:, cols].sum(axis=1) == 1).all()
    assert binz.labels.tolist() == [raw.label_values.index(l) for l in raw.labels]

    names, matrix = raw_feature_matrix(raw)
    want_names, want_cols = [], []
    for spec, values in zip(raw.specs, zip(*raw.rows)):
        levels = sorted(set(values)) if spec.kind == "categorical" else [None]
        for level in levels:
            want_names.append(spec.name if level is None else f"{spec.name}={level}")
            want_cols.append([float(v) if level is None else float(v == level) for v in values])
    assert names == tuple(want_names)
    assert matrix.dtype == np.float64 and matrix.flags["C_CONTIGUOUS"]
    assert np.array_equal(matrix, np.array(want_cols).T)


def test_fit_indices_restrict_threshold_estimation(tmp_path):
    rows = [(v, "a" if v < 50 else "b") for v in [1, 2, 3, 4, 100, 200, 300, 400]]
    raw = raw_from_table(tmp_path, ["x", "y"], rows, NUM_SCHEMA)
    full = binarize(raw, bins_per_numeric=2)
    sub = binarize(raw, bins_per_numeric=2, fit_indices=[0, 1, 2, 3])
    assert full.indicators[0].hi == 52.0  # median of all 8 values
    assert sub.indicators[0].hi == 2.5  # median of the first 4
    assert sub.matrix.shape == full.matrix.shape


def test_label_order_defaults_to_sorted_and_respects_schema(tmp_path):
    rows = [(1.0, "zebra"), (2.0, "ant"), (3.0, "zebra"), (4.0, "ant")]
    raw = raw_from_table(tmp_path, ["x", "y"], rows, NUM_SCHEMA)
    binz = binarize(raw, bins_per_numeric=2)
    assert binz.label_names == ("ant", "zebra")
    assert binz.labels.tolist() == [1, 0, 1, 0]

    schema = make_schema({"x": {"kind": "numeric"}}, label_values=["zebra", "ant"])
    raw2 = raw_from_table(tmp_path, ["x", "y"], rows, schema)
    binz2 = binarize(raw2, bins_per_numeric=2)
    assert binz2.label_names == ("zebra", "ant")
    assert binz2.labels.tolist() == [0, 1, 0, 1]


# -- load_csv ----------------------------------------------------------


def test_load_csv_counts_dropped_missing_rows(tmp_path):
    schema = make_schema({"x": {"kind": "numeric"}}, missing="?")
    raw = raw_from_table(
        tmp_path, ["x", "y"], [(1, "a"), ("?", "a"), (3, "b"), ("?", "b"), (5, "a")], schema
    )
    assert raw.n_instances == 3
    assert raw.n_dropped == 2


def test_load_csv_without_missing_marker_keeps_question_marks(tmp_path):
    schema = make_schema({"c": {"kind": "categorical"}})
    raw = raw_from_table(tmp_path, ["c", "y"], [("?", "a"), ("u", "b")], schema)
    assert raw.n_instances == 2
    assert raw.rows[0][0] == "?"


def test_load_csv_strips_whitespace(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("x, y\n 1.5 , a\n2.5,b \n")
    raw = load_csv(path, NUM_SCHEMA)
    assert raw.rows[0][0] == 1.5
    assert raw.labels == ("a", "b")


def test_load_csv_rejects_bad_arity_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,a\n2,b,EXTRA\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path, NUM_SCHEMA)


def test_load_csv_rejects_non_numeric_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\noops,a\n")
    with pytest.raises(ParseError, match="line 2.*not numeric"):
        load_csv(path, NUM_SCHEMA)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
def test_load_csv_rejects_non_finite_numbers(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"x,y\n1,a\n{cell},b\n")
    with pytest.raises(ParseError, match=f"line 3: column 'x': '{cell}' is not a finite number"):
        load_csv(path, NUM_SCHEMA)


def test_load_csv_rejects_bad_binary_value(tmp_path):
    schema = make_schema({"f": {"kind": "binary"}})
    path = tmp_path / "bad.csv"
    path.write_text("f,y\n2,a\n")
    with pytest.raises(ParseError, match="binary"):
        load_csv(path, schema)


def test_load_csv_rejects_undeclared_label_value(tmp_path):
    schema = make_schema({"x": {"kind": "numeric"}}, label_values=["a", "b"])
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,a\n2,c\n")
    with pytest.raises(SchemaError, match="line 3"):
        load_csv(path, schema)


def test_load_csv_rejects_empty_file_and_headers_only(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ParseError, match="empty"):
        load_csv(empty, NUM_SCHEMA)
    headers = tmp_path / "h.csv"
    headers.write_text("x,y\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(headers, NUM_SCHEMA)


def test_load_csv_rejects_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,z,y\n1,2,a\n")
    with pytest.raises(SchemaError, match="header"):
        load_csv(path, NUM_SCHEMA)


def test_load_csv_rejects_single_class(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("x,y\n1,a\n2,a\n")
    with pytest.raises(SchemaError, match="2 distinct"):
        load_csv(path, NUM_SCHEMA)


# -- schema ------------------------------------------------------------


def test_schema_round_trip_from_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(
        '{"label": "y", "missing": "?", '
        '"columns": {"a": {"kind": "numeric", "bins": 4}, "b": {"kind": "categorical"}}}'
    )
    schema = load_schema(path)
    assert schema.label == "y"
    assert schema.missing == "?"
    assert schema.column("a").bins == 4


def test_schema_rejects_defects():
    with pytest.raises(SchemaError, match="label"):
        schema_from_dict({"columns": {"a": {"kind": "numeric"}}})
    with pytest.raises(SchemaError, match="kind"):
        make_schema({"a": {"kind": "text"}})
    with pytest.raises(SchemaError, match="bins"):
        make_schema({"a": {"kind": "numeric", "bins": 1}})
    with pytest.raises(SchemaError, match="bins"):
        make_schema({"a": {"kind": "categorical", "bins": 3}})
    with pytest.raises(SchemaError, match="not both"):
        make_schema({"a": {"kind": "numeric", "bins": 3, "thresholds": [1]}})
    with pytest.raises(SchemaError, match="unknown"):
        make_schema({"a": {"kind": "numeric", "binz": 3}})
    with pytest.raises(SchemaError, match="unknown"):
        schema_from_dict({"label": "y", "columns": {"a": {"kind": "binary"}}, "misc": 1})
    with pytest.raises(SchemaError, match="must not appear"):
        make_schema({"y": {"kind": "numeric"}})
    with pytest.raises(SchemaError, match="label_values"):
        make_schema({"a": {"kind": "numeric"}}, label_values=["only"])


@pytest.mark.parametrize("threshold", ["NaN", "Infinity", "1" + "0" * 400])
def test_schema_rejects_non_finite_threshold(tmp_path, threshold):
    column = f'{{"kind": "numeric", "thresholds": [{threshold}, 3]}}'
    path = tmp_path / "s.json"
    path.write_text(f'{{"label": "y", "columns": {{"a": {column}}}}}')
    with pytest.raises(SchemaError, match="column 'a': 'thresholds' must be finite"):
        load_schema(path)


def test_schema_rejects_invalid_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="JSON"):
        load_schema(path)


# -- split_stratified --------------------------------------------------


def balanced_labels(per_class, n_classes=3):
    return np.repeat(np.arange(n_classes), per_class)


def test_iris_shaped_split_is_105_15_30():
    labels = balanced_labels(50)
    split = split_stratified(150, labels, seed=123)
    assert (len(split.train), len(split.validation), len(split.test)) == (105, 15, 30)
    for c in range(3):
        assert sum(labels[i] == c for i in split.train) == 35
        assert sum(labels[i] == c for i in split.validation) == 5
        assert sum(labels[i] == c for i in split.test) == 10


def test_split_parts_are_disjoint_sorted_and_cover():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, size=97)
    labels[:12] = np.repeat(np.arange(4), 3)  # every class at least 3 times
    split = split_stratified(97, labels, seed=9)
    train, val, test = set(split.train), set(split.validation), set(split.test)
    assert not (train & val or train & test or val & test)
    assert train | val | test == set(range(97))
    assert list(split.train) == sorted(split.train)
    assert list(split.test) == sorted(split.test)


def test_split_class_proportions_close_to_global():
    rng = np.random.default_rng(2)
    labels = np.concatenate([np.zeros(300, int), np.ones(150, int), np.full(50, 2)])
    rng.shuffle(labels)
    split = split_stratified(500, labels, seed=77)
    global_props = np.bincount(labels) / 500
    for part in (split.train, split.validation, split.test):
        props = np.bincount(labels[list(part)], minlength=3) / len(part)
        assert (np.abs(props - global_props) <= 0.05).all()


def test_split_is_deterministic_and_seed_sensitive():
    labels = balanced_labels(20)
    a = split_stratified(60, labels, seed=42)
    b = split_stratified(60, labels, seed=42)
    c = split_stratified(60, labels, seed=43)
    assert a == b
    assert a.train != c.train
    assert a.seed == 42


def test_split_rejects_degenerate_inputs():
    with pytest.raises(StratificationError, match="10 instances"):
        split_stratified(8, [0, 0, 0, 0, 1, 1, 1, 1], seed=0)
    with pytest.raises(StratificationError, match="2 classes"):
        split_stratified(10, [0] * 10, seed=0)
    with pytest.raises(StratificationError, match="fewer than 3"):
        split_stratified(12, [0] * 10 + [1] * 2, seed=0)


def test_raw_feature_matrix_mixes_kinds(tmp_path):
    schema = make_schema(
        {
            "age": {"kind": "numeric"},
            "color": {"kind": "categorical"},
            "flag": {"kind": "binary"},
        }
    )
    rows = [
        (18, "red", 1, "a"),
        (30, "blue", 0, "b"),
        (45, "red", 1, "a"),
    ]
    raw = raw_from_table(tmp_path, ["age", "color", "flag", "y"], rows, schema)
    names, matrix = raw_feature_matrix(raw)
    assert names == ("age", "color=blue", "color=red", "flag")
    expected = np.array(
        [
            [18.0, 0.0, 1.0, 1.0],
            [30.0, 1.0, 0.0, 0.0],
            [45.0, 0.0, 1.0, 1.0],
        ]
    )
    assert np.array_equal(matrix, expected)
