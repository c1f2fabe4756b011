"""Loading, binarization, and split behaviour on small hand-checked tables."""

import sys
from dataclasses import fields
from pathlib import Path

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
    schema_from_dict,
    split_stratified,
)
from gaflearn.errors import ParseError, SchemaError, StratificationError

from csv_rowloop import load_csv_rows

ROOT = Path(__file__).resolve().parent.parent


def make_schema(columns, label="y", **extra):
    return schema_from_dict({"label": label, "columns": columns, **extra})


def raw_from_table(tmp_path, header, rows, schema):
    path = tmp_path / "t.csv"
    lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return load_csv(path, schema)


def column_values(raw, name):
    """A feature column's values as the table holds them: numbers, 0/1, or a
    categorical column's level names."""
    j = raw.feature_names.index(name)
    column = raw.columns[j]
    if raw.specs[j].kind == "categorical":
        return [raw.levels[j][code] for code in column]
    return column.tolist()


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
    for c, ind in enumerate(binz.indicators):
        for r, value in enumerate(column_values(raw, ind.source_column)):
            want = 1.0 if ind.matches(value) else 0.0
            assert binz.matrix[r, c] == want


# few values, so columns tie, go constant and meet thresholds drawn from the same pool
NUMBER_POOL = (-1.5, 0.0, 0.25, 1.0, 2.0, 7.0)


@st.composite
def raw_tables(draw):
    """Small RawDatasets mixing all three column kinds, as load_csv builds them."""
    n = draw(st.integers(1, 20))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    specs, columns, levels = [], [], []
    for j, kind in enumerate(kinds):
        if kind == "numeric":
            values = st.sampled_from(NUMBER_POOL)
            thresholds = draw(st.none() | st.sets(values, min_size=1, max_size=3))
            bins = None if thresholds else draw(st.none() | st.integers(2, 5))
            thresholds = tuple(sorted(thresholds)) if thresholds else None
            specs.append(ColumnSpec(f"c{j}", kind, bins=bins, thresholds=thresholds))
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n))))
            levels.append(())
        elif kind == "categorical":
            values = draw(st.lists(st.sampled_from(["a", "b", "c", "?"]), min_size=n, max_size=n))
            specs.append(ColumnSpec(f"c{j}", kind))
            levels.append(tuple(sorted(set(values))))
            columns.append(np.array([levels[-1].index(v) for v in values], dtype=np.intp))
        else:
            specs.append(ColumnSpec(f"c{j}", kind))
            bits = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
            columns.append(np.array(bits, dtype=np.uint8))
            levels.append(())
    raw = RawDataset(
        feature_names=tuple(spec.name for spec in specs),
        specs=tuple(specs),
        columns=tuple(columns),
        levels=tuple(levels),
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
    want = np.array(
        [
            [1.0 if ind.matches(value) else 0.0 for value in column_values(raw, ind.source_column)]
            for ind in binz.indicators
        ]
    ).T
    assert binz.matrix.dtype == np.uint8 and binz.matrix.flags["C_CONTIGUOUS"]
    assert binz.matrix.shape == (raw.n_instances, len(binz.indicators))
    assert np.array_equal(binz.matrix, want)
    for spec in raw.specs:
        if spec.kind != "binary":
            cols = [i for i, ind in enumerate(binz.indicators) if ind.source_column == spec.name]
            assert (binz.matrix[:, cols].sum(axis=1) == 1).all()
    assert binz.labels.tolist() == [raw.label_values.index(l) for l in raw.labels]


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
    assert column_values(raw, "c") == ["?", "u"]


def test_load_csv_strips_whitespace(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("x, y\n 1.5 , a\n2.5,b \n")
    raw = load_csv(path, NUM_SCHEMA)
    assert raw.columns[0].tolist() == [1.5, 2.5]
    assert raw.labels == ("a", "b")


def test_load_csv_rejects_bad_arity_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,a\n2,b,EXTRA\n")
    with pytest.raises(ParseError, match="line 3"):
        load_csv(path, NUM_SCHEMA)


def test_load_csv_skips_a_byte_order_mark_and_keeps_line_numbers(tmp_path):
    schema = load_schema(ROOT / "configs" / "iris.schema.json")
    original = (ROOT / "data" / "iris.csv").read_bytes()
    marked = tmp_path / "iris.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + original)
    got, want = load_csv(marked, schema), load_csv(ROOT / "data" / "iris.csv", schema)
    for field in fields(RawDataset):  # == on the array fields would raise
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "columns":
            assert len(a) == len(b) and all(
                x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b)
            )
        else:
            assert a == b, field.name
    n_lines = original.count(b"\n")
    marked.write_bytes(b"\xef\xbb\xbf" + original + b"1,2,3\n")
    with pytest.raises(ParseError, match=f"line {n_lines + 1}: expected 5 fields, got 3"):
        load_csv(marked, schema)


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


def test_load_csv_reports_the_first_defect_in_file_order(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,a\noops,b\n2,a,EXTRA\n")
    with pytest.raises(ParseError, match="line 3: column 'x': 'oops' is not numeric"):
        load_csv(path, NUM_SCHEMA)
    schema = make_schema({"x": {"kind": "numeric"}}, label_values=["a", "b"])
    path.write_text("x,y\n1,a\noops,c\n")
    with pytest.raises(ParseError, match="line 3: column 'x': 'oops' is not numeric"):
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


def assert_same_raw(got, want):
    for field in fields(RawDataset):  # == on the array fields would raise
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "columns":
            assert len(a) == len(b) and all(
                x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b)
            )
        else:
            assert a == b, field.name


def test_load_csv_reads_an_over_long_field(tmp_path):
    path = tmp_path / "long.csv"
    digits = "1" * 200_000  # beyond csv.field_size_limit(); reads as inf
    path.write_text(f"x,y\n1,a\n{digits},b\n")
    with pytest.raises(ParseError, match=r"line 3: column 'x': '1+\.\.\.' is not a finite number"):
        load_csv(path, NUM_SCHEMA)
    schema = make_schema({"c": {"kind": "categorical"}})
    path.write_text(f"c,y\n{'x' * 70},a\n{'x' * 69},b\n{'x' * 70},a\n")  # keyed by a dict
    raw = load_csv(path, schema)
    assert raw.levels == (("x" * 69, "x" * 70),)
    assert raw.columns[0].tolist() == [1, 0, 1]


@pytest.mark.parametrize(
    "schema, text, where",
    [
        (NUM_SCHEMA, "x,y\n1,a\n{cell},b\n", "line 3: column 'x': "),
        (make_schema({"f": {"kind": "binary"}}), "f,y\n0,a\n{cell},b\n", "line 3: column 'f': "),
        (
            make_schema({"x": {"kind": "numeric"}}, label_values=["a", "b"]),
            "x,y\n1,a\n2,{cell}\n",
            "line 3: label ",
        ),
    ],
    ids=["numeric", "binary", "label"],
)
def test_load_csv_cuts_a_long_cell_in_its_message(tmp_path, schema, text, where):
    path = tmp_path / "long.csv"
    path.write_text(text.format(cell="7" * 200_000))
    with pytest.raises((ParseError, SchemaError)) as info:
        load_csv(path, schema)
    message = str(info.value)
    assert message.startswith(f"{path}: {where}")
    assert "'" + "7" * 40 + "...'" in message
    assert len(message) - len(str(path)) < 200  # the path is wherever pytest put it


def test_load_csv_keeps_fields_whose_word_hashes_collide_apart(tmp_path):
    # 15-byte fields, each read as two 8-byte words; data._group's hash of
    # the words is equal for these two, so only the check of each group's
    # words can tell them apart
    a, b = "`u>5(mu*M[rt3s6", "y93xsWc7@)(Q~wL"
    schema = make_schema({"c": {"kind": "categorical"}})
    path = tmp_path / "c.csv"
    path.write_text(f"c,y\n{a},p\n{b},q\n{a},q\n")
    raw = load_csv(path, schema)
    assert raw.levels == ((a, b),)
    assert raw.columns[0].tolist() == [0, 1, 0]


def test_load_csv_reads_canonical_quoting_as_csv_reader_does(tmp_path):
    schema = make_schema({"c": {"kind": "categorical"}, "x": {"kind": "numeric"}})
    path = tmp_path / "q.csv"
    path.write_bytes(b'"c",x,y\n"a,b",1,p\r\n"a""b","2",q\n"two\r\nlines","3",""\n')
    raw = load_csv(path, schema)
    assert raw.levels[0] == ('a"b', "a,b", "two\r\nlines")
    assert column_values(raw, "c") == ["a,b", 'a"b', "two\r\nlines"]
    assert raw.columns[1].tolist() == [1.0, 2.0, 3.0]
    assert raw.labels == ("p", "q", "")
    assert_same_raw(raw, load_csv_rows(path, schema))


@pytest.mark.parametrize(
    "body, line, column",
    [
        ('1,a\nab"c,b\n', 3, "'x'"),
        ('1,a\n"x"y,b\n', 3, "'x'"),
        ('1,a\n2, "b"\n', 3, "'y'"),
        ('1,"a\n2,b\n', 2, "'y'"),  # a quote left open to the end of the file
        ('1,a\n"2,b\n3,a\n', 3, "'x'"),
        ('1,a\n?,b"\n', 3, "'y'"),  # a row with the missing marker too
    ],
)
def test_load_csv_refuses_other_quoting(tmp_path, body, line, column):
    schema = make_schema({"x": {"kind": "numeric"}}, missing="?")
    path = tmp_path / "q.csv"
    path.write_text("x,y\n" + body)
    with pytest.raises(ParseError, match=rf"line {line}: column {column}: .* holds a quote"):
        load_csv(path, schema)


def test_load_csv_refuses_other_quoting_in_the_header(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text('x,y"\n1,a\n')
    with pytest.raises(ParseError, match="line 1: field 2: .* holds a quote"):
        load_csv(path, NUM_SCHEMA)


# Cells the differential test draws from: whitespace of several kinds,
# multi-byte UTF-8, separators and quotes (which force quoting), the
# missing marker, and NUL where csv.reader accepts it (Python 3.11+).
CELL_CHARS = list('ab é€😀,"?\n\r \t\x1c\x85\xa0\u2028\u3000') + (
    ["\x00"] if sys.version_info >= (3, 11) else []
)
CELLS = st.text(st.sampled_from(CELL_CHARS), max_size=4)
GOOD_CELLS = {
    "numeric": st.sampled_from(["1", "-2.5", "1e3", " 4 ", " 7\t", "1_0", "٣"]),
    "binary": st.sampled_from(["0", "1", " 1 "]),
    "categorical": CELLS,
    "label": st.sampled_from(["a", "b", " a ", "é"]),
}
ANY_CELL = st.sampled_from(["nan", "-inf", "", "?", "2", "c"]) | CELLS


@st.composite
def csv_files(draw):
    """A schema and the bytes of a small CSV file for it."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3))
    schema = make_schema(
        {f"f{j}": {"kind": kind} for j, kind in enumerate(kinds)},
        label_values=draw(st.none() | st.just(["a", "b", "é"])),
        missing=draw(st.none() | st.just("?")),
    )
    header = draw(st.permutations([f"f{j}" for j in range(len(kinds))] + ["y"]))
    kind_of = {f"f{j}": kind for j, kind in enumerate(kinds)} | {"y": "label"}

    def rare():
        return draw(st.integers(0, 12)) == 7

    def encode(value):
        if any(c in value for c in ',"\r\n') or rare():
            return '"' + value.replace('"', '""') + '"'
        return value

    lines = [",".join(encode(name) for name in header)]
    for _ in range(draw(st.integers(1, 8))):
        if rare():
            lines.append("")
            continue
        row = [encode(draw(ANY_CELL if rare() else GOOD_CELLS[kind_of[name]])) for name in header]
        if rare():
            row = row[:-1] if draw(st.booleans()) else row + ["z"]
        lines.append(",".join(row))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]  # no line end after the last record
    data = text.encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if rare():
        data = data[: len(data) // 2] + b"\xff" + data[len(data) // 2 :]
    return schema, data


def outcome(load, path, schema):
    try:
        return load(path, schema)
    except (ParseError, SchemaError) as exc:
        return exc


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(csv_files())
def test_load_csv_matches_the_row_by_row_reference(tmp_path_factory, table):
    schema, data = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(data)
    got, want = outcome(load_csv, path, schema), outcome(load_csv_rows, path, schema)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert isinstance(got, RawDataset), got
        assert_same_raw(got, want)


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


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(
    st.lists(st.integers(3, 40), min_size=2, max_size=6).filter(lambda sizes: sum(sizes) >= 10),
    st.integers(0, 2**64 - 1),
    st.randoms(use_true_random=False),
)
def test_split_partitions_every_class_by_rounded_shares(class_sizes, seed, shuffler):
    labels = [c for c, n_c in enumerate(class_sizes) for _ in range(n_c)]
    shuffler.shuffle(labels)
    labels = np.array(labels)
    if max(class_sizes) <= 5:  # round(0.1 * n_c) is 0 for every class
        with pytest.raises(StratificationError, match="validation split would be empty"):
            split_stratified(len(labels), labels, seed=seed)
        return
    split = split_stratified(len(labels), labels, seed=seed)
    parts = (split.train, split.validation, split.test)
    for part in parts:
        assert list(part) == sorted(set(part))
    assert sorted(np.concatenate(parts).tolist()) == list(range(len(labels)))
    for c, n_c in enumerate(class_sizes):
        counts = [int((labels[list(part)] == c).sum()) for part in parts]
        assert counts == [round(0.7 * n_c), round(0.1 * n_c), n_c - counts[0] - counts[1]]


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
    for part in ("train", "validation", "test"):
        assert np.array_equal(getattr(a, part), getattr(b, part))
    assert not np.array_equal(a.train, c.train)
    assert a.seed == 42


def reference_split(labels, seed):
    """The former split: per class, the permutation's parts as Python lists."""
    rng = np.random.default_rng(seed)
    parts = ([], [], [])
    for c in np.unique(labels):
        perm = rng.permutation(np.flatnonzero(labels == c)).tolist()
        n_train, n_val = round(0.7 * len(perm)), round(0.1 * len(perm))
        parts[0].extend(perm[:n_train])
        parts[1].extend(perm[n_train : n_train + n_val])
        parts[2].extend(perm[n_train + n_val :])
    return [sorted(part) for part in parts]


def test_split_parts_are_read_only_int64_arrays_as_the_list_split_drew_them():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 3, size=400)
    for seed in (0, 1, 2**63):
        split = split_stratified(len(labels), labels, seed=seed)
        parts = (split.train, split.validation, split.test)
        for part in parts:
            assert part.dtype == np.int64 and not part.flags.writeable
        assert [part.tolist() for part in parts] == reference_split(labels, seed)
    with pytest.raises(ValueError):
        split.train[0] = 1
    again = split_stratified(len(labels), labels, seed=2**63)
    assert split == split and split != again  # eq=False: arrays do not compare as one bool


def test_split_rejects_degenerate_inputs():
    with pytest.raises(StratificationError, match="10 instances"):
        split_stratified(8, [0, 0, 0, 0, 1, 1, 1, 1], seed=0)
    with pytest.raises(StratificationError, match="2 classes"):
        split_stratified(10, [0] * 10, seed=0)
    with pytest.raises(StratificationError, match=r"classes \[1\] have fewer than 3"):
        split_stratified(12, [0] * 10 + [1] * 2, seed=0)
    with pytest.raises(StratificationError, match=r"classes \['b'\] have fewer than 3"):
        split_stratified(12, [0] * 10 + [1] * 2, seed=0, label_names=("a", "b"))
    with pytest.raises(StratificationError, match="validation split would be empty"):
        split_stratified(10, [0] * 5 + [1] * 5, seed=0)
    assert len(split_stratified(11, [0] * 5 + [1] * 6, seed=0).validation) == 1
