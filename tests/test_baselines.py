"""Metrics arithmetic, tree behaviour, and the logistic-equals-flat-graph tie."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaflearn.baselines import (
    DecisionTree,
    evaluate_metrics,
    train_logistic,
    train_tree,
)
from gaflearn.errors import ConfigError, InputShapeError
from gaflearn.graph import output_distributions
from gaflearn.train import MaskedNet, TrainConfig
from gaflearn.util import softmax_rows


def test_perfect_predictions_score_ones():
    m = evaluate_metrics([0, 1, 2, 1], [0, 1, 2, 1])
    assert m.accuracy == 1.0
    assert m.macro_precision == 1.0
    assert m.macro_recall == 1.0
    assert np.trace(m.confusion) == 4


def test_symmetric_binary_confusion():
    # confusion [[1,1],[1,1]]: one of each (true, predicted) combination
    m = evaluate_metrics([0, 1, 0, 1], [0, 0, 1, 1])
    assert np.array_equal(m.confusion, [[1, 1], [1, 1]])
    assert m.accuracy == 0.5
    assert m.macro_precision == 0.5
    assert m.macro_recall == 0.5


def test_metrics_recompute_from_confusion():
    rng = np.random.default_rng(0)
    y_true = rng.integers(0, 3, size=200)
    y_pred = rng.integers(0, 3, size=200)
    m = evaluate_metrics(y_pred, y_true)
    conf = m.confusion
    assert conf.sum() == 200
    assert m.accuracy == np.trace(conf) / conf.sum()
    precisions = [conf[c, c] / conf[:, c].sum() for c in range(3)]
    recalls = [conf[c, c] / conf[c, :].sum() for c in range(3)]
    assert m.macro_precision == np.mean(precisions)
    assert m.macro_recall == np.mean(recalls)


def test_never_predicted_class_warns_and_counts_zero():
    with pytest.warns(UserWarning, match="never predicted"):
        m = evaluate_metrics([0, 0, 0, 1], [0, 1, 2, 1], n_classes=3)
    # per-class precision 1/3, 1/1, and 0 for the never-predicted class
    assert abs(m.macro_precision - (1 / 3 + 1 + 0) / 3) < 1e-12


def test_metrics_reject_bad_inputs():
    with pytest.raises(InputShapeError):
        evaluate_metrics([0, 1], [0, 1, 2])
    with pytest.raises(InputShapeError):
        evaluate_metrics([], [])


@pytest.mark.parametrize(
    "predictions, labels, n_classes, message",
    [
        ([0, -1, 1], [0, 0, 1], None, "predictions must be class indices from 0$"),
        ([0.7, 0, 1], [0, 0, 1], None, "predictions must be integer class indices"),
        ([0, 2, 1], [0, 0, 1], 2, "predictions must be class indices from 0 below 2"),
        ([0, 1, 1], [0, 2, 1], 2, "labels must be class indices from 0 below 2"),
        ([0, 1], [[0], [1]], None, r"expected a vector of labels, got shape \(2, 1\)"),
    ],
    ids=["negative", "fraction", "prediction-too-large", "label-too-large", "column"],
)
def test_metrics_refuse_values_that_are_not_class_indices(predictions, labels, n_classes, message):
    with pytest.raises(InputShapeError, match=message):
        evaluate_metrics(predictions, labels, n_classes)


# -- decision trees ------------------------------------------------------


def test_pure_labels_give_single_leaf():
    x = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    tree = train_tree(x, np.array([1, 1, 1]))
    assert tree.root.is_leaf
    assert tree.depth() == 0
    assert tree.predict(x).tolist() == [1, 1, 1]


def test_label_equal_to_feature_gives_depth_one_split():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, size=(30, 4)).astype(float)
    y = x[:, 2].astype(np.int64)
    tree = train_tree(x, y)
    assert tree.depth() == 1
    assert tree.root.feature == 2
    assert (tree.predict(x) == y).all()


def test_split_ties_break_toward_lowest_feature_index():
    x = np.array([[0, 0.0], [0, 0], [1, 1], [1, 1]], dtype=float)
    y = np.array([0, 0, 1, 1])  # both features split perfectly
    tree = train_tree(x, y)
    assert tree.root.feature == 0


def test_max_depth_bounds_the_tree():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 2, size=(64, 6)).astype(float)
    y = (x[:, 0].astype(int) ^ x[:, 1].astype(int) ^ x[:, 2].astype(int)).astype(np.int64)
    shallow = train_tree(x, y, max_depth=2)
    assert shallow.depth() <= 2
    deep = train_tree(x, y)
    assert (deep.predict(x) == y).all()  # parity needs the zero-gain splits


def test_max_depth_zero_is_majority_vote():
    x = np.array([[0.0], [1.0], [1.0]])
    tree = train_tree(x, np.array([0, 1, 1]), max_depth=0)
    assert tree.root.is_leaf
    assert tree.predict(np.array([[0.0]])).tolist() == [1]


def test_impure_node_with_only_constant_columns_stays_a_majority_leaf():
    # column 0 splits the root; on its 1-side every column is constant,
    # so that side keeps both classes and predicts its majority
    x = np.array([[0, 1], [1, 0], [1, 0], [1, 0]], dtype=float)
    y = np.array([0, 1, 1, 0])
    tree = train_tree(x, y)
    assert tree.root.feature == 0
    assert tree.root.right.is_leaf and tree.root.right.label == 1
    assert tree.depth() == 1


def test_non_indicator_matrix_raises_input_shape_error():
    # the trainer's messages: a fraction is not an indicator, and the rest
    # are not strengths at all
    strengths = r"input strengths must be finite values in \[0,1\]"
    for value, message in (
        (2.0, strengths),
        (0.5, "training inputs must be 0/1 indicators"),
        (-1.0, strengths),
        (np.nan, strengths),
    ):
        x = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, value]])
        with pytest.raises(InputShapeError, match=message):
            train_tree(x, np.array([0, 1, 1]))


def reference_split(x, y, n_classes):
    """The column-at-a-time Gini rule the vectorized split must equal: the
    first column of strictly lowest weighted Gini, skipping constant ones."""

    def gini(counts):
        p = counts / counts.sum()
        return float(1.0 - np.square(p).sum())

    n = y.shape[0]
    best = None  # (score, column)
    for f in range(x.shape[1]):
        ones = x[:, f] == 1
        n_right = int(ones.sum())
        if n_right in (0, n):
            continue
        left = np.bincount(y[~ones], minlength=n_classes)
        right = np.bincount(y[ones], minlength=n_classes)
        score = ((n - n_right) * gini(left) + n_right * gini(right)) / n
        if best is None or score < best[0]:
            best = (score, f)
    return None if best is None else best[1]


def reference_nodes(x, y, max_depth):
    """(feature, label) of every node, depth first, left before right."""
    n_classes = int(y.max()) + 1
    out = []

    def grow(rows, depth):
        counts = np.bincount(y[rows], minlength=n_classes)
        at = len(out)
        out.append((None, int(counts.argmax())))
        if counts.max() == rows.shape[0] or (max_depth is not None and depth >= max_depth):
            return
        f = reference_split(x[rows], y[rows], n_classes)
        if f is None:
            return
        out[at] = (f, out[at][1])
        ones = x[rows, f] == 1
        grow(rows[~ones], depth + 1)
        grow(rows[ones], depth + 1)

    grow(np.arange(y.shape[0]), 0)
    return out


def tree_nodes(tree):
    out = []

    def walk(node):
        out.append((node.feature, node.label))
        if not node.is_leaf:
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    return out


@st.composite
def indicator_problems(draw):
    """0/1 matrices whose duplicated columns tie and constant columns cannot split."""
    n = draw(st.integers(1, 40))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    columns = draw(st.lists(bits, min_size=1, max_size=5))
    copies = st.sampled_from(columns) | st.sampled_from([[0] * n, [1] * n])
    columns += draw(st.lists(copies, max_size=4))
    order = draw(st.permutations(range(len(columns))))
    x = np.array([columns[j] for j in order], dtype=np.float64).T
    n_classes = draw(st.integers(2, 4))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    return x, y, draw(st.none() | st.integers(0, 4))


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(indicator_problems())
def test_tree_matches_the_column_at_a_time_reference(problem):
    x, y, max_depth = problem
    assert tree_nodes(train_tree(x, y, max_depth)) == reference_nodes(x, y, max_depth)


def reference_predict(tree, x):
    """The former DecisionTree.predict: each row walks the tree on its own."""
    out = np.empty(x.shape[0], dtype=np.int64)
    for i, row in enumerate(x):
        node = tree.root
        while not node.is_leaf:
            node = node.left if row[node.feature] < 0.5 else node.right
        out[i] = node.label
    return out


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(indicator_problems(), st.data())
def test_tree_predicts_as_the_row_at_a_time_reference(problem, data):
    x, y, max_depth = problem
    tree = train_tree(x, y, max_depth)
    # the training rows, and rows of any strengths: 0.5 itself goes right
    values = st.sampled_from([0.0, 1.0, 0.49, 0.5])
    rows = data.draw(st.lists(st.lists(values, min_size=x.shape[1], max_size=x.shape[1])))
    for grid in (x, np.array(rows, dtype=np.float64).reshape(-1, x.shape[1])):
        assert np.array_equal(tree.predict(grid), reference_predict(tree, grid))


def test_tree_grows_and_predicts_on_uint8_and_bool_as_on_float64():
    rng = np.random.default_rng(12)
    x = rng.integers(0, 2, size=(120, 9)).astype(np.uint8)
    y = (x[:, 0] ^ x[:, 3]) + x[:, 5] * rng.integers(0, 2, size=120)
    grid = rng.integers(0, 2, size=(60, 9)).astype(np.uint8)
    for max_depth in (None, 2):
        want = train_tree(x.astype(np.float64), y, max_depth)
        assert want.n_leaves() > 2
        for other in (x, x.astype(bool)):
            assert tree_nodes(train_tree(other, y, max_depth)) == tree_nodes(want)
        predicted = want.predict(grid.astype(np.float64))
        for other in (grid, grid.astype(bool)):
            assert np.array_equal(want.predict(other), predicted)


@pytest.mark.parametrize(
    "bad", [np.array([[0, 2]], dtype=np.uint8), np.array([[0, -1]], dtype=np.int8)],
    ids=["uint8-2", "int8-minus-1"],
)
def test_tree_refuses_integer_inputs_outside_0_1(bad):
    message = r"^input strengths must be finite values in \[0,1\]$"
    x = np.array([[0, 1], [1, 0], [1, 1]], dtype=bad.dtype)
    tree = train_tree(x, np.array([0, 1, 1]))
    with pytest.raises(InputShapeError, match=message):
        train_tree(np.concatenate([x, bad]), np.array([0, 1, 1, 0]))
    with pytest.raises(InputShapeError, match=message):
        tree.predict(bad)


def test_tree_training_is_deterministic():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, size=(80, 7)).astype(float)
    y = rng.integers(0, 3, size=80)
    a = train_tree(x, y, max_depth=4)
    b = train_tree(x, y, max_depth=4)
    grid = rng.integers(0, 2, size=(50, 7)).astype(float)
    assert np.array_equal(a.predict(grid), b.predict(grid))
    assert a.depth() == b.depth()


@pytest.mark.parametrize(
    "labels, message",
    [
        ([0, -1, 1], "labels must be class indices from 0$"),
        ([[0], [1], [1]], r"expected 3 labels, got shape \(3, 1\)"),
        ([0, 0.5, 1], "labels must be integer class indices, got dtype float64"),
        ([0, 1], r"expected 3 labels, got shape \(2,\)"),
    ],
    ids=["negative", "column", "fraction", "short"],
)
def test_tree_refuses_labels_that_are_not_class_indices(labels, message):
    x = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    with pytest.raises(InputShapeError, match=message):
        train_tree(x, np.array(labels))


def test_tree_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        train_tree(np.zeros((0, 2)), np.zeros(0, np.int64))
    tree = train_tree(np.array([[0.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(InputShapeError):
        tree.predict(np.zeros((2, 5)))


@pytest.mark.parametrize("bad", [np.nan, -3.0, np.inf, 1.5], ids=["nan", "-3.0", "inf", "1.5"])
def test_tree_predict_refuses_strengths_outside_0_1(bad):
    # as every model does, with the same message as evaluate
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    tree = train_tree(x, np.array([0, 1, 1, 1]))
    with pytest.raises(InputShapeError, match=r"^input strengths must be finite values in \[0,1\]$"):
        tree.predict(np.array([[0.0, 0.5], [bad, 0.0]]))


# -- logistic baseline ---------------------------------------------------


def test_logistic_baseline_solves_separable_toy():
    x = np.array([[0.0, 1.0], [1.0, 0.0]] * 6)
    y = x[:, 0].astype(np.int64)
    config = TrainConfig(learning_rate=0.2, max_epochs=200, es_patience=200, es_tolerance=0.0)
    gaf, result = train_logistic(x, y, x, y, config, 0, ["f0", "f1"], ["n", "p"])
    assert len(gaf.layers) == 2  # no hidden layer
    assert len(gaf.edges) == 2 * 2
    assert result.epochs_run == len(result.val_loss) == 200
    assert result.train_accuracy == result.val_accuracy == 1.0
    predictions = np.argmax(output_distributions(gaf, x), axis=1)
    assert (predictions == y).all()


def test_logistic_baseline_is_the_same_code_path_as_a_flat_graph():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 2, size=(40, 5)).astype(float)
    y = rng.integers(0, 3, size=40)
    config = TrainConfig(learning_rate=0.1, max_epochs=30, es_patience=30, es_tolerance=0.0)
    gaf, _ = train_logistic(x, y, x, y, config, 0, [f"f{i}" for i in range(5)], ["a", "b", "c"])
    net = MaskedNet.from_gaf(gaf)
    assert np.array_equal(softmax_rows(net.forward(x)[1]), output_distributions(gaf, x))
