"""Metrics arithmetic, tree behaviour, and the logistic-equals-flat-graph tie."""

import numpy as np
import pytest

from gaflearn.baselines import (
    DecisionTree,
    evaluate_metrics,
    train_logistic,
    train_tree,
)
from gaflearn.errors import ConfigError, InputShapeError
from gaflearn.graph import output_distributions
from gaflearn.train import MaskedNet, TrainConfig


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
    assert tree.root.threshold == 0.5
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


def test_min_leaf_blocks_small_splits():
    x = np.array([[0.0], [0.0], [0.0], [1.0]])
    y = np.array([0, 0, 0, 1])
    tree = train_tree(x, y, min_leaf=2)
    assert tree.root.is_leaf  # the only useful split would leave a 1-row side


def test_threshold_search_on_raw_numeric_column():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([0, 0, 1, 1])
    tree = train_tree(x, y)
    assert tree.root.threshold == 2.5
    assert (tree.predict(x) == y).all()


def test_tree_training_is_deterministic():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, size=(80, 7)).astype(float)
    y = rng.integers(0, 3, size=80)
    a = train_tree(x, y, max_depth=4)
    b = train_tree(x, y, max_depth=4)
    grid = rng.integers(0, 2, size=(50, 7)).astype(float)
    assert np.array_equal(a.predict(grid), b.predict(grid))
    assert a.depth() == b.depth()


def test_tree_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        train_tree(np.zeros((0, 2)), np.zeros(0, np.int64))
    with pytest.raises(ConfigError):
        train_tree(np.zeros((3, 2)), np.array([0, 1, 0]), min_leaf=0)
    tree = train_tree(np.array([[0.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(InputShapeError):
        tree.predict(np.zeros((2, 5)))


# -- logistic baseline ---------------------------------------------------


def test_logistic_baseline_solves_separable_toy():
    x = np.array([[0.0, 1.0], [1.0, 0.0]] * 6)
    y = x[:, 0].astype(np.int64)
    config = TrainConfig(learning_rate=0.2, max_epochs=200, es_patience=200, es_tolerance=0.0)
    gaf, result = train_logistic(x, y, x, y, config, 0, ["f0", "f1"], ["n", "p"])
    assert len(gaf.layers) == 2  # no hidden layer
    assert gaf.connection_count() == 2 * 2
    assert result.epochs_run == len(result.history.val_loss) == 200
    predictions = np.argmax(output_distributions(gaf, x), axis=1)
    assert (predictions == y).all()


def test_logistic_baseline_is_the_same_code_path_as_a_flat_graph():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 2, size=(40, 5)).astype(float)
    y = rng.integers(0, 3, size=40)
    config = TrainConfig(learning_rate=0.1, max_epochs=30, es_patience=30, es_tolerance=0.0)
    gaf, _ = train_logistic(x, y, x, y, config, 0, [f"f{i}" for i in range(5)], ["a", "b", "c"])
    net = MaskedNet.from_gaf(gaf)
    assert np.array_equal(net.predict_proba(x), output_distributions(gaf, x))
