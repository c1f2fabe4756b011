"""Comparison classifiers and shared metrics.

Logistic regression is literally a 0-hidden-layer classifier graph trained
by the same machinery, so the comparison isolates the value of hidden
structure. Decision trees are greedy Gini trees over the same binarized
indicators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputShapeError
from .graph import GafStructure, LayeredGaf, check_indicators, check_strengths
from .train import TrainConfig, TrainResult, to_classifier, train
from .util import class_indices


@dataclass(frozen=True, eq=False)
class Metrics:
    accuracy: float
    macro_precision: float
    macro_recall: float
    confusion: np.ndarray  # [true, predicted] counts


def evaluate_metrics(predictions, true_labels, n_classes: int | None = None) -> Metrics:
    """Confusion matrix plus accuracy and macro precision/recall.

    Both are vectors of class indices, below n_classes when it is given
    (see :func:`util.class_indices`). A class never predicted (or never
    present) contributes 0 to its macro average, with a warning.
    """
    y_true = class_indices(true_labels, None, n_classes)
    y_pred = class_indices(predictions, len(y_true), n_classes, "predictions")
    if y_pred.shape[0] == 0:
        raise InputShapeError("cannot compute metrics on an empty prediction list")
    if n_classes is None:
        n_classes = int(max(y_pred.max(), y_true.max())) + 1
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (y_true, y_pred), 1)

    total = confusion.sum()
    accuracy = float(np.trace(confusion) / total)
    precisions = []
    recalls = []
    for c in range(n_classes):
        predicted = confusion[:, c].sum()
        actual = confusion[c, :].sum()
        if predicted == 0:
            warnings.warn(f"class {c} never predicted; precision counted as 0")
            precisions.append(0.0)
        else:
            precisions.append(float(confusion[c, c] / predicted))
        if actual == 0:
            warnings.warn(f"class {c} absent from the labels; recall counted as 0")
            recalls.append(0.0)
        else:
            recalls.append(float(confusion[c, c] / actual))
    return Metrics(
        accuracy=accuracy,
        macro_precision=float(np.mean(precisions)),
        macro_recall=float(np.mean(recalls)),
        confusion=confusion,
    )


def train_logistic(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
    seed: int,
    input_names,
    class_labels,
) -> tuple[LayeredGaf, TrainResult]:
    """Fully connected inputs-to-outputs graph with no hidden layer, trained under seed."""
    structure = GafStructure.fully_connected((x_train.shape[1], len(class_labels)))
    result = train(structure, x_train, y_train, x_val, y_val, config, seed)
    return to_classifier(result, input_names, class_labels), result


@dataclass
class TreeNode:
    label: int
    feature: int | None = None  # rows where this indicator is 0 go left, 1 right
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class DecisionTree:
    root: TreeNode
    n_features: int

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Each row's leaf label; rows of strengths in [0, 1], uint8 0/1 as
        binarize writes them or float, are routed as they are, uncast."""
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise InputShapeError(f"expected (n, {self.n_features}) inputs, got {x.shape}")
        x = check_strengths(x)
        # route row indices node by node
        out = np.empty(x.shape[0], dtype=np.int64)
        parts = [(self.root, np.arange(x.shape[0]))]
        while parts:
            node, rows = parts.pop()
            if node.is_leaf:
                out[rows] = node.label
                continue
            left = x[rows, node.feature] < 0.5
            for child, part in ((node.left, rows[left]), (node.right, rows[~left])):
                if part.size:
                    parts.append((child, part))
        return out

    def depth(self) -> int:
        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def n_leaves(self) -> int:
        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root)


def _best_split(
    x: np.ndarray, rows: np.ndarray, classes: np.ndarray, counts: np.ndarray
) -> int | None:
    """The column of lowest weighted Gini, the lowest one on a tie; None if
    every column is constant on these rows.

    ``x`` holds 0/1 indicators as uint8; ``rows`` are the node's rows,
    ``classes`` their classes and ``counts`` the node's count of each class.
    A column's 1-rows go right, so summing each class's rows counts every
    column's right-side classes at once, and the left side holds the rest.
    The counts are exact integers, so the Gini arithmetic on them as float64
    is the same whatever order they were summed in.
    """
    right = np.empty((x.shape[1], len(counts)))  # (columns, classes)
    for c in range(len(counts)):
        right[:, c] = x[rows[classes == c]].sum(axis=0, dtype=np.int64)
    left = counts - right
    n_right = right.sum(axis=1)
    n_left = rows.shape[0] - n_right
    splits = (n_left > 0) & (n_right > 0)
    if not splits.any():
        return None
    with np.errstate(invalid="ignore"):  # 0/0 on an empty side, masked below
        gini_left = 1.0 - np.square(left / n_left[:, None]).sum(axis=1)
        gini_right = 1.0 - np.square(right / n_right[:, None]).sum(axis=1)
    score = (n_left * gini_left + n_right * gini_right) / rows.shape[0]
    return int(np.where(splits, score, np.inf).argmin())


def train_tree(
    x_train: np.ndarray,
    y_train: np.ndarray,
    max_depth: int | None = None,
) -> DecisionTree:
    """Greedy recursive Gini partitioning of 0/1 indicators; fully deterministic.

    y_train holds a class index per row (see :func:`util.class_indices`).
    The tree is grown on x_train itself when it is uint8, as binarize
    writes it, and on a uint8 copy of any other 0/1 array.
    """
    x = np.asarray(x_train)
    if x.ndim != 2:
        raise InputShapeError(f"expected an (n, features) matrix, got shape {x.shape}")
    y = class_indices(y_train, x.shape[0])
    if x.shape[0] == 0:
        raise ConfigError("training split is empty")
    x = check_indicators(x).astype(np.uint8, copy=False)
    if max_depth is not None and max_depth < 0:
        raise ConfigError(f"max_depth must be >= 0, got {max_depth}")
    n_classes = int(y.max()) + 1

    def grow(rows: np.ndarray, depth: int) -> TreeNode:
        classes = y[rows]
        counts = np.bincount(classes, minlength=n_classes)
        node = TreeNode(label=int(counts.argmax()))
        pure = counts.max() == rows.shape[0]
        if pure or (max_depth is not None and depth >= max_depth):
            return node
        # zero-gain splits are allowed (they can enable useful splits deeper
        # down, e.g. parity-style labels); children always strictly shrink
        feature = _best_split(x, rows, classes, counts)
        if feature is None:
            return node
        ones = x[rows, feature] == 1
        node.feature = feature
        node.left = grow(rows[~ones], depth + 1)
        node.right = grow(rows[ones], depth + 1)
        return node

    root = grow(np.arange(x.shape[0]), 0)
    return DecisionTree(root=root, n_features=x.shape[1])
