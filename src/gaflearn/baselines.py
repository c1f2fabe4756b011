"""Comparison classifiers and shared metrics.

Logistic regression is literally a 0-hidden-layer classifier graph trained
by the same machinery, so the comparison isolates the value of hidden
structure. Decision trees are greedy Gini trees over the same binarized
indicators; their threshold search splits any numeric matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputShapeError
from .graph import GafStructure, LayeredGaf
from .train import TrainConfig, TrainResult, to_classifier, train


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    macro_precision: float
    macro_recall: float
    confusion: np.ndarray  # [true, predicted] counts


def evaluate_metrics(predictions, true_labels, n_classes: int | None = None) -> Metrics:
    """Confusion matrix plus accuracy and macro precision/recall.

    A class never predicted (or never present) contributes 0 to its macro
    average, with a warning.
    """
    y_pred = np.asarray(predictions, dtype=np.int64)
    y_true = np.asarray(true_labels, dtype=np.int64)
    if y_pred.shape != y_true.shape or y_pred.ndim != 1:
        raise InputShapeError(
            f"predictions {y_pred.shape} and labels {y_true.shape} must be equal-length vectors"
        )
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
    n_samples: int
    label: int
    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class DecisionTree:
    root: TreeNode
    n_features: int
    max_depth: int | None

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise InputShapeError(f"expected (n, {self.n_features}) inputs, got {x.shape}")
        out = np.empty(x.shape[0], dtype=np.int64)
        for i, row in enumerate(x):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] < node.threshold else node.right
            out[i] = node.label
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


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts / total
    return float(1.0 - np.square(p).sum())


def _best_split(x: np.ndarray, y: np.ndarray, n_classes: int, min_leaf: int):
    """Lowest weighted Gini split; ties go to the lowest feature then threshold."""
    n = y.shape[0]
    best = None  # (score, feature, threshold)
    for f in range(x.shape[1]):
        column = x[:, f]
        values = np.unique(column)
        if values.shape[0] < 2:
            continue
        for lo, hi in zip(values[:-1], values[1:]):
            t = (lo + hi) / 2.0
            mask = column < t
            n_left = int(mask.sum())
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            left_counts = np.bincount(y[mask], minlength=n_classes)
            right_counts = np.bincount(y[~mask], minlength=n_classes)
            score = (n_left * _gini(left_counts) + (n - n_left) * _gini(right_counts)) / n
            if best is None or score < best[0]:
                best = (score, f, t)
    return best


def train_tree(
    x_train: np.ndarray,
    y_train: np.ndarray,
    max_depth: int | None = None,
    min_leaf: int = 1,
) -> DecisionTree:
    """Greedy recursive Gini partitioning; fully deterministic."""
    x = np.asarray(x_train, dtype=np.float64)
    y = np.asarray(y_train, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise InputShapeError(f"bad training shapes {x.shape} / {y.shape}")
    if x.shape[0] == 0:
        raise ConfigError("training split is empty")
    if min_leaf < 1:
        raise ConfigError(f"min_leaf must be >= 1, got {min_leaf}")
    if max_depth is not None and max_depth < 0:
        raise ConfigError(f"max_depth must be >= 0, got {max_depth}")
    n_classes = int(y.max()) + 1

    def grow(rows: np.ndarray, depth: int) -> TreeNode:
        counts = np.bincount(y[rows], minlength=n_classes)
        node = TreeNode(n_samples=rows.shape[0], label=int(counts.argmax()))
        pure = counts.max() == rows.shape[0]
        if pure or (max_depth is not None and depth >= max_depth):
            return node
        # zero-gain splits are allowed (they can enable useful splits deeper
        # down, e.g. parity-style labels); children always strictly shrink
        found = _best_split(x[rows], y[rows], n_classes, min_leaf)
        if found is None:
            return node
        _, feature, threshold = found
        mask = x[rows, feature] < threshold
        node.feature = feature
        node.threshold = threshold
        node.left = grow(rows[mask], depth + 1)
        node.right = grow(rows[~mask], depth + 1)
        return node

    root = grow(np.arange(x.shape[0]), 0)
    return DecisionTree(root=root, n_features=x.shape[1], max_depth=max_depth)
