"""Gradient training of fixed-structure classifier graphs.

A layered graph with given connections is a sparse MLP: logistic hidden
units, softmax over the output layer's pre-activations, mean cross-entropy
loss. Base scores are trained through their log-odds (an unconstrained
bias), weights only where the structure has an edge. Optimization is Adam
with early stopping on validation loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError, InputShapeError
from .graph import GafStructure, LayeredGaf, build_gaf, forward_pass
from .util import softmax_rows

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    max_epochs: int = 500
    es_patience: int = 5
    es_tolerance: float = 1e-4
    batch_size: int = 0  # 0 means full batch
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.es_patience < 1:
            raise ConfigError(f"es_patience must be >= 1, got {self.es_patience}")
        if self.es_tolerance < 0:
            raise ConfigError(f"es_tolerance must be >= 0, got {self.es_tolerance}")
        if self.batch_size < 0:
            raise ConfigError(f"batch_size must be >= 0, got {self.batch_size}")


class MaskedNet:
    """Dense matrices with a binary mask per block; absent edges stay zero."""

    def __init__(
        self,
        structure: GafStructure,
        weights: list[np.ndarray],
        biases: list[np.ndarray],
    ) -> None:
        order = sorted(range(len(structure.blocks)), key=lambda i: structure.blocks[i][:2])
        self.structure = GafStructure(
            structure.layer_sizes, tuple(structure.blocks[i] for i in order)
        )
        self.weights = [
            np.asarray(weights[i], dtype=np.float64) * structure.blocks[i][2] for i in order
        ]
        self.biases = [np.asarray(b, dtype=np.float64).copy() for b in biases]
        sizes = structure.layer_sizes
        if len(self.biases) != len(sizes) - 1 or any(
            b.shape != (sizes[t + 1],) for t, b in enumerate(self.biases)
        ):
            raise InputShapeError("bias shapes do not match layer sizes")

    @classmethod
    def initialize(cls, structure: GafStructure, rng: np.random.Generator) -> "MaskedNet":
        weights = [rng.uniform(-0.5, 0.5, size=m.shape) for _, _, m in structure.blocks]
        biases = [np.zeros(s) for s in structure.layer_sizes[1:]]
        return cls(structure, weights, biases)

    @classmethod
    def from_gaf(cls, gaf: LayeredGaf) -> "MaskedNet":
        structure, weights, biases = gaf.parameters()
        return cls(structure, weights, biases)

    def copy_params(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        return [w.copy() for w in self.weights], [b.copy() for b in self.biases]

    def set_params(self, weights: list[np.ndarray], biases: list[np.ndarray]) -> None:
        self.weights = [w.copy() for w in weights]
        self.biases = [b.copy() for b in biases]

    def forward(self, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Strengths of the input and hidden layers, and output pre-activations, for a batch."""
        return forward_pass(self.structure, self.weights, self.biases, x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        _, z = self.forward(x)
        return softmax_rows(z)

    def predict(self, x: np.ndarray) -> np.ndarray:
        _, z = self.forward(x)
        return np.argmax(z, axis=1)


def accuracy(net: MaskedNet, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(net.predict(x) == np.asarray(y)))


def _cross_entropy(z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of output pre-activations, and their class distributions."""
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (z.shape[0],) or (y < 0).any() or (y >= z.shape[1]).any():
        raise InputShapeError("labels must be class indices matching the batch")
    log_norm = logsumexp(z, axis=1)
    loss = float(np.mean(log_norm - z[np.arange(z.shape[0]), y]))
    return loss, softmax_rows(z)


def forward_loss(net: MaskedNet, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and per-instance class distributions."""
    _, z = net.forward(x)
    return _cross_entropy(z, y)


def gradients(
    net: MaskedNet, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Analytic gradients of the mean cross-entropy.

    Returns (loss, per-block weight gradients, per-layer bias gradients).
    Gradient entries at masked-out positions are exactly zero.
    """
    activations, z = net.forward(x)
    loss, probs = _cross_entropy(z, y)
    y = np.asarray(y, dtype=np.int64)
    batch = z.shape[0]

    n_layers = len(net.structure.layer_sizes)
    d_strength: list[np.ndarray | None] = [None] * n_layers
    grad_w = [np.zeros_like(w) for w in net.weights]
    grad_b = [np.zeros_like(b) for b in net.biases]

    one_hot = np.zeros_like(probs)
    one_hot[np.arange(batch), y] = 1.0
    dz = (probs - one_hot) / batch
    for t in range(n_layers - 1, 0, -1):
        if t < n_layers - 1:
            ds = d_strength[t]
            if ds is None:
                continue  # no path from this layer to the loss
            s = activations[t]
            dz = ds * s * (1.0 - s)
        grad_b[t - 1] = dz.sum(axis=0)
        for bi, ((src, dst, mask), w) in enumerate(zip(net.structure.blocks, net.weights)):
            if dst != t:
                continue
            grad_w[bi] = (activations[src].T @ dz) * mask
            back = dz @ w.T
            if d_strength[src] is None:
                d_strength[src] = back
            else:
                d_strength[src] = d_strength[src] + back
    return loss, grad_w, grad_b


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]

    @classmethod
    def zeros_like(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    t: int,
    learning_rate: float,
) -> None:
    """One bias-corrected Adam update, in place on params and state. t >= 1."""
    if t < 1:
        raise ValueError("step counter t must be >= 1")
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p -= learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass
class TrainingHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)


@dataclass
class TrainResult:
    net: MaskedNet
    history: TrainingHistory
    epochs_run: int
    best_epoch: int
    seed: int


def train(
    structure: GafStructure,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
) -> TrainResult:
    """Train weights and biases of the given structure with Adam.

    Per-epoch train loss is the mean of the batch losses (each computed
    before its update step). After every epoch the validation loss gates
    early stopping: the best parameters seen are kept (strictly smaller
    validation loss wins, earliest epoch on ties), and training stops once
    es_patience consecutive epochs fail to improve on the best by more
    than es_tolerance. Deterministic under config.seed.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    x_val = np.asarray(x_val, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    y_val = np.asarray(y_val, dtype=np.int64)
    if x_train.shape[0] == 0:
        raise ConfigError("training split is empty")
    if x_val.shape[0] == 0:
        raise ConfigError("validation split is empty")

    rng = np.random.default_rng(config.seed)
    net = MaskedNet.initialize(structure, rng)
    params = net.weights + net.biases
    state = AdamState.zeros_like(params)

    n = x_train.shape[0]
    batch_size = config.batch_size if 0 < config.batch_size < n else n
    history = TrainingHistory()
    best_loss = np.inf
    best_params = net.copy_params()
    best_epoch = 0
    stall = 0
    step = 0

    for epoch in range(1, config.max_epochs + 1):
        if batch_size < n:
            order = rng.permutation(n)
        else:
            order = np.arange(n)
        batch_losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            loss, grad_w, grad_b = gradients(net, x_train[idx], y_train[idx])
            batch_losses.append(loss)
            step += 1
            adam_step(params, grad_w + grad_b, state, step, config.learning_rate)
        val_loss, _ = forward_loss(net, x_val, y_val)
        history.train_loss.append(float(np.mean(batch_losses)))
        history.val_loss.append(val_loss)
        history.val_accuracy.append(accuracy(net, x_val, y_val))

        if epoch == 1 or val_loss < best_loss - config.es_tolerance:
            stall = 0
        else:
            stall += 1
        if epoch == 1 or val_loss < best_loss:
            best_loss = val_loss
            best_params = net.copy_params()
            best_epoch = epoch
        if stall >= config.es_patience:
            break

    net.set_params(*best_params)
    return TrainResult(
        net=net,
        history=history,
        epochs_run=len(history.val_loss),
        best_epoch=best_epoch,
        seed=config.seed,
    )


def to_classifier(
    result: TrainResult,
    input_names: list[str] | tuple[str, ...],
    class_labels: list[str] | tuple[str, ...],
) -> LayeredGaf:
    """Name the trained parameters as an argumentation graph."""
    return build_gaf(
        result.net.structure,
        result.net.weights,
        result.net.biases,
        list(input_names),
        list(class_labels),
    )
