"""Gradient training of fixed-structure classifier graphs.

A layered graph with given connections is a sparse MLP: logistic hidden
units, softmax over the output layer's pre-activations, mean cross-entropy
loss. Base scores are trained through their log-odds (an unconstrained
bias), weights only where the structure has an edge. Optimization is Adam
with early stopping on validation loss. Every kernel also runs on a stack
of nets with a leading population axis, equal slice by slice to one net.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, GafError, InputShapeError
from .graph import GafStructure, LayeredGaf, build_gaf, forward_pass
from .util import log_sum_exp, softmax_rows

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
        self.masks = [m for _, _, m in self.structure.blocks]

    @classmethod
    def initialize(cls, structure: GafStructure, rng: np.random.Generator) -> "MaskedNet":
        weights = [rng.uniform(-0.5, 0.5, size=m.shape) for _, _, m in structure.blocks]
        biases = [np.zeros(s) for s in structure.layer_sizes[1:]]
        return cls(structure, weights, biases)

    @classmethod
    def stack(cls, nets: Sequence["MaskedNet"]) -> "MaskedNet":
        """The nets as one: (P, ...) weights, masks and biases. Its ``structure``
        is the first net's, and serves only as the layout that all P share."""
        if len({(n.structure.layer_sizes, *(b[:2] for b in n.structure.blocks)) for n in nets}) > 1:
            raise InputShapeError("stacked nets must share layer sizes and block pairs")
        stacked = copy.copy(nets[0])
        for name in ("weights", "biases", "masks"):
            setattr(stacked, name, [np.stack(a) for a in zip(*(getattr(n, name) for n in nets))])
        return stacked

    @classmethod
    def from_gaf(cls, gaf: LayeredGaf) -> "MaskedNet":
        structure, weights, biases = gaf.parameters()
        return cls(structure, weights, biases)

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


def _cross_entropy(z: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Mean cross-entropy of output pre-activations: a float, or one per stacked net.

    ``y`` holds a class per row, shared by a stack's nets or one row per net.
    """
    y = np.asarray(y, dtype=np.int64)
    if y.shape not in (z.shape[-2:-1], z.shape[:-1]) or (y < 0).any() or (y >= z.shape[-1]).any():
        raise InputShapeError("labels must be class indices matching the batch")
    labels = y.reshape((1,) * (z.ndim - 1 - y.ndim) + y.shape + (1,))
    picked = np.take_along_axis(z, labels, axis=-1)[..., 0]
    loss = np.mean(log_sum_exp(z) - picked, axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def forward_loss(net: MaskedNet, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and per-instance class distributions."""
    _, z = net.forward(x)
    return _cross_entropy(z, y), softmax_rows(z)


def gradients(
    net: MaskedNet, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Analytic gradients of the mean cross-entropy.

    Returns (loss, per-block weight gradients, per-layer bias gradients).
    Gradient entries at masked-out positions are exactly zero.
    """
    activations, z = net.forward(x)
    loss = _cross_entropy(z, y)
    one_hot = np.asarray(y)[..., None] == np.arange(z.shape[-1])
    dz = (softmax_rows(z) - one_hot) / z.shape[-2]

    n_layers = len(net.structure.layer_sizes)
    d_strength: list[np.ndarray | None] = [None] * n_layers
    grad_w = [np.zeros_like(w) for w in net.weights]
    grad_b = [np.zeros_like(b) for b in net.biases]
    for t in range(n_layers - 1, 0, -1):
        if t < n_layers - 1:
            ds = d_strength[t]
            if ds is None:
                continue  # no path from this layer to the loss
            s = activations[t]
            dz = ds * s * (1.0 - s)
        grad_b[t - 1] = dz.sum(axis=-2)
        for bi, ((src, dst, _), w, mask) in enumerate(
            zip(net.structure.blocks, net.weights, net.masks)
        ):
            if dst != t:
                continue
            grad_w[bi] = (np.swapaxes(activations[src], -1, -2) @ dz) * mask
            back = dz @ np.swapaxes(w, -1, -2)
            d_strength[src] = back if d_strength[src] is None else d_strength[src] + back
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
    """Train one structure's weights and biases under config.seed; see train_population."""
    return train_population([structure], x_train, y_train, x_val, y_val, config, [config.seed])[0]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite loss raises below
def train_population(
    structures: Sequence[GafStructure],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
    seeds: Sequence[int],
) -> list[TrainResult]:
    """Train each structure with Adam under its own seed, all as one stack.

    Individual i draws its initial weights and each epoch's minibatch order
    from ``default_rng(seeds[i])`` (``config.seed`` is ignored). Per-epoch
    train loss is the mean of the batch losses, each taken before its
    update. After every epoch the validation loss gates early stopping: the
    best parameters seen are kept (strictly smaller loss wins, earliest
    epoch on ties), and an individual leaves the stack once es_patience
    consecutive epochs fail to beat its best by more than es_tolerance.
    Each result is bit-identical to training its structure alone. A train
    or validation loss that is not finite raises :class:`GafError` naming i.
    """
    x_train = np.ascontiguousarray(x_train, dtype=np.float64)
    x_val = np.asarray(x_val, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    y_val = np.asarray(y_val, dtype=np.int64)
    if x_train.shape[0] == 0:
        raise ConfigError("training split is empty")
    if x_val.shape[0] == 0:
        raise ConfigError("validation split is empty")
    if len(seeds) != len(structures):
        raise ConfigError(f"{len(seeds)} seeds for {len(structures)} structures")
    if not structures:
        return []

    rngs = [np.random.default_rng(seed) for seed in seeds]
    nets = [MaskedNet.initialize(st, rng) for st, rng in zip(structures, rngs)]
    histories = [TrainingHistory() for _ in nets]
    results: dict[int, TrainResult] = {}
    stack = MaskedNet.stack(nets)
    state = AdamState.zeros_like(stack.weights + stack.biases)
    best = [p.copy() for p in stack.weights + stack.biases]
    n_weights = len(stack.weights)
    # per stacked individual: its index i, best loss, best epoch, stall count
    active = np.arange(len(nets))
    best_loss = np.full(len(nets), np.inf)
    best_epoch, stall = np.zeros((2, len(nets)), dtype=np.int64)

    n = x_train.shape[0]
    batch_size = config.batch_size if 0 < config.batch_size < n else n
    starts = range(0, n, batch_size)
    for epoch in range(1, config.max_epochs + 1):
        params = stack.weights + stack.biases
        if batch_size < n:
            order = np.stack([rngs[i].permutation(n) for i in active])
        batch_losses = np.empty((len(active), len(starts)))
        for b, start in enumerate(starts):
            if batch_size < n:
                idx = order[:, start : start + batch_size]
                loss, grad_w, grad_b = gradients(stack, x_train[idx], y_train[idx])
            else:
                loss, grad_w, grad_b = gradients(stack, x_train, y_train)
            batch_losses[:, b] = loss
            step = (epoch - 1) * len(starts) + b + 1
            adam_step(params, grad_w + grad_b, state, step, config.learning_rate)
        train_loss = batch_losses.mean(axis=1)
        _, z = stack.forward(x_val)  # one pass gives validation loss and accuracy
        val_loss = _cross_entropy(z, y_val)
        val_accuracy = np.mean(np.argmax(z, axis=-1) == y_val, axis=-1)

        finite = np.isfinite(train_loss) & np.isfinite(val_loss)
        if not finite.all():
            k = int(np.argmin(finite))
            raise GafError(
                f"individual {active[k]} (seed {seeds[active[k]]}) diverged at epoch {epoch}: "
                f"train loss {train_loss[k]}, validation loss {val_loss[k]}"
            )
        for i, tl, vl, va in zip(
            active.tolist(), train_loss.tolist(), val_loss.tolist(), val_accuracy.tolist()
        ):
            histories[i].train_loss.append(tl)
            histories[i].val_loss.append(vl)
            histories[i].val_accuracy.append(va)

        if epoch > 1:
            stall = np.where(val_loss < best_loss - config.es_tolerance, 0, stall + 1)
        improved = val_loss < best_loss
        best_loss = np.where(improved, val_loss, best_loss)
        best_epoch = np.where(improved, epoch, best_epoch)
        for kept, p in zip(best, params):
            np.copyto(kept, p, where=improved.reshape((-1,) + (1,) * (p.ndim - 1)))

        stopped = (stall >= config.es_patience) | (epoch == config.max_epochs)
        for k in np.flatnonzero(stopped).tolist():
            i = int(active[k])
            nets[i].set_params([p[k] for p in best[:n_weights]], [p[k] for p in best[n_weights:]])
            h = histories[i]
            results[i] = TrainResult(nets[i], h, len(h.val_loss), int(best_epoch[k]), seeds[i])
        if stopped.all():
            break
        if stopped.any():  # drop the stopped individuals from the stack
            keep = np.flatnonzero(~stopped)
            active, best_loss, best_epoch, stall = (
                a[keep] for a in (active, best_loss, best_epoch, stall)
            )
            stack.weights, stack.biases, stack.masks, best, state.m, state.v = (
                [a[keep] for a in arrays]
                for arrays in (stack.weights, stack.biases, stack.masks, best, state.m, state.v)
            )
    return [results[i] for i in range(len(nets))]


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
