"""Gradient training of fixed-structure classifier graphs.

A layered graph with given connections is a sparse MLP: logistic hidden
units, softmax over the output layer's pre-activations, mean cross-entropy
loss. Base scores are trained through their log-odds (an unconstrained
bias), weights only where the structure has an edge. Optimization is Adam
with early stopping on validation loss. A training reports that loss per
epoch, and its train and validation accuracies once, under the parameters
it keeps. Every kernel also runs on a stack of nets with a leading
population axis, equal slice by slice to one net. The net itself,
:class:`graph.MaskedNet`, and its forward kernel live in graph.py; this
module holds the learning: compaction, parameter slabs, gradients, Adam
and :func:`train_population`.

Training and its accuracy scores work on each net's live support only:
the units with a path to an output (:func:`graph.live_units`). A dead
unit's strength reaches no output, so every term it would add to a product
or a gradient is an exact zero. The live units of each layer are gathered
into compact (P, k_src, k_dst) arrays, padded to the stack's widest with
zero-weight, zero-mask slots. A stack trains from one input array: the
training matrix as given when every net reads every column, else each
net's live columns as one (P, n, k) block, in uint8 under minibatches, so
training inputs must be 0/1 indicators. A compact product adds the same
nonzero terms in the same order as the full-shape one, so the two agree
bit for bit wherever BLAS adds a product's terms in index order. OpenBLAS
0.3.31 does for products at most 15 terms wide (Iris's whole input layer
is 12 wide), but not in some output columns of wider ones: in a dense
118-wide input product, hidden columns 8-11 may round differently once
three or more live inputs are active together.

A stack's parameters live in one C-ordered (P, n_params) slab, each row one
net's compact weights and biases in turn; the stack's weight and bias
arrays are views into it. Gradients, Adam's two moments and the best
parameters seen are slabs of the same layout, so an Adam step, the
best-parameter copy and dropping stopped nets take one numpy call per slab,
however many blocks a net has. Each view is C-ordered within a net, so BLAS
sees the same matrices as before and every result keeps its bits.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, GafError, InputShapeError
from .graph import (
    GafStructure,
    LayeredGaf,
    MaskedNet,
    build_gaf,
    check_strengths,
    forward_pass,
    live_units,
)
from .util import check_field_types, class_indices, log_sum_exp, softmax_rows

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

    def __post_init__(self) -> None:
        check_field_types(self)
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.es_patience < 1:
            raise ConfigError(f"es_patience must be >= 1, got {self.es_patience}")
        if not self.es_tolerance >= 0:  # NaN fails too; +inf is allowed
            raise ConfigError(f"es_tolerance must be >= 0, got {self.es_tolerance}")
        if self.batch_size < 0:
            raise ConfigError(f"batch_size must be >= 0, got {self.batch_size}")


def _live_support(nets: Sequence[MaskedNet]) -> list[np.ndarray]:
    """Per layer, a (P, k) array of each net's live units in ascending order.

    Rows are padded with -1 to the stack's widest live set, and to two slots
    in a layer of two or more units: at width 1 numpy's matmul calls gemv
    instead of gemm, which sums in another order. A -1 slot reads the
    layer's last unit, which its zero mask then cancels.
    """
    support = []
    sizes = nets[0].structure.layer_sizes
    for size, layer in zip(sizes, zip(*(live_units(net.structure) for net in nets))):
        found = [np.flatnonzero(live) for live in layer]
        units = np.full((len(found), max(min(2, size), *map(len, found))), -1, dtype=np.intp)
        for row, f in zip(units, found):
            row[: len(f)] = f
        support.append(units)
    return support


def _compact(stack: MaskedNet, units: list[np.ndarray]) -> MaskedNet:
    """The stacked nets on their live support: (P, k_src, k_dst) weights and
    masks and (P, k) biases, gathered from ``units`` (see _live_support).
    Padding slots get zero weight, mask and bias."""
    rows = np.arange(len(units[0]))[:, None, None]
    compact = copy.copy(stack)
    compact.weights, compact.masks = [], []
    for (src, dst, _), w, m in zip(stack.structure.blocks, stack.weights, stack.masks):
        at = (rows, units[src][:, :, None], units[dst][:, None, :])
        keep = (units[src] >= 0)[:, :, None] & (units[dst] >= 0)[:, None, :]
        compact.weights.append(w[at] * keep)
        compact.masks.append(m[at] & keep)
    compact.biases = [
        np.where(u >= 0, b[rows[:, :, 0], u], 0.0) for b, u in zip(stack.biases, units[1:])
    ]
    # the first net's masks stand for the layout, as in MaskedNet.stack
    blocks = tuple((s, d, m[0]) for (s, d, _), m in zip(stack.structure.blocks, compact.masks))
    compact.structure = GafStructure(tuple(u.shape[1] for u in units), blocks)
    return compact


def _scatter(net: MaskedNet, params: list[np.ndarray], units: list[np.ndarray]) -> None:
    """Write one net's compact weights and biases back into its full-shape ones.

    ``params`` and ``units`` are the net's slices of the compact stack and
    of its support. Entries outside the live support keep their values.
    """
    live = [u[u >= 0] for u in units]
    for (src, dst, _), w, p in zip(net.structure.blocks, net.weights, params):
        w[np.ix_(live[src], live[dst])] = p[: len(live[src]), : len(live[dst])]
    for b, p, u in zip(net.biases, params[len(net.weights) :], live[1:]):
        b[u] = p[: len(u)]


def _slab(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """(P, ...) arrays as one C-ordered (P, n) slab: each row holds a net's
    entries of every array in turn, each flattened in C order."""
    return np.concatenate([a.reshape(len(a), -1) for a in arrays], axis=1)


def _views(slab: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """The arrays of :func:`_slab` again, as views into it: its last axis cut
    in order into the given per-net shapes. ``slab`` may be one net's row.

    Each view keeps the slab's row stride and is C-ordered within a net, so
    BLAS sees each net's matrices as it would in a (P, ...) array of its own.
    """
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(slab[..., start : start + size].reshape(slab.shape[:-1] + shape))
        start += size
    return views


def _bind(
    stack: MaskedNet,
    params: np.ndarray,
    masks: np.ndarray,
    grads: np.ndarray,
    shapes: Sequence[tuple[int, ...]],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Point the stack's weights, biases and masks at views of their slabs;
    return the (weight, bias) gradient views of ``grads``."""
    n_weights = len(stack.structure.blocks)
    views = _views(params, shapes)
    stack.weights, stack.biases = views[:n_weights], views[n_weights:]
    stack.masks = _views(masks, shapes[:n_weights])
    views = _views(grads, shapes)
    return views[:n_weights], views[n_weights:]


def _check_split(layer_sizes: Sequence[int], x: np.ndarray, y) -> np.ndarray:
    """y as x's class indices (see :func:`util.class_indices`); raise
    InputShapeError unless x is an (n, inputs) matrix of 0/1 indicators and
    y a vector of n classes, both as ``layer_sizes`` has them. Strengths
    outside [0, 1] are refused first, with evaluate's message.
    x must have rows: the caller refuses an empty split first.

    Compact kernels read only the live input columns, and the training loop
    indexes rows and labels without checking them, so a mismatch must be
    caught here, before it could pass unseen or end in a bare IndexError.
    """
    if x.ndim != 2 or x.shape[1] != layer_sizes[0]:
        raise InputShapeError(f"expected (n, {layer_sizes[0]}) inputs, got shape {x.shape}")
    # minibatches read a uint8 copy, which would truncate a fraction silently
    if not ((x == 0) | (x == 1)).all():
        check_strengths(x)  # NaN and values outside [0, 1] get evaluate's message
        raise InputShapeError("training inputs must be 0/1 indicators")
    return class_indices(y, x.shape[0], layer_sizes[-1])


def _pick(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``z[..., row, y[..., row]]`` for every row: one flat-index gather.

    ``y`` holds a class per row of z's last two axes, shared by a stack's
    nets or one row per net; it is not checked.
    """
    starts = np.arange(0, z.size, z.shape[-1]).reshape(z.shape[:-1])
    return np.take(z, starts + y)


def _labels(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y as an int array, checked to hold a class of z per row of z's batch,
    shared by a stack's nets or one row per net (see util.class_indices)."""
    y = np.asarray(y)
    if y.shape not in (z.shape[-2:-1], z.shape[:-1]):
        raise InputShapeError("labels must be class indices matching the batch")
    return class_indices(y.reshape(-1), None, z.shape[-1]).reshape(y.shape)


def _cross_entropy(z: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Mean cross-entropy of output pre-activations: a float, or one per stacked
    net. ``y`` is an int array of classes as :func:`_labels` checks them."""
    loss = np.mean(log_sum_exp(z) - _pick(z, y), axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def forward_loss(net: MaskedNet, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and per-instance class distributions."""
    _, z = net.forward(x)
    return _cross_entropy(z, _labels(z, y)), softmax_rows(z)


def gradients(
    net: MaskedNet,
    x: np.ndarray,
    y: np.ndarray,
    out: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Analytic gradients of the mean cross-entropy.

    Returns (per-block weight gradients, per-layer bias gradients). Gradient
    entries at masked-out positions are exactly zero.

    ``out``, as train_population passes it, holds zeroed (weight, bias)
    arrays to write into; a layer with no path to the loss leaves its
    entries as they are. With ``out`` the labels are not checked:
    train_population checks them once per stack. Without it, y is checked
    and new arrays are returned.
    """
    activations, z = net.forward(x)
    if out is None:
        y = _labels(z, y)
        out = [np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases]
    dz = softmax_rows(z)
    dz -= np.asarray(y)[..., None] == np.arange(z.shape[-1])  # one-hot labels
    dz /= z.shape[-2]

    n_layers = len(net.structure.layer_sizes)
    d_strength: list[np.ndarray | None] = [None] * n_layers
    grad_w, grad_b = out
    for t in range(n_layers - 1, 0, -1):
        if t < n_layers - 1:
            dz = d_strength[t]
            if dz is None:
                continue  # no path from this layer to the loss
            dz *= activations[t]
            dz *= 1.0 - activations[t]
        np.sum(dz, axis=-2, out=grad_b[t - 1])
        for bi, ((src, dst, _), w, mask) in enumerate(
            zip(net.structure.blocks, net.weights, net.masks)
        ):
            if dst != t:
                continue
            np.matmul(np.swapaxes(activations[src], -1, -2), dz, out=grad_w[bi])
            grad_w[bi] *= mask
            if src > 0:  # nothing reads the gradient of the inputs
                back = dz @ np.swapaxes(w, -1, -2)
                d_strength[src] = back if d_strength[src] is None else d_strength[src] + back
    return grad_w, grad_b


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    t: int,
    learning_rate: float,
) -> None:
    """One bias-corrected Adam update, in place on params and on the moments
    m and v, all arrays of one shape. t >= 1."""
    if t < 1:
        raise ValueError("step counter t must be >= 1")
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * np.square(grads)
    params -= learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass
class TrainResult:
    net: MaskedNet
    val_loss: list[float]  # one per epoch run
    best_epoch: int
    seed: int
    # of the best parameters, on the training and on the validation rows
    train_accuracy: float
    val_accuracy: float

    @property
    def epochs_run(self) -> int:
        return len(self.val_loss)


def train(
    structure: GafStructure,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
    seed: int = 0,
) -> TrainResult:
    """Train one structure's weights and biases under seed; see train_population."""
    return train_population([structure], x_train, y_train, x_val, y_val, config, [seed])[0]


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
    from ``default_rng(seeds[i])``. A step computes gradients and nothing
    else. After every epoch the validation loss gates early stopping: the
    best parameters seen are kept (strictly smaller loss wins, earliest
    epoch on ties), and an individual leaves the stack once es_patience
    consecutive epochs fail to beat its best by more than es_tolerance.

    The stack holds only each net's live support: its live units per layer,
    padded to the stack's widest with zero-weight, zero-mask slots. It trains
    from one input array, built here once. When every net reads every column
    (a fully connected input layer) that is x_train as given, and x_val is
    read as given too. Otherwise it is each net's live columns as one
    C-ordered (P, n, k) block, float64 under full batch and uint8 under
    minibatches, and x_val is gathered the same way in float64; stopped nets
    leave both with one row selection. A minibatch step takes its rows from
    either form with one ``np.take`` on the flattened array and casts them
    to float64. When an individual leaves, its best compact parameters are
    scattered back into its initialized full-shape net. A dead edge would
    get an exactly-zero gradient, so it keeps its initial draw, and a dead
    hidden bias stays 0.
    Its train and validation accuracies, the shares of training and of
    validation rows whose argmax class is the label, are scored then too,
    with its best compact parameters on its slice of the inputs, one net
    at a time; an epoch's validation pass computes the loss alone.
    Parameters, gradients, Adam's moments and the best parameters are one
    (P, n_params) slab each (see the module docstring). Inputs and labels
    are checked once, here: inputs must be 0/1 indicators, as the uint8
    block would truncate any other strength (a value outside [0, 1] or NaN
    is refused first, with evaluate's message), and labels class indices
    of the output layer. The steps do not check them again.
    Each result is bit-identical to training its full structure alone with
    the full-shape kernels wherever BLAS adds each product's terms in index
    order (see the module docstring). A validation loss that is not finite
    raises :class:`GafError` naming i; it reads the parameters the next
    step would, so a parameter that turns non-finite is caught in its epoch.
    """
    x_train = np.ascontiguousarray(x_train, dtype=np.float64)
    x_val = np.asarray(x_val, dtype=np.float64)
    if x_train.shape[0] == 0:
        raise ConfigError("training split is empty")
    if x_val.shape[0] == 0:
        raise ConfigError("validation split is empty")
    if len(seeds) != len(structures):
        raise ConfigError(f"{len(seeds)} seeds for {len(structures)} structures")
    if not structures:
        return []

    y_train = _check_split(structures[0].layer_sizes, x_train, y_train)
    y_val = _check_split(structures[0].layer_sizes, x_val, y_val)

    rngs = [np.random.default_rng(seed) for seed in seeds]
    nets = [MaskedNet.initialize(st, rng) for st, rng in zip(structures, rngs)]
    val_losses: list[list[float]] = [[] for _ in nets]
    results: dict[int, TrainResult] = {}
    units = _live_support(nets)
    stack = _compact(MaskedNet.stack(nets), units)
    # one C-ordered (P, n_params) slab each for the parameters, their masks,
    # gradients and best values, and Adam's moments; the stack's weights,
    # biases and masks and the gradient arrays are views into the slabs
    shapes = [a.shape[1:] for a in stack.weights + stack.biases]
    n_weights = len(stack.weights)
    params, masks = _slab(stack.weights + stack.biases), _slab(stack.masks)
    grads = np.zeros_like(params)
    grad_views = _bind(stack, params, masks, grads, shapes)
    m, v = np.zeros((2,) + params.shape)
    best = params.copy()
    # per stacked individual: its index i, best loss, best epoch, stall count
    active = np.arange(len(nets))
    best_loss = np.full(len(nets), np.inf)
    best_epoch, stall = np.zeros((2, len(nets)), dtype=np.int64)

    n = x_train.shape[0]
    batch_size = config.batch_size if 0 < config.batch_size < n else n
    # the training inputs, one array per stack: x_train as given when every
    # net reads every column (a fully connected input layer), else each net's
    # live columns as one C-ordered (P, n, k) block, float64 for full batch
    # and uint8 for minibatches; a -1 padding slot reads the last column
    cols = units[0]
    full = cols.shape[1] == x_train.shape[1] and bool((cols >= 0).all())
    if full:
        x_live = x_train
    else:
        x_val = x_val[np.arange(len(x_val))[:, None], cols[:, None, :]]
        dtype = np.float64 if batch_size == n else np.uint8
        x_live = np.ascontiguousarray(x_train.astype(dtype, copy=False).T[cols].transpose(0, 2, 1))
    step = 0
    for epoch in range(1, config.max_epochs + 1):
        if batch_size < n:
            order = np.stack([rngs[i].permutation(n) for i in active])
            # net k's row r is row k * n + r of a flattened block; every
            # net reads the shared matrix at offset 0
            flat = x_live.reshape(-1, x_live.shape[-1])
            offsets = 0 if full else n * np.arange(len(active))[:, None]
        for start in range(0, n, batch_size):
            if batch_size < n:
                idx = order[:, start : start + batch_size]
                x = np.take(flat, idx + offsets, axis=0).astype(np.float64, copy=False)
                gradients(stack, x, y_train[idx], out=grad_views)
            else:
                gradients(stack, x_live, y_train, out=grad_views)
            step += 1
            adam_step(params, grads, m, v, step, config.learning_rate)
        val_loss = _cross_entropy(stack.forward(x_val)[1], y_val)
        finite = np.isfinite(val_loss)
        if not finite.all():
            k = int(np.argmin(finite))
            raise GafError(
                f"individual {active[k]} (seed {seeds[active[k]]}) diverged at epoch {epoch}: "
                f"validation loss {val_loss[k]}"
            )
        for i, vl in zip(active.tolist(), val_loss.tolist()):
            val_losses[i].append(vl)

        if epoch > 1:
            stall = np.where(val_loss < best_loss - config.es_tolerance, 0, stall + 1)
        improved = val_loss < best_loss
        best_loss = np.where(improved, val_loss, best_loss)
        best_epoch = np.where(improved, epoch, best_epoch)
        np.copyto(best, params, where=improved[:, None])

        stopped = (stall >= config.es_patience) | (epoch == config.max_epochs)
        for k in np.flatnonzero(stopped).tolist():
            i = int(active[k])
            compact = _views(best[k], shapes)
            weights, biases = compact[:n_weights], compact[n_weights:]
            x, xv = (x_live, x_val) if full else (x_live[k], x_val[k])
            _, z = forward_pass(stack.structure, weights, biases, x)
            _, z_val = forward_pass(stack.structure, weights, biases, xv)
            _scatter(nets[i], compact, [u[k] for u in units])
            results[i] = TrainResult(
                nets[i], val_losses[i], int(best_epoch[k]), seeds[i],
                float(np.mean(np.argmax(z, axis=-1) == y_train)),
                float(np.mean(np.argmax(z_val, axis=-1) == y_val)),
            )
        if stopped.all():
            break
        if stopped.any():  # drop the stopped individuals from the stack
            keep = np.flatnonzero(~stopped)
            active, best_loss, best_epoch, stall = (
                a[keep] for a in (active, best_loss, best_epoch, stall)
            )
            units = [u[keep] for u in units]
            params, masks, grads, best, m, v = (
                a[keep] for a in (params, masks, grads, best, m, v)
            )
            grad_views = _bind(stack, params, masks, grads, shapes)
            if not full:  # a per-net block loses the stopped nets' slices
                x_live, x_val = x_live[keep], x_val[keep]
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
