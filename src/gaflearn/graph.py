"""Layered gradual argumentation graphs and their logistic-update semantics.

Arguments carry an apriori base score in [0, 1]; directed weighted edges
attack (negative weight) or support (positive weight) their target. An
argument's strength is obtained by summing the weighted strengths of its
attackers and supporters (aggregation) and pushing the base score's
log-odds plus that aggregate through the logistic function (influence).
Layered acyclic graphs under this semantics behave exactly like sparse
multilayer perceptrons, so a classification graph doubles as a trainable
model: input arguments are binarized features, output arguments are the
class labels, and the class distribution is the softmax of the output
pre-activations.

A graph and its masked-matrix form are one model with one array form:
every :class:`LayeredGaf` holds a :class:`MaskedNet`, which evaluation,
batched distributions and pruning read, and one forward kernel,
:func:`forward_pass`, serves evaluation and training alike.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputShapeError, InvalidGraphError
from .util import expit, logit, softmax_rows

BASE_SCORE_MIN = 1e-6
BASE_SCORE_MAX = 1.0 - 1e-6


class Polarity(enum.Enum):
    ATTACK = "attack"
    SUPPORT = "support"
    NEUTRAL = "neutral"


@dataclass(frozen=True)
class Argument:
    """A node: unique id, display name, layer position, apriori base score."""

    id: str
    name: str
    layer_index: int
    base_score: float


@dataclass(frozen=True)
class WeightedEdge:
    """Directed edge; the sign of the weight decides attack vs support."""

    source: str
    target: str
    weight: float


def edge_polarity(edge: WeightedEdge) -> Polarity:
    if edge.weight < 0:
        return Polarity.ATTACK
    if edge.weight > 0:
        return Polarity.SUPPORT
    return Polarity.NEUTRAL


@dataclass(frozen=True, eq=False)
class GafStructure:
    """Connection structure only: which forward edges exist, no weights.

    Blocks are (source_layer, target_layer, boolean mask) with mask shape
    (size of source layer, size of target layer).
    """

    layer_sizes: tuple[int, ...]
    blocks: tuple[tuple[int, int, np.ndarray], ...]

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 2:
            raise InvalidGraphError("a layered graph needs at least 2 layers")
        if any(s < 1 for s in self.layer_sizes):
            raise InvalidGraphError("layer sizes must be positive")
        seen = set()
        for src, dst, mask in self.blocks:
            if not (0 <= src < dst < len(self.layer_sizes)):
                raise InvalidGraphError(f"block ({src},{dst}) is not a forward layer pair")
            if (src, dst) in seen:
                raise InvalidGraphError(f"duplicate block ({src},{dst})")
            seen.add((src, dst))
            if mask.shape != (self.layer_sizes[src], self.layer_sizes[dst]):
                raise InvalidGraphError(f"block ({src},{dst}) mask shape {mask.shape} mismatch")
            if mask.dtype != bool:
                raise InvalidGraphError(f"block ({src},{dst}) mask dtype {mask.dtype} is not bool")

    @staticmethod
    def fully_connected(layer_sizes: Sequence[int]) -> "GafStructure":
        sizes = tuple(int(s) for s in layer_sizes)
        blocks = tuple(
            (i, i + 1, np.ones((sizes[i], sizes[i + 1]), dtype=bool))
            for i in range(len(sizes) - 1)
        )
        return GafStructure(sizes, blocks)


@dataclass(frozen=True, eq=False)
class Interpretation:
    """Strengths for every argument plus the softmax class distribution."""

    strengths: Mapping[str, float]
    output_distribution: np.ndarray


class LayeredGaf:
    """An immutable layered acyclic argumentation graph.

    Layer 0 holds the input arguments, the last layer the output arguments.
    Every edge points from a lower-indexed layer to a strictly higher one,
    so acyclicity holds by construction and evaluation is a single forward
    sweep. When ``class_labels`` is non-empty the graph is a classifier and
    must have one output argument per label (at least two).

    One pass over the arguments and edges checks them and builds the
    graph's own :class:`MaskedNet`: an edge sets its bit in its block's
    mask, so a bit already set is a duplicate edge. The graph keeps that
    net privately; :meth:`MaskedNet.from_gaf` hands out a copy.
    """

    def __init__(
        self,
        layers: Sequence[Sequence[Argument]],
        edges: Sequence[WeightedEdge],
        class_labels: Sequence[str] = (),
    ) -> None:
        self._layers = tuple(tuple(layer) for layer in layers)
        self._edges = tuple(edges)
        self._class_labels = tuple(class_labels)
        if len(self._layers) < 2:
            raise InvalidGraphError("a layered graph needs at least 2 layers")
        index: dict[str, tuple[int, int]] = {}  # id -> (layer, position)
        names = set()
        for li, layer in enumerate(self._layers):
            if not layer:
                raise InvalidGraphError(f"layer {li} is empty")
            for ai, arg in enumerate(layer):
                if arg.layer_index != li:
                    raise InvalidGraphError(
                        f"argument {arg.id!r} declares layer {arg.layer_index}, placed in {li}"
                    )
                if not arg.name:
                    raise InvalidGraphError(f"argument {arg.id!r} has an empty name")
                if arg.name in names:
                    raise InvalidGraphError(f"duplicate argument name {arg.name!r}")
                names.add(arg.name)
                if arg.id in index:
                    raise InvalidGraphError(f"duplicate argument id {arg.id!r}")
                index[arg.id] = (li, ai)
                if math.isnan(arg.base_score) or not 0.0 <= arg.base_score <= 1.0:
                    raise InvalidGraphError(
                        f"base score of {arg.id!r} must lie in [0,1], got {arg.base_score}"
                    )
        sizes = self.layer_sizes
        weights: dict[tuple[int, int], np.ndarray] = {}
        masks: dict[tuple[int, int], np.ndarray] = {}
        for e in self._edges:
            if e.source not in index or e.target not in index:
                raise InvalidGraphError(f"edge ({e.source},{e.target}) references unknown argument")
            (sl, si), (tl, ti) = index[e.source], index[e.target]
            if sl >= tl:
                raise InvalidGraphError(
                    f"edge ({e.source},{e.target}) must point to a deeper layer"
                )
            mask = masks.setdefault((sl, tl), np.zeros((sizes[sl], sizes[tl]), dtype=bool))
            if mask[si, ti]:
                raise InvalidGraphError(f"duplicate edge ({e.source},{e.target})")
            if not math.isfinite(e.weight):
                raise InvalidGraphError(
                    f"edge ({e.source},{e.target}) has non-finite weight {e.weight}"
                )
            mask[si, ti] = True
            weights.setdefault((sl, tl), np.zeros(mask.shape))[si, ti] = e.weight
        if self._class_labels:
            if len(self._class_labels) != len(self._layers[-1]):
                raise InvalidGraphError(
                    f"{len(self._class_labels)} class labels for "
                    f"{len(self._layers[-1])} output arguments"
                )
            if len(self._class_labels) < 2:
                raise InvalidGraphError("a classifier needs at least 2 classes")
            if len(set(self._class_labels)) != len(self._class_labels):
                raise InvalidGraphError("class labels must be unique")
        pairs = sorted(masks)
        self._net = MaskedNet(
            GafStructure(sizes, tuple((*pair, masks[pair]) for pair in pairs)),
            [weights[pair] for pair in pairs],
            [
                logit(np.array([a.base_score for a in layer], dtype=np.float64))
                for layer in self._layers[1:]
            ],
        )

    @property
    def layers(self) -> tuple[tuple[Argument, ...], ...]:
        return self._layers

    @property
    def edges(self) -> tuple[WeightedEdge, ...]:
        return self._edges

    @property
    def class_labels(self) -> tuple[str, ...]:
        return self._class_labels

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self._layers)

    def arguments(self) -> tuple[Argument, ...]:
        """All arguments in layer-major order (the canonical vector order)."""
        return tuple(arg for layer in self._layers for arg in layer)


# -- evaluation --------------------------------------------------------


def forward_pass(
    structure: GafStructure,
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    x: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Strengths of every non-output layer and the output pre-activations.

    ``x`` is a (batch, inputs) matrix, or (P, batch, inputs) for a stack
    of P nets with (P, ...) weights and biases. Layer t's pre-activations
    are its bias plus ``strengths[src] @ w`` summed over the blocks into t
    in their sorted order. Hidden strengths are the logistic of their
    pre-activations; the output layer stays pre-activations, which the
    softmax and the loss consume. This is the one forward kernel:
    evaluation, batched distributions and training all aggregate here, and
    it casts x to float64, so a uint8 0/1 batch is copied here and only here.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, biases[0].ndim + 1) or x.shape[-1] != structure.layer_sizes[0]:
        raise InputShapeError(
            f"expected (n, {structure.layer_sizes[0]}) inputs, got shape {x.shape}"
        )
    strengths = [x]
    n_layers = len(structure.layer_sizes)
    for t in range(1, n_layers):
        bias, z = biases[t - 1], None
        for (src, dst, _), w in zip(structure.blocks, weights):
            if dst == t:  # add into the fresh product: p + bias is bias + p exactly
                p = strengths[src] @ w
                z = np.add(p, bias[..., None, :] if z is None else z, out=p)
        if z is None:  # no incoming block: the base scores alone
            z = np.empty(bias.shape[:-1] + x.shape[-2:-1] + bias.shape[-1:])
            z[:] = bias[..., None, :]
        if t < n_layers - 1:
            strengths.append(expit(z, out=z))
    return strengths, z


class MaskedNet:
    """A graph's array form: a dense matrix with a binary mask per block,
    absent edges zero, and per-layer biases (base-score log-odds).

    Blocks are kept in sorted (source, target) order. Every LayeredGaf
    holds one, built as it checks its arguments and edges; :meth:`from_gaf`
    hands out an owned copy. Training builds its own with :meth:`initialize`
    and stacks them with :meth:`stack`.
    """

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
        """The graph's own net as a copy: writes to it leave the graph unchanged."""
        net = gaf._net  # __init__ copies the weights and biases; copy the masks here
        blocks = tuple((src, dst, m.copy()) for src, dst, m in net.structure.blocks)
        return cls(GafStructure(net.structure.layer_sizes, blocks), net.weights, net.biases)

    def forward(self, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Strengths of the input and hidden layers, and output pre-activations, for a batch."""
        return forward_pass(self.structure, self.weights, self.biases, x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The argmax class of each row of a batch of input strengths in [0, 1]."""
        _, z = self.forward(check_strengths(x))
        return np.argmax(z, axis=1)


def evaluate(gaf: LayeredGaf, input_strengths: Sequence[float]) -> Interpretation:
    """Compute every argument's strength and the softmax class distribution.

    Input arguments carry the given values directly; each deeper argument's
    strength is the logistic of its base-score log-odds plus the weighted
    sum of its incoming strengths. Base scores exactly 0 or 1 pin the
    strength there no matter the attackers or supporters. The class
    distribution is the softmax over the output layer's pre-activations.
    The instance is evaluated as a one-row batch of
    :func:`output_distributions`, so the two agree exactly on it.
    Pure and deterministic: identical inputs give bit-identical outputs.
    """
    x = np.asarray(input_strengths, dtype=np.float64)
    n_in = len(gaf.layers[0])
    if x.shape != (n_in,):
        raise InputShapeError(f"expected {n_in} input strengths, got shape {x.shape}")
    inputs = check_strengths(x).tolist()
    per_layer, z_out = gaf._net.forward(x[None, :])
    distribution = softmax_rows(z_out)[0]
    values = [inputs, *(s[0].tolist() for s in per_layer[1:]), expit(z_out, out=z_out)[0].tolist()]
    strengths = {arg.id: v for layer, vs in zip(gaf.layers, values) for arg, v in zip(layer, vs)}
    return Interpretation(strengths=strengths, output_distribution=distribution)


_ONE_BITS = np.float64(1.0).view(np.uint64)


def check_strengths(x: np.ndarray) -> np.ndarray:
    """x as an array; InputShapeError unless every entry is a finite value
    in [0, 1]. Every input of a model is checked here.

    A bool or unsigned array, such as binarize's uint8 matrix, is cleared
    by one max reduction and returned uncast: :func:`forward_pass` makes
    the one float64 copy. Any other x is returned as float64. Read as
    unsigned integers, the float64 values from +0 to 1 are exactly the bit
    patterns up to 1.0's, so one max reduction clears a valid batch. A
    larger pattern (a sign bit, NaN, an infinity or a value above 1) is
    decided by min and max, which NaN fails and which accept -0.0.
    """
    x = np.asarray(x)
    if x.dtype.kind in "bu":
        if x.size and x.max() > 1:
            raise InputShapeError("input strengths must be finite values in [0,1]")
        return x
    x = np.asarray(x, dtype=np.float64)
    if x.size and x.view(np.uint64).max() > _ONE_BITS:
        if not (x.min() >= 0.0 and x.max() <= 1.0):
            raise InputShapeError("input strengths must be finite values in [0,1]")
    return x


def check_indicators(x: np.ndarray) -> np.ndarray:
    """x as check_strengths returns it; InputShapeError unless every entry
    is 0 or 1, as trainers take them. NaN and values outside [0, 1] get
    check_strengths's message."""
    x = check_strengths(x)
    if x.dtype.kind not in "bu" and not ((x == 0) | (x == 1)).all():
        raise InputShapeError("training inputs must be 0/1 indicators")
    return x


def output_distributions(gaf: LayeredGaf, matrix: np.ndarray) -> np.ndarray:
    """Batched class distributions, one row per instance of input strengths
    in [0, 1]; other values raise InputShapeError (see check_strengths)."""
    _, z_out = gaf._net.forward(check_strengths(matrix))
    return softmax_rows(z_out)


def live_units(structure: GafStructure) -> list[np.ndarray]:
    """Per layer, a boolean vector of its live units.

    A unit is live when a directed path of edges leads from it to an output
    argument; output arguments always count as live. Everything else is
    dead: its strength reaches no output, so an edge into a dead unit can
    change no class distribution and gets an exactly-zero gradient.
    """
    live = [np.zeros(s, dtype=bool) for s in structure.layer_sizes]
    live[-1][:] = True
    # deepest sources first, so every block's target layer is already final
    for src, dst, mask in sorted(structure.blocks, key=lambda b: -b[0]):
        live[src] |= mask[:, live[dst]].any(axis=1)
    return live


def prune_inert_edges(gaf: LayeredGaf) -> LayeredGaf:
    """Drop edges that provably cannot influence any output distribution.

    An edge matters only if its target is live (see :func:`live_units`).
    Removing the rest changes the strengths of the orphaned arguments but
    leaves every class distribution bit-identical, so the pruned graph is
    an equivalent, more readable classifier. Kept edges keep their order;
    a graph with nothing to prune is returned as is.
    """
    live = live_units(gaf._net.structure)
    alive = {
        arg.id for layer, flags in zip(gaf.layers, live) for arg, ok in zip(layer, flags) if ok
    }
    kept = tuple(e for e in gaf.edges if e.target in alive)
    if len(kept) == len(gaf.edges):
        return gaf
    return LayeredGaf(layers=gaf.layers, edges=kept, class_labels=gaf.class_labels)


def clamp_base_score(value: float) -> float:
    return min(max(value, BASE_SCORE_MIN), BASE_SCORE_MAX)


def build_gaf(
    structure: GafStructure,
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    input_names: Sequence[str],
    class_labels: Sequence[str],
) -> LayeredGaf:
    """Assemble a named classifier graph from trained parameters.

    Biases are log-odds; they become clamped base scores in
    [1e-6, 1 - 1e-6]. Input arguments get the neutral base score 0.5
    (their strength is always the supplied feature value); hidden argument
    i of layer l is named ``m{l}_{i}``. Only edges present in the structure
    are materialized, and only with their trained weights.
    """
    sizes = structure.layer_sizes
    if len(input_names) != sizes[0]:
        raise InvalidGraphError(f"{len(input_names)} input names for {sizes[0]} inputs")
    if len(class_labels) != sizes[-1]:
        raise InvalidGraphError(f"{len(class_labels)} labels for {sizes[-1]} outputs")
    layers: list[list[Argument]] = []
    for li, size in enumerate(sizes):
        if li == 0:
            names, betas = input_names, [0.5] * size
        else:
            last = li == len(sizes) - 1
            names = [str(class_labels[ai]) if last else f"m{li}_{ai}" for ai in range(size)]
            betas = [clamp_base_score(b) for b in expit(biases[li - 1]).tolist()]
        layers.append([Argument(f"a{li}_{ai}", names[ai], li, betas[ai]) for ai in range(size)])
    edges = []
    for (src, dst, mask), w in zip(structure.blocks, weights):
        rows, cols = np.nonzero(mask)
        for r, col in zip(rows.tolist(), cols.tolist()):
            edges.append(
                WeightedEdge(source=f"a{src}_{r}", target=f"a{dst}_{col}", weight=float(w[r, col]))
            )
    return LayeredGaf(layers, edges, class_labels)
