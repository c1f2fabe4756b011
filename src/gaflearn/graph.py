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
"""

from __future__ import annotations

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


@dataclass(frozen=True)
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

    @staticmethod
    def fully_connected(layer_sizes: Sequence[int]) -> "GafStructure":
        sizes = tuple(int(s) for s in layer_sizes)
        blocks = tuple(
            (i, i + 1, np.ones((sizes[i], sizes[i + 1]), dtype=bool))
            for i in range(len(sizes) - 1)
        )
        return GafStructure(sizes, blocks)

    @property
    def n_connections(self) -> int:
        return int(sum(m.sum() for _, _, m in self.blocks))


@dataclass(frozen=True)
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
        self._validate()
        self._decomposed: tuple[GafStructure, list[np.ndarray], list[np.ndarray]] | None = None

    def _validate(self) -> None:
        if len(self._layers) < 2:
            raise InvalidGraphError("a layered graph needs at least 2 layers")
        ids: dict[str, int] = {}
        names = set()
        for li, layer in enumerate(self._layers):
            if not layer:
                raise InvalidGraphError(f"layer {li} is empty")
            for arg in layer:
                if arg.layer_index != li:
                    raise InvalidGraphError(
                        f"argument {arg.id!r} declares layer {arg.layer_index}, placed in {li}"
                    )
                if not arg.name:
                    raise InvalidGraphError(f"argument {arg.id!r} has an empty name")
                if arg.name in names:
                    raise InvalidGraphError(f"duplicate argument name {arg.name!r}")
                names.add(arg.name)
                if arg.id in ids:
                    raise InvalidGraphError(f"duplicate argument id {arg.id!r}")
                ids[arg.id] = li
                if math.isnan(arg.base_score) or not 0.0 <= arg.base_score <= 1.0:
                    raise InvalidGraphError(
                        f"base score of {arg.id!r} must lie in [0,1], got {arg.base_score}"
                    )
        pairs = set()
        for e in self._edges:
            if e.source not in ids or e.target not in ids:
                raise InvalidGraphError(f"edge ({e.source},{e.target}) references unknown argument")
            if ids[e.source] >= ids[e.target]:
                raise InvalidGraphError(
                    f"edge ({e.source},{e.target}) must point to a deeper layer"
                )
            if (e.source, e.target) in pairs:
                raise InvalidGraphError(f"duplicate edge ({e.source},{e.target})")
            pairs.add((e.source, e.target))
            if not math.isfinite(e.weight):
                raise InvalidGraphError(
                    f"edge ({e.source},{e.target}) has non-finite weight {e.weight}"
                )
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

    @property
    def depth(self) -> int:
        return len(self._layers) - 1

    def arguments(self) -> tuple[Argument, ...]:
        """All arguments in layer-major order (the canonical vector order)."""
        return tuple(arg for layer in self._layers for arg in layer)

    def input_arguments(self) -> tuple[Argument, ...]:
        return self._layers[0]

    def output_arguments(self) -> tuple[Argument, ...]:
        return self._layers[-1]

    def parameters(self) -> tuple[GafStructure, list[np.ndarray], list[np.ndarray]]:
        """Decompose into (structure, per-block weight matrices, per-layer biases).

        Blocks are in sorted (source, target) layer order. Biases are the
        log-odds of the base scores of non-input layers (+/-inf for base
        scores exactly 0 or 1).
        """
        structure, weights, biases = self._decomposition()
        return (
            GafStructure(
                structure.layer_sizes,
                tuple((src, dst, m.copy()) for src, dst, m in structure.blocks),
            ),
            [w.copy() for w in weights],
            [b.copy() for b in biases],
        )

    def connection_count(self) -> int:
        return len(self._edges)

    def _decomposition(self) -> tuple[GafStructure, list[np.ndarray], list[np.ndarray]]:
        """The cached, shared form of :meth:`parameters`; callers must not mutate it."""
        if self._decomposed is not None:
            return self._decomposed
        index = {
            arg.id: (li, ai)
            for li, layer in enumerate(self._layers)
            for ai, arg in enumerate(layer)
        }
        sizes = self.layer_sizes
        weights: dict[tuple[int, int], np.ndarray] = {}
        present: dict[tuple[int, int], np.ndarray] = {}
        for e in self._edges:
            sl, si = index[e.source]
            tl, ti = index[e.target]
            block = weights.setdefault((sl, tl), np.zeros((sizes[sl], sizes[tl])))
            mask = present.setdefault((sl, tl), np.zeros((sizes[sl], sizes[tl]), dtype=bool))
            block[si, ti] = e.weight
            mask[si, ti] = True
        pairs = sorted(weights)
        structure = GafStructure(sizes, tuple((src, dst, present[(src, dst)]) for src, dst in pairs))
        with np.errstate(divide="ignore"):
            biases = [
                logit(np.array([a.base_score for a in layer], dtype=np.float64))
                for layer in self._layers[1:]
            ]
        self._decomposed = (structure, [weights[pair] for pair in pairs], biases)
        return self._decomposed


# -- evaluation --------------------------------------------------------


def layer_preactivation(
    strengths: Sequence[np.ndarray],
    blocks: Sequence[tuple[int, int, np.ndarray]],
    weights: Sequence[np.ndarray],
    bias: np.ndarray,
    t: int,
) -> np.ndarray:
    """Layer ``t``'s pre-activations: ``bias + sum of strengths[src] @ w``.

    ``strengths[src]`` is the (batch, size) strength matrix of layer src;
    the sum runs over the blocks into ``t`` in their sorted order. Every
    forward pass (evaluation, batched distributions, training and the
    strength trajectory) aggregates through this one function. A stack of
    P nets has (P, ...) weights, biases and strengths; inputs may be shared.
    """
    z = np.empty(bias.shape[:-1] + strengths[0].shape[-2:-1] + bias.shape[-1:])
    z[:] = bias[..., None, :]
    for (src, dst, _), w in zip(blocks, weights):
        if dst == t:
            z += strengths[src] @ w
    return z


def forward_pass(
    structure: GafStructure,
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    x: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Strengths of every non-output layer and the output pre-activations.

    ``x`` is a (batch, inputs) matrix, or (P, batch, inputs) for a stack.
    Hidden strengths are the logistic of their pre-activations; the output
    layer stays pre-activations, which the softmax and the loss consume.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, biases[0].ndim + 1) or x.shape[-1] != structure.layer_sizes[0]:
        raise InputShapeError(
            f"expected (n, {structure.layer_sizes[0]}) inputs, got shape {x.shape}"
        )
    strengths = [x]
    n_layers = len(structure.layer_sizes)
    for t in range(1, n_layers):
        z = layer_preactivation(strengths, structure.blocks, weights, biases[t - 1], t)
        if t < n_layers - 1:
            strengths.append(expit(z))
    return strengths, z


def _check_input(gaf: LayeredGaf, input_strengths: Sequence[float]) -> np.ndarray:
    x = np.asarray(input_strengths, dtype=np.float64)
    n_in = gaf.layer_sizes[0]
    if x.ndim != 1 or x.shape[0] != n_in:
        raise InputShapeError(
            f"expected {n_in} input strengths, got shape {x.shape}"
        )
    # NaN fails both comparisons, so this also rejects non-finite values
    if not ((x >= 0).all() and (x <= 1).all()):
        raise InputShapeError("input strengths must be finite values in [0,1]")
    return x


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
    x = _check_input(gaf, input_strengths)
    per_layer, z_out = forward_pass(*gaf._decomposition(), x[None, :])
    per_layer.append(expit(z_out))
    strengths: dict[str, float] = {}
    for layer, values in zip(gaf.layers, per_layer):
        for arg, v in zip(layer, values[0]):
            strengths[arg.id] = float(v)
    return Interpretation(strengths=strengths, output_distribution=softmax_rows(z_out)[0])


def output_distributions(gaf: LayeredGaf, matrix: np.ndarray) -> np.ndarray:
    """Batched class distributions, one row per instance."""
    _, z_out = forward_pass(*gaf._decomposition(), matrix)
    return softmax_rows(z_out)


def strength_trajectory(
    gaf: LayeredGaf, input_strengths: Sequence[float], iterations: int
) -> list[np.ndarray]:
    """Synchronous strength updates, returning vectors for iterations 0..n.

    Iteration 0 is the base-score vector with inputs at their given values;
    every later iteration updates all non-input arguments at once from the
    previous vector. For a graph of depth d the vectors are constant from
    iteration d onward, and equal to :func:`evaluate`'s strengths.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    x = _check_input(gaf, input_strengths)
    structure, weights, biases = gaf._decomposition()
    layers = [x[None, :]] + [
        np.array([[a.base_score for a in layer]], dtype=np.float64) for layer in gaf.layers[1:]
    ]
    out = [np.concatenate(layers, axis=1)[0]]
    for _ in range(iterations):
        previous = layers
        layers = [x[None, :]] + [
            expit(layer_preactivation(previous, structure.blocks, weights, biases[t - 1], t))
            for t in range(1, len(previous))
        ]
        out.append(np.concatenate(layers, axis=1)[0])
    return out


def prune_inert_edges(gaf: LayeredGaf) -> LayeredGaf:
    """Drop edges that provably cannot influence any output distribution.

    An edge matters only if its target is an output argument or lies on a
    directed path to one. Removing the rest changes the strengths of the
    orphaned arguments but leaves every class distribution bit-identical,
    so the pruned graph is an equivalent, more readable classifier.
    """
    reach = {a.id for a in gaf.output_arguments()}
    changed = True
    while changed:
        changed = False
        for edge in gaf.edges:
            if edge.target in reach and edge.source not in reach:
                reach.add(edge.source)
                changed = True
    kept = tuple(e for e in gaf.edges if e.target in reach)
    if len(kept) == len(gaf.edges):
        return gaf
    return LayeredGaf(
        layers=gaf.layers, edges=kept, class_labels=gaf.class_labels
    )


def clamp_base_score(value: float) -> float:
    return min(max(value, BASE_SCORE_MIN), BASE_SCORE_MAX)


def build_gaf(
    structure: GafStructure,
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    input_names: Sequence[str],
    class_labels: Sequence[str],
    hidden_name_format: str = "m{layer}_{index}",
) -> LayeredGaf:
    """Assemble a named classifier graph from trained parameters.

    Biases are log-odds; they become clamped base scores in
    [1e-6, 1 - 1e-6]. Input arguments get the neutral base score 0.5
    (their strength is always the supplied feature value). Only edges
    present in the structure are materialized, and only with their
    trained weights.
    """
    sizes = structure.layer_sizes
    if len(input_names) != sizes[0]:
        raise InvalidGraphError(f"{len(input_names)} input names for {sizes[0]} inputs")
    if len(class_labels) != sizes[-1]:
        raise InvalidGraphError(f"{len(class_labels)} labels for {sizes[-1]} outputs")
    layers: list[list[Argument]] = []
    for li, size in enumerate(sizes):
        layer = []
        for ai in range(size):
            if li == 0:
                name = input_names[ai]
                beta = 0.5
            else:
                if li == len(sizes) - 1:
                    name = str(class_labels[ai])
                else:
                    name = hidden_name_format.format(layer=li, index=ai)
                beta = clamp_base_score(float(expit(biases[li - 1][ai])))
            layer.append(Argument(id=f"a{li}_{ai}", name=name, layer_index=li, base_score=beta))
        layers.append(layer)
    edges = []
    for (src, dst, mask), w in zip(structure.blocks, weights):
        rows, cols = np.nonzero(mask)
        for r, col in zip(rows.tolist(), cols.tolist()):
            edges.append(
                WeightedEdge(source=f"a{src}_{r}", target=f"a{dst}_{col}", weight=float(w[r, col]))
            )
    return LayeredGaf(layers, edges, class_labels)
