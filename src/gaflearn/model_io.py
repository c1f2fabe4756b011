"""Serialization of classifier graphs and DOT rendering.

The JSON document (format "gaf-model/1") stores every argument and edge at
full float precision, so parsing it back yields a graph whose evaluation is
bit-identical to the original. The DOT rendering groups nodes by layer,
draws supports dashed and attacks solid, and can visually omit weak edges
without touching the model.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

from .errors import GafError, ModelFormatError
from .graph import Argument, LayeredGaf, Polarity, WeightedEdge, edge_polarity

FORMAT_VERSION = "gaf-model/1"
_STYLES = {Polarity.SUPPORT: "dashed", Polarity.ATTACK: "solid", Polarity.NEUTRAL: "dotted"}


def to_json(gaf: LayeredGaf, metadata: dict | None = None) -> str:
    """Serialize a graph (plus free-form metadata) as a versioned document."""
    doc = {
        "format": FORMAT_VERSION,
        "layer_sizes": list(gaf.layer_sizes),
        "class_labels": list(gaf.class_labels),
        "arguments": [
            {
                "id": a.id,
                "name": a.name,
                "layer": a.layer_index,
                "base_score": a.base_score,
            }
            for a in gaf.arguments()
        ],
        "edges": [
            {"source": e.source, "target": e.target, "weight": e.weight} for e in gaf.edges
        ],
        "metadata": metadata if metadata is not None else {},
    }
    return json.dumps(doc, indent=2, allow_nan=False)


def _expect(doc: dict, key: str, kind, context: str):
    if key not in doc:
        raise ModelFormatError(f"{context}: missing key {key!r}")
    value = doc[key]
    # JSON true/false parse as bool, an int subclass, and no key here takes one
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ModelFormatError(f"{context}: {key!r} has type {type(value).__name__}")
    return value


def _finite(token: str) -> float:
    """A JSON float literal or NaN/Infinity token as a float; refused unless finite."""
    value = float(token)
    if not math.isfinite(value):
        raise ModelFormatError(f"{token} is not a finite number")
    return value


def from_json(text: str) -> tuple[LayeredGaf, dict]:
    """Parse a model document; returns the graph and its metadata. A number
    that is not finite is refused anywhere: to_json could not write it back."""
    try:
        doc = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("document root must be an object")
    version = doc.get("format")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format {version!r}, expected {FORMAT_VERSION!r}")
    layer_sizes = _expect(doc, "layer_sizes", list, "document")
    if not all(type(s) is int and s > 0 for s in layer_sizes):
        raise ModelFormatError("layer_sizes must be positive integers")
    class_labels = _expect(doc, "class_labels", list, "document")
    if not all(isinstance(c, str) for c in class_labels):
        raise ModelFormatError("class_labels must be strings")
    raw_args = _expect(doc, "arguments", list, "document")
    raw_edges = _expect(doc, "edges", list, "document")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ModelFormatError("metadata must be an object")

    layers: list[list[Argument]] = [[] for _ in layer_sizes]
    for i, entry in enumerate(raw_args):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"argument {i}: not an object")
        ctx = f"argument {i}"
        arg_id = _expect(entry, "id", str, ctx)
        name = _expect(entry, "name", str, ctx)
        layer = _expect(entry, "layer", int, ctx)
        try:
            score = float(_expect(entry, "base_score", (int, float), ctx))
        except OverflowError:  # json keeps a long integer an int
            raise ModelFormatError(f"{ctx}: 'base_score' is too large for a float") from None
        if not 0 <= layer < len(layer_sizes):
            raise ModelFormatError(f"{ctx}: layer {layer} out of range")
        layers[layer].append(Argument(id=arg_id, name=name, layer_index=layer, base_score=score))
    for li, (layer, size) in enumerate(zip(layers, layer_sizes)):
        if len(layer) != size:
            raise ModelFormatError(
                f"layer {li} declares {size} arguments but {len(layer)} are listed"
            )

    edges = []
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"edge {i}: not an object")
        ctx = f"edge {i}"
        source = _expect(entry, "source", str, ctx)
        target = _expect(entry, "target", str, ctx)
        try:
            weight = float(_expect(entry, "weight", (int, float), ctx))
        except OverflowError:  # json keeps a long integer an int
            raise ModelFormatError(f"{ctx}: 'weight' is too large for a float") from None
        edges.append(WeightedEdge(source=source, target=target, weight=weight))

    try:
        gaf = LayeredGaf(layers, edges, tuple(class_labels))
    except GafError as exc:
        raise ModelFormatError(f"document describes an invalid graph: {exc}") from exc
    return gaf, metadata


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(gaf: LayeredGaf, prune_below: float = 0.0) -> str:
    """Render as DOT text, inputs on the left, one rank per layer.

    Support edges (positive weight) are dashed, attacks solid, exact-zero
    weights dotted; labels show the weight to 2 decimals. Edges with
    |weight| < prune_below are left out of the drawing only.
    """
    if not prune_below >= 0:  # NaN fails too
        raise ValueError(f"prune_below must be >= 0, got {prune_below}")
    lines = ["digraph gaf {", "  rankdir=LR;", "  node [shape=box];"]
    for layer in gaf.layers:
        members = " ".join(
            f"{_quote(a.id)} [label={_quote(a.name)}];" for a in layer
        )
        lines.append("  { rank=same; " + members + " }")
    position = {
        a.id: (li, ai) for li, layer in enumerate(gaf.layers) for ai, a in enumerate(layer)
    }
    for edge in sorted(gaf.edges, key=lambda e: (position[e.source], position[e.target])):
        if abs(edge.weight) < prune_below:
            continue
        lines.append(
            f"  {_quote(edge.source)} -> {_quote(edge.target)} "
            f'[style={_STYLES[edge_polarity(edge)]}, label="{edge.weight:.2f}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
