"""Round-trip fidelity of model documents and DOT rendering conventions."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from gaflearn.errors import ModelFormatError
from gaflearn.graph import (
    Argument,
    GafStructure,
    LayeredGaf,
    WeightedEdge,
    build_gaf,
    output_distributions,
)
from gaflearn.model_io import from_json, to_dot, to_json
from test_graph import layered_classifiers


def sample_gaf(seed=0, sizes=(4, 3, 2)):
    rng = np.random.default_rng(seed)
    structure = GafStructure(
        sizes,
        tuple(
            (i, i + 1, rng.uniform(size=(sizes[i], sizes[i + 1])) < 0.7)
            for i in range(len(sizes) - 1)
        ),
    )
    weights = [rng.normal(scale=1.7, size=m.shape) * m for _, _, m in structure.blocks]
    biases = [rng.normal(size=s) for s in sizes[1:]]
    names = [f"feat_{i}" for i in range(sizes[0])]
    labels = [f"class_{j}" for j in range(sizes[-1])]
    return build_gaf(structure, weights, biases, names, labels)


def test_round_trip_is_bit_identical():
    gaf = sample_gaf()
    text = to_json(gaf, metadata={"seed": 7, "note": "x"})
    back, metadata = from_json(text)
    assert metadata == {"seed": 7, "note": "x"}
    assert back.class_labels == gaf.class_labels
    assert back.layer_sizes == gaf.layer_sizes
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(25, 4))
    assert np.array_equal(output_distributions(back, x), output_distributions(gaf, x))


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(layered_classifiers())
def test_round_trip_keeps_every_distribution_bit_and_the_text(drawn):
    gaf, rng = drawn
    # pin some base scores to exactly 0 and 1, whose log-odds are -inf and +inf
    def pinned(arg):
        u = rng.uniform()
        if arg.layer_index == 0 or 0.2 <= u < 0.8:
            return arg
        return replace(arg, base_score=float(u >= 0.8))

    layers = [[pinned(a) for a in layer] for layer in gaf.layers]
    gaf = LayeredGaf(layers, gaf.edges, gaf.class_labels)
    text = to_json(gaf, metadata={"seed": 3})
    back, metadata = from_json(text)
    batch = rng.uniform(size=(8, gaf.layer_sizes[0]))
    assert np.array_equal(output_distributions(back, batch), output_distributions(gaf, batch))
    assert to_json(back, metadata) == text


def test_weights_survive_at_full_precision():
    ugly = 0.1 + 0.2  # not exactly 0.3
    layers = [
        [Argument("i", "in", 0, 0.5)],
        [Argument("o", "out", 1, 1 / 3)],
    ]
    gaf = LayeredGaf(layers, [WeightedEdge("i", "o", ugly)])
    back, _ = from_json(to_json(gaf))
    assert back.edges[0].weight == ugly
    assert back.layers[1][0].base_score == 1 / 3


def test_empty_edge_model_round_trips():
    layers = [
        [Argument("i", "in", 0, 0.5)],
        [Argument("o1", "yes", 1, 0.5), Argument("o2", "no", 1, 0.5)],
    ]
    gaf = LayeredGaf(layers, [], class_labels=["yes", "no"])
    back, _ = from_json(to_json(gaf))
    assert back.edges == ()
    assert back.class_labels == ("yes", "no")


def test_version_mismatch_is_rejected():
    text = to_json(sample_gaf())
    doc = json.loads(text)
    doc["format"] = "gaf-model/2"
    with pytest.raises(ModelFormatError, match="unsupported format"):
        from_json(json.dumps(doc))


def test_truncated_document_is_rejected():
    text = to_json(sample_gaf())
    with pytest.raises(ModelFormatError, match="JSON"):
        from_json(text[: len(text) // 2])


def test_schema_violations_are_rejected():
    base = json.loads(to_json(sample_gaf()))

    missing = dict(base)
    del missing["edges"]
    with pytest.raises(ModelFormatError, match="edges"):
        from_json(json.dumps(missing))

    bad_weight = json.loads(to_json(sample_gaf()))
    bad_weight["edges"][0]["weight"] = "heavy"
    with pytest.raises(ModelFormatError, match="weight"):
        from_json(json.dumps(bad_weight))

    bad_layer = json.loads(to_json(sample_gaf()))
    bad_layer["arguments"][0]["layer"] = 9
    with pytest.raises(ModelFormatError, match="out of range"):
        from_json(json.dumps(bad_layer))

    short_layer = json.loads(to_json(sample_gaf()))
    short_layer["arguments"] = short_layer["arguments"][:-1]
    with pytest.raises(ModelFormatError, match="layer"):
        from_json(json.dumps(short_layer))


@pytest.mark.parametrize(
    "path",
    [
        ("layer_sizes", 0),
        ("arguments", 0, "layer"),
        ("arguments", 4, "layer"),
        ("arguments", 0, "base_score"),
        ("edges", 0, "weight"),
    ],
)
def test_json_booleans_are_not_numbers(path):
    # bool is an int subclass: true would otherwise load as layer 1, or 1.0
    doc = json.loads(to_json(sample_gaf()))
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    target[key] = True
    with pytest.raises(ModelFormatError, match="bool|positive integers"):
        from_json(json.dumps(doc))


def test_invalid_graph_content_is_rejected():
    doc = json.loads(to_json(sample_gaf()))
    doc["arguments"][1]["id"] = doc["arguments"][0]["id"]
    with pytest.raises(ModelFormatError, match="invalid graph"):
        from_json(json.dumps(doc))


def test_non_finite_numbers_are_rejected():
    doc = json.loads(to_json(sample_gaf()))
    doc["edges"][0]["weight"] = float("inf")
    text = json.dumps(doc)  # writes the non-standard token Infinity
    assert '"weight": Infinity' in text
    with pytest.raises(ModelFormatError, match="Infinity is not a finite number"):
        from_json(text)
    # in the metadata too, which to_json could not write back
    for token in ("NaN", "-Infinity", "1e999"):
        text = to_json(sample_gaf(), metadata={"fitness": 0.5})
        text = text.replace('"fitness": 0.5', f'"fitness": {token}')
        with pytest.raises(ModelFormatError, match=f"{token} is not a finite number"):
            from_json(text)
    with pytest.raises(ValueError):
        to_json(sample_gaf(), metadata={"fitness": float("nan")})


def two_edge_gaf():
    layers = [
        [Argument("x1", "petal<3", 0, 0.5), Argument("x2", "petal>=3", 0, 0.5)],
        [Argument("y", "virginica", 1, 0.5), Argument("z", "other", 1, 0.5)],
    ]
    edges = [
        WeightedEdge("x1", "y", 1.0),
        WeightedEdge("x2", "y", -1.0),
        WeightedEdge("x2", "z", 0.004),
    ]
    return LayeredGaf(layers, edges, ["virginica", "other"])


def test_dot_styles_and_labels():
    dot = to_dot(two_edge_gaf())
    assert 'rankdir=LR' in dot
    assert '"x1" -> "y" [style=dashed, label="1.00"];' in dot
    assert '"x2" -> "y" [style=solid, label="-1.00"];' in dot
    assert '"x2" -> "z" [style=dashed, label="0.00"];' in dot
    assert dot.count("rank=same") == 2


def test_dot_prune_below_hides_edges_but_not_model():
    gaf = two_edge_gaf()
    full = to_dot(gaf, prune_below=0.0)
    pruned = to_dot(gaf, prune_below=0.01)
    assert full.count("->") == 3
    assert pruned.count("->") == 2
    assert '"x2" -> "z"' not in pruned
    assert gaf.connection_count() == 3  # untouched
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="prune_below"):
            to_dot(gaf, prune_below=bad)


def test_dot_is_deterministic_and_escapes_names():
    layers = [
        [Argument("a", 'f "quoted"', 0, 0.5)],
        [Argument("b", "out", 1, 0.5)],
    ]
    gaf = LayeredGaf(layers, [WeightedEdge("a", "b", 0.5)])
    dot1, dot2 = to_dot(gaf), to_dot(gaf)
    assert dot1 == dot2
    assert '\\"quoted\\"' in dot1
