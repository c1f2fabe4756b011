"""Semantics of layered graphs, checked against hand-rolled scalar math."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaflearn import (
    Argument,
    GafStructure,
    InputShapeError,
    InvalidGraphError,
    LayeredGaf,
    MaskedNet,
    Polarity,
    WeightedEdge,
    build_gaf,
    edge_polarity,
    evaluate,
    output_distributions,
    prune_inert_edges,
)
from gaflearn.graph import check_indicators, check_strengths, live_units
from gaflearn.model_io import from_json
from gaflearn.util import softmax_rows


def sigma(x):
    return 1.0 / (1.0 + math.exp(-x))


def two_node(weight, beta_out=0.5):
    layers = [
        [Argument("a0_0", "x", 0, 0.5)],
        [Argument("a1_0", "y", 1, beta_out)],
    ]
    return LayeredGaf(layers, [WeightedEdge("a0_0", "a1_0", weight)])


def test_single_support_matches_logistic():
    interp = evaluate(two_node(1.0), [1.0])
    assert abs(interp.strengths["a1_0"] - sigma(1.0)) < 1e-12
    assert abs(interp.strengths["a1_0"] - 0.7310585786300049) < 1e-12


def test_single_attack_matches_logistic():
    interp = evaluate(two_node(-1.0), [1.0])
    assert abs(interp.strengths["a1_0"] - sigma(-1.0)) < 1e-12
    assert abs(interp.strengths["a1_0"] - 0.2689414213699951) < 1e-12


def test_base_score_shifts_log_odds():
    interp = evaluate(two_node(2.0, beta_out=0.25), [0.5])
    expected = sigma(math.log(0.25 / 0.75) + 2.0 * 0.5)
    assert abs(interp.strengths["a1_0"] - expected) < 1e-12


def test_zero_input_leaves_base_score():
    interp = evaluate(two_node(5.0, beta_out=0.3), [0.0])
    assert abs(interp.strengths["a1_0"] - 0.3) < 1e-12


def test_extreme_base_scores_absorb_attacks_and_supports():
    for beta, expected in [(0.0, 0.0), (1.0, 1.0)]:
        for weight in (-100.0, 100.0):
            interp = evaluate(two_node(weight, beta_out=beta), [1.0])
            assert interp.strengths["a1_0"] == expected


def test_edge_polarity_sign_convention():
    assert edge_polarity(WeightedEdge("a", "b", -0.5)) is Polarity.ATTACK
    assert edge_polarity(WeightedEdge("a", "b", 0.5)) is Polarity.SUPPORT
    assert edge_polarity(WeightedEdge("a", "b", 0.0)) is Polarity.NEUTRAL


def chain_gaf():
    # a supports b, b attacks c; all base scores 0.5
    layers = [
        [Argument("a", "a", 0, 0.5)],
        [Argument("b", "b", 1, 0.5)],
        [Argument("c", "c", 2, 0.5)],
    ]
    edges = [WeightedEdge("a", "b", 1.0), WeightedEdge("b", "c", -1.0)]
    return LayeredGaf(layers, edges)


def test_chain_strengths_follow_the_layers():
    # one forward sweep: c reads b's final strength, not its base score
    strengths = evaluate(chain_gaf(), [1.0]).strengths
    s_b = sigma(1.0)
    assert np.allclose(
        [strengths[a] for a in "abc"], [1.0, s_b, sigma(-s_b)], rtol=0, atol=1e-12
    )


def random_gaf(rng, sizes=(3, 4, 2), skip=False, keep=1.0):
    layers = []
    for li, size in enumerate(sizes):
        beta = rng.uniform(0.05, 0.95, size=size)
        layers.append(
            [Argument(f"a{li}_{i}", f"n{li}_{i}", li, float(beta[i])) for i in range(size)]
        )
    edges = []
    for src in range(len(sizes) - 1):
        targets = range(src + 1, len(sizes)) if skip else [src + 1]
        for dst in targets:
            for i in range(sizes[src]):
                for j in range(sizes[dst]):
                    if rng.uniform() <= keep:
                        w = float(rng.normal(scale=2.0))
                        edges.append(WeightedEdge(f"a{src}_{i}", f"a{dst}_{j}", w))
    labels = [f"c{j}" for j in range(sizes[-1])] if sizes[-1] >= 2 else ()
    return LayeredGaf(layers, edges, labels)


def scalar_reference(gaf, x):
    """Per-argument forward pass with pure-python float math."""
    strengths = {}
    for arg, value in zip(gaf.layers[0], x):
        strengths[arg.id] = float(value)
    incoming = {}
    for e in gaf.edges:
        incoming.setdefault(e.target, []).append(e)
    z_out = []
    for layer in gaf.layers[1:]:
        for arg in layer:
            agg = sum(e.weight * strengths[e.source] for e in incoming.get(arg.id, []))
            z = math.log(arg.base_score / (1.0 - arg.base_score)) + agg
            strengths[arg.id] = sigma(z)
            if arg.layer_index == len(gaf.layers) - 1:
                z_out.append(z)
    m = max(z_out)
    exps = [math.exp(z - m) for z in z_out]
    total = sum(exps)
    return strengths, [e / total for e in exps]


def test_random_graphs_match_scalar_reference():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n_layers = int(rng.integers(2, 5))
        sizes = tuple(int(rng.integers(1, 6)) for _ in range(n_layers - 1))
        sizes = sizes + (int(rng.integers(2, 5)),)
        gaf = random_gaf(rng, sizes=sizes, skip=bool(rng.integers(0, 2)), keep=0.7)
        x = rng.uniform(size=sizes[0])
        interp = evaluate(gaf, x)
        ref_strengths, ref_dist = scalar_reference(gaf, x)
        for arg_id, value in interp.strengths.items():
            assert abs(value - ref_strengths[arg_id]) < 1e-12
        assert np.allclose(interp.output_distribution, ref_dist, rtol=0, atol=1e-12)
        assert abs(interp.output_distribution.sum() - 1.0) < 1e-9


def pin_base_scores(gaf, pins):
    """The same graph with some base scores replaced, e.g. by exactly 0 or 1."""
    layers = [
        [replace(a, base_score=pins.get(a.id, a.base_score)) for a in layer]
        for layer in gaf.layers
    ]
    return LayeredGaf(layers, gaf.edges, gaf.class_labels)


def test_batch_distributions_match_single_evaluation():
    rng = np.random.default_rng(3)
    graphs = [
        random_gaf(rng, sizes=(5, 4, 3), keep=0.8),
        random_gaf(rng, sizes=(5, 4, 3, 3), skip=True, keep=0.8),
        # base scores exactly 0 and 1: +/-inf biases, pinned strengths
        pin_base_scores(
            random_gaf(rng, sizes=(5, 4, 3), keep=0.8),
            {"a1_0": 0.0, "a1_2": 1.0, "a2_1": 1.0, "a2_2": 0.0},
        ),
    ]
    for gaf in graphs:
        X = rng.uniform(size=(10, 5))
        dists = output_distributions(gaf, X)
        assert dists.shape == (10, 3)
        assert np.array_equal(softmax_rows(MaskedNet.from_gaf(gaf).forward(X)[1]), dists)
        for row, x in zip(dists, X):
            interp = evaluate(gaf, x)
            # evaluate is the batched path on a one-row batch
            assert np.array_equal(
                interp.output_distribution, output_distributions(gaf, x[None, :])[0]
            )
            # BLAS sums a one-row product (gemv) in another order than a
            # multi-row one (gemm), so rows of a larger batch may differ
            # from it in the last bits
            assert np.allclose(interp.output_distribution, row, rtol=0, atol=1e-12)


def test_structure_counts_enabled_connections():
    mask01 = np.array([[True, False], [True, True]])
    mask12 = np.array([[False, True, True], [True, False, False]])
    s = GafStructure((2, 2, 3), ((0, 1, mask01), (1, 2, mask12)))
    assert sum(int(m.sum()) for _, _, m in s.blocks) == 6
    full = GafStructure.fully_connected([4, 12, 3])
    assert sum(int(m.sum()) for _, _, m in full.blocks) == 4 * 12 + 12 * 3


def test_build_gaf_names_and_parameter_round_trip():
    mask01 = np.array([[True, False, True], [False, True, True]])
    mask12 = np.array([[True, True], [False, True], [True, False]])
    structure = GafStructure((2, 3, 2), ((0, 1, mask01), (1, 2, mask12)))
    rng = np.random.default_rng(5)
    weights = [rng.normal(size=m.shape) * m for _, _, m in structure.blocks]
    biases = [np.array([0.5, -1.0, 0.0]), np.array([2.0, -0.25])]
    gaf = build_gaf(structure, weights, biases, ["f_a", "f_b"], ["yes", "no"])

    assert [a.name for a in gaf.layers[0]] == ["f_a", "f_b"]
    assert [a.name for a in gaf.layers[-1]] == ["yes", "no"]
    assert gaf.layers[1][0].name == "m1_0"
    assert gaf.class_labels == ("yes", "no")
    assert len(gaf.edges) == int(mask01.sum() + mask12.sum())
    for arg in gaf.arguments()[2:]:
        assert 1e-6 <= arg.base_score <= 1 - 1e-6
    # hidden/output base scores are the logistic of the given biases
    assert abs(gaf.layers[1][1].base_score - sigma(-1.0)) < 1e-12

    net = MaskedNet.from_gaf(gaf)
    assert net.structure.layer_sizes == (2, 3, 2)
    for (_, _, want_m), got_m in zip(structure.blocks, net.masks):
        assert np.array_equal(want_m, got_m)
    for want_w, got_w in zip(weights, net.weights):
        assert np.allclose(want_w, got_w, rtol=0, atol=0)
    for want_b, got_b in zip(biases, net.biases):
        assert np.allclose(want_b, got_b, rtol=0, atol=1e-9)

    # the net owns its arrays: writing to them leaves the graph as it was
    x = np.array([[1.0, 0.0], [0.25, 0.75]])
    before = output_distributions(gaf, x)
    for a in net.masks + net.weights + net.biases:
        a[...] = 0
    assert np.array_equal(output_distributions(gaf, x), before)
    again = MaskedNet.from_gaf(gaf)
    for (_, _, want_m), got_m in zip(structure.blocks, again.masks):
        assert np.array_equal(want_m, got_m)


def test_build_gaf_clamps_saturated_base_scores():
    structure = GafStructure.fully_connected([1, 2])
    gaf = build_gaf(
        structure,
        [np.ones((1, 2))],
        [np.array([40.0, -40.0])],
        ["x"],
        ["p", "q"],
    )
    assert gaf.layers[1][0].base_score == 1 - 1e-6
    assert gaf.layers[1][1].base_score == 1e-6


def test_rejects_malformed_graphs():
    a = Argument("a", "a", 0, 0.5)
    b = Argument("b", "b", 1, 0.5)
    with pytest.raises(InvalidGraphError):
        LayeredGaf([[a]], [])  # single layer
    with pytest.raises(InvalidGraphError):
        LayeredGaf([[a], []], [])  # empty layer
    with pytest.raises(InvalidGraphError):
        LayeredGaf([[a], [Argument("a", "b2", 1, 0.5)]], [])  # duplicate id
    with pytest.raises(InvalidGraphError):
        LayeredGaf([[a], [Argument("b", "a", 1, 0.5)]], [])  # duplicate name
    with pytest.raises(InvalidGraphError):
        LayeredGaf([[a], [Argument("b", "b", 0, 0.5)]], [])  # wrong layer index
    with pytest.raises(InvalidGraphError):
        LayeredGaf([[a], [Argument("b", "b", 1, 1.5)]], [])  # base score out of range
    with pytest.raises(InvalidGraphError):
        LayeredGaf([[a], [b]], [WeightedEdge("b", "a", 1.0)])  # backward edge
    with pytest.raises(InvalidGraphError):
        LayeredGaf([[a], [b]], [WeightedEdge("a", "zz", 1.0)])  # unknown target
    with pytest.raises(InvalidGraphError):
        LayeredGaf(
            [[a], [b]],
            [WeightedEdge("a", "b", 1.0), WeightedEdge("a", "b", 2.0)],  # duplicate edge
        )
    for weight in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InvalidGraphError):
            LayeredGaf([[a], [b]], [WeightedEdge("a", "b", weight)])
    with pytest.raises(InvalidGraphError):
        LayeredGaf([[a], [b]], [], class_labels=["only", "two", "many"])  # label count
    with pytest.raises(InvalidGraphError):
        LayeredGaf([[a], [b]], [], class_labels=["one"])  # fewer than 2 classes


A = Argument("a", "a", 0, 0.5)
B = Argument("b", "b", 1, 0.5)
NAN = float("nan")


@pytest.mark.parametrize(
    "layers, edges, labels, message",
    [
        ([[A]], [], (), "a layered graph needs at least 2 layers"),
        ([[A], []], [], (), "layer 1 is empty"),
        ([[A], [Argument("b", "b", 0, 0.5)]], [], (), "argument 'b' declares layer 0, placed in 1"),
        ([[A], [Argument("b", "", 1, 0.5)]], [], (), "argument 'b' has an empty name"),
        # a name is checked before the id, and both before the base score
        ([[A], [Argument("a", "a", 1, 1.5)]], [], (), "duplicate argument name 'a'"),
        ([[A], [Argument("a", "b", 1, 1.5)]], [], (), "duplicate argument id 'a'"),
        ([[A], [Argument("b", "b", 1, NAN)]], [], (),
         "base score of 'b' must lie in [0,1], got nan"),
        # every argument is checked before any edge, and every edge before the labels
        ([[A], [B, Argument("a", "c", 1, 0.5)]], [WeightedEdge("a", "zz", 1.0)], (),
         "duplicate argument id 'a'"),
        ([[A], [B]], [WeightedEdge("a", "zz", NAN)], ("x",),
         "edge (a,zz) references unknown argument"),
        ([[A], [B]], [WeightedEdge("b", "a", NAN)], (), "edge (b,a) must point to a deeper layer"),
        ([[A], [B]], [WeightedEdge("a", "b", 1.0), WeightedEdge("a", "b", NAN)], (),
         "duplicate edge (a,b)"),
        ([[A], [B]], [WeightedEdge("a", "b", NAN), WeightedEdge("a", "b", 1.0)], (),
         "edge (a,b) has non-finite weight nan"),
        ([[A], [B]], [WeightedEdge("a", "b", 1.0)], ("x", "y"),
         "2 class labels for 1 output arguments"),
        ([[A], [B]], [], ("x",), "a classifier needs at least 2 classes"),
        ([[A], [B, Argument("c", "c", 1, 0.5)]], [], ("x", "x"), "class labels must be unique"),
    ],
)
def test_malformed_graph_is_refused_at_its_first_fault(layers, edges, labels, message):
    with pytest.raises(InvalidGraphError, match=f"^{re.escape(message)}$"):
        LayeredGaf(layers, edges, labels)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint8])
def test_structure_refuses_non_boolean_masks(dtype):
    blocks = ((0, 1, np.ones((2, 3), dtype=bool)), (1, 2, np.ones((3, 2), dtype=dtype)))
    message = rf"block \(1,2\) mask dtype {np.dtype(dtype)} is not bool"
    with pytest.raises(InvalidGraphError, match=message):
        GafStructure((2, 3, 2), blocks)


def test_rejects_bad_inputs():
    gaf = two_node(1.0)
    with pytest.raises(InputShapeError):
        evaluate(gaf, [0.5, 0.5])
    with pytest.raises(InputShapeError):
        evaluate(gaf, [1.5])
    with pytest.raises(InputShapeError):
        evaluate(gaf, [float("nan")])
    with pytest.raises(InputShapeError):
        output_distributions(gaf, np.zeros((3, 2)))
    with pytest.raises(InputShapeError):  # a stacked batch needs a stacked net
        output_distributions(gaf, np.zeros((2, 3, 1)))
    with pytest.raises(InputShapeError):
        MaskedNet.from_gaf(gaf).predict(np.zeros((2, 3, 1)))


@pytest.mark.parametrize("value", [np.nan, 5.0])
def test_batched_prediction_refuses_strengths_outside_0_1(value):
    """A NaN row used to predict class 0, and a 5.0 row a plausible class."""
    reference = Path(__file__).resolve().parent / "reference" / "iris_seed0" / "run_00"
    gaf, _ = from_json((reference / "model.json").read_text(encoding="utf-8"))
    x = np.zeros((4, len(gaf.layers[0])))
    x[:, 0] = 1.0
    x[2, 3] = value
    net = MaskedNet.from_gaf(gaf)
    message = r"input strengths must be finite values in \[0,1\]"
    for predict in (lambda m: output_distributions(gaf, m), net.predict):
        with pytest.raises(InputShapeError, match=message):
            predict(x)
    with pytest.raises(InputShapeError, match=message):
        evaluate(gaf, x[2])


def test_uint8_and_bool_inputs_give_the_float64_results_bit_for_bit():
    rng = np.random.default_rng(8)
    graphs = [
        random_gaf(rng, sizes=(6, 4, 3), keep=0.7),
        random_gaf(rng, sizes=(6, 4, 3, 3), skip=True, keep=0.7),
    ]
    x = (rng.uniform(size=(25, 6)) < 0.4).astype(np.uint8)
    for gaf in graphs:
        net = MaskedNet.from_gaf(gaf)
        want = output_distributions(gaf, x.astype(np.float64))
        predicted = net.predict(x.astype(np.float64))
        assert not np.allclose(want, want[0])  # the rows move the distribution
        for other in (x, x.astype(bool)):
            assert output_distributions(gaf, other).tobytes() == want.tobytes()
            assert np.array_equal(net.predict(other), predicted)
        for row in x[:5]:
            a, b = evaluate(gaf, row), evaluate(gaf, row.astype(np.float64))
            assert a.output_distribution.tobytes() == b.output_distribution.tobytes()
            assert a.strengths == b.strengths


@pytest.mark.parametrize(
    "bad", [np.array([[0, 2]], dtype=np.uint8), np.array([[0, -1]], dtype=np.int8)],
    ids=["uint8-2", "int8-minus-1"],
)
def test_integer_inputs_outside_0_1_are_refused_with_the_strengths_message(bad):
    gaf = random_gaf(np.random.default_rng(0), sizes=(2, 2))
    message = r"^input strengths must be finite values in \[0,1\]$"
    for predict in (
        lambda m: output_distributions(gaf, m),
        MaskedNet.from_gaf(gaf).predict,
        lambda m: evaluate(gaf, m[0]),
        check_indicators,
    ):
        with pytest.raises(InputShapeError, match=message):
            predict(bad)


def test_bool_and_unsigned_inputs_pass_the_checks_uncast():
    for x in (
        np.array([[0, 1], [1, 1]], dtype=np.uint8),
        np.array([[True, False]]),
        np.zeros((0, 3), dtype=np.uint16),
    ):
        assert check_strengths(x) is x
        assert check_indicators(x) is x
    assert check_strengths(np.array([[0, 1]])).dtype == np.float64  # signed: cast


def test_prune_inert_edges_keeps_distributions_bitwise():
    layers = [
        [Argument("a0_0", "x1", 0, 0.5), Argument("a0_1", "x2", 0, 0.5)],
        [Argument("a1_0", "m_dead", 1, 0.4), Argument("a1_1", "m_live", 1, 0.6)],
        [Argument("a2_0", "u", 2, 0.5), Argument("a2_1", "v", 2, 0.5)],
    ]
    edges = [
        WeightedEdge("a0_0", "a1_0", 1.5),   # feeds a hidden node that feeds nothing
        WeightedEdge("a0_1", "a1_1", -2.0),
        WeightedEdge("a1_1", "a2_0", 0.7),
        WeightedEdge("a0_0", "a2_1", 0.3),
    ]
    gaf = LayeredGaf(layers, edges, class_labels=("u", "v"))
    pruned = prune_inert_edges(gaf)
    assert len(pruned.edges) == 3
    assert all(e.target != "a1_0" for e in pruned.edges)
    rng = np.random.default_rng(11)
    batch = rng.uniform(0.0, 1.0, size=(16, 2))
    assert np.array_equal(
        output_distributions(gaf, batch), output_distributions(pruned, batch)
    )
    # the orphaned argument falls back to its base score
    interp = evaluate(pruned, [1.0, 1.0])
    assert interp.strengths["a1_0"] == 0.4


def test_prune_inert_edges_follows_multi_hop_dead_ends():
    layers = [
        [Argument("a0_0", "x", 0, 0.5)],
        [Argument("a1_0", "h", 1, 0.5)],
        [Argument("a2_0", "g", 2, 0.5)],
        [Argument("a3_0", "y1", 3, 0.5), Argument("a3_1", "y2", 3, 0.5)],
    ]
    # x -> h -> g but g never reaches the outputs, so the chain is inert
    edges = [
        WeightedEdge("a0_0", "a1_0", 1.0),
        WeightedEdge("a1_0", "a2_0", 1.0),
        WeightedEdge("a0_0", "a3_0", 2.0),
    ]
    gaf = LayeredGaf(layers, edges, class_labels=("y1", "y2"))
    pruned = prune_inert_edges(gaf)
    assert [(e.source, e.target) for e in pruned.edges] == [("a0_0", "a3_0")]
    x = [0.8]
    assert np.array_equal(
        evaluate(gaf, x).output_distribution, evaluate(pruned, x).output_distribution
    )


def test_prune_inert_edges_no_op_returns_same_graph():
    layers = [
        [Argument("a0_0", "x", 0, 0.5)],
        [Argument("a1_0", "h", 1, 0.5)],
        [Argument("a2_0", "y1", 2, 0.5), Argument("a2_1", "y2", 2, 0.5)],
    ]
    edges = [
        WeightedEdge("a0_0", "a1_0", 1.0),
        WeightedEdge("a1_0", "a2_0", -1.0),
        WeightedEdge("a1_0", "a2_1", 0.5),
    ]
    gaf = LayeredGaf(layers, edges, class_labels=("y1", "y2"))
    assert prune_inert_edges(gaf) is gaf


@st.composite
def layered_classifiers(draw):
    """A random layered classifier: 2-4 layers, every adjacent block and some
    skip blocks, random masks, weights and base scores."""
    n_layers = draw(st.integers(2, 4))
    sizes = [draw(st.integers(1, 5)) for _ in range(n_layers - 1)] + [draw(st.integers(2, 4))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    blocks, weights = [], []
    for src in range(n_layers - 1):
        for dst in range(src + 1, n_layers):
            if dst == src + 1 or draw(st.booleans()):
                mask = rng.uniform(size=(sizes[src], sizes[dst])) < density
                blocks.append((src, dst, mask))
                weights.append(rng.normal(0.0, 2.0, size=mask.shape) * mask)
    structure = GafStructure(tuple(sizes), tuple(blocks))
    biases = [rng.normal(0.0, 1.0, size=s) for s in sizes[1:]]
    names = [f"x{i}" for i in range(sizes[0])]
    labels = [f"c{i}" for i in range(sizes[-1])]
    return build_gaf(structure, weights, biases, names, labels), rng


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(layered_classifiers())
def test_prune_keeps_exactly_the_edges_into_live_units(drawn):
    gaf, rng = drawn
    # reference: an argument is live when it is an output or has an edge to a live one
    reach = {a.id for a in gaf.layers[-1]}
    for layer in reversed(gaf.layers[:-1]):
        for arg in layer:
            if any(e.source == arg.id and e.target in reach for e in gaf.edges):
                reach.add(arg.id)
    live = live_units(MaskedNet.from_gaf(gaf).structure)
    assert [[a.id in reach for a in layer] for layer in gaf.layers] == [f.tolist() for f in live]

    pruned = prune_inert_edges(gaf)
    assert pruned.edges == tuple(e for e in gaf.edges if e.target in reach)
    assert (pruned is gaf) == (len(pruned.edges) == len(gaf.edges))
    batch = rng.uniform(size=(8, gaf.layer_sizes[0]))
    assert np.array_equal(output_distributions(gaf, batch), output_distributions(pruned, batch))
