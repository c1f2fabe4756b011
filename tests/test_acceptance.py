"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a `criterion N: PASS/FAIL (detail)` line and enforces the
stated tolerances and time budgets. Run with `pytest tests/test_acceptance.py
-v -s -rs` to see every line; skipped criteria state their reason.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gaflearn.data import binarize, load_csv, load_schema, split_stratified
from gaflearn.experiment import (
    load_experiment_config,
    run_baseline_experiment,
    run_seed_for,
    run_training_experiment,
)
from gaflearn.ga import (
    GaConfig,
    chromosome_length,
    decode,
    fitness,
    flip_mutate,
    k_point_crossover,
    evolve,
)
from gaflearn.graph import Argument, LayeredGaf, WeightedEdge, evaluate, output_distributions
from gaflearn.model_io import from_json, to_json
from gaflearn.train import MaskedNet, TrainConfig, forward_loss, gradients
from gaflearn.util import derive_seed, softmax_rows

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
DATA = ROOT / "data"
# configs/iris.json's summary.csv and generations.csv files at master seed 0,
# run 0's model.json without its metadata, the summary.csv of its unlimited
# (tree/) and depth-3 (tree-depth3/) trees, and the logistic baseline's
# summary.csv and run 0 model.json without its metadata (logistic/)
IRIS_REFERENCE = Path(__file__).resolve().parent / "reference" / "iris_seed0"
# numpy's SIMD exp and log differ between builds and CPUs by a few ULP, which
# moved trained model.json values by at most 4.7e-12 relative when the
# runtime changed from scipy's to numpy's; off the recorded numpy build the
# pin allows a little over 20 times that, relative to the value or to 1,
# whichever is larger
PIN_RTOL = 1e-10


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: analytic gradients vs central finite differences ---------


def test_criterion_1_gradient_check():
    start = time.perf_counter()
    rng = np.random.default_rng(derive_seed("acceptance", "gradients"))
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        n_hidden = int(rng.integers(0, 3))
        sizes = (
            int(rng.integers(2, 6)),
            *(int(rng.integers(2, 7)) for _ in range(n_hidden)),
            int(rng.integers(2, 5)),
        )
        bits = rng.integers(0, 2, size=chromosome_length(sizes), dtype=np.uint8)
        structure = decode(bits, sizes)
        weights = [rng.uniform(-2.0, 2.0, size=m.shape) for _, _, m in structure.blocks]
        biases = [rng.uniform(-1.0, 1.0, size=s) for s in sizes[1:]]
        net = MaskedNet(structure, weights, biases)
        batch = int(rng.integers(1, 7))
        x = rng.uniform(0.0, 1.0, size=(batch, sizes[0]))
        y = rng.integers(0, sizes[-1], size=batch)

        grad_w, grad_b = gradients(net, x, y)

        def fd_pair(array, index):
            orig = array[index]
            array[index] = orig + h
            lp, _ = forward_loss(net, x, y)
            array[index] = orig - h
            lm, _ = forward_loss(net, x, y)
            array[index] = orig
            return (lp - lm) / (2.0 * h)

        for bi, (_, _, mask) in enumerate(net.structure.blocks):
            for i, j in zip(*np.nonzero(mask)):
                fd = fd_pair(net.weights[bi], (i, j))
                a = grad_w[bi][i, j]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
        for li, bias in enumerate(net.biases):
            for j in range(bias.shape[0]):
                fd = fd_pair(bias, j)
                a = grad_b[li][j]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.3e} over 100 random graphs in {elapsed:.1f}s",
    )


# -- criterion 2: semantics unit suite --------------------------------------


def two_node(weight, beta_out=0.5):
    layers = [
        [Argument("a0_0", "x", 0, 0.5)],
        [Argument("a1_0", "y", 1, beta_out)],
    ]
    return LayeredGaf(layers, [WeightedEdge("a0_0", "a1_0", weight)])


def test_criterion_2_semantics_suite():
    start = time.perf_counter()
    sigma = lambda v: 1.0 / (1.0 + math.exp(-v))  # noqa: E731

    # no incoming edges: strength stays exactly at the base score
    layers = [
        [Argument("a0_0", "x", 0, 0.5)],
        [Argument("a1_0", "m", 1, 0.37)],
        [Argument("a2_0", "u", 2, 0.5), Argument("a2_1", "v", 2, 0.5)],
    ]
    gaf = LayeredGaf(
        layers, [WeightedEdge("a0_0", "a2_0", 1.0)], class_labels=("u", "v")
    )
    identity_ok = evaluate(gaf, [0.9]).strengths["a1_0"] == 0.37

    # base scores 0 and 1 absorb any attack or support
    absorb_ok = True
    for beta, expected in ((0.0, 0.0), (1.0, 1.0)):
        for w in (-10.0, 10.0):
            absorb_ok &= (
                evaluate(two_node(w, beta_out=beta), [1.0]).strengths["a1_0"]
                == expected
            )

    # single support / attack match the scalar logistic oracle
    err = abs(evaluate(two_node(1.0), [1.0]).strengths["a1_0"] - sigma(1.0))
    err = max(err, abs(evaluate(two_node(-1.0), [1.0]).strengths["a1_0"] - sigma(-1.0)))
    mixed = evaluate(two_node(2.0, beta_out=0.25), [0.5]).strengths["a1_0"]
    err = max(err, abs(mixed - sigma(math.log(0.25 / 0.75) + 2.0 * 0.5)))

    # softmax rows normalize, including rows with infinities
    rng = np.random.default_rng(derive_seed("acceptance", "softmax"))
    z = rng.normal(scale=5.0, size=(50, 4))
    z = np.vstack([z, [np.inf, 0.0, -1.0, 2.0], [-np.inf] * 4, [np.inf, np.inf, 0.0, 0.0]])
    softmax_err = float(np.abs(softmax_rows(z).sum(axis=1) - 1.0).max())

    elapsed = time.perf_counter() - start
    report(
        2,
        identity_ok
        and absorb_ok
        and err < 1e-12
        and softmax_err < 1e-9
        and elapsed < 1.0,
        f"oracle error {err:.2e}, softmax error {softmax_err:.2e}, {elapsed:.2f}s",
    )


# -- criterion 3: GA operator properties ------------------------------------


def test_criterion_3_ga_operator_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(derive_seed("acceptance", "ga-ops"))

    # best fitness never decreases across 20 generations (elitism)
    data_rng = np.random.default_rng(derive_seed("acceptance", "ga-data"))
    x = data_rng.integers(0, 2, size=(60, 3)).astype(np.float64)
    y = x[:, 0].astype(np.int64)
    ga_cfg = GaConfig(
        population_size=8,
        generations=20,
        crossover_rate=0.9,
        mutation_rate=0.01,
        elitist_fraction=0.15,
        lam=0.2,
        n_conn_init=(3, 2),
        ga_patience=25,
        ga_tolerance=0.0,
        seed=5,
    )
    train_cfg = TrainConfig(learning_rate=0.5, max_epochs=40, es_patience=3)
    best, log = evolve(x[:40], y[:40], x[40:50], y[40:50], (3, 4, 2), ga_cfg, train_cfg)
    monotone = all(
        log[i + 1].best_fitness >= log[i].best_fitness for i in range(len(log) - 1)
    )
    ran_full = log[-1].generation == 20

    # crossover conserves every locus pair over 10,000 random trials
    conserved = True
    for _ in range(10_000):
        length = int(rng.integers(8, 41))
        p1 = rng.integers(0, 2, length, dtype=np.uint8)
        p2 = rng.integers(0, 2, length, dtype=np.uint8)
        k = int(rng.integers(1, min(4, length - 1) + 1))
        c1, c2 = k_point_crossover(p1, p2, k, rng, crossover_rate=1.0)
        if not np.array_equal(c1 + c2, p1 + p2):
            conserved = False
            break

    # mutation flip count falls in the binomial 4-sigma band
    n_bits, rate = 100_000, 1e-3
    zeros = np.zeros(n_bits, dtype=np.uint8)
    flips = int(flip_mutate(zeros, rate, rng).sum())
    mean, sd = n_bits * rate, math.sqrt(n_bits * rate * (1.0 - rate))
    in_band = mean - 4.0 * sd <= flips <= mean + 4.0 * sd

    # the evolved best's fitness recomputes bit-exactly from its parts
    lam = ga_cfg.lam
    recomputed = (1.0 - lam) * best.result.train_accuracy + lam * (
        len(best.bits) - best.n_connections
    ) / len(best.bits)
    eq1_exact = best.fitness == recomputed and best.fitness == fitness(
        best.result.train_accuracy, best.n_connections, len(best.bits), lam
    )

    elapsed = time.perf_counter() - start
    report(
        3,
        monotone and ran_full and conserved and in_band and eq1_exact and elapsed < 30.0,
        f"monotone={monotone}, conserved={conserved}, flips={flips} in "
        f"[{mean - 4 * sd:.0f}, {mean + 4 * sd:.0f}]={in_band}, eq1_exact={eq1_exact}, "
        f"{elapsed:.1f}s",
    )


# -- criterion 4: fitness extremes ------------------------------------------


def iris_split(seed):
    schema = load_schema(CONFIGS / "iris.schema.json")
    raw = load_csv(DATA / "iris.csv", schema)
    binz = binarize(raw, 3)
    split = split_stratified(binz.n_instances, binz.labels, seed=seed)
    x, y = binz.matrix, binz.labels
    tr, va = list(split.train), list(split.validation)
    return x[tr], y[tr], x[va], y[va], x.shape[1], len(binz.label_names)


def test_criterion_4_fitness_extremes():
    start = time.perf_counter()
    x_train, y_train, x_val, y_val, n_in, n_out = iris_split(derive_seed("acceptance", 4))

    # lambda=1: only sparsity matters, so evolution empties the graph.
    # A compact structure keeps the bit-removal odds high enough for the
    # 20-generation bound; the objective extreme is what is under test.
    ga_cfg = GaConfig(
        population_size=20,
        generations=20,
        crossover_rate=0.9,
        mutation_rate=0.03,
        elitist_fraction=0.1,
        lam=1.0,
        n_conn_init=(4, 2),
        ga_patience=25,
        ga_tolerance=0.0,
        seed=41,
    )
    train_cfg = TrainConfig(learning_rate=0.03, max_epochs=500, es_patience=5)
    best, log = evolve(
        x_train, y_train, x_val, y_val, (n_in, 2, n_out), ga_cfg, train_cfg
    )
    empty_ok = best.n_connections == 0 and best.fitness == 1.0
    gens_used = log[-1].generation

    # lambda=0: fitness is exactly the train accuracy, nothing else
    ga_zero = GaConfig(
        population_size=8,
        generations=3,
        crossover_rate=0.9,
        mutation_rate=0.01,
        elitist_fraction=0.15,
        lam=0.0,
        n_conn_init=(6, 4),
        ga_patience=25,
        ga_tolerance=0.0,
        seed=17,
    )
    best0, log0 = evolve(
        x_train, y_train, x_val, y_val, (n_in, 12, n_out), ga_zero, train_cfg
    )
    lam0_ok = best0.fitness == best0.result.train_accuracy and all(
        s.best_fitness == s.best_accuracy for s in log0
    )

    elapsed = time.perf_counter() - start
    report(
        4,
        empty_ok and lam0_ok and elapsed < 120.0,
        f"lambda=1 reached {best.n_connections} connections in {gens_used} generations, "
        f"lambda=0 fitness==accuracy={lam0_ok}, {elapsed:.1f}s",
    )


# -- criteria 5 and 8: Iris reproduction and determinism --------------------


@pytest.fixture(scope="module")
def iris_experiment(tmp_path_factory):
    base = tmp_path_factory.mktemp("iris_acceptance")
    start = time.perf_counter()
    config = load_experiment_config(CONFIGS / "iris.json", out=base / "gaf")
    records = run_training_experiment(config)
    elapsed = time.perf_counter() - start
    summary = (base / "gaf" / "summary.csv").read_bytes()
    return records, summary, elapsed, base


def test_criterion_5_iris_reproduction(iris_experiment):
    records, _, elapsed, base = iris_experiment
    logistic = run_baseline_experiment(
        load_experiment_config(CONFIGS / "iris.json", out=base / "logistic"), "logistic"
    )
    mean_acc = float(np.mean([r.test_accuracy for r in records]))
    mean_conn = float(np.mean([r.n_connections for r in records]))
    logit_acc = float(np.mean([r.test_accuracy for r in logistic]))
    report(
        5,
        mean_acc >= 0.90
        and mean_conn <= 15.0
        and mean_acc >= logit_acc - 0.01
        and elapsed < 900.0,
        f"mean accuracy {mean_acc:.4f} (logistic {logit_acc:.4f}), "
        f"mean connections {mean_conn:.1f}, {elapsed:.0f}s for 10 runs",
    )


def test_criterion_8_determinism(iris_experiment):
    _, first_summary, _, base = iris_experiment
    config = load_experiment_config(CONFIGS / "iris.json", out=base / "gaf_repeat")
    run_training_experiment(config)
    second_summary = (base / "gaf_repeat" / "summary.csv").read_bytes()
    identical = first_summary == second_summary
    report(
        8,
        identical,
        "rerun with the same master seed produced a byte-identical summary.csv"
        if identical
        else "summaries differ between identically-seeded executions",
    )


def test_iris_seed0_matches_the_reference_files(iris_experiment):
    # a change that alters the models replaces these files and says why;
    # model.json is pinned apart, as its full-precision floats can move
    # with the numpy build
    base = iris_experiment[3] / "gaf"
    names = ["summary.csv", *(f"run_{r:02d}/generations.csv" for r in range(10))]
    differ = [n for n in names if (base / n).read_bytes() != (IRIS_REFERENCE / n).read_bytes()]
    assert not differ, f"differ from {IRIS_REFERENCE}: {differ}"


def _floats_apart(text: str) -> tuple[dict, np.ndarray]:
    """A model document with each float read as 0.0, and the floats in order."""
    floats: list[float] = []

    def read(token: str) -> float:
        floats.append(float(token))
        return 0.0

    return json.loads(text, parse_float=read), np.array(floats)


def assert_model_matches_the_pin(model: Path, pin: Path, what: str) -> None:
    """The model file's graph, written by to_json without metadata, equals
    the pinned text: exact on the numpy build and CPU features recorded in
    run_00/numpy.json, and within PIN_RTOL elsewhere; prints which ran."""
    gaf, _ = from_json(model.read_text())
    got = to_json(gaf)
    pinned = pin.read_text()
    record = json.loads((IRIS_REFERENCE / "run_00" / "numpy.json").read_text())
    exact = (
        np.__version__ == record["numpy"]
        and np.show_config(mode="dicts")["SIMD Extensions"] == record["simd_extensions"]
    )
    if exact:
        print(f"{what}: exact comparison (numpy {np.__version__}, recorded SIMD)")
        assert got == pinned
        return
    print(f"{what}: relative tolerance {PIN_RTOL} (numpy {np.__version__})")
    (got_doc, a), (pinned_doc, b) = _floats_apart(got), _floats_apart(pinned)
    assert got_doc == pinned_doc and a.shape == b.shape
    assert np.all(np.abs(a - b) <= PIN_RTOL * np.maximum(np.abs(b), 1.0))


def test_iris_seed0_run0_parameters_match_the_pin(iris_experiment):
    assert_model_matches_the_pin(
        iris_experiment[3] / "gaf" / "run_00" / "model.json",
        IRIS_REFERENCE / "run_00" / "model.json",
        "run 0 parameters",
    )


def test_iris_exported_models_reproduce_their_summary_rows(iris_experiment):
    # every run's model.json, read back and scored on its own binarized test
    # rows, gives the test accuracy and edge count that summary.csv reports
    base = iris_experiment[3] / "gaf"
    config = load_experiment_config(CONFIGS / "iris.json")
    raw = load_csv(config.dataset_path, load_schema(config.schema_path))
    labels = raw.label_indices()
    with open(base / "summary.csv", newline="") as f:
        rows = list(csv.DictReader(f))[: config.runs]  # the mean and std rows follow
    assert [row["run"] for row in rows] == [str(r) for r in range(config.runs)]
    for r, row in enumerate(rows):
        split = split_stratified(
            raw.n_instances, labels, seed=run_seed_for(config.seed, r), label_names=raw.label_values
        )
        binz = binarize(raw, config.bins_per_numeric, fit_indices=split.train)
        test = np.asarray(split.test, dtype=np.int64)
        x, y = binz.matrix[test], binz.labels[test]
        gaf, _ = from_json((base / f"run_{r:02d}" / "model.json").read_text(encoding="utf-8"))
        predictions = MaskedNet.from_gaf(gaf).predict(x)
        assert f"{np.mean(predictions == y):.6f}" == row["test_accuracy"], f"run {r}"
        assert str(len(gaf.edges)) == row["n_connections"], f"run {r}"
        assert np.array_equal(predictions, np.argmax(output_distributions(gaf, x), axis=1))


@pytest.mark.parametrize(
    "name, max_depth", [("tree", None), ("tree-depth3", 3)], ids=["tree", "tree-depth3"]
)
def test_iris_seed0_tree_baselines_match_the_reference_files(tmp_path, name, max_depth):
    config = load_experiment_config(CONFIGS / "iris.json", out=tmp_path / name)
    run_baseline_experiment(config, "tree", max_depth=max_depth)
    summary = (tmp_path / name / "summary.csv").read_bytes()
    assert summary == (IRIS_REFERENCE / name / "summary.csv").read_bytes()


def test_iris_seed0_logistic_baseline_matches_the_reference_file(tmp_path):
    # the one caller whose stack is fully connected: it trains on x_train
    # as given, where every other stack trains on a block of its nets' live
    # input columns
    config = load_experiment_config(CONFIGS / "iris.json", out=tmp_path / "logistic")
    run_baseline_experiment(config, "logistic")
    summary = (tmp_path / "logistic" / "summary.csv").read_bytes()
    assert summary == (IRIS_REFERENCE / "logistic" / "summary.csv").read_bytes()
    assert_model_matches_the_pin(
        tmp_path / "logistic" / "run_00" / "model.json",
        IRIS_REFERENCE / "logistic" / "run_00" / "model.json",
        "logistic run 0 parameters",
    )


# -- criterion 6: Mushroom reproduction (needs the fetched dataset) ---------

MUSHROOM_CSV = DATA / "mushroom.csv"


@pytest.mark.skipif(
    not MUSHROOM_CSV.is_file(),
    reason="criterion 6: SKIP (data/mushroom.csv not present; run "
    "scripts/fetch_datasets.py with network access, then rerun)",
)
def test_criterion_6_mushroom_reproduction(tmp_path):
    start = time.perf_counter()
    gaf_recs = run_training_experiment(
        load_experiment_config(CONFIGS / "mushroom.json", out=tmp_path / "gaf")
    )
    tree_full = run_baseline_experiment(
        load_experiment_config(CONFIGS / "mushroom.json", out=tmp_path / "tree_full"),
        "tree",
    )
    tree3 = run_baseline_experiment(
        load_experiment_config(CONFIGS / "mushroom.json", out=tmp_path / "tree3"),
        "tree",
        max_depth=3,
    )
    logistic = run_baseline_experiment(
        load_experiment_config(CONFIGS / "mushroom.json", out=tmp_path / "logistic"),
        "logistic",
    )
    gaf_acc = float(np.mean([r.test_accuracy for r in gaf_recs]))
    full_acc = float(np.mean([r.test_accuracy for r in tree_full]))
    tree3_acc = float(np.mean([r.test_accuracy for r in tree3]))
    logit_acc = float(np.mean([r.test_accuracy for r in logistic]))
    elapsed = time.perf_counter() - start
    report(
        6,
        full_acc >= 0.999
        and gaf_acc >= tree3_acc - 0.02
        and gaf_acc > logit_acc
        and elapsed < 3600.0,
        f"unlimited tree {full_acc:.4f}, GAF {gaf_acc:.4f}, depth-3 tree "
        f"{tree3_acc:.4f}, logistic {logit_acc:.4f}, {elapsed:.0f}s",
    )


# -- criterion 7: Adult reproduction (optional) ------------------------------


def test_criterion_7_adult_reproduction():
    pytest.skip(
        "criterion 7: SKIP (optional at desk scale: 48,842 instances x population "
        "100 is hours of compute; configs/adult.json is provided for full runs)"
    )
