"""Workload definitions and the operation each benchmark iteration performs.

One iteration drives gaflearn the way its command line does: a seeded
structure search (``run_training_experiment``), the logistic and tree
baselines on the same splits (``run_baseline_experiment``), then the read
path: every written ``model.json`` plus a fixed set of seeded sparse models
is parsed again and scores the held-out rows. A run cycles through a
fixed number of master seeds ``derive_seed(seed, "iteration", j)``, so it
averages over several searches, repeats each one, and the same ``--seed``
always gives the same inputs.

The search settings are cut from the shipped configs so that one iteration
takes a few seconds (see ``WORKLOADS``). The cuts also make every iteration
of a workload the same amount of work whatever its seed: no training stops
early (Iris trainings run all 100 epochs, Adult trainings end before
``es_patience`` could stop them) and no search stops before its last
generation. Each iteration of a run is then a sample of the same work, and
the run reports the median.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from gaflearn import data as data_mod
from gaflearn import experiment as exp
from gaflearn import graph as graph_mod
from gaflearn import model_io
from gaflearn.util import derive_seed

from synth_adult import ADULT_ROWS, write_adult_like

# the package re-exports a function named ``train`` that shadows the
# submodule as an attribute, so fetch the module object itself
train_mod = importlib.import_module("gaflearn.train")

EVALUATE_SAMPLE = 20  # held-out rows scored one at a time through graph.evaluate
SEEDED_MODELS = 4
SEEDED_DENSITY = 0.15  # share of each block's possible edges that a seeded model has
# A read pass takes milliseconds on Iris and under a tenth of a second on
# Adult, shorter than the contention bursts of a shared machine. After the
# timed iteration the read path repeats for READ_SECONDS, timed in samples
# of whole passes lasting at least READ_SAMPLE_SECONDS, so that rows_per_s
# comes from many short samples spread over the whole run.
READ_SECONDS = 1.0
READ_SAMPLE_SECONDS = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # shipped config whose search and training settings are used
    threads: str  # GAF_THREADS: "1" or "nproc" (capped at the population size)
    cuts: dict  # overrides of the config's "ga" and "train" sections
    tree_max_depth: int | None
    seeds: int  # distinct master seeds a run cycles through
    synthetic_rows: int | None = None  # None: the bundled dataset
    smoke_cuts: dict = field(default_factory=dict)


WORKLOADS = {
    "iris-search": Workload(
        name="iris-search",
        config="iris.json",
        threads="1",
        cuts={"ga": {"generations": 2}, "train": {"max_epochs": 100, "es_patience": 100}},
        tree_max_depth=None,
        # criterion 5 judges its bars on the mean of ten runs
        seeds=10,
        smoke_cuts={"ga": {"population_size": 4, "generations": 1}, "train": {"max_epochs": 5}},
    ),
    "adult-minibatch": Workload(
        name="adult-minibatch",
        config="adult.json",
        threads="nproc",
        cuts={"ga": {"population_size": 6, "generations": 1}, "train": {"max_epochs": 3}},
        tree_max_depth=4,
        seeds=5,
        synthetic_rows=ADULT_ROWS,
        smoke_cuts={"ga": {"population_size": 4, "generations": 1}, "train": {"max_epochs": 1}},
    ),
}
SMOKE_ROWS = 3000


class CheckFailed(Exception):
    """An output of the program differs from what it must be."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def all_cores(population_size: int) -> str:
    """GAF_THREADS for "nproc": a generation never has more trainings than
    individuals, so a larger pool would only add idle processes."""
    return str(min(nproc(), population_size))


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@dataclass
class HeldOut:
    x: np.ndarray
    y: np.ndarray


@dataclass
class Setup:
    """Inputs generated for one run; none of this is timed."""

    workload: Workload
    work: Path
    config_path: Path
    raw: data_mod.RawDataset
    seeded_models: dict[Path, graph_mod.LayeredGaf]  # file -> the graph written to it
    info: dict
    _held_out: dict[int, HeldOut] = field(default_factory=dict)

    def held_out(self, master_seed: int) -> HeldOut:
        """The test rows of run 0 of an experiment with this master seed,
        binarized as the experiment binarizes them."""
        if master_seed not in self._held_out:
            self._held_out[master_seed] = self._make_held_out(master_seed)
        return self._held_out[master_seed]

    def _make_held_out(self, master_seed: int) -> HeldOut:
        cfg = exp.load_experiment_config(self.config_path, seed=master_seed, runs=1)
        labels = np.array(
            [self.raw.label_values.index(v) for v in self.raw.labels], dtype=np.int64
        )
        split = data_mod.split_stratified(
            self.raw.n_instances, labels, seed=exp.run_seed_for(master_seed, 0)
        )
        fit = split.train if cfg.bin_fit == "train" else None
        binz = data_mod.binarize(self.raw, cfg.bins_per_numeric, fit_indices=fit)
        rows = np.asarray(split.test, dtype=np.int64)
        return HeldOut(binz.matrix[rows], binz.labels[rows])


def prepare(workload: Workload, root: Path, work: Path, seed: int, smoke: bool) -> Setup:
    """Write the run's dataset, config and seeded models under ``work``."""
    doc = json.loads((root / "configs" / workload.config).read_text(encoding="utf-8"))
    info: dict = {}
    if workload.synthetic_rows is None:
        doc["dataset"] = str((root / "configs" / doc["dataset"]).resolve())
    else:
        rows = SMOKE_ROWS if smoke else workload.synthetic_rows
        table = write_adult_like(work / "adult.csv", seed, rows)
        doc["dataset"] = str(table.path)
        info.update(
            rows=table.rows, rows_with_missing=table.rows_with_missing, positives=table.positives
        )
    doc["schema"] = str((root / "configs" / doc["schema"]).resolve())
    doc["runs"] = 1
    for cuts in (workload.cuts, workload.smoke_cuts if smoke else {}):
        for section, values in cuts.items():
            doc[section].update(values)
    population = doc["ga"]["population_size"]
    info["gaf_threads"] = all_cores(population) if workload.threads == "nproc" else workload.threads
    info["settings"] = {"ga": doc["ga"], "train": doc["train"]}
    config_path = work / "config.json"
    config_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")

    raw = data_mod.load_csv(doc["dataset"], data_mod.load_schema(doc["schema"]))
    full = data_mod.binarize(raw, doc.get("bins_per_numeric", 3))
    info.update(rows_dropped=raw.n_dropped, input_width=int(full.matrix.shape[1]))
    if workload.synthetic_rows is not None:
        check(raw.n_dropped == info["rows_with_missing"], "dropped rows != rows with '?'")
    models = _write_seeded_models(work / "seeded", seed, full)
    return Setup(workload, work, config_path, raw, models, info)


def _write_seeded_models(out: Path, seed: int, binz) -> dict[Path, graph_mod.LayeredGaf]:
    """Sparse layered classifiers with random weights, including a skip block."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(derive_seed(seed, "seeded-models"))
    n_in, n_out = binz.matrix.shape[1], len(binz.label_names)
    models = {}
    for k in range(SEEDED_MODELS):
        sizes = (n_in, 12, n_out) if k % 2 == 0 else (n_in, 12, 6, n_out)
        pairs = [(i, i + 1) for i in range(len(sizes) - 1)]
        if len(sizes) > 3:
            pairs.append((0, 2))
        blocks, weights = [], []
        for src, dst in pairs:
            # a fixed edge count, so that the read path costs the same for every seed
            mask = np.zeros(sizes[src] * sizes[dst], dtype=bool)
            edges = round(SEEDED_DENSITY * mask.size)
            mask[rng.choice(mask.size, size=edges, replace=False)] = True
            mask = mask.reshape(sizes[src], sizes[dst])
            blocks.append((src, dst, mask))
            weights.append(rng.normal(0.0, 1.5, size=mask.shape) * mask)
        structure = graph_mod.GafStructure(sizes, tuple(blocks))
        biases = [rng.normal(0.0, 1.0, size=s) for s in sizes[1:]]
        gaf = graph_mod.build_gaf(
            structure, weights, biases, binz.input_argument_names, binz.label_names
        )
        path = out / f"seeded-{k}.json"
        path.write_text(model_io.to_json(gaf, {"seeded_model": k}), encoding="utf-8")
        models[path] = gaf
    return models


# -- one iteration ----------------------------------------------------------


@dataclass
class Scored:
    """What the read path produced for one model, checked after the timer."""

    path: Path
    text: str
    gaf: graph_mod.LayeredGaf
    metadata: dict
    distributions: np.ndarray
    predictions: np.ndarray
    single: list
    dot: str


def score_model(path: Path, held: HeldOut) -> Scored:
    text = path.read_text(encoding="utf-8")
    gaf, metadata = model_io.from_json(text)
    distributions = graph_mod.output_distributions(gaf, held.x)
    predictions = train_mod.MaskedNet.from_gaf(gaf).predict(held.x)
    single = [graph_mod.evaluate(gaf, row) for row in held.x[:EVALUATE_SAMPLE]]
    dot = model_io.to_dot(graph_mod.prune_inert_edges(gaf))
    return Scored(path, text, gaf, metadata, distributions, predictions, single, dot)


def check_scored(s: Scored, held: HeldOut, original: graph_mod.LayeredGaf | None) -> None:
    """``original`` is the graph the file was written from, when known."""
    name = s.path.name
    d = s.distributions
    check(d.shape == (held.x.shape[0], len(s.gaf.class_labels)), f"{name}: distribution shape")
    check(bool(np.isfinite(d).all()), f"{name}: non-finite class distribution")
    check(bool(np.allclose(d.sum(axis=1), 1.0, rtol=0, atol=1e-9)), f"{name}: rows do not sum to 1")
    again_text = model_io.to_json(s.gaf, s.metadata)
    check(again_text == s.text, f"{name}: model.json does not re-serialize byte-identically")
    again, _ = model_io.from_json(again_text)
    for other in (again, original):
        check(
            other is None or np.array_equal(graph_mod.output_distributions(other, held.x), d),
            f"{name}: distributions differ after a to_json/from_json round trip",
        )
    check(
        np.array_equal(s.predictions, np.argmax(d, axis=1)),
        f"{name}: MaskedNet.predict differs from the argmax of output_distributions",
    )
    for row, interp in enumerate(s.single):
        check(
            bool(np.allclose(interp.output_distribution, d[row], rtol=0, atol=1e-12)),
            f"{name}: evaluate() differs from output_distributions on held-out row {row}",
        )
    check(s.dot.startswith("digraph gaf {") and s.dot.endswith("}\n"), f"{name}: malformed DOT")


def _summary_row(path: Path) -> dict:
    header, first = path.read_text(encoding="utf-8").splitlines()[:2]
    return dict(zip(header.split(","), first.split(",")))


@dataclass
class Iteration:
    wall: dict[str, float] = field(default_factory=dict)  # seconds per phase
    cpu: dict[str, float] = field(default_factory=dict)  # CPU seconds per phase
    individuals: int = 0
    read_samples: list[float] = field(default_factory=list)  # seconds per pass, per sample
    rows_scored: int = 0
    test_accuracy: float = 0.0
    n_connections: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def total_wall(self) -> float:
        return sum(self.wall.values())


def run_iteration(
    setup: Setup,
    master_seed: int,
    out: Path,
    threads: str | None = None,
    read_seconds: float = READ_SECONDS,
) -> Iteration:
    """Search, baselines and one read pass for one master seed, then more
    read passes for ``read_seconds``, then the checks.

    Only calls into gaflearn sit inside the timed intervals; generating the
    held-out matrix and comparing outputs happen outside them.
    """
    it = Iteration()
    held = setup.held_out(master_seed)
    os.environ["GAF_THREADS"] = threads or setup.info["gaf_threads"]
    outs = {kind: out / kind for kind in ("gaf", "logistic", "tree")}
    depth = setup.workload.tree_max_depth

    paths = [outs["gaf"] / "run_00" / "model.json", outs["logistic"] / "run_00" / "model.json"]
    paths += list(setup.seeded_models)
    mark = [cpu_seconds(), time.perf_counter()]

    def end_phase(name: str) -> None:
        c, t = cpu_seconds(), time.perf_counter()
        it.cpu[name], it.wall[name] = c - mark[0], t - mark[1]
        mark[:] = [c, t]

    config = exp.load_experiment_config(setup.config_path, seed=master_seed, out=outs["gaf"])
    records = exp.run_training_experiment(config)
    end_phase("search")
    for kind in ("logistic", "tree"):
        cfg = exp.load_experiment_config(setup.config_path, seed=master_seed, out=outs[kind])
        exp.run_baseline_experiment(cfg, kind, max_depth=depth if kind == "tree" else None)
    end_phase("baselines")
    scored = [score_model(p, held) for p in paths]
    end_phase("read")
    end = time.perf_counter() + read_seconds
    while time.perf_counter() < end:
        t_read, passes = time.perf_counter(), 0
        while passes == 0 or time.perf_counter() - t_read < READ_SAMPLE_SECONDS:
            for p in paths:
                score_model(p, held)
            passes += 1
        it.read_samples.append((time.perf_counter() - t_read) / passes)

    it.attempted = 3  # the search and both baseline experiments completed
    ga = config.ga_config(0)
    n_offspring = ga.population_size - math.ceil(ga.elitist_fraction * ga.population_size)
    it.individuals = ga.population_size + records[0].generations_run * n_offspring
    it.rows_scored = len(paths) * held.x.shape[0]
    it.test_accuracy = records[0].test_accuracy
    it.n_connections = records[0].n_connections

    for s in scored:
        it.attempted += 1
        try:
            check_scored(s, held, setup.seeded_models.get(s.path))
            if s.path.parent.parent in (outs["gaf"], outs["logistic"]):
                summary = _summary_row(s.path.parent.parent / "summary.csv")
                accuracy = float(np.mean(s.predictions == held.y))
                check(
                    f"{accuracy:.6f}" == summary["test_accuracy"],
                    f"{s.path}: re-read model scores {accuracy:.6f}, "
                    f"summary.csv says {summary['test_accuracy']}",
                )
                check(
                    str(len(s.gaf.edges)) == summary["n_connections"],
                    f"{s.path}: edge count differs from summary.csv",
                )
        except CheckFailed as exc:
            it.failed += 1
            it.errors.append(str(exc))
    return it


def artifacts(out: Path) -> dict[str, bytes]:
    """The outputs that must not change between runs of the same seed."""
    names = [
        "gaf/summary.csv",
        "gaf/run_00/model.json",
        "gaf/run_00/generations.csv",
        "logistic/summary.csv",
        "logistic/run_00/model.json",
        "tree/summary.csv",
    ]
    return {n: (out / n).read_bytes() for n in names}
