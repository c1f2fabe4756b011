"""The traced run: spans on gaflearn's modules and the per-layer metrics.

Layers are the package's modules: data, ga, train, graph, model_io,
baselines and experiment (``cli`` only wraps ``experiment``). Spans are
installed on the names each caller looks up, listed in ``SPANS``. A name
that a later version of gaflearn no longer has is reported and skipped.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Tracer, training_observer

import workloads as wl

# The per-layer metrics each workload reports: name -> (unit, better).
METRICS = {
    "data.load_csv_ms": ("ms", "lower"),
    "data.binarize_ms": ("ms", "lower"),
    "data.split_ms": ("ms", "lower"),
    "data.rows_dropped": ("count", "lower"),
    "ga.generations": ("count", "lower"),
    "ga.individuals": ("count", "lower"),
    "ga.trainings": ("count", "lower"),
    "ga.repeat_trainings": ("count", "lower"),
    "ga.useful_frac": ("frac", "higher"),
    "ga.evaluate_ms": ("ms", "lower"),
    "ga.operators_ms": ("ms", "lower"),
    "ga.pool_busy_frac": ("frac", "higher"),
    "train.calls": ("count", "lower"),
    "train.epochs": ("count", "lower"),
    "train.steps": ("count", "lower"),
    "train.epochs_per_call.p50": ("count", "lower"),
    "train.epochs_per_call.max": ("count", "lower"),
    "train.early_stop_frac": ("frac", "higher"),
    "train.call_ms.p50": ("ms", "lower"),
    "train.call_ms.p99": ("ms", "lower"),
    "train.epoch_us": ("us", "lower"),
    "train.gradients_us": ("us", "lower"),
    "train.adam_step_us": ("us", "lower"),
    "train.forward_loss_us": ("us", "lower"),
    "train.accuracy_us": ("us", "lower"),
    "graph.build_gaf_ms": ("ms", "lower"),
    "graph.prune_ms": ("ms", "lower"),
    "graph.output_distributions_ms": ("ms", "lower"),
    "graph.evaluate_us": ("us", "lower"),
    "model_io.to_json_ms": ("ms", "lower"),
    "model_io.from_json_ms": ("ms", "lower"),
    "model_io.to_dot_ms": ("ms", "lower"),
    "model_io.bytes": ("count", "lower"),
    "baselines.train_logistic_ms": ("ms", "lower"),
    "baselines.train_tree_ms": ("ms", "lower"),
    "baselines.evaluate_metrics_ms": ("ms", "lower"),
    "experiment.self_ms": ("ms", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.layers_frac": ("frac", "lower"),
}

GA_OPERATORS = ("ga.select", "ga.crossover", "ga.mutate", "ga.replace")


def _observe_rows_dropped(tracer, args, raw, seconds):
    tracer.observed["rows_dropped"].append(raw.n_dropped)


def _observe_individuals(tracer, args, population, seconds):
    tracer.observed["individuals"].append(len(population))


def _observe_bytes(tracer, args, text, seconds):
    tracer.observed["bytes"].append(len(text.encode("utf-8")))


# (module, attribute, span name, result hook)
SPANS = (
    ("gaflearn.experiment", "load_experiment_config", "experiment.load_config", None),
    ("gaflearn.experiment", "run_training_experiment", "experiment.run_training_experiment", None),
    ("gaflearn.experiment", "run_baseline_experiment", "experiment.run_baseline_experiment", None),
    ("gaflearn.experiment", "load_schema", "data.load_schema", None),
    ("gaflearn.experiment", "load_csv", "data.load_csv", _observe_rows_dropped),
    ("gaflearn.experiment", "binarize", "data.binarize", None),
    ("gaflearn.experiment", "split_stratified", "data.split", None),
    ("gaflearn.experiment", "evolve", "ga.evolve", None),
    ("gaflearn.experiment", "to_classifier", "train.to_classifier", None),
    ("gaflearn.experiment", "prune_inert_edges", "graph.prune", None),
    ("gaflearn.experiment", "evaluate_metrics", "baselines.evaluate_metrics", None),
    ("gaflearn.experiment", "to_json", "model_io.to_json", _observe_bytes),
    ("gaflearn.experiment", "train_logistic", "baselines.train_logistic", None),
    ("gaflearn.experiment", "train_tree", "baselines.train_tree", None),
    ("gaflearn.ga", "init_population", "ga.init_population", None),
    ("gaflearn.ga", "_with_context", "ga.evaluate", _observe_individuals),
    ("gaflearn.ga", "tournament_select", "ga.select", None),
    ("gaflearn.ga", "k_point_crossover", "ga.crossover", None),
    ("gaflearn.ga", "flip_mutate", "ga.mutate", None),
    ("gaflearn.ga", "elitist_replace", "ga.replace", None),
    ("gaflearn.ga", "train_net", "train.train", training_observer("ga")),
    ("gaflearn.ga", "net_accuracy", "train.accuracy", None),
    ("gaflearn.baselines", "train", "train.train", training_observer("baseline")),
    ("gaflearn.baselines", "to_classifier", "train.to_classifier", None),
    ("gaflearn.train", "gradients", "train.gradients", None),
    ("gaflearn.train", "adam_step", "train.adam_step", None),
    ("gaflearn.train", "forward_loss", "train.forward_loss", None),
    ("gaflearn.train", "accuracy", "train.accuracy", None),
    ("gaflearn.train", "build_gaf", "graph.build_gaf", None),
    # the benchmark's read path calls these through their modules
    ("gaflearn.model_io", "from_json", "model_io.from_json", None),
    ("gaflearn.model_io", "to_dot", "model_io.to_dot", None),
    ("gaflearn.graph", "output_distributions", "graph.output_distributions", None),
    ("gaflearn.graph", "evaluate", "graph.evaluate", None),
    ("gaflearn.graph", "prune_inert_edges", "graph.prune", None),
)


class Spans:
    """The tracer plus which span sites exist in this gaflearn."""

    def __init__(self, spool: Path) -> None:
        spool.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer(spool)
        self.sites = []
        for module_name, attr, name, observe in SPANS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self.sites.append((module, attr, name, observe))
            else:
                print(f"perfbench: no {module_name}.{attr}; span {name} skipped", file=sys.stderr)

    def install(self) -> None:
        for module, attr, name, observe in self.sites:
            self.tracer.wrap(module, attr, name, observe)

    def uninstall(self) -> None:
        self.tracer.uninstall()


@dataclass
class TracedIteration:
    it: wl.Iteration
    layers_s: float  # parent time inside any span: the layers' summed self time
    trainings: list[dict]


def traced_iteration(spans: Spans, setup, master_seed: int, out: Path) -> TracedIteration:
    tracer = spans.tracer
    before = sum(tracer.parent.self_time.values())
    spans.install()
    try:
        it = wl.run_iteration(setup, master_seed, out, read_seconds=0.0)
    finally:
        spans.uninstall()
    tracer.collect_workers()
    layers_s = sum(tracer.parent.self_time.values()) - before
    trainings, tracer.trainings = tracer.trainings, []
    return TracedIteration(it, layers_s, trainings)


def per_layer_metrics(spans: Spans, pairs, workers: int) -> dict:
    tracer = spans.tracer
    n = len(pairs)

    def count(name):
        return tracer.parent.count.get(name, 0) + tracer.workers.count.get(name, 0)

    def total(name):
        return tracer.parent.total.get(name, 0.0) + tracer.workers.total.get(name, 0.0)

    def per_op_ms(*names):
        return sum(total(x) for x in names) / n * 1e3

    def per_call_us(name):
        return total(name) / count(name) * 1e6 if count(name) else 0.0

    calls = [t for _, traced in pairs for t in traced.trainings]
    ga_runs = [[t for t in traced.trainings if t["source"] == "ga"] for _, traced in pairs]
    ga_calls = [t for run in ga_runs for t in run]
    distinct = sum(len({t["key"] for t in run}) for run in ga_runs)
    epochs = [t["epochs"] for t in calls]
    call_ms = [t["seconds"] * 1e3 for t in calls]
    evolves = max(count("ga.evolve"), 1)
    evaluate_s = total("ga.evaluate")
    observed = tracer.observed

    values = {
        "data.load_csv_ms": per_op_ms("data.load_csv"),
        "data.binarize_ms": per_op_ms("data.binarize"),
        "data.split_ms": per_op_ms("data.split"),
        "data.rows_dropped": _mean(observed["rows_dropped"]),
        "ga.generations": (count("ga.evaluate") - count("ga.evolve")) / evolves,
        "ga.individuals": sum(observed["individuals"]) / evolves,
        "ga.trainings": len(ga_calls) / evolves,
        "ga.repeat_trainings": (len(ga_calls) - distinct) / evolves,
        "ga.useful_frac": distinct / len(ga_calls) if ga_calls else 0.0,
        "ga.evaluate_ms": per_call_us("ga.evaluate") / 1e3,
        "ga.operators_ms": sum(total(x) for x in GA_OPERATORS) / evolves * 1e3,
        "ga.pool_busy_frac": (
            sum(t["seconds"] for t in ga_calls) / (evaluate_s * workers) if evaluate_s else 0.0
        ),
        "train.calls": len(calls) / n,
        "train.epochs": sum(epochs) / n,
        "train.steps": count("train.gradients") / n,
        "train.epochs_per_call.p50": float(np.median(epochs)) if epochs else 0.0,
        "train.epochs_per_call.max": float(max(epochs, default=0)),
        "train.early_stop_frac": _mean([t["epochs"] < t["max_epochs"] for t in calls]),
        "train.call_ms.p50": float(np.percentile(call_ms, 50)) if calls else 0.0,
        "train.call_ms.p99": float(np.percentile(call_ms, 99)) if calls else 0.0,
        "train.epoch_us": sum(t["seconds"] for t in calls) / sum(epochs) * 1e6 if epochs else 0.0,
        "train.gradients_us": per_call_us("train.gradients"),
        "train.adam_step_us": per_call_us("train.adam_step"),
        "train.forward_loss_us": per_call_us("train.forward_loss"),
        "train.accuracy_us": per_call_us("train.accuracy"),
        "graph.build_gaf_ms": per_op_ms("graph.build_gaf"),
        "graph.prune_ms": per_op_ms("graph.prune"),
        "graph.output_distributions_ms": per_op_ms("graph.output_distributions"),
        "graph.evaluate_us": per_call_us("graph.evaluate"),
        "model_io.to_json_ms": per_op_ms("model_io.to_json"),
        "model_io.from_json_ms": per_op_ms("model_io.from_json"),
        "model_io.to_dot_ms": per_op_ms("model_io.to_dot"),
        "model_io.bytes": sum(observed["bytes"]) / n,
        "baselines.train_logistic_ms": per_op_ms("baselines.train_logistic"),
        "baselines.train_tree_ms": per_op_ms("baselines.train_tree"),
        "baselines.evaluate_metrics_ms": per_op_ms("baselines.evaluate_metrics"),
        "experiment.self_ms": sum(
            tracer.parent.self_time.get(x, 0.0)
            for x in ("experiment.run_training_experiment", "experiment.run_baseline_experiment")
        )
        / n
        * 1e3,
        "trace.overhead_frac": statistics.median(
            t.it.total_wall() / u.total_wall() - 1.0 for u, t in pairs
        ),
        "trace.layers_frac": statistics.median(t.layers_s / u.total_wall() for u, t in pairs),
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in METRICS.items()}


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def check_counters(root: Path, work: Path) -> int:
    """Full-settings Iris search, master seed 0, run 0, traced: the counts
    must equal those recorded for this code (192 trainings, 58 of them
    repeats of an earlier generation's structure, 64,022 epochs)."""
    exp = importlib.import_module("gaflearn.experiment")
    os.environ["GAF_THREADS"] = "1"
    spans = Spans(work / "spool")
    t0 = time.perf_counter()
    config = exp.load_experiment_config(root / "configs" / "iris.json", seed=0, runs=1, out=work / "out")
    spans.install()
    try:
        exp.run_training_experiment(config)
    finally:
        spans.uninstall()
    ga_calls = [t for t in spans.tracer.trainings if t["source"] == "ga"]
    got = {
        "trainings": len(ga_calls),
        "repeat_trainings": len(ga_calls) - len({t["key"] for t in ga_calls}),
        "epochs": sum(t["epochs"] for t in ga_calls),
    }
    want = {"trainings": 192, "repeat_trainings": 58, "epochs": 64022}
    print(f"iris run 0, master seed 0 ({time.perf_counter() - t0:.1f}s):")
    for key in want:
        print(f"  {key:18s} {got[key]:8d} count (expected {want[key]})")
    ok = got == want
    print(f"counters {'match' if ok else 'DIFFER'}")
    return 0 if ok else 1
