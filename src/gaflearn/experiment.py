"""Multi-run experiment orchestration with on-disk artifacts.

An experiment is described by a JSON config (dataset + schema paths, search
and training hyperparameters, run count, master seed). Each run derives its
own seed, draws a fresh stratified split, evolves a classifier, and reports
test metrics. Everything except wall-clock time is a pure function of the
config, so summary files are byte-identical across repeats.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .baselines import Metrics, evaluate_metrics, train_logistic, train_tree
from .data import (
    BinarizedDataset,
    binarize,
    load_csv,
    load_schema,
    raw_feature_matrix,
    split_stratified,
)
from .errors import ConfigError
from .ga import GaConfig, GenerationStats, evolve
from .graph import prune_inert_edges
from .model_io import to_json
from .train import MaskedNet, TrainConfig, to_classifier
from .util import derive_seed

SUMMARY_COLUMNS = (
    "run",
    "seed",
    "test_accuracy",
    "test_precision_macro",
    "test_recall_macro",
    "n_connections",
    "generations_run",
)

_TOP_KEYS = {
    "dataset",
    "schema",
    "runs",
    "seed",
    "out",
    "bins_per_numeric",
    "bin_fit",
    "hidden_layers",
    "tree_features",
    "ga",
    "train",
}
_GA_KEYS = {
    "population_size",
    "generations",
    "crossover_rate",
    "mutation_rate",
    "elitist_fraction",
    "lambda",
    "n_conn_init",
    "q",
    "k",
    "ga_patience",
    "ga_tolerance",
}
_TRAIN_KEYS = {"learning_rate", "max_epochs", "es_patience", "es_tolerance", "batch_size"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (paths absolute, overrides applied)."""

    dataset_path: Path
    schema_path: Path
    out_dir: Path
    runs: int
    seed: int
    bins_per_numeric: int
    bin_fit: str  # "train" fits numeric thresholds per run, "all" on every row
    hidden_layers: tuple[int, ...]
    tree_features: str  # "binarized" or "raw"
    ga_args: dict
    train_args: dict

    def ga_config(self, seed: int) -> GaConfig:
        return GaConfig(seed=seed, **self.ga_args)

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(seed=seed, **self.train_args)

    def as_dict(self) -> dict:
        ga = dict(self.ga_args)
        ga["lambda"] = ga.pop("lam")
        ga["n_conn_init"] = list(ga["n_conn_init"])
        return {
            "dataset": str(self.dataset_path),
            "schema": str(self.schema_path),
            "out": str(self.out_dir),
            "runs": self.runs,
            "seed": self.seed,
            "bins_per_numeric": self.bins_per_numeric,
            "bin_fit": self.bin_fit,
            "hidden_layers": list(self.hidden_layers),
            "tree_features": self.tree_features,
            "ga": ga,
            "train": dict(self.train_args),
        }


def _require(doc: dict, key: str, path: Path):
    if key not in doc:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return doc[key]


def _as_int(value, name: str, path: Path, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: {name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: {name} must be >= {minimum}, got {value}")
    return value


def _as_str(value, name: str, path: Path) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: {name} must be a non-empty string, got {value!r}")
    return value


def load_experiment_config(
    path: str | Path,
    *,
    seed: int | None = None,
    runs: int | None = None,
    out: str | Path | None = None,
    lam: float | None = None,
    bin_fit: str | None = None,
) -> ExperimentConfig:
    """Read a JSON experiment config; keyword arguments override its fields.

    Relative paths inside the config resolve against the config file's
    directory; a relative ``out`` override resolves against the working
    directory, since it comes from the command line.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"config path is a directory: {path}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(doc) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")

    base = path.resolve().parent

    def resolve(p: str | Path) -> Path:
        q = Path(p)
        return q if q.is_absolute() else base / q

    dataset_path = resolve(_as_str(_require(doc, "dataset", path), "dataset", path))
    schema_path = resolve(_as_str(_require(doc, "schema", path), "schema", path))
    if not dataset_path.is_file():
        raise ConfigError(f"dataset file not found: {dataset_path}")
    if not schema_path.is_file():
        raise ConfigError(f"schema file not found: {schema_path}")

    runs_val = runs if runs is not None else doc.get("runs", 10)
    runs_val = _as_int(runs_val, "runs", path, 1)
    seed_val = seed if seed is not None else doc.get("seed", 0)
    seed_val = _as_int(seed_val, "seed", path, 0)

    if out is not None:
        out_dir = Path(out)
    elif "out" in doc:
        out_dir = resolve(_as_str(doc["out"], "out", path))
    else:
        out_dir = Path("out") / path.stem

    bins = _as_int(doc.get("bins_per_numeric", 3), "bins_per_numeric", path, 2)

    fit_val = bin_fit if bin_fit is not None else doc.get("bin_fit", "train")
    if fit_val not in ("train", "all"):
        raise ConfigError(f"{path}: bin_fit must be 'train' or 'all', got {fit_val!r}")

    hidden_raw = doc.get("hidden_layers", [12])
    if not isinstance(hidden_raw, list):
        raise ConfigError(f"{path}: hidden_layers must be a list of integers")
    hidden = tuple(_as_int(h, "hidden layer size", path, 1) for h in hidden_raw)

    tree_feats = doc.get("tree_features", "binarized")
    if tree_feats not in ("binarized", "raw"):
        raise ConfigError(
            f"{path}: tree_features must be 'binarized' or 'raw', got {tree_feats!r}"
        )

    ga_doc = _require(doc, "ga", path)
    if not isinstance(ga_doc, dict):
        raise ConfigError(f"{path}: 'ga' must be an object")
    unknown = sorted(set(ga_doc) - _GA_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown ga keys {unknown}")
    ga_args = {("lam" if k == "lambda" else k): v for k, v in ga_doc.items()}
    if lam is not None:
        ga_args["lam"] = lam

    train_doc = _require(doc, "train", path)
    if not isinstance(train_doc, dict):
        raise ConfigError(f"{path}: 'train' must be an object")
    unknown = sorted(set(train_doc) - _TRAIN_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown train keys {unknown}")
    train_args = dict(train_doc)

    config = ExperimentConfig(
        dataset_path=dataset_path,
        schema_path=schema_path,
        out_dir=out_dir,
        runs=runs_val,
        seed=seed_val,
        bins_per_numeric=bins,
        bin_fit=fit_val,
        hidden_layers=hidden,
        tree_features=tree_feats,
        ga_args=ga_args,
        train_args=train_args,
    )
    # constructing the dataclasses validates hyperparameter types and ranges
    try:
        config.ga_config(0)
        config.train_config(0)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config


@dataclass(frozen=True)
class RunRecord:
    """One row of an experiment summary."""

    run: int
    seed: int
    test_accuracy: float
    test_precision_macro: float
    test_recall_macro: float
    n_connections: int
    generations_run: int
    wall_seconds: float


def run_seed_for(master_seed: int, run: int) -> int:
    return derive_seed(master_seed, "run", run)


def _take(matrix: np.ndarray, labels: np.ndarray, indices: Sequence[int]):
    idx = np.asarray(indices, dtype=np.int64)
    return matrix[idx], labels[idx]


def _summary_lines(records: Sequence[RunRecord]) -> list[str]:
    lines = [",".join(SUMMARY_COLUMNS)]
    for r in records:
        lines.append(
            f"{r.run},{r.seed},{r.test_accuracy:.6f},{r.test_precision_macro:.6f},"
            f"{r.test_recall_macro:.6f},{r.n_connections},{r.generations_run}"
        )
    stats = np.array(
        [
            [
                r.test_accuracy,
                r.test_precision_macro,
                r.test_recall_macro,
                r.n_connections,
                r.generations_run,
            ]
            for r in records
        ],
        dtype=np.float64,
    )
    means = stats.mean(axis=0)
    stds = stats.std(axis=0, ddof=1) if len(records) > 1 else np.zeros(stats.shape[1])
    lines.append("mean,," + ",".join(f"{v:.6f}" for v in means))
    lines.append("std,," + ",".join(f"{v:.6f}" for v in stds))
    return lines


def write_summary_csv(path: Path, records: Sequence[RunRecord]) -> None:
    path.write_text("\n".join(_summary_lines(records)) + "\n", encoding="utf-8")


def write_timings_csv(path: Path, records: Sequence[RunRecord]) -> None:
    lines = ["run,wall_seconds"]
    lines.extend(f"{r.run},{r.wall_seconds:.3f}" for r in records)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_generations_csv(path: Path, log: Sequence[GenerationStats]) -> None:
    lines = ["generation,best_fitness,mean_fitness,best_accuracy,best_connections"]
    lines.extend(
        f"{s.generation},{s.best_fitness:.6f},{s.mean_fitness:.6f},"
        f"{s.best_accuracy:.6f},{s.best_connections}"
        for s in log
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_resolved_config(config: ExperimentConfig, extra: dict) -> None:
    doc = config.as_dict()
    doc.update(extra)
    out = config.out_dir / "resolved_config.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class _Run:
    """One seeded run, as the run loop hands it to a fit function.

    ``train``, ``validation`` and ``test`` are (features, labels) pairs.
    """

    index: int
    seed: int
    binarized: BinarizedDataset | None  # None when a tree runs on raw columns
    train: tuple[np.ndarray, np.ndarray]
    validation: tuple[np.ndarray, np.ndarray]
    test: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class _Fitted:
    """What a fit function reports back for one run."""

    predictions: np.ndarray  # one class index per test row
    n_connections: int
    progress: str  # the model-size part of the run's echo line
    generations_run: int = 0
    # writes the run's artifacts into run_NN/, given its test metrics
    save: Callable[[Path, Metrics], None] | None = None


def _run_experiment(
    config: ExperimentConfig,
    fit: Callable[[_Run], _Fitted],
    echo: Callable[[str], None] | None,
    resolved: dict,
    raw_features: bool = False,
    announce: bool = False,
) -> list[RunRecord]:
    """Load the dataset, fit and score every seeded run, write the summary files.

    ``raw_features`` gives the fit the raw feature columns instead of the
    binarized indicators; ``announce`` echoes the dataset's shape first.
    ``resolved`` is merged into resolved_config.json.
    """
    say = echo if echo is not None else lambda _msg: None
    schema = load_schema(config.schema_path)
    raw = load_csv(config.dataset_path, schema)
    labels_all = raw.label_indices()
    n_classes = len(raw.label_values)
    raw_matrix = raw_feature_matrix(raw)[1] if raw_features else None
    full = None
    if not raw_features and config.bin_fit == "all":
        full = binarize(raw, config.bins_per_numeric)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if announce:
        say(
            f"{raw.n_instances} instances, {len(raw.feature_names)} features, "
            f"{n_classes} classes ({config.runs} runs)"
        )

    records: list[RunRecord] = []
    for r in range(config.runs):
        t0 = time.perf_counter()
        run_seed = run_seed_for(config.seed, r)
        split = split_stratified(raw.n_instances, labels_all, seed=run_seed)
        binz = None
        if raw_matrix is not None:
            x, y = raw_matrix, labels_all
        else:
            binz = full
            if binz is None:
                binz = binarize(raw, config.bins_per_numeric, fit_indices=split.train)
            x, y = binz.matrix, binz.labels
        run = _Run(
            index=r,
            seed=run_seed,
            binarized=binz,
            train=_take(x, y, split.train),
            validation=_take(x, y, split.validation),
            test=_take(x, y, split.test),
        )
        fitted = fit(run)
        metrics = evaluate_metrics(fitted.predictions, run.test[1], n_classes=n_classes)
        wall = time.perf_counter() - t0
        records.append(
            RunRecord(
                run=r,
                seed=run_seed,
                test_accuracy=metrics.accuracy,
                test_precision_macro=metrics.macro_precision,
                test_recall_macro=metrics.macro_recall,
                n_connections=fitted.n_connections,
                generations_run=fitted.generations_run,
                wall_seconds=wall,
            )
        )
        if fitted.save is not None:
            run_dir = config.out_dir / f"run_{r:02d}"
            run_dir.mkdir(parents=True, exist_ok=True)
            fitted.save(run_dir, metrics)
        say(
            f"run {r + 1}/{config.runs}: accuracy={metrics.accuracy:.4f} "
            f"{fitted.progress} ({wall:.1f}s)"
        )

    write_summary_csv(config.out_dir / "summary.csv", records)
    write_timings_csv(config.out_dir / "timings.csv", records)
    _write_resolved_config(config, resolved)
    return records


def run_training_experiment(
    config: ExperimentConfig, echo: Callable[[str], None] | None = None
) -> list[RunRecord]:
    """Execute `runs` seeded structure searches and write all artifacts.

    Per run: out/run_NN/model.json and generations.csv. At the top level:
    summary.csv (per-run metrics plus mean/std rows), timings.csv, and
    resolved_config.json. Returns the per-run records in run order.
    """

    def fit(run: _Run) -> _Fitted:
        binz = run.binarized
        layer_sizes = (run.train[0].shape[1], *config.hidden_layers, len(binz.label_names))
        best, log = evolve(
            *run.train,
            *run.validation,
            layer_sizes,
            config.ga_config(run.seed),
            config.train_config(run.seed),
        )
        # edges with no path to an output cannot move any prediction;
        # export the equivalent graph without them
        gaf = prune_inert_edges(
            to_classifier(best.result, binz.input_argument_names, binz.label_names)
        )
        n_connections = gaf.connection_count()
        generations_run = log[-1].generation

        def save(run_dir: Path, metrics: Metrics) -> None:
            metadata = {
                "run": run.index,
                "seed": run.seed,
                "master_seed": config.seed,
                "dataset": str(config.dataset_path),
                "split_sizes": {
                    "train": len(run.train[1]),
                    "validation": len(run.validation[1]),
                    "test": len(run.test[1]),
                },
                "fitness": best.fitness,
                "train_accuracy": best.train_accuracy,
                "test_accuracy": metrics.accuracy,
                "test_precision_macro": metrics.macro_precision,
                "test_recall_macro": metrics.macro_recall,
                "n_connections": n_connections,
                "searched_connections": best.n_connections,
                "n_possible": best.n_possible,
                "generations_run": generations_run,
                "epochs_run": best.result.epochs_run,
            }
            (run_dir / "model.json").write_text(to_json(gaf, metadata), encoding="utf-8")
            write_generations_csv(run_dir / "generations.csv", log)

        # score the exported artifact itself, not the raw training state
        return _Fitted(
            predictions=MaskedNet.from_gaf(gaf).predict(run.test[0]),
            n_connections=n_connections,
            progress=f"connections={n_connections} generations={generations_run}",
            generations_run=generations_run,
            save=save,
        )

    return _run_experiment(config, fit, echo, {"command": "train"}, announce=True)


def run_baseline_experiment(
    config: ExperimentConfig,
    kind: str,
    max_depth: int | None = None,
    echo: Callable[[str], None] | None = None,
) -> list[RunRecord]:
    """Evaluate a reference classifier over the same seeded splits.

    The summary reuses the training-experiment columns: for the logistic
    model n_connections counts graph edges, for trees it counts internal
    nodes; generations_run is 0 since no structure search happens.
    """
    if kind not in ("logistic", "tree"):
        raise ConfigError(f"baseline kind must be 'logistic' or 'tree', got {kind!r}")
    if max_depth is not None and max_depth < 0:
        raise ConfigError(f"max_depth must be >= 0, got {max_depth}")

    def fit_logistic(run: _Run) -> _Fitted:
        gaf, result = train_logistic(
            *run.train,
            *run.validation,
            config.train_config(run.seed),
            run.binarized.input_argument_names,
            run.binarized.label_names,
        )
        metadata = {
            "run": run.index,
            "seed": run.seed,
            "master_seed": config.seed,
            "baseline": "logistic",
            "epochs_run": result.epochs_run,
        }

        def save(run_dir: Path, _metrics: Metrics) -> None:
            (run_dir / "model.json").write_text(to_json(gaf, metadata), encoding="utf-8")

        n_connections = gaf.connection_count()
        return _Fitted(
            predictions=MaskedNet.from_gaf(gaf).predict(run.test[0]),
            n_connections=n_connections,
            progress=f"size={n_connections}",
            save=save,
        )

    def fit_tree(run: _Run) -> _Fitted:
        # validation rows are unused: the tree has no tuned optimizer
        tree = train_tree(*run.train, max_depth=max_depth)
        # every split node has two children, so internal nodes = leaves - 1
        n_connections = tree.n_leaves() - 1
        return _Fitted(
            predictions=tree.predict(run.test[0]),
            n_connections=n_connections,
            progress=f"size={n_connections}",
        )

    return _run_experiment(
        config,
        fit_logistic if kind == "logistic" else fit_tree,
        echo,
        {"command": "baseline", "kind": kind, "max_depth": max_depth},
        raw_features=kind == "tree" and config.tree_features == "raw",
    )
