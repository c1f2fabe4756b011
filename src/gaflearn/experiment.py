"""Multi-run experiment orchestration with on-disk artifacts.

An experiment is described by a JSON config (dataset + schema paths, search
and training hyperparameters, run count, master seed). Each run derives its
own seed, draws a fresh stratified split, evolves a classifier, and reports
test metrics. Everything except wall-clock time is a pure function of the
config, so summary files are byte-identical across repeats.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from typing import Callable, Sequence, get_type_hints

import numpy as np

from .baselines import Metrics, evaluate_metrics, train_logistic, train_tree
from .data import BinarizedDataset, binarize, load_csv, load_schema, split_stratified
from .errors import ConfigError, StratificationError
from .ga import GaConfig, GenerationStats, evolve
from .graph import MaskedNet
from .model_io import to_json
from .train import TrainConfig, to_classifier
from .util import check_field_types, derive_seed, write_text_atomic

_type_hints = cache(get_type_hints)  # each config class's annotations, evaluated once


def _section_keys(cls: type) -> dict[str, str]:
    """Config-file key -> field name, for the top level and its ``ga`` and
    ``train`` sections: the one table that reads and writes the settings.

    A field's ``key`` metadata renames it (``lam`` is ``"lambda"``); a run's
    GaConfig seed comes from the top-level seed, so the file does not set it.
    """
    return {
        f.metadata.get("key", f.name): f.name
        for f in fields(cls)
        if (cls, f.name) != (GaConfig, "seed")
    }


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Fully resolved experiment description (paths absolute, overrides applied).

    Each field is one config-file setting, under its ``key`` metadata if it
    has one, with the setting's default. Like GaConfig and TrainConfig it
    checks its own types and ranges; the loader checks and resolves the
    paths and builds the ``ga`` and ``train`` sections.
    """

    dataset_path: Path = field(metadata={"key": "dataset"})
    schema_path: Path = field(metadata={"key": "schema"})
    out_dir: Path = field(metadata={"key": "out"})  # the loader's default: out/<config stem>
    runs: int = 10
    seed: int = 0
    bins_per_numeric: int = 3
    hidden_layers: tuple[int, ...] = (12,)
    ga: GaConfig  # seed 0; ga_config(seed) gives a run's
    train: TrainConfig
    # Not a field, so no setting: every run fits thresholds on its training rows.
    # perfbench/workloads.py still reads it; delete it with that read (ROADMAP item 1).
    bin_fit = "train"

    def __post_init__(self) -> None:
        check_field_types(self)
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        for name, minimum in (("runs", 1), ("seed", 0), ("bins_per_numeric", 2)):
            if getattr(self, name) < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {getattr(self, name)}")
        if any(h < 1 for h in self.hidden_layers):
            raise ConfigError(f"hidden_layers sizes must be >= 1, got {list(self.hidden_layers)}")

    def ga_config(self, seed: int) -> GaConfig:
        return replace(self.ga, seed=seed)

    def as_dict(self) -> dict:
        """Every setting, defaults included, under its config-file key."""

        def value(v):
            if is_dataclass(v):  # this config, or its ga or train section
                return {key: value(getattr(v, f)) for key, f in _section_keys(type(v)).items()}
            return str(v) if isinstance(v, Path) else v

        return value(self)


def _section(doc, cls: type, path: Path, name: str = ""):
    """Build ``cls`` from one object of the config file: the top level, or its
    ``ga`` or ``train`` section (``name``), which the top level's own call builds.

    Unknown and missing settings are named by their config-file key; the
    dataclass checks types and ranges, and its message gains the file's path.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: {name!r} must be an object")
    where = f"{name} " if name else ""
    keys = _section_keys(cls)
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"{path}: unknown {where}keys {unknown}")
    args = {keys[key]: value for key, value in doc.items()}
    for field_name, kind in _type_hints(cls).items():  # the ga and train sections
        if is_dataclass(kind) and field_name in args:
            args[field_name] = _section(args[field_name], kind, path, field_name)
    key_of = {field_name: key for key, field_name in keys.items()}
    for f in fields(cls):  # a missing setting is named as the file names it
        if f.default is MISSING and f.default_factory is MISSING and f.name not in args:
            raise ConfigError(f"{path}: missing required {where}key {key_of[f.name]!r}")
    try:
        return cls(**args)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _reject_non_finite(value, key: str, path: Path) -> None:
    """Raise ConfigError naming ``key`` if value holds NaN or +/-Infinity.

    json reads the non-standard tokens NaN, Infinity and -Infinity, and
    literals too large for a float, as non-finite floats; no setting takes one.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: {key} must be a finite number, got {value}")
    if isinstance(value, dict):
        for k, v in value.items():
            _reject_non_finite(v, k, path)
    elif isinstance(value, list):
        for v in value:
            _reject_non_finite(v, key, path)


def load_experiment_config(
    path: str | Path,
    *,
    seed: int | None = None,
    runs: int | None = None,
    out: str | Path | None = None,
    lam: float | None = None,
) -> ExperimentConfig:
    """Read a JSON experiment config; keyword arguments override its fields.

    Relative paths inside the config resolve against the config file's
    directory; a relative ``out`` override and the default ``out/<stem>``
    resolve against the working directory, since they come from the command
    line. The experiment checks ``out`` itself, before it reads any data.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"config path is a directory: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _reject_non_finite(doc, "", path)

    base = path.resolve().parent
    for key in ("dataset", "schema", "out"):
        if key in doc:
            if not isinstance(doc[key], str) or not doc[key]:
                raise ConfigError(f"{path}: {key} must be a non-empty string, got {doc[key]!r}")
            doc[key] = base / doc[key]  # an absolute path stays as it is
    overrides = {"seed": seed, "runs": runs, "out": out}
    doc.update((key, v) for key, v in overrides.items() if v is not None)
    doc["out"] = Path(doc.get("out", Path("out") / path.stem)).absolute()
    if lam is not None and isinstance(doc.get("ga"), dict):
        doc["ga"] = {**doc["ga"], "lambda": lam}
    config = _section(doc, ExperimentConfig, path)

    if not config.dataset_path.is_file():
        raise ConfigError(f"dataset file not found: {config.dataset_path}")
    if not config.schema_path.is_file():
        raise ConfigError(f"schema file not found: {config.schema_path}")
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


# summary.csv's header: every RunRecord field but the wall time, which timings.csv holds
SUMMARY_COLUMNS = tuple(f.name for f in fields(RunRecord) if f.name != "wall_seconds")


def run_seed_for(master_seed: int, run: int) -> int:
    return derive_seed(master_seed, "run", run)


def _take(matrix: np.ndarray, labels: np.ndarray, indices: Sequence[int]):
    idx = np.asarray(indices, dtype=np.int64)
    return matrix[idx], labels[idx]


def _csv_row(record, columns: Sequence[str]) -> str:
    """A record's named fields as one CSV row: floats to 6 decimals, the rest as str."""
    values = (getattr(record, c) for c in columns)
    return ",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in values)


def write_summary_csv(path: Path, records: Sequence[RunRecord]) -> None:
    lines = [",".join(SUMMARY_COLUMNS), *(_csv_row(r, SUMMARY_COLUMNS) for r in records)]
    # the mean and std rows aggregate every column after run and seed
    stats = np.array([[getattr(r, c) for c in SUMMARY_COLUMNS[2:]] for r in records], np.float64)
    means = stats.mean(axis=0)
    stds = stats.std(axis=0, ddof=1) if len(records) > 1 else np.zeros(stats.shape[1])
    lines.append("mean,," + ",".join(f"{v:.6f}" for v in means))
    lines.append("std,," + ",".join(f"{v:.6f}" for v in stds))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_timings_csv(path: Path, records: Sequence[RunRecord]) -> None:
    lines = ["run,wall_seconds"]
    lines.extend(f"{r.run},{r.wall_seconds:.3f}" for r in records)
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_generations_csv(path: Path, log: Sequence[GenerationStats]) -> None:
    columns = [f.name for f in fields(GenerationStats)]
    lines = [",".join(columns), *(_csv_row(s, columns) for s in log)]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _write_resolved_config(config: ExperimentConfig, extra: dict) -> None:
    doc = config.as_dict()
    doc.update(extra)
    write_text_atomic(config.out_dir / "resolved_config.json", json.dumps(doc, indent=2) + "\n")


@dataclass(frozen=True, eq=False)
class _Run:
    """One seeded run, as the run loop hands it to a fit function.

    ``train``, ``validation`` and ``test`` are (features, labels) pairs.
    """

    index: int
    seed: int
    binarized: BinarizedDataset
    train: tuple[np.ndarray, np.ndarray]
    validation: tuple[np.ndarray, np.ndarray]
    test: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True, eq=False)
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
    announce: bool = False,
) -> list[RunRecord]:
    """Load the dataset, fit and score every seeded run, write the summary files.

    An output directory that cannot be made is refused before any data is
    read. It is made with the first artifact, so a dataset that cannot be
    split leaves nothing behind. ``announce`` echoes the dataset's shape
    first; ``resolved`` is merged into resolved_config.json.
    """
    blocker = next(p for p in (config.out_dir, *config.out_dir.parents) if p.exists())
    if not blocker.is_dir():
        raise ConfigError(f"output directory {config.out_dir}: {blocker} is not a directory")
    say = echo if echo is not None else lambda _msg: None
    schema = load_schema(config.schema_path)
    raw = load_csv(config.dataset_path, schema)
    labels_all = raw.label_indices()
    n_classes = len(raw.label_values)
    if announce:
        say(
            f"{raw.n_instances} instances, {len(raw.feature_names)} features, "
            f"{n_classes} classes ({config.runs} runs)"
        )

    records: list[RunRecord] = []
    for r in range(config.runs):
        t0 = time.perf_counter()
        run_seed = run_seed_for(config.seed, r)
        try:
            split = split_stratified(
                raw.n_instances, labels_all, seed=run_seed, label_names=raw.label_values
            )
        except StratificationError as exc:
            raise StratificationError(f"{config.dataset_path}: {exc}") from None
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

    config.out_dir.mkdir(parents=True, exist_ok=True)  # a tree run saves nothing itself
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
            config.train,
        )
        gaf = to_classifier(best.result, binz.input_argument_names, binz.label_names)
        n_connections = len(gaf.edges)
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
                "train_accuracy": best.result.train_accuracy,
                "test_accuracy": metrics.accuracy,
                "test_precision_macro": metrics.macro_precision,
                "test_recall_macro": metrics.macro_recall,
                "n_connections": n_connections,
                "n_possible": len(best.bits),
                "generations_run": generations_run,
                "epochs_run": best.result.epochs_run,
            }
            write_text_atomic(run_dir / "model.json", to_json(gaf, metadata))
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
    if max_depth is not None and kind != "tree":
        raise ConfigError(f"--max-depth applies to tree baselines only, not {kind!r}")
    if max_depth is not None and max_depth < 0:
        raise ConfigError(f"max_depth must be >= 0, got {max_depth}")

    def fit_logistic(run: _Run) -> _Fitted:
        gaf, result = train_logistic(
            *run.train,
            *run.validation,
            config.train,
            run.seed,
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
            write_text_atomic(run_dir / "model.json", to_json(gaf, metadata))

        n_connections = len(gaf.edges)
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
    )
