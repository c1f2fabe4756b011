"""Experiment orchestration: config loading, artifacts, determinism."""

import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gaflearn.experiment as experiment
from gaflearn.cli import main
from gaflearn.baselines import evaluate_metrics
from gaflearn.data import binarize, load_csv, load_schema
from gaflearn.errors import ConfigError
from gaflearn.ga import EvaluatedIndividual, GenerationStats, chromosome_length, decode
from gaflearn.experiment import (
    SUMMARY_COLUMNS,
    ExperimentConfig,
    load_experiment_config,
    run_baseline_experiment,
    run_seed_for,
    run_training_experiment,
)
from gaflearn.graph import Argument, LayeredGaf, evaluate, prune_inert_edges
from gaflearn.model_io import from_json
from gaflearn.train import TrainConfig, train
from gaflearn.util import write_text_atomic

TOY_GA = {
    "population_size": 4,
    "generations": 2,
    "crossover_rate": 0.9,
    "mutation_rate": 0.01,
    "elitist_fraction": 0.25,
    "lambda": 0.1,
    "n_conn_init": [2, 2],
}
TOY_TRAIN = {"learning_rate": 0.5, "max_epochs": 30, "es_patience": 3}


def write_toy_dataset(dirpath, n=40, rule=lambda x1, x2: x1 == 1):
    rows = ["x1,x2,y"]
    for i in range(n):
        x1, x2 = i % 2, (i // 2) % 2
        rows.append(f"{x1},{x2},{'pos' if rule(x1, x2) else 'neg'}")
    (dirpath / "toy.csv").write_text("\n".join(rows) + "\n")
    schema = {
        "label": "y",
        "columns": {"x1": {"kind": "binary"}, "x2": {"kind": "binary"}},
    }
    (dirpath / "toy.schema.json").write_text(json.dumps(schema))


def write_toy_config(dirpath, **extra):
    doc = {
        "dataset": "toy.csv",
        "schema": "toy.schema.json",
        "runs": 2,
        "seed": 7,
        "hidden_layers": [2],
        "ga": dict(TOY_GA),
        "train": dict(TOY_TRAIN),
        **extra,
    }
    path = dirpath / "toy.json"
    path.write_text(json.dumps(doc))
    return path


def test_config_loader_resolves_paths_and_defaults(tmp_path):
    write_toy_dataset(tmp_path)
    path = write_toy_config(tmp_path)
    config = load_experiment_config(path)
    assert config.dataset_path == tmp_path / "toy.csv"
    assert config.schema_path == tmp_path / "toy.schema.json"
    assert config.runs == 2
    assert config.seed == 7
    assert config.bins_per_numeric == 3
    assert config.hidden_layers == (2,)
    assert config.ga.lam == 0.1
    assert config.ga_config(5).seed == 5
    assert config.train.learning_rate == 0.5


def test_config_overrides_win(tmp_path):
    write_toy_dataset(tmp_path)
    path = write_toy_config(tmp_path)
    config = load_experiment_config(path, seed=123, runs=1, out=tmp_path / "elsewhere", lam=0.7)
    assert config.seed == 123
    assert config.runs == 1
    assert config.out_dir == tmp_path / "elsewhere"
    assert config.ga.lam == 0.7


def test_config_rejects_unknown_and_missing_keys(tmp_path):
    write_toy_dataset(tmp_path)
    path = write_toy_config(tmp_path, typo_key=1)
    with pytest.raises(ConfigError, match="typo_key"):
        load_experiment_config(path)

    doc = json.loads(path.read_text())
    del doc["typo_key"]
    doc["ga"]["speed"] = 9
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="speed"):
        load_experiment_config(path)

    del doc["ga"]["speed"]
    # a missing required setting is named by its config-file key
    for section, key in (("ga", "lambda"), ("train", "learning_rate")):
        cut = json.loads(json.dumps(doc))
        del cut[section][key]
        path.write_text(json.dumps(cut))
        with pytest.raises(ConfigError) as info:
            load_experiment_config(path)
        assert str(info.value) == f"{path}: missing required {section} key {key!r}"

    del doc["train"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="train"):
        load_experiment_config(path)


def test_retired_keys_exit_2_naming_them(tmp_path, capsys):
    # trees read the binarized indicators, as every model does, and every run
    # fits its numeric thresholds on its own training rows
    write_toy_dataset(tmp_path)
    out = tmp_path / "out"
    for command, key, value in (
        (["baseline", "--kind", "tree"], "tree_features", "binarized"),
        (["baseline", "--kind", "tree"], "tree_features", "raw"),
        (["train"], "bin_fit", "train"),
        (["train"], "bin_fit", "all"),
    ):
        path = write_toy_config(tmp_path, **{key: value})
        assert main([*command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {path}: unknown keys [{key!r}]"]
        assert not out.exists()
    with pytest.raises(SystemExit) as exc:  # argparse refuses the retired flag
        main(["train", "--config", str(path), "--bin-fit", "all"])
    assert exc.value.code == 2
    assert "--bin-fit" in capsys.readouterr().err


def test_config_names_missing_files(tmp_path):
    write_toy_dataset(tmp_path)
    path = write_toy_config(tmp_path, schema="absent.schema.json")
    with pytest.raises(ConfigError, match="absent.schema.json"):
        load_experiment_config(path)
    with pytest.raises(ConfigError, match="nowhere.json"):
        load_experiment_config(tmp_path / "nowhere.json")


def test_config_reports_bad_hyperparameters_with_path(tmp_path):
    write_toy_dataset(tmp_path)
    cases = [
        ("ga", "crossover_rate", 2.0),
        # integer settings must be JSON integers, and no setting takes a boolean
        ("ga", "population_size", 20.0),
        ("train", "batch_size", 0.5),
        ("ga", "q", 3.0),
        ("train", "max_epochs", True),
        ("ga", "lambda", True),
        ("ga", "n_conn_init", [12.7, 6]),
        ("ga", "generations", "2"),
        # json writes these as the non-standard tokens NaN and Infinity
        ("train", "es_tolerance", float("nan")),
        ("ga", "ga_tolerance", float("inf")),
    ]
    for section, key, value in cases:
        sections = {"ga": dict(TOY_GA), "train": dict(TOY_TRAIN)}
        sections[section][key] = value
        path = write_toy_config(tmp_path, **sections)
        with pytest.raises(ConfigError) as info:
            load_experiment_config(path)
        assert str(path) in str(info.value) and key in str(info.value), (key, value)


@pytest.mark.parametrize(
    "key, value",
    [
        ("runs", 2.5),
        ("runs", 0),
        ("runs", True),
        ("seed", -1),
        ("seed", "1"),
        ("bins_per_numeric", 1),
        ("bins_per_numeric", 3.0),
        ("schema", ""),
        ("dataset", 3),
        ("dataset", ""),
        ("hidden_layers", 3),
        ("hidden_layers", [0]),
        ("hidden_layers", [2.0]),
        ("out", 5),
    ],
)
def test_config_reports_bad_top_level_settings_with_path(
    tmp_path, capsys, monkeypatch, key, value
):
    monkeypatch.chdir(tmp_path)  # the default out directory, should a case load
    write_toy_dataset(tmp_path)
    path = write_toy_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError) as info:
        load_experiment_config(path)
    assert str(path) in str(info.value) and key in str(info.value)
    # the command line exits 2 with that one line, before any data is read
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {info.value}"]


@pytest.mark.parametrize("bad", [{"runs": 0}], ids=["runs"])
def test_experiment_config_checks_itself(tmp_path, bad):
    write_toy_dataset(tmp_path)
    config = load_experiment_config(write_toy_config(tmp_path))
    with pytest.raises(ConfigError, match=next(iter(bad))):
        ExperimentConfig(**{**vars(config), **bad})


def test_resolved_config_loads_back_to_the_config_that_wrote_it(tmp_path, monkeypatch):
    write_toy_dataset(tmp_path)
    config = load_experiment_config(
        write_toy_config(tmp_path, runs=1, hidden_layers=[3]),
        out=tmp_path / "out",
        lam=0.3,
    )
    run_training_experiment(config)
    written = tmp_path / "out" / "resolved_config.json"
    doc = json.loads(written.read_text())
    assert doc.pop("command") == "train"
    written.write_text(json.dumps(doc))
    assert load_experiment_config(written) == config

    # the default out and a relative --out are recorded absolute, so the file
    # loads back to the run's directory from any working directory
    (tmp_path / "cwd").mkdir()
    (tmp_path / "elsewhere").mkdir()
    for out, run_dir in ((None, "cwd/out/toy"), ("rel/x", "cwd/rel/x")):
        monkeypatch.chdir(tmp_path / "cwd")
        config = load_experiment_config(tmp_path / "toy.json", out=out)
        assert config.out_dir == tmp_path / run_dir
        run_training_experiment(config)
        written = tmp_path / run_dir / "resolved_config.json"
        doc = json.loads(written.read_text())
        assert doc.pop("command") == "train"
        written.write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert load_experiment_config(written) == config


def test_training_experiment_writes_artifacts(tmp_path):
    write_toy_dataset(tmp_path)
    config = load_experiment_config(write_toy_config(tmp_path), out=tmp_path / "out")
    records = run_training_experiment(config)

    assert len(records) == 2
    assert [r.run for r in records] == [0, 1]
    assert records[0].seed == run_seed_for(7, 0)
    for name in ("summary.csv", "timings.csv", "resolved_config.json"):
        assert (tmp_path / "out" / name).is_file()
    for r in range(2):
        assert (tmp_path / "out" / f"run_{r:02d}" / "model.json").is_file()
        assert (tmp_path / "out" / f"run_{r:02d}" / "generations.csv").is_file()

    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    assert len(lines) == 1 + 2 + 2  # header, runs, mean, std
    assert lines[-2].startswith("mean,,")
    assert lines[-1].startswith("std,,")

    # the mean row aggregates the run rows
    accs = [float(line.split(",")[2]) for line in lines[1:3]]
    mean_acc = float(lines[-2].split(",")[2])
    assert abs(mean_acc - np.mean(accs)) < 1e-6

    # per-run artifacts agree with the summary row
    gaf, meta = from_json((tmp_path / "out" / "run_00" / "model.json").read_text())
    assert meta["run"] == 0
    assert meta["seed"] == records[0].seed
    assert f"{meta['test_accuracy']:.6f}" == lines[1].split(",")[2]
    assert gaf.class_labels == ("neg", "pos")

    gen_lines = (tmp_path / "out" / "run_00" / "generations.csv").read_text().splitlines()
    assert gen_lines[0].startswith("generation,")
    assert int(gen_lines[-1].split(",")[0]) == records[0].generations_run


def test_csv_rows_read_back_to_their_records(tmp_path, monkeypatch):
    logs = []
    real = experiment.evolve

    def recording(*args):
        best, log = real(*args)
        logs.append(log)
        return best, log

    monkeypatch.setattr(experiment, "evolve", recording)
    write_toy_dataset(tmp_path)
    config = load_experiment_config(write_toy_config(tmp_path), out=tmp_path / "out")
    records = run_training_experiment(config)

    def assert_row(row: dict, record) -> None:
        for f in fields(record):
            if f.name in row:  # summary.csv leaves the wall time to timings.csv
                value = getattr(record, f.name)
                want = f"{value:.6f}" if f.type == "float" else str(value)
                assert row[f.name] == want, (f.name, row)

    with open(tmp_path / "out" / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(SUMMARY_COLUMNS)
    assert len(rows) == len(records) + 2  # the run rows, then mean and std
    for row, record in zip(rows, records):
        assert_row(row, record)
    for r, log in enumerate(logs):
        with open(tmp_path / "out" / f"run_{r:02d}" / "generations.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == [f.name for f in fields(GenerationStats)]
        assert len(rows) == len(log) == records[r].generations_run + 1
        for row, stats in zip(rows, log):
            assert_row(row, stats)


def test_exported_graph_is_the_searched_live_structure(tmp_path, monkeypatch):
    bests = []
    real = experiment.evolve

    def recording(*args):
        best, log = real(*args)
        bests.append(best)
        return best, log

    monkeypatch.setattr(experiment, "evolve", recording)
    write_toy_dataset(tmp_path)
    config = load_experiment_config(
        write_toy_config(
            tmp_path, runs=3, seed=8, hidden_layers=[3], ga=dict(TOY_GA, n_conn_init=[4, 4])
        ),
        out=tmp_path / "out",
    )
    records = run_training_experiment(config)
    for record, best in zip(records, bests, strict=True):
        model = tmp_path / "out" / f"run_{record.run:02d}" / "model.json"
        gaf, meta = from_json(model.read_text())
        assert prune_inert_edges(gaf) is gaf
        assert len(gaf.edges) == meta["n_connections"] == record.n_connections
        assert record.n_connections == best.n_connections
        assert "searched_connections" not in meta


def test_training_experiment_learns_toy_rule(tmp_path):
    write_toy_dataset(tmp_path)
    config = load_experiment_config(
        write_toy_config(tmp_path, runs=1), out=tmp_path / "out"
    )
    records = run_training_experiment(config)
    # y equals x1: one connected input is enough for perfect accuracy
    assert records[0].test_accuracy == 1.0


def test_summary_is_byte_identical_across_repeats(tmp_path):
    write_toy_dataset(tmp_path)
    path = write_toy_config(tmp_path)
    run_training_experiment(load_experiment_config(path, out=tmp_path / "a"))
    run_training_experiment(load_experiment_config(path, out=tmp_path / "b"))
    a = (tmp_path / "a" / "summary.csv").read_bytes()
    b = (tmp_path / "b" / "summary.csv").read_bytes()
    assert a == b
    model_a = (tmp_path / "a" / "run_00" / "model.json").read_bytes()
    model_b = (tmp_path / "b" / "run_00" / "model.json").read_bytes()
    assert model_a == model_b


def test_atomic_write_failing_midway_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "summary.csv"
    write_text_atomic(path, "old\n")

    def refuse(*_args):
        raise OSError("disk full")

    with monkeypatch.context() as m:  # fails after the new text is on disk
        m.setattr("gaflearn.util.os.replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            write_text_atomic(path, "new\n")
    with pytest.raises(UnicodeEncodeError):  # fails once the temporary file is open
        write_text_atomic(path, "x" * 65536 + "\ud800")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]
    write_text_atomic(path, "new,\u00e9\n")
    assert path.read_bytes() == "new,\u00e9\n".encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]


def test_single_run_std_row_is_zero(tmp_path):
    write_toy_dataset(tmp_path)
    config = load_experiment_config(
        write_toy_config(tmp_path, runs=1), out=tmp_path / "out"
    )
    run_training_experiment(config)
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert lines[-1] == "std,," + ",".join(["0.000000"] * 5)


def test_logistic_baseline_shares_splits_with_training(tmp_path):
    write_toy_dataset(tmp_path)
    path = write_toy_config(tmp_path)
    train_records = run_training_experiment(
        load_experiment_config(path, out=tmp_path / "gaf")
    )
    base_records = run_baseline_experiment(
        load_experiment_config(path, out=tmp_path / "logit"), "logistic"
    )
    assert [r.seed for r in base_records] == [r.seed for r in train_records]
    assert all(r.generations_run == 0 for r in base_records)
    # fully connected inputs x classes
    assert all(r.n_connections == 2 * 2 for r in base_records)
    assert base_records[0].test_accuracy == 1.0
    assert (tmp_path / "logit" / "run_00" / "model.json").is_file()


def test_tree_baseline_counts_internal_nodes(tmp_path):
    write_toy_dataset(tmp_path)
    config = load_experiment_config(
        write_toy_config(tmp_path, runs=1), out=tmp_path / "tree"
    )
    records = run_baseline_experiment(config, "tree")
    # y == x1 needs exactly one split
    assert records[0].n_connections == 1
    assert records[0].test_accuracy == 1.0
    assert records[0].generations_run == 0
    assert (tmp_path / "tree" / "summary.csv").is_file()


def test_baseline_rejects_unknown_kind(tmp_path):
    write_toy_dataset(tmp_path)
    config = load_experiment_config(
        write_toy_config(tmp_path, runs=1), out=tmp_path / "x"
    )
    with pytest.raises(ConfigError, match="kind"):
        run_baseline_experiment(config, "svm")


IRIS_CSV = Path(__file__).resolve().parent.parent / "data" / "iris.csv"
IRIS_SCHEMA = IRIS_CSV.parent.parent / "configs" / "iris.schema.json"


def _iris_binarized():
    return binarize(load_csv(IRIS_CSV, load_schema(IRIS_SCHEMA)))


def _iris_train_result():
    b = _iris_binarized()
    structure = decode(np.ones(chromosome_length((12, 2, 3)), dtype=np.uint8), (12, 2, 3))
    return train(structure, b.matrix, b.labels, b.matrix, b.labels, TrainConfig(0.1, max_epochs=1))


def _iris_run():
    b = _iris_binarized()
    split = (b.matrix.copy(), b.labels.copy())
    return experiment._Run(0, 0, b, split, split, split)


# each builds a new instance with the same content on every call
ARRAY_DATACLASSES = {
    "RawDataset": lambda: load_csv(IRIS_CSV, load_schema(IRIS_SCHEMA)),
    "BinarizedDataset": _iris_binarized,
    "GafStructure": lambda: decode(np.ones(chromosome_length((2, 3)), dtype=np.uint8), (2, 3)),
    "Interpretation": lambda: evaluate(
        LayeredGaf([[Argument("a", "x", 0, 0.5)], [Argument("b", "y", 1, 0.5)]], []), [1.0]
    ),
    "Metrics": lambda: evaluate_metrics([0, 1], [0, 1]),
    "EvaluatedIndividual": lambda: EvaluatedIndividual(
        np.ones(3, dtype=np.uint8), 0.5, 3, _iris_train_result()
    ),
    "_Run": _iris_run,
    "_Fitted": lambda: experiment._Fitted(np.zeros(3, dtype=np.int64), 0, "size=0"),
}


@pytest.mark.parametrize("make", ARRAY_DATACLASSES.values(), ids=ARRAY_DATACLASSES.keys())
def test_dataclasses_holding_arrays_compare_by_identity_and_hash(make):
    # a generated == would compare the arrays element-wise and raise
    a, b = make(), make()
    assert a == a and not (a != a)
    assert a != b and not (a == b)
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_fit_functions_get_uint8_splits(tmp_path):
    config = load_experiment_config(
        IRIS_CSV.parent.parent / "configs" / "iris.json", runs=1, out=tmp_path / "out"
    )
    seen = []

    def fit(run):
        for x, _ in (run.train, run.validation, run.test):
            seen.append((x.dtype, x.flags["C_CONTIGUOUS"]))
        return experiment._Fitted(run.test[1], 0, "size=0")

    experiment._run_experiment(config, fit, None, {})
    assert seen == [(np.uint8, True)] * 3
