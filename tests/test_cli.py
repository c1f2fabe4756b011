"""Command-line behaviour: exit codes, artifacts, export and trace output."""

import csv
import io
import json

import pytest

from gaflearn.cli import main
from gaflearn.model_io import from_json, to_json

from test_experiment import write_toy_config, write_toy_dataset


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_train_command_writes_artifacts(tmp_path, capsys):
    write_toy_dataset(tmp_path)
    cfg = write_toy_config(tmp_path)
    code = run_cli("train", "--config", cfg, "--runs", "1", "--out", tmp_path / "out")
    assert code == 0
    assert (tmp_path / "out" / "summary.csv").is_file()
    out = capsys.readouterr().out
    assert "run 1/1" in out
    assert "summary.csv" in out


def test_missing_schema_exits_2_naming_path(tmp_path, capsys):
    write_toy_dataset(tmp_path)
    cfg = write_toy_config(tmp_path, schema="gone.schema.json")
    code = run_cli("train", "--config", cfg)
    assert code == 2
    assert "gone.schema.json" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # an overflow warning would be a second line
def test_diverged_training_exits_1_with_one_line(tmp_path, capsys):
    write_toy_dataset(tmp_path)
    train = {"learning_rate": 1e308, "max_epochs": 30, "es_patience": 3}
    cfg = write_toy_config(tmp_path, train=train)
    assert run_cli("train", "--config", cfg, "--runs", "1", "--out", tmp_path / "out") == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: generation 0: individual ")
    assert "diverged at epoch" in lines[0]


def test_unknown_command_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_seed_override_changes_results(tmp_path):
    write_toy_dataset(tmp_path)
    cfg = write_toy_config(tmp_path)
    assert run_cli("train", "--config", cfg, "--runs", "1", "--out", tmp_path / "a") == 0
    assert run_cli("train", "--config", cfg, "--runs", "1", "--out", tmp_path / "b") == 0
    assert (
        run_cli("train", "--config", cfg, "--runs", "1", "--seed", "99", "--out", tmp_path / "c")
        == 0
    )
    a = (tmp_path / "a" / "summary.csv").read_text()
    b = (tmp_path / "b" / "summary.csv").read_text()
    c = (tmp_path / "c" / "summary.csv").read_text()
    assert a == b
    assert a.splitlines()[1].split(",")[1] != c.splitlines()[1].split(",")[1]


def test_baseline_gets_suffixed_directory(tmp_path, capsys):
    write_toy_dataset(tmp_path)
    cfg = write_toy_config(tmp_path, out="results", runs=1)
    code = run_cli("baseline", "--config", cfg, "--kind", "tree", "--max-depth", "2")
    assert code == 0
    assert (tmp_path / "results-tree-depth2" / "summary.csv").is_file()
    code = run_cli("baseline", "--config", cfg, "--kind", "logistic")
    assert code == 0
    assert (tmp_path / "results-logistic" / "summary.csv").is_file()


def trained_model_path(tmp_path):
    write_toy_dataset(tmp_path)
    cfg = write_toy_config(tmp_path, runs=1)
    assert run_cli("train", "--config", cfg, "--out", tmp_path / "out") == 0
    return tmp_path / "out" / "run_00" / "model.json"


def test_export_dot_to_stdout(tmp_path, capsys):
    model = trained_model_path(tmp_path)
    capsys.readouterr()
    assert run_cli("export", "--model", model, "--format", "dot") == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "rankdir=LR" in out


def test_export_json_round_trips(tmp_path, capsys):
    model = trained_model_path(tmp_path)
    out_path = tmp_path / "copy.json"
    assert run_cli("export", "--model", model, "--format", "json", "--out", out_path) == 0
    original_gaf, original_meta = from_json(model.read_text())
    copied_gaf, copied_meta = from_json(out_path.read_text())
    assert copied_meta == original_meta
    assert to_json(copied_gaf) == to_json(original_gaf)


def test_export_missing_model_exits_2(tmp_path, capsys):
    code = run_cli("export", "--model", tmp_path / "none.json")
    assert code == 2
    assert "none.json" in capsys.readouterr().err


def test_export_rejects_corrupt_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("export", "--model", bad) == 2


def test_run_semantics_trace(tmp_path, capsys):
    model = trained_model_path(tmp_path)
    capsys.readouterr()
    assert (
        run_cli("run-semantics", "--model", model, "--instance", "1,0", "--iterations", "4")
        == 0
    )
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    gaf, _ = from_json(model.read_text())
    args = gaf.arguments()
    assert rows[0] == ["iteration", *[a.name for a in args]]
    assert len(rows) == 1 + 5  # header + iterations 0..4
    # iteration 0 carries the inputs and raw base scores
    first = [float(v) for v in rows[1][1:]]
    assert first[0] == 1.0 and first[1] == 0.0
    assert first[2:] == [a.base_score for a in args[2:]]
    # the graph has depth 2, so iterations 2..4 are identical
    assert rows[3][1:] == rows[4][1:] == rows[5][1:]


def test_run_semantics_writes_file(tmp_path):
    model = trained_model_path(tmp_path)
    out_path = tmp_path / "trace.csv"
    assert (
        run_cli("run-semantics", "--model", model, "--instance", "0,1", "--out", out_path)
        == 0
    )
    assert out_path.read_text().startswith("iteration,")


def test_run_semantics_rejects_bad_instances(tmp_path, capsys):
    model = trained_model_path(tmp_path)
    assert run_cli("run-semantics", "--model", model, "--instance", "1,0,1") == 2
    assert run_cli("run-semantics", "--model", model, "--instance", "a,b") == 2
    assert run_cli("run-semantics", "--model", model, "--instance", "2,0") == 2


def test_resolved_config_records_overrides(tmp_path):
    write_toy_dataset(tmp_path)
    cfg = write_toy_config(tmp_path)
    assert (
        run_cli(
            "train", "--config", cfg, "--runs", "1", "--lambda", "0.5",
            "--out", tmp_path / "out",
        )
        == 0
    )
    doc = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    assert doc["ga"]["lambda"] == 0.5
    assert doc["runs"] == 1
    assert doc["command"] == "train"
