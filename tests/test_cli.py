"""Command-line behaviour: exit codes, artifacts, export and strength output."""

import csv
import io
import json

import pytest

from gaflearn import experiment, ga
from gaflearn.cli import main
from gaflearn.graph import evaluate
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


@pytest.mark.parametrize("command", ["train", "baseline"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
def test_out_that_cannot_be_a_directory_exits_2_before_reading_data(
    tmp_path, capsys, monkeypatch, command, below
):
    def refuse(*_args):
        raise AssertionError("read the dataset before checking --out")

    monkeypatch.setattr(experiment, "load_csv", refuse)
    write_toy_dataset(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / below if below else blocker
    kind = ["--kind", "logistic"] if command == "baseline" else []
    assert run_cli(command, *kind, "--config", write_toy_config(tmp_path), "--out", out) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(out) in lines[0], lines


def test_baseline_default_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, monkeypatch):
    def refuse(*_args):
        raise AssertionError("read the dataset before checking the output directory")

    monkeypatch.setattr(experiment, "load_csv", refuse)
    monkeypatch.chdir(tmp_path)  # the default out directory is out/<config stem>
    write_toy_dataset(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "toy-logistic").write_text("not a directory\n")
    assert run_cli("baseline", "--kind", "logistic", "--config", write_toy_config(tmp_path)) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "toy-logistic" in lines[0], lines


def test_baseline_default_out_ignores_the_training_run_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_toy_dataset(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "toy").write_text("not a directory\n")  # train's default out
    cfg = write_toy_config(tmp_path, runs=1)
    assert run_cli("baseline", "--kind", "tree", "--config", cfg) == 0
    assert (tmp_path / "out" / "toy-tree" / "summary.csv").is_file()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["baseline", "--kind", "logistic", "--max-depth", "3"], "--max-depth"),
        (["export", "--format", "json", "--prune-below", "0.5"], "--prune-below"),
    ],
    ids=["max-depth-logistic", "prune-below-json"],
)
def test_flag_the_mode_ignores_exits_2_with_one_line(tmp_path, capsys, monkeypatch, argv, message):
    if argv[0] == "baseline":
        write_toy_dataset(tmp_path)
        argv = [*argv, "--config", write_toy_config(tmp_path, runs=1)]
    else:
        argv = [*argv, "--model", trained_model_path(tmp_path)]
    monkeypatch.chdir(tmp_path)
    before = set(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines
    assert captured.out == ""
    assert set(tmp_path.rglob("*")) == before  # nothing written


def test_bad_config_values_exit_2_with_one_line_naming_file_and_key(tmp_path, capsys):
    write_toy_dataset(tmp_path)
    base = json.loads(write_toy_config(tmp_path).read_text())
    for section, key, value in (
        ("train", "es_tolerance", float("nan")),  # json writes NaN
        ("ga", "ga_tolerance", float("inf")),  # and Infinity
        ("ga", "lambda", None),  # missing
    ):
        doc = json.loads(json.dumps(base))
        if value is None:
            del doc[section][key]
        else:
            doc[section][key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "out") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: "), lines
        assert repr(key) in lines[0] or f" {key} " in lines[0], lines


@pytest.mark.parametrize(
    "key, value",
    [("k", 500), ("n_conn_init", [200, 2]), ("n_conn_init", [2])],
    ids=["k", "capacity", "length"],
)
def test_config_mismatched_with_data_exits_2_naming_file_and_key(
    tmp_path, capsys, monkeypatch, key, value
):
    def refuse(*_args):
        raise AssertionError("trained before the config was checked")

    monkeypatch.setattr(ga, "train_population", refuse)
    write_toy_dataset(tmp_path)
    doc = json.loads(write_toy_config(tmp_path).read_text())
    doc["ga"][key] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli("train", "--config", cfg, "--runs", "1", "--out", tmp_path / "out") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: "), lines
    assert key in lines[0], lines


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


def test_interrupt_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def interrupted(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("gaflearn.experiment.evolve", interrupted)
    write_toy_dataset(tmp_path)
    cfg = write_toy_config(tmp_path)
    assert run_cli("train", "--config", cfg, "--runs", "1", "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.splitlines() == ["error: interrupted"]
    assert not (tmp_path / "out" / "summary.csv").exists()


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


@pytest.mark.parametrize(
    "command, out",
    [
        ("train", ""),
        ("baseline", ""),
        ("export", ""),
        ("export", "."),
        ("run-semantics", ""),
        ("run-semantics", ".."),
    ],
    ids=["train", "baseline", "export", "export-dot", "run-semantics", "run-semantics-dotdot"],
)
def test_out_that_names_no_path_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command, out):
    if command in ("train", "baseline"):
        write_toy_dataset(tmp_path)
        kind = ["--kind", "logistic"] if command == "baseline" else []
        args = [*kind, "--config", write_toy_config(tmp_path), "--runs", "1"]
    else:
        instance = ["--instance", "1,0"] if command == "run-semantics" else []
        args = ["--model", trained_model_path(tmp_path), *instance]
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    capsys.readouterr()
    assert run_cli(command, *args, "--out", out) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --out "), lines
    assert captured.out == ""
    assert list(work.iterdir()) == []  # nothing written to the working directory


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


def model_doc_with_unknown_edge_target():
    argument = lambda i, layer, name: {"id": i, "name": name, "layer": layer, "base_score": 0.5}
    return json.dumps({
        "format": "gaf-model/1",
        "layer_sizes": [1, 2],
        "class_labels": ["no", "yes"],
        "arguments": [
            argument("a0_0", 0, "x"), argument("a1_0", 1, "no"), argument("a1_1", 1, "yes")
        ],
        "edges": [{"source": "a0_0", "target": "a9_9", "weight": 1.0}],
    })


@pytest.mark.parametrize("command", ["export", "run-semantics"])
@pytest.mark.parametrize(
    "text, detail",
    [
        ("{not json", "not valid JSON: "),
        ('{"format": "gaf-model/1"}', "document: missing key 'layer_sizes'"),
        (model_doc_with_unknown_edge_target(), "a9_9"),
    ],
    ids=["bad-json", "missing-key", "unknown-argument"],
)
def test_malformed_model_exits_2_with_one_line_naming_the_file(
    tmp_path, capsys, command, text, detail
):
    model = tmp_path / "bad.json"
    model.write_text(text)
    extra = ["--instance", "1"] if command == "run-semantics" else []
    assert run_cli(command, "--model", model, *extra) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {model}: "), lines
    assert detail in lines[0], lines


@pytest.mark.parametrize("prune_below", ["-1", "nan"])
def test_export_rejects_bad_prune_below(tmp_path, capsys, prune_below):
    model = trained_model_path(tmp_path)
    capsys.readouterr()
    assert run_cli("export", "--model", model, "--prune-below", prune_below) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --prune-below must be >= 0, got {float(prune_below)}"
    ]


@pytest.mark.parametrize("which", ["config", "schema", "dataset", "model"])
def test_non_utf8_input_exits_2_with_one_line_naming_the_file(tmp_path, capsys, which):
    write_toy_dataset(tmp_path)
    cfg = write_toy_config(tmp_path, runs=1)
    path = {
        "config": cfg,
        "schema": tmp_path / "toy.schema.json",
        "dataset": tmp_path / "toy.csv",
        "model": tmp_path / "model.json",
    }[which]
    text = path.read_bytes() if path.exists() else b"{}"
    path.write_bytes(b"\xff\xfe" + text)  # a UTF-16 byte-order mark
    if which == "model":
        code = run_cli("export", "--model", path)
    else:
        code = run_cli("train", "--config", cfg, "--out", tmp_path / "out")
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {path}: not UTF-8 text (invalid start byte)"]


LONG_INT = "1" + "0" * 5000  # past Python's 4,300-digit limit on reading an int
HUGE_INT = "1" + "0" * 400  # readable, but too large for a float


def write_with_number(path, doc, number):
    """Write doc as JSON with its one string "NUMBER" replaced by a bare number."""
    path.write_text(json.dumps(doc).replace('"NUMBER"', number))


@pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e999"])
@pytest.mark.parametrize(
    "command",
    [
        ["export", "--format", "json"],
        ["export", "--format", "dot"],
        ["run-semantics", "--instance", "1"],
    ],
    ids=["export-json", "export-dot", "run-semantics"],
)
def test_non_finite_model_number_exits_2_with_one_line_naming_the_file(
    tmp_path, capsys, command, number
):
    path = tmp_path / "model.json"
    doc = json.loads(model_doc_with_unknown_edge_target().replace("a9_9", "a1_0"))
    doc["metadata"] = {"run": "NUMBER"}
    write_with_number(path, doc, number)
    assert run_cli(*command[:1], "--model", path, *command[1:]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: {path}: {number} is not a finite number"], lines


@pytest.mark.parametrize(
    "which, number, detail",
    [
        ("config", LONG_INT, "not valid JSON (Exceeds the limit"),
        ("config", HUGE_INT, "learning_rate must be a number within the float range"),
        ("schema", LONG_INT, "not valid JSON (Exceeds the limit"),
        ("model", LONG_INT, "not valid JSON: Exceeds the limit"),
        ("model", HUGE_INT, "edge 0: 'weight' is too large for a float"),
        ("model-base-score", HUGE_INT, "argument 1: 'base_score' is too large for a float"),
    ],
    ids=["config-long-int", "config-huge-float", "schema-long-int", "model-long-int",
         "model-huge-weight", "model-huge-base-score"],
)
def test_json_numbers_python_cannot_use_exit_2_with_one_line_naming_the_file(
    tmp_path, capsys, which, number, detail
):
    write_toy_dataset(tmp_path)
    cfg = write_toy_config(tmp_path, runs=1)
    if which == "config":
        doc = json.loads(cfg.read_text())
        doc["train"]["learning_rate"] = "NUMBER"
        write_with_number(cfg, doc, number)
        path = cfg
    elif which == "schema":
        path = tmp_path / "toy.schema.json"
        doc = json.loads(path.read_text())
        doc["columns"]["x1"]["bins"] = "NUMBER"
        write_with_number(path, doc, number)
    else:
        path = tmp_path / "model.json"
        doc = json.loads(model_doc_with_unknown_edge_target().replace("a9_9", "a1_0"))
        key = "base_score" if which == "model-base-score" else "weight"
        (doc["arguments"][1] if key == "base_score" else doc["edges"][0])[key] = "NUMBER"
        write_with_number(path, doc, number)
    if which.startswith("model"):
        code = run_cli("export", "--model", path)
    else:
        code = run_cli("train", "--config", cfg, "--out", tmp_path / "out")
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: {detail}"), lines


@pytest.mark.parametrize("command", ["train", "baseline"])
def test_dataset_that_cannot_be_stratified_exits_2_naming_the_file(tmp_path, capsys, command):
    write_toy_dataset(tmp_path)
    dataset = tmp_path / "toy.csv"
    # two 'pos' rows: a class needs three to be split three ways
    rows = [f"{i % 2},{i // 2 % 2},neg" for i in range(20)] + ["1,0,pos", "1,1,pos"]
    dataset.write_text("x1,x2,y\n" + "\n".join(rows) + "\n")
    kind = ["--kind", "logistic"] if command == "baseline" else []
    cfg = write_toy_config(tmp_path, runs=1)
    assert run_cli(command, *kind, "--config", cfg, "--out", tmp_path / "out") == 2
    lines = capsys.readouterr().err.splitlines()
    # the class is named by its label, not by its index
    assert lines == [f"error: {dataset}: classes ['pos'] have fewer than 3 instances"], lines
    # the output directory is made with the first artifact, so none is left behind
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["train", "logistic", "tree"])
def test_dataset_with_no_validation_row_exits_2_naming_the_file(tmp_path, capsys, kind):
    write_toy_dataset(tmp_path)
    dataset = tmp_path / "toy.csv"
    # two classes of 5: round(0.1 * 5) is 0, so no class gives a validation row
    rows = [f"{i % 2},{i // 2 % 2},{'pos' if i < 5 else 'neg'}" for i in range(10)]
    dataset.write_text("x1,x2,y\n" + "\n".join(rows) + "\n")
    command = ["train"] if kind == "train" else ["baseline", "--kind", kind]
    cfg = write_toy_config(tmp_path, runs=1)
    assert run_cli(*command, "--config", cfg, "--out", tmp_path / "out") == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [
        f"error: {dataset}: the validation split would be empty: "
        "every class has at most 5 instances"
    ], lines
    assert not (tmp_path / "out").exists()


def test_run_semantics_trace(tmp_path, capsys):
    model = trained_model_path(tmp_path)
    capsys.readouterr()
    assert run_cli("run-semantics", "--model", model, "--instance", "1,0") == 0
    out = capsys.readouterr().out
    gaf, _ = from_json(model.read_text())
    args = gaf.arguments()
    strengths = evaluate(gaf, [1.0, 0.0]).strengths
    # a header of argument names, layer-major, and one row of evaluate's strengths
    assert out.splitlines() == [
        ",".join(a.name for a in args),
        ",".join(repr(strengths[a.id]) for a in args),
    ]
    row = [float(v) for v in out.splitlines()[1].split(",")]
    assert row[:2] == [1.0, 0.0]  # inputs carry the instance's values


def test_run_semantics_writes_file(tmp_path):
    model = trained_model_path(tmp_path)
    out_path = tmp_path / "trace.csv"
    assert (
        run_cli("run-semantics", "--model", model, "--instance", "0,1", "--out", out_path)
        == 0
    )
    gaf, _ = from_json(model.read_text())
    strengths = evaluate(gaf, [0.0, 1.0]).strengths
    rows = list(csv.reader(io.StringIO(out_path.read_text())))
    assert rows == [
        [a.name for a in gaf.arguments()],
        [repr(strengths[a.id]) for a in gaf.arguments()],
    ]


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
    # the toy config leaves these out; the defaults that ran are recorded
    assert {k: doc["ga"][k] for k in ("q", "k", "ga_patience", "ga_tolerance")} == {
        "q": 3, "k": 2, "ga_patience": 5, "ga_tolerance": 1e-4
    }
    assert {k: doc["train"][k] for k in ("es_tolerance", "batch_size")} == {
        "es_tolerance": 1e-4, "batch_size": 0
    }
