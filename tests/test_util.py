"""The numpy logistic and log-odds against scipy.special, a runtime without scipy,
and the package namespace."""

import importlib
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import gaflearn
from gaflearn.util import expit, logit


def ulps_apart(a, b):
    """Per element, how many float64 values lie between a and b (0 if equal)."""

    def ordered(v):  # the float64 bit patterns as integers in the order of the values
        i = v.view(np.int64)
        return np.where(i < 0, -(i & np.int64(0x7FFF_FFFF_FFFF_FFFF)), i)

    return np.abs(ordered(a) - ordered(b))


@pytest.mark.parametrize("draw", ["normal", "uniform"])
def test_expit_and_logit_are_within_4_ulp_of_scipy(draw):
    rng = np.random.default_rng(18)
    n = 1_000_000
    if draw == "normal":
        x, p = rng.normal(0.0, 8.0, n), special.expit(rng.normal(0.0, 3.0, n))
    else:  # x from where the logistic underflows to 0 to past where it rounds to 1
        x, p = rng.uniform(-745.0, 40.0, n), rng.uniform(0.0, 1.0, n)
    assert ulps_apart(expit(x), special.expit(x)).max() <= 4
    assert ulps_apart(logit(p), special.logit(p)).max() <= 4


def test_expit_and_logit_exact_values():
    x = np.array([np.inf, -np.inf, 800.0, -800.0, 0.0])
    assert expit(x).tolist() == [1.0, 0.0, 1.0, 0.0, 0.5]
    assert logit(np.array([0.0, 1.0, 0.5])).tolist() == [-np.inf, np.inf, 0.0]
    assert np.isnan(logit(np.array([-0.5, 1.5, np.nan]))).all()
    assert np.isnan(expit(np.array([np.nan]))).all()


def test_expit_writes_into_out_and_neither_warns():
    z = np.array([[-800.0, -1.0, 0.0, 3.0, np.inf, -np.inf]])
    expected = special.expit(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expit(z, out=z) is z
        logit(np.array([0.0, 0.3, 0.5, 0.65, 1.0, -1.0, 2.0, np.nan]))
    assert np.array_equal(z, expected)


def test_training_evaluating_and_saving_a_model_import_no_scipy(tmp_path):
    script = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from gaflearn import GafStructure, TrainConfig, evaluate, to_classifier, to_json
from gaflearn.train import train
x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 3, dtype=np.float64)
y = (x[:, 0] > 0).astype(np.int64)
result = train(GafStructure.fully_connected((2, 2, 2)), x, y, x, y, TrainConfig(0.1, max_epochs=5))
gaf = to_classifier(result, ["p", "q"], ["no", "yes"])
assert len(evaluate(gaf, [1.0, 0.0]).strengths) == 6
with open(sys.argv[2], "w", encoding="utf-8") as f:
    f.write(to_json(gaf))
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    src = Path(gaflearn.__file__).resolve().parents[1]
    out = tmp_path / "model.json"
    done = subprocess.run(
        [sys.executable, "-c", script, str(src), str(out)], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert out.read_text(encoding="utf-8").startswith("{")


def test_each_submodule_is_the_package_attribute_of_its_name():
    for info in pkgutil.iter_modules(gaflearn.__path__):
        module = importlib.import_module(f"gaflearn.{info.name}")
        assert getattr(gaflearn, info.name) is module, info.name
    import gaflearn.train as t

    assert t is sys.modules["gaflearn.train"]
    assert callable(t.train_population)
