"""gaflearn benchmark: one workload per invocation, result as a JSON last line.

    python3 perfbench/run.py --workload iris-search --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke            # every workload at minimal size
    python3 perfbench/run.py --check-counters   # full Iris run 0 at master seed 0

Run it from the root of a source checkout; gaflearn is imported from
``src/``, nothing is installed or downloaded. Iterations (see
``workloads.py``) cycle through the workload's seeds until every seed ran
and ``--seconds`` have passed; every repeat of a seed must write the same
artifacts byte for byte. With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` each iteration runs twice on the same seed,
untraced and then traced, and the per-layer metrics plus the tracing
overhead are reported. A workload that runs with fewer pool workers than
cores also repeats its first seed with ``GAF_THREADS`` at the core count.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy loads, so that pool
# workers times BLAS threads never exceed the cores.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 9

# Times the set-up a user pays before the first operation: importing
# gaflearn (numpy and scipy included) and resolving the config.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from gaflearn.experiment import load_experiment_config
load_experiment_config(sys.argv[2], seed=int(sys.argv[3]), runs=1, out=sys.argv[4])
print(time.perf_counter() - t0)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def machine_record(workload_threads: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 prints instead of returning
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "gaf_threads": workload_threads,
    }


def measure_setup(setup, samples: int) -> list[float]:
    out = setup.work / "setup-probe"
    values = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(setup.config_path), "0", str(out)],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return values


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


@contextlib.contextmanager
def work_dir(name: str):
    """A scratch directory inside the checkout, removed afterwards."""
    work = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def run_workload(args) -> int:
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    with work_dir(workload.name) as work:
        os.environ["TMPDIR"] = str(work)
        return _run(args, wl, workload, work)


def _run(args, wl, workload, work: Path) -> int:
    from gaflearn.util import derive_seed

    smoke = args.size == "smoke"
    setup = wl.prepare(workload, ROOT, work, args.seed, smoke)
    print(json.dumps({"machine": machine_record(setup.info["gaf_threads"])}))
    print(json.dumps({"workload": workload.name, "seed": args.seed, "inputs": setup.info}))

    spans = None
    if args.trace:
        import layers

        spans = layers.Spans(work / "spool")

    pairs, errors = [], []
    attempted = failed = 0

    def tally(it) -> None:
        nonlocal attempted, failed
        attempted += it.attempted
        failed += it.failed
        errors.extend(it.errors)

    def crashed() -> None:
        nonlocal attempted, failed
        attempted += 1
        failed += 1
        errors.append(traceback.format_exc())

    def same(a: dict, b: dict, message: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if a != b:
            failed += 1
            errors.append(message)

    seeds = [derive_seed(args.seed, "iteration", j) for j in range(workload.seeds)]
    first_artifacts: dict[int, dict] = {}
    setup_values: list[float] = []
    by_seed: list[list] = [[] for _ in seeds]
    start = time.perf_counter()
    k = 0
    while k < len(seeds) or time.perf_counter() - start < args.seconds:
        j = k % len(seeds)
        out = work / f"iteration-{k}"
        try:
            read_seconds = wl.READ_SECONDS if spans is None else 0.0
            it = wl.run_iteration(setup, seeds[j], out / "untraced", read_seconds=read_seconds)
            tally(it)
            by_seed[j].append(it)
            found = wl.artifacts(out / "untraced")
            if j in first_artifacts:
                same(found, first_artifacts[j], "artifacts of a repeated seed differ")
            else:
                first_artifacts[j] = found
            if spans is not None:
                traced = layers.traced_iteration(spans, setup, seeds[j], out / "traced")
                tally(traced.it)
                pairs.append((it, traced))
                same(
                    wl.artifacts(out / "traced"), found, "tracing changed the experiment's artifacts"
                )
        except Exception:
            crashed()
        shutil.rmtree(out, ignore_errors=True)
        if spans is None:
            # set-up is sampled between iterations, so that its median spans the run
            setup_values += measure_setup(setup, 1)
        k += 1
    if spans is None:
        setup_values += measure_setup(setup, max(0, SETUP_SAMPLES - len(setup_values)))

    # the repeats above ran at the workload's GAF_THREADS; compare all cores too
    threads = wl.all_cores(setup.info["settings"]["ga"]["population_size"])
    if threads != setup.info["gaf_threads"]:
        again = work / "repeat"
        try:
            tally(wl.run_iteration(setup, seeds[0], again, threads, read_seconds=0.0))
            same(
                wl.artifacts(again),
                first_artifacts.get(0),
                f"artifacts of the same seed differ at GAF_THREADS={threads}",
            )
        except Exception:
            crashed()

    by_seed = [group for group in by_seed if group]
    iterations = [it for group in by_seed for it in group]
    if not iterations:
        for e in errors:
            print(e, file=sys.stderr)
        fail("no iteration completed")

    if workload.name == "iris-search" and not smoke:
        # criterion 5's bars, on the mean over this run's searches
        attempted += 1
        accuracy = statistics.fmean(group[0].test_accuracy for group in by_seed)
        connections = statistics.fmean(group[0].n_connections for group in by_seed)
        if not (accuracy >= 0.90 and connections <= 15.0):
            failed += 1
            errors.append(f"iris bars missed: accuracy {accuracy:.4f}, connections {connections:.2f}")

    for e in errors:
        print(e, file=sys.stderr)
    print(json.dumps({"iterations": [
        {
            "wall_s": i.wall,
            "cpu_s": i.cpu,
            "read_samples": len(i.read_samples),
            "read_median_s": statistics.median(i.read_samples) if i.read_samples else None,
        }
        for i in iterations
    ]}))
    if spans is not None:
        metrics = layers.per_layer_metrics(spans, pairs, int(setup.info["gaf_threads"]))
    else:
        metrics = end_to_end_metrics(by_seed, setup_values)
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def end_to_end_metrics(by_seed: list[list], setup_values: list[float]) -> dict:
    """Times are medians over the run's iterations, rows_per_s over its read
    samples, quality comes from one run per seed.

    Every iteration does the same work (see workloads.py), and so does every
    read pass. The speed of a shared machine drifts within a run; the median
    follows its typical speed, while the fastest iteration depends on how
    fast the machine's quietest moment happened to be (see README.md).
    """
    iterations = [it for group in by_seed for it in group]

    def per_seed_mean(attr: str) -> float:
        return statistics.fmean(getattr(group[0], attr) for group in by_seed)

    def metric(value, unit):
        return {"value": value, "unit": unit}

    return {
        "setup_s": metric(statistics.median(setup_values), "s"),
        "wall_s": metric(statistics.median(it.total_wall() for it in iterations), "s"),
        "cpu_s": metric(statistics.median(sum(it.cpu.values()) for it in iterations), "s"),
        "evals_per_s": metric(
            statistics.median(it.individuals / it.wall["search"] for it in iterations), "1/s"
        ),
        "rows_per_s": metric(
            statistics.median(it.rows_scored / t for it in iterations for t in it.read_samples),
            "1/s",
        ),
        "test_accuracy": metric(per_seed_mean("test_accuracy"), "frac"),
        "n_connections": metric(per_seed_mean("n_connections"), "count"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def smoke() -> int:
    """Every workload at minimal size, both modes; every declared metric
    must come out with its declared unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            label = f"{w['name']} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            if emitted != declared[trace]:
                problems.append(f"{label}: metrics {emitted} != declared {declared[trace]}")
            if not result["correct"]:
                problems.append(f"{label}: correctness checks failed\n{done.stderr}")
            print(f"smoke {label}: {len(emitted)} metrics, correct={result['correct']}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check-counters", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "gaflearn" / "__init__.py").is_file():
        fail(f"no gaflearn sources under {ROOT / 'src'}; run from a source checkout")
    for needed in ("configs/iris.json", "configs/adult.json", "data/iris.csv"):
        if not (ROOT / needed).is_file():
            fail(f"missing {needed}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    warnings.filterwarnings("ignore", category=UserWarning, module="gaflearn")

    if args.smoke:
        return smoke()
    if args.check_counters:
        import layers

        with work_dir("counters") as work:
            return layers.check_counters(ROOT, work)
    if args.workload is None:
        parser.error("--workload is required")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
