"""Command-line interface: experiments, baselines, export, semantics runs.

Exit codes: 0 success, 1 runtime failure (such as a diverged training),
2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace
from pathlib import Path

from .errors import (
    CodecError,
    ConfigError,
    GafError,
    InputShapeError,
    ModelFormatError,
    ParseError,
    SchemaError,
)
from .experiment import (
    load_experiment_config,
    run_baseline_experiment,
    run_training_experiment,
)
from .graph import strength_trajectory
from .model_io import from_json, to_dot, to_json

_USAGE_ERRORS = (
    ConfigError,
    SchemaError,
    ParseError,
    ModelFormatError,
    InputShapeError,
    CodecError,
    FileNotFoundError,
    IsADirectoryError,
)


def _add_override_flags(sub: argparse.ArgumentParser, with_lambda: bool) -> None:
    sub.add_argument("--config", required=True, help="experiment config JSON")
    sub.add_argument("--seed", type=int, default=None, help="override master seed")
    sub.add_argument("--runs", type=int, default=None, help="override run count")
    sub.add_argument("--out", default=None, help="override output directory")
    sub.add_argument(
        "--bin-fit",
        choices=("train", "all"),
        default=None,
        help="fit numeric thresholds on the training split or on all rows",
    )
    if with_lambda:
        sub.add_argument(
            "--lambda",
            dest="lam",
            type=float,
            default=None,
            help="override the sparsity weight in the fitness function",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaflearn",
        description="Learn sparse argumentation classifiers and inspect them.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="run seeded structure-search experiments")
    _add_override_flags(p_train, with_lambda=True)
    p_train.set_defaults(func=_cmd_train)

    p_base = subs.add_parser("baseline", help="run reference classifiers on the same splits")
    _add_override_flags(p_base, with_lambda=False)
    p_base.add_argument("--kind", choices=("logistic", "tree"), required=True)
    p_base.add_argument(
        "--max-depth", type=int, default=None, help="depth cap for tree baselines"
    )
    p_base.set_defaults(func=_cmd_baseline)

    p_exp = subs.add_parser("export", help="rewrite a saved model as JSON or DOT")
    p_exp.add_argument("--model", required=True, help="model JSON file")
    p_exp.add_argument("--format", choices=("dot", "json"), default="dot")
    p_exp.add_argument(
        "--prune-below",
        type=float,
        default=0.0,
        help="hide edges with |weight| below this in DOT output",
    )
    p_exp.add_argument("--out", default=None, help="output file (default: stdout)")
    p_exp.set_defaults(func=_cmd_export)

    p_sem = subs.add_parser(
        "run-semantics", help="trace strength values for one instance"
    )
    p_sem.add_argument("--model", required=True, help="model JSON file")
    p_sem.add_argument(
        "--instance",
        required=True,
        help="comma-separated input strengths, e.g. '1,0,0.5'",
    )
    p_sem.add_argument("--iterations", type=int, default=10)
    p_sem.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p_sem.set_defaults(func=_cmd_run_semantics)

    return parser


def _load_config(args, lam=None):
    return load_experiment_config(
        args.config,
        seed=args.seed,
        runs=args.runs,
        out=args.out,
        lam=lam,
        bin_fit=args.bin_fit,
    )


def _cmd_train(args) -> int:
    config = _load_config(args, lam=args.lam)
    run_training_experiment(config, echo=print)
    print(f"wrote {config.out_dir / 'summary.csv'}")
    return 0


def _cmd_baseline(args) -> int:
    config = _load_config(args)
    if args.out is None:
        # keep baseline artifacts apart from the training run's directory
        suffix = f"-{args.kind}"
        if args.max_depth is not None:
            suffix += f"-depth{args.max_depth}"
        config = replace(config, out_dir=config.out_dir.with_name(config.out_dir.name + suffix))
    run_baseline_experiment(config, args.kind, max_depth=args.max_depth, echo=print)
    print(f"wrote {config.out_dir / 'summary.csv'}")
    return 0


def _read_model(path_str: str):
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"model file not found: {path}")
    return from_json(path.read_text(encoding="utf-8"))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_export(args) -> int:
    gaf, metadata = _read_model(args.model)
    if args.prune_below < 0:
        raise ConfigError(f"--prune-below must be >= 0, got {args.prune_below}")
    if args.format == "json":
        text = to_json(gaf, metadata if metadata else None)
    else:
        text = to_dot(gaf, prune_below=args.prune_below)
    _emit(text, args.out)
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


def _cmd_run_semantics(args) -> int:
    gaf, _ = _read_model(args.model)
    try:
        values = [float(tok) for tok in args.instance.split(",")]
    except ValueError:
        raise ConfigError(
            f"--instance must be comma-separated numbers, got {args.instance!r}"
        ) from None
    if args.iterations < 0:
        raise ConfigError(f"--iterations must be >= 0, got {args.iterations}")
    trajectory = strength_trajectory(gaf, values, args.iterations)
    names = [a.name for a in gaf.arguments()]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iteration", *names])
    for i, vec in enumerate(trajectory):
        writer.writerow([i, *[repr(float(v)) for v in vec]])
    _emit(buf.getvalue(), args.out)
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GafError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
