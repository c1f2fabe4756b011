"""Command-line interface: experiments, baselines, export, semantics runs.

Exit codes: 0 success, 1 runtime failure (such as a diverged training or an
interrupt), 2 configuration or usage error, including bad input data such as
a dataset that cannot be split.
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
    StratificationError,
)
from .experiment import (
    load_experiment_config,
    run_baseline_experiment,
    run_training_experiment,
)
from .graph import evaluate
from .model_io import from_json, to_dot, to_json
from .util import write_text_atomic

_USAGE_ERRORS = (
    ConfigError,
    SchemaError,
    ParseError,
    ModelFormatError,
    InputShapeError,
    CodecError,
    StratificationError,
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
        default=None,
        help="hide edges with |weight| below this in DOT output (default 0)",
    )
    p_exp.add_argument("--out", default=None, help="output file (default: stdout)")
    p_exp.set_defaults(func=_cmd_export)

    p_sem = subs.add_parser(
        "run-semantics", help="print every argument's strength for one instance"
    )
    p_sem.add_argument("--model", required=True, help="model JSON file")
    p_sem.add_argument(
        "--instance",
        required=True,
        help="comma-separated input strengths, e.g. '1,0,0.5'",
    )
    p_sem.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p_sem.set_defaults(func=_cmd_run_semantics)

    return parser


def _load_config(args, lam=None):
    if args.out == "":  # it would resolve to the working directory
        raise ConfigError("--out must be a non-empty path, got ''")
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
    try:
        run_training_experiment(config, echo=print)
    except ConfigError as exc:  # a config value that does not fit the data
        raise ConfigError(f"{args.config}: {exc}") from exc
    print(f"wrote {config.out_dir / 'summary.csv'}")
    return 0


def _cmd_baseline(args) -> int:
    config = _load_config(args)
    if args.out is None:  # keep baseline artifacts apart from the training run's
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
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        return from_json(text)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    elif Path(out).name in ("", ".."):  # '', '.' or '..' name no file
        raise ConfigError(f"--out must name a file, got {out!r}")
    else:
        write_text_atomic(out, text)


def _cmd_export(args) -> int:
    if args.prune_below is not None:
        if args.format != "dot":
            raise ConfigError("--prune-below applies to DOT output only")
        if not args.prune_below >= 0:  # NaN fails too
            raise ConfigError(f"--prune-below must be >= 0, got {args.prune_below}")
    gaf, metadata = _read_model(args.model)
    if args.format == "json":
        text = to_json(gaf, metadata if metadata else None)
    else:
        text = to_dot(gaf, prune_below=args.prune_below or 0.0)
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
    strengths = evaluate(gaf, values).strengths
    arguments = gaf.arguments()  # layer-major
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([a.name for a in arguments])
    writer.writerow([repr(strengths[a.id]) for a in arguments])
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
    except (GafError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
