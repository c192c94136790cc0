"""Command line interface.

Subcommands: ``synth`` (generate a dataset), ``align`` (fit a model and map
every subject), ``corr`` (between-subject correlation profiles per method),
``loso`` (leave-one-subject-out classification), ``sweep`` (grids over
gamma, coupling determinant, time-series length, or noise), and ``rerun``
(replay a recorded run configuration).

:func:`main` runs every command: it creates ``--out``, starts the run clock,
calls the command (which only does its work, timing its stages) and only
then writes ``run_config.json`` and ``timings.json``; a failed run writes
neither and may leave an empty ``--out``.  ``run_config.json`` records the
command and every parsed option under its ``dest`` (e.g.
``instances_per_class`` for ``synth --instances``) except ``--out``;
``rerun`` maps each recorded name back to its option and hands the
replayed command line to :func:`main`.  ``timings.json`` holds ``command``,
``stages_ns`` (monotonic nanoseconds per stage, such as ``load_ns``;
``sweep`` has none) and ``total_ns``.  Timings are the only
non-deterministic output: rerunning a command with the same arguments and
seed reproduces every other file byte for byte.

``sweep --kind noise`` generates its datasets from ``--seed`` and refuses
``--data``, so that no record names a dataset the run never read; the
other kinds require ``--data``.

Exit codes: 0 success, 2 usage/configuration (including missing files),
3 invalid data, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .alignment import METHODS, SUPERVISED_METHODS, fit, map_dataset, save_model
from .classify import _Stages, run_loso, run_loso_normalized
from .data import (
    Dataset,
    LabelMatrix,
    SubjectData,
    load_dataset,
    normalize,
    read_json_object,
    save_dataset,
    write_json,
    write_matrix_csv,
)
from .errors import InvalidArgumentError, InvalidDataError, NumericError
from .metrics import correlation_report
from .supervision import coupling_determinant, kernels_for
from .synth import ROTATIONS, SynthConfig, generate, save_ground_truth

PROG = "multialign"
SWEEP_KINDS = ("det", "gamma", "trs", "noise")
EXIT_CODES = {InvalidArgumentError: 2, OSError: 2, InvalidDataError: 3,
              NumericError: 4, FloatingPointError: 4, np.linalg.LinAlgError: 4}


def _emit_error(exc: BaseException) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Header plus rows; ``None`` is an empty cell, a float its shortest repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else str(v) for v in row) + "\n")


def _arguments(args) -> dict:
    """Every parsed option of a command under its ``dest``, minus ``--out``."""
    return {key: value for key, value in vars(args).items()
            if key not in ("command", "func", "out")}


def _number_or_auto(text, cast, requirement: str):
    """``cast(text)``, or None for ``'auto'``; ``requirement`` opens the error."""
    if text == "auto":
        return None
    try:
        return cast(text)
    except (TypeError, ValueError):
        raise InvalidArgumentError(f"{requirement} or 'auto', got {text!r}")


def _gamma_and_k(args) -> tuple[float | None, int | None]:
    return (_number_or_auto(args.gamma, float, "--gamma must be a real number"),
            _number_or_auto(args.k, int, "--k must be an integer"))


def _parse_values(text: str, kind: str) -> list[float]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise InvalidArgumentError("--values must list at least one grid point")
    try:
        if kind == "trs":
            return [int(part) for part in items]
        return [float(part) for part in items]
    except ValueError:
        raise InvalidArgumentError(f"--values contains a non-numeric entry: {text!r}")


def cmd_synth(args, out: Path, stage: _Stages) -> None:
    config = SynthConfig(**_arguments(args))
    with stage("generate_ns"):
        dataset, truth = generate(config)
    with stage("write_ns"):
        save_dataset(dataset, out)
        save_ground_truth(truth, out / "ground_truth.json")


def cmd_align(args, out: Path, stage: _Stages) -> None:
    gamma, k = _gamma_and_k(args)
    with stage("load_ns"):
        dataset = normalize(load_dataset(args.data))
    with stage("fit_ns"):
        kernels = kernels_for(dataset, gamma) if args.method in SUPERVISED_METHODS else None
        model = fit(args.method, dataset, kernels, epsilon=args.epsilon, k=k,
                    iterations=args.iters)
    with stage("map_ns"):
        save_model(model, out)
        for mapped in map_dataset(model, dataset):
            write_matrix_csv(out / f"z_{mapped.subject_id}.csv", mapped.features)


def cmd_corr(args, out: Path, stage: _Stages) -> None:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise InvalidArgumentError("--methods must name at least one method")
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise InvalidArgumentError(
                f"--methods entries must be among {METHODS}, got {method!r}"
            )
        if method in methods[:i]:
            raise InvalidArgumentError(f"--methods names {method!r} more than once")
    gamma, k = _gamma_and_k(args)
    with stage("load_ns"):
        dataset = normalize(load_dataset(args.data))

    rows = []
    for method in methods:
        with stage(f"{method}_ns"):
            kernels = kernels_for(dataset, gamma) if method in SUPERVISED_METHODS else None
            model = fit(method, dataset, kernels, epsilon=args.epsilon, k=k,
                        iterations=args.iters)
            report = correlation_report(map_dataset(model, dataset), dataset.labels,
                                        rho1_labeled_only=args.rho1_labeled_only)
        write_json(out / f"corr_{method}.json", {
            "method": method,
            "params": {
                "epsilon": model.epsilon,
                "gamma": model.gamma,
                "k": model.k,
                "iterations": args.iters,
            },
            "report": report.to_json_dict(),
        })
        for name, summary in (("rho1", report.rho1), ("rho2", report.rho2),
                              ("rho3", report.rho3), ("rho4", report.rho4)):
            rows.append([method, name, summary.mean, summary.std])
    _write_csv(out / "corr_summary.csv", ["method", "metric", "mean", "std"], rows)


def cmd_loso(args, out: Path, stage: _Stages) -> None:
    gamma, k = _gamma_and_k(args)
    with stage("load_ns"):
        dataset = load_dataset(args.data)
    report = run_loso(dataset, args.method, epsilon=args.epsilon, gamma=gamma,
                      k=k, iterations=args.iters, ridge=args.ridge)
    stage.update(report.timings["total"])
    payload = report.to_json_dict()
    payload["dataset"] = str(args.data)
    payload["seed"] = args.seed
    write_json(out / f"loso_{args.method}.json", payload)
    _write_csv(
        out / "loso_summary.csv",
        ["dataset", "method", "seed", "accuracy_mean", "accuracy_std",
         "auc_mean", "auc_std"],
        [[str(args.data), args.method, args.seed, report.accuracy_mean,
          report.accuracy_std, report.auc_mean, report.auc_std]],
    )


def _truncate_dataset(dataset: Dataset, n_timepoints: int) -> Dataset:
    if not 2 <= n_timepoints <= dataset.n_timepoints:
        raise InvalidArgumentError(
            f"--values time-point counts must be in [2, {dataset.n_timepoints}], "
            f"got {n_timepoints}"
        )
    subjects = tuple(
        SubjectData(s.subject_id, s.data[:n_timepoints]) for s in dataset.subjects
    )
    labels = tuple(LabelMatrix(l.onehot[:, :n_timepoints]) for l in dataset.labels)
    return Dataset(subjects, labels, dataset.class_names)


def cmd_sweep(args, out: Path, stage: _Stages) -> None:
    values = _parse_values(args.values, args.kind)
    if args.kind == "noise" and args.data is not None:
        raise InvalidArgumentError("--kind noise generates its datasets and takes no --data")
    if args.kind != "noise" and args.data is None:
        raise InvalidArgumentError(f"--data is required for --kind {args.kind}")
    gamma, k = _gamma_and_k(args)

    base = None if args.kind == "noise" else load_dataset(args.data)
    if args.kind == "gamma":
        # Only the supervision kernels change with gamma: every value's folds
        # share one normalized dataset, hence each subject's data-side SVD.
        base = normalize(base)
    rows = []
    for v in values:
        if args.kind == "gamma":
            dataset, gamma = base, v
        elif args.kind == "trs":
            dataset = normalize(_truncate_dataset(base, v))
        elif args.kind == "noise":
            dataset = normalize(generate(SynthConfig(noise_sigma=v, seed=args.seed))[0])
        if args.kind != "det":
            report = run_loso_normalized(dataset, args.method, epsilon=args.epsilon,
                                         gamma=gamma, k=k, iterations=args.iters,
                                         ridge=args.ridge)
        if args.kind in ("det", "gamma"):
            t = int(base.labels[0].labeled_indices.size)
            rows.append([args.kind, v, "coupling_det", coupling_determinant(t, v), 0.0])
        if args.kind != "det":
            rows.append([args.kind, v, "accuracy", report.accuracy_mean, report.accuracy_std])
            rows.append([args.kind, v, "auc", report.auc_mean, report.auc_std])

    _write_csv(out / "sweep.csv", ["kind", "value", "metric", "mean", "std"], rows)


def _replayed_argv(args) -> list[str]:
    """The command line a recorded ``run_config.json`` replays into ``--out``."""
    recorded = read_json_object(args.config)
    if not isinstance(recorded.get("command"), str):
        raise InvalidDataError(f"{args.config} is not a run configuration")
    command = recorded["command"]
    if command == "rerun":
        raise InvalidArgumentError("cannot rerun a rerun")
    arguments = recorded.get("arguments", {})
    if command not in args.subcommands:
        raise InvalidDataError(f"{args.config} records an unknown command {command!r}")
    if not isinstance(arguments, dict):
        raise InvalidDataError(f"{args.config}: 'arguments' must be a JSON object")
    # Each recorded name is the dest of one of the command's own options.
    options = {action.dest: action.option_strings
               for action in args.subcommands[command]._actions if action.option_strings}
    argv = [command]
    for key, value in sorted(arguments.items()):
        if key not in options:
            raise InvalidDataError(f"{args.config}: {command} has no option {key!r}")
        if value is None or value is False:  # unset, or a store_true flag left off
            continue
        argv.append(options[key][0])
        if value is not True:
            argv.append(str(value))
    argv.extend(["--out", str(args.out)])
    return argv


def _add_common(parser, data_required=True, with_method=True):
    parser.add_argument("--data", required=data_required,
                        help="path to a dataset manifest (JSON)")
    if with_method:
        parser.add_argument("--method", choices=METHODS, default="sha",
                            help="alignment method (default: sha)")
    parser.add_argument("--epsilon", type=float, default=1e-4,
                        help="ridge term of the projectors (default: 1e-4)")
    parser.add_argument("--gamma", default="auto",
                        help="label-coupling strength, real or 'auto' = 1/(2t)")
    parser.add_argument("--k", default="auto",
                        help="shared-space dimension, integer or 'auto'")
    parser.add_argument("--iters", type=int, default=10,
                        help="iterations of the iterative method (default: 10)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Supervised and unsupervised functional alignment of "
                    "multi-subject time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--subjects", type=int, default=6)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--instances", type=int, default=4, dest="instances_per_class",
                   metavar="INSTANCES", help="stimulus instances per class (default: 4)")
    p.add_argument("--instance-length", type=int, default=5,
                   help="time points per instance (default: 5)")
    p.add_argument("--voxels", type=int, default=50)
    p.add_argument("--noise", type=float, default=0.5, dest="noise_sigma",
                   metavar="NOISE", help="noise standard deviation (default: 0.5)")
    p.add_argument("--rotation", choices=ROTATIONS, default="orthogonal")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("align", help="fit an alignment and map every subject")
    _add_common(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("corr", help="correlation profiles per method")
    _add_common(p, with_method=False)
    p.add_argument("--methods", default="none,rha,sha,sha_r",
                   help="comma-separated methods (default: all)")
    p.add_argument("--rho1-labeled-only", action="store_true",
                   help="restrict rho1 to labeled time points")
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("loso", help="leave-one-subject-out classification")
    _add_common(p)
    p.add_argument("--ridge", type=float, default=1.0,
                   help="classifier ridge weight (default: 1.0)")
    p.set_defaults(func=cmd_loso)

    p = sub.add_parser("sweep", help="grid sweeps (determinant, gamma, TRs, noise)")
    _add_common(p, data_required=False)
    p.add_argument("--kind", choices=SWEEP_KINDS, required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated grid values")
    p.add_argument("--ridge", type=float, default=1.0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("rerun", help="replay a recorded run_config.json")
    p.add_argument("config", help="path to run_config.json")
    p.set_defaults(subcommands=sub.choices)

    for name, sp in sub.choices.items():
        if name != "rerun":  # a replay takes the recorded seed
            sp.add_argument("--seed", type=int, default=0,
                            help="base random seed (default: 0)")
        sp.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None) -> int:
    """Run one command; its records are written only once it has succeeded."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    started = time.perf_counter_ns()
    try:
        if args.command == "rerun":
            return main(_replayed_argv(args))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stage = _Stages()
        args.func(args, out, stage)
        write_json(out / "run_config.json",
                   {"command": args.command, "arguments": _arguments(args)})
        write_json(out / "timings.json", {"command": args.command, "stages_ns": stage,
                                          "total_ns": time.perf_counter_ns() - started})
        return 0
    except tuple(EXIT_CODES) as exc:
        _emit_error(exc)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
