"""Run one workload in this fresh process: set-up, then a closed loop.

``run.py`` starts this once per run with one BLAS thread, and once more at
the machine's default BLAS threads when the run is traced.  One client runs
the workload's CLI commands back to back through ``multialign.cli.main``
until ``--seconds`` have passed, finishing the pass it is in.  Outputs are
left on disk and checked by the parent, so that this process's peak RSS is
the program's own.  Every output's content hash is recorded, and an output
with the same bytes as an earlier one of its command is deleted, so the
run's files stay bounded.

``--mode timed`` runs every pass untraced and ``synth`` before the first
pass and again after a pass whenever set-up so far is at most a quarter of
the pass time so far, so that the set-up samples (their median is
``setup_s``) spread over the run like the pass samples.  Each pass and each
set-up is bracketed by runs of the reference kernel in ``calibrate.py``;
the sample records the mean kernel time around it.  ``--mode traced`` runs
``synth`` once, traced, and alternates untraced and traced passes, so the
pass-time difference is the tracing overhead measured in one process.

    python3 bench/worker.py --workload NAME --seed N --seconds S \\
        --mode timed|traced --work DIR [--tiny]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Program stages in ``timings.json`` and the spans outside that cover them,
# per command.  A stage's outside time counts spans no other listed span
# encloses.
STAGE_SPANS = {
    "loso": {"load_ns": ("data.load_dataset",),
             "fit_ns": ("supervision.kernels_for", "alignment.fit"),
             "map_ns": ("alignment.map_subject",),
             "train_ns": ("classify.train_classifier",),
             "score_ns": ("classify.decision_function", "metrics.accuracy",
                          "metrics.one_vs_rest_auc")},
    "align": {"load_ns": ("data.load_dataset", "data.normalize"),
              "fit_ns": ("supervision.kernels_for", "alignment.fit"),
              "map_ns": ("alignment.save_model", "alignment.map_subject",
                         "data.write_matrix_csv")},
    "corr": {"load_ns": ("data.load_dataset", "data.normalize")},
}


# Writes through data's writers; save_dataset encloses write_matrix_csv.
WRITE_SPANS = ("data.write_matrix_csv", "data.save_dataset")

# Most set-up time a timed run spends, as a share of its pass time.
SETUP_SHARE = 0.25


def environment() -> dict:
    """Machine, library and thread settings this process ran with."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def stage_figures(command: str, out_dir: Path, tracer) -> dict:
    """``{stage: [program seconds, outside seconds]}`` for one traced command."""
    stages = STAGE_SPANS.get(command)
    if stages is None:
        return {}
    recorded = json.loads((out_dir / "timings.json").read_text(encoding="utf-8"))
    recorded = recorded.get("stages_ns", {})
    return {stage: [recorded[stage] / 1e9, tracer.outermost_s(names)]
            for stage, names in stages.items() if stage in recorded}


def digest(out: Path) -> str | None:
    """Content hash of an output directory, ``timings.json`` left out."""
    if not out.is_dir():
        return None
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "timings.json":
            data = path.read_bytes()
            h.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()


def run_cli(cli, argv: list[str]) -> tuple[int, float, str | None]:
    """(exit code, seconds, error) of one command; a crash is a failed command."""
    started = time.perf_counter()
    try:
        rc, error = cli.main(argv), None
    except Exception as exc:  # the loop must go on and report the failure
        rc, error = -1, "".join(traceback.format_exception(exc))[-2000:]
    return rc, time.perf_counter() - started, error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test shapes")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from multialign import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"multialign was imported from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from calibrate import Bracket
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    work = Path(args.work)
    tracer = Tracer() if args.mode == "traced" else None
    record = {"mode": args.mode, "setup": [], "commands": [], "passes": []}
    kept: dict[str, set] = {}
    bracket = Bracket() if tracer is None else None

    def keep_once(label: str, entry: dict) -> None:
        """Record the output's hash; delete it if an earlier one had the same."""
        entry["digest"] = digest(Path(entry["out"])) if entry["rc"] == 0 else None
        if entry["digest"] is None:
            return
        seen = kept.setdefault(label, set())
        if entry["digest"] in seen:
            shutil.rmtree(entry["out"])
        seen.add(entry["digest"])

    def setup() -> None:
        out = work / "setup" / str(len(record["setup"]))
        if tracer is not None:
            tracer.install()
            tracer.begin()
        rc, seconds, error = run_cli(
            cli, workload.synth_args() + ["--seed", str(args.seed), "--out", str(out)])
        entry = {"seconds": seconds, "rc": rc, "error": error, "out": str(out)}
        if tracer is not None:
            tracer.uninstall()
            record["setup_layers"] = tracer.summary()
        else:
            entry["kernel_s"] = bracket.around()
        keep_once("synth", entry)
        record["setup"].append(entry)

    setup()
    manifest = work / "setup" / "0" / "manifest.json"
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        total = 0.0
        for label, command in workload.commands:
            out = work / "passes" / str(index) / label
            if traced:
                tracer.begin()
            rc, seconds, error = run_cli(
                cli, [*command, "--data", str(manifest), "--out", str(out)])
            total += seconds
            entry = {"pass": index, "label": label, "traced": traced,
                     "seconds": seconds, "rc": rc, "error": error, "out": str(out)}
            if traced and rc == 0:
                entry["layers"] = tracer.summary()
                entry["layers"]["data.write_s"] = tracer.outermost_s(WRITE_SPANS)
                entry["stages"] = stage_figures(command[0], out, tracer)
                if "spans" not in record:
                    record["spans"] = {}
                record["spans"].setdefault(label, tracer.span_records())
            keep_once(label, entry)
            record["commands"].append(entry)
        if traced:
            tracer.uninstall()
        record["passes"].append({"pass": index, "traced": traced, "seconds": total})
        if bracket is not None:
            record["passes"][-1]["kernel_s"] = bracket.around()
        setup_total = sum(e["seconds"] for e in record["setup"])
        pass_total = sum(p["seconds"] for p in record["passes"])
        if tracer is None and setup_total <= SETUP_SHARE * pass_total:
            setup()
        index += 1
        if time.perf_counter() >= deadline and (tracer is None or index % 2 == 0):
            break

    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["env"] = environment()
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
