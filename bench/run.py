"""Benchmark of the multialign command line: one workload, one seed, one run.

    python3 bench/run.py --workload loso-wide --seed 1 --seconds 20 --trace 0

The workload's dataset is made by ``synth`` from ``--seed``; a fresh Python
process (``worker.py``) then runs the workload's CLI commands in process,
back to back (a closed loop with one client), for ``--seconds``.  The worker
runs with one BLAS thread (``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1``): on a
small shared host, BLAS threads make the timings follow the scheduler.
Every command's outputs are checked against the independent references in
``oracle.py``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time of
the ``synth`` runs, spread over the run), ``pass_s`` (median time of one
pass through the workload's commands) and ``peak_rss_mb``.  Both times are
in seconds at a reference host speed (see ``calibrate.py``); the raw wall
times are printed on the lines before the result.

``--trace 1`` instead runs two traced processes for half the seconds each,
one with one BLAS thread like the untraced run and one at the machine's
default BLAS threads, and reports per-layer metrics (the default-thread
ones prefixed ``mt.``) and the tracing overhead.

Lines before the last describe the run: the environment, per-command
medians and sample counts, the error rate, and any check that failed.  The
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, spans included, is written to
``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from calibrate import REFERENCE_S  # noqa: E402
from workloads import GAMMAS, WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170.0          # the whole run, both traced processes included
VERIFY_RESERVE_S = 25.0      # kept back from the workers for output checks
CORR_METHODS = ("none", "rha", "sha", "sha_r")

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

# Per-layer times of a traced pass, as named in a command's layer summary
# (``cli.self_s`` is the self time of ``cli.main``).  Each also gets a
# default-BLAS-threads ``mt.`` twin.
LAYER_TIMES = (
    "cli.self_s", "data.load_dataset_s", "data.write_s", "data.normalize_s",
    "supervision.kernels_for_s", "linalg.truncated_svd_s", "linalg.symmetric_eig_s",
    "linalg.regularized_projector_s", "alignment.fit_self_s",
    "alignment.map_subject_self_s", "alignment.save_model_s", "classify.run_loso_self_s",
    "classify.train_classifier_s", "classify.decision_function_s", "metrics.rho1_s",
    "metrics.rho2_s", "metrics.rho3_s", "metrics.rho4_s", "metrics.one_vs_rest_auc_s",
)
SUMMARY_KEYS = {"cli.self_s": "cli.main_self_s"}
LAYER_AMOUNTS = {
    "data.read_bytes": "bytes",
    "data.write_bytes": "bytes",
    "data.normalize_calls": "count",
    "supervision.kernels_for_calls": "count",
    "linalg.truncated_svd_calls": "count",
    "linalg.truncated_svd_gflop": "GFLOP",
    "linalg.symmetric_eig_calls": "count",
    "linalg.symmetric_eig_gflop": "GFLOP",
    "linalg.regularized_projector_calls": "count",
    "alignment.fit_calls": "count",
    "alignment.map_subject_calls": "count",
    "classify.run_loso_calls": "count",
    "classify.train_classifier_calls": "count",
    "classify.decision_function_calls": "count",
    "metrics.pearson_calls": "count",
}
STAGES = ("load", "fit", "map", "train", "score")
# Counts that must repeat exactly between traced passes and processes.
REPEATING = ("_calls", "linalg.svd_distinct")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric ``--trace 1`` prints, with its unit."""
    units = {name: "s" for name in LAYER_TIMES}
    units.update(LAYER_AMOUNTS)
    units.update({"linalg.svd_distinct_ratio": "ratio", "synth.generate_s": "s",
                  "trace_overhead_s": "s", "count_mismatches": "count",
                  "program.stage_flags": "count"})
    for stage in STAGES:
        units[f"program.{stage}_s"] = "s"
        units[f"outside.{stage}_s"] = "s"
    units["mt.pass_s"] = "s"
    units["mt.trace_overhead_s"] = "s"
    units.update({f"mt.{name}": "s" for name in LAYER_TIMES})
    return units


class WorkerFailed(Exception):
    pass


def worker(workload: str, seed: int, seconds: float, mode: str, work: Path,
           single_thread: bool, timeout: float, tiny: bool = False) -> dict:
    """Run ``worker.py`` in a fresh process and return its record."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OMP_NUM_THREADS", None)
    if single_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
        env["OMP_NUM_THREADS"] = "1"
    work.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--work", str(work)] + (["--tiny"] if tiny else [])
    log = work / "worker.log"
    with open(log, "w", encoding="utf-8") as fh:
        try:
            proc = subprocess.run(argv, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                  cwd=ROOT, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n"
                           + log.read_text(encoding="utf-8")[-3000:])
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


class Checker:
    """Builds the references for one dataset once, then checks outputs."""

    def __init__(self, manifest: Path):
        self.manifest = manifest
        self._refs = {}

    def reference(self, label: str):
        if label not in self._refs:
            self._refs[label] = self._build(label)
        return self._refs[label]

    def _subjects(self):
        if "subjects" not in self._refs:
            ids, xs, labels = oracle.load_dataset(self.manifest)
            self._refs["subjects"] = (ids, oracle.Subjects(xs, labels))
        return self._refs["subjects"]

    def _build(self, label: str):
        if label in ("loso_sha", "loso_rha"):
            ids, sub = self._subjects()
            return ids, oracle.loso(sub, label.split("_")[1])
        if label == "corr":
            _, sub = self._subjects()
            rng = oracle.np.random.default_rng(0)
            return {m: oracle.correlation_reference(sub, m, rng) for m in CORR_METHODS}
        if label == "sweep":
            return oracle.sweep_reference(self._subjects()[1], GAMMAS)
        if label == "align_rha":
            return oracle.align_reference(self.manifest)
        raise KeyError(label)

    def check(self, label: str, out: Path) -> None:
        ref = self.reference(label)
        if label in ("loso_sha", "loso_rha"):
            method = label.split("_")[1]
            oracle.check_loso(out / f"loso_{method}.json", ref[0], method, ref[1])
        elif label == "corr":
            oracle.check_corr(out, CORR_METHODS, ref)
        elif label == "sweep":
            oracle.check_sweep(out / "sweep.csv", ref)
        else:
            oracle.check_align(out, ref)


def verify(workload, records: list[dict]) -> tuple[int, list[str]]:
    """(commands attempted, failure messages) over every worker's outputs.

    Each worker is checked against references built from its own dataset:
    ``synth`` is byte-stable for one BLAS thread setting, not across them.
    Outputs of one command with the same content hash get one verdict: the
    worker keeps only the first copy on disk.
    """
    attempted, failures = 0, []
    for record in records:
        checker = None
        reference = None  # content hash of the first set-up
        verdicts = {}
        for entry in record["setup"]:
            attempted += 1
            out = Path(entry["out"])
            try:
                if entry["rc"] != 0:
                    raise oracle.CheckFailed(f"exit code {entry['rc']} {entry['error'] or ''}")
                if reference is None:
                    oracle.check_synth(out / "manifest.json", workload.subjects,
                                       workload.classes, workload.instances,
                                       workload.instance_length, workload.voxels)
                    reference = entry["digest"]
                    checker = Checker(out / "manifest.json")
                elif entry["digest"] != reference:
                    raise oracle.CheckFailed("synth output differs between runs")
            except (oracle.CheckFailed, OSError, ValueError, KeyError) as exc:
                failures.append(f"synth {out}: {exc}")
        for entry in record["commands"]:
            attempted += 1
            try:
                if entry["rc"] != 0:
                    raise oracle.CheckFailed(f"exit code {entry['rc']} {entry['error'] or ''}")
                if checker is None:
                    raise oracle.CheckFailed("no verified dataset to check against")
                key = (entry["label"], entry["digest"])
                if key not in verdicts:
                    try:
                        checker.check(entry["label"], Path(entry["out"]))
                        verdicts[key] = None
                    except oracle.CheckFailed as exc:
                        verdicts[key] = exc
                if verdicts[key] is not None:
                    raise verdicts[key]
            except (oracle.CheckFailed, OSError, ValueError, KeyError,
                    TypeError, IndexError) as exc:
                failures.append(f"{entry['label']} pass {entry['pass']}: {exc}")
    return attempted, failures


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def describe(samples: list[float]) -> str:
    """Median, sample count and the highest percentile with 10 samples beyond it."""
    ordered = sorted(samples)
    text = f"median of {len(ordered)}"
    for p in (99, 95, 90, 75):
        if len(ordered) * (100 - p) / 100 >= 10:
            rank = min(len(ordered) - 1, int(len(ordered) * p / 100))
            return f"{text}; p{p} {ordered[rank]:.4f}"
    return text + "; no percentile has 10 samples beyond it"


def end_to_end(record: dict) -> tuple[dict, list[str]]:
    """Metrics and detail lines of a timed worker.

    ``setup_s`` and ``pass_s`` are seconds at the reference speed: each
    sample scaled by ``calibrate.REFERENCE_S`` over the kernel time around
    it.  The ``*_wall_s`` lines are the raw wall times.
    """
    passes = [p for p in record["passes"] if not p["traced"]]
    kernel = {p["pass"]: p["kernel_s"] for p in passes}
    # A command shares the kernel times around its pass.
    commands = [dict(e, kernel_s=kernel[e["pass"]])
                for e in record["commands"] if not e["traced"]]
    groups = {"setup": record["setup"], "pass": passes}
    for label in dict.fromkeys(e["label"] for e in commands):
        groups[label] = [e for e in commands if e["label"] == label]
    samples = {f"{name}_s": [e["seconds"] * REFERENCE_S / e["kernel_s"] for e in entries]
               for name, entries in groups.items()}
    samples.update({f"{name}_wall_s": [e["seconds"] for e in entries]
                    for name, entries in groups.items()})
    samples["kernel_s"] = [p["kernel_s"] for p in passes]
    metrics = {"setup_s": median(samples["setup_s"]), "pass_s": median(samples["pass_s"]),
               "peak_rss_mb": record["peak_rss_mb"]}
    lines = [f"{name} {median(values):.4f} s ({describe(values)})"
             for name, values in samples.items()]
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    return metrics, lines


def traced_passes(record: dict) -> list[list[dict]]:
    by_pass = {}
    for e in record["commands"]:
        if e["traced"] and "layers" in e:
            by_pass.setdefault(e["pass"], []).append(e)
    return list(by_pass.values())


def layer_metrics(record: dict) -> tuple[dict, dict, list[str]]:
    """(per-layer metrics, counts per command, repeat failures) of one traced worker."""
    passes = traced_passes(record)

    def pass_median(key):
        return median(sum(e["layers"].get(key, 0) for e in p) for p in passes)

    metrics = {name: pass_median(SUMMARY_KEYS.get(name, name)) for name in LAYER_TIMES}
    metrics.update({name: pass_median(name) for name in LAYER_AMOUNTS})
    calls = metrics["linalg.truncated_svd_calls"]
    distinct = pass_median("linalg.svd_distinct")
    metrics["linalg.svd_distinct_ratio"] = distinct / calls if calls else 0.0
    metrics["synth.generate_s"] = record["setup_layers"].get("synth.generate_s", 0.0)
    untraced = [p["seconds"] for p in record["passes"] if not p["traced"]]
    traced = [p["seconds"] for p in record["passes"] if p["traced"]]
    metrics["pass_s"] = median(untraced)
    metrics["trace_overhead_s"] = median(traced) - median(untraced)
    for stage in STAGES:
        key = f"{stage}_ns"
        for i, side in enumerate(("program", "outside")):
            metrics[f"{side}.{stage}_s"] = median(
                sum(e["stages"][key][i] for e in p if key in e["stages"]) for p in passes)

    counts, repeats = {}, []
    for p in passes:
        for e in p:
            seen = {k: v for k, v in e["layers"].items() if k.endswith(REPEATING)}
            if counts.setdefault(e["label"], seen) != seen:
                repeats.append(f"{e['label']}: counts differ between traced passes")
    return metrics, counts, repeats


def traced_metrics(single: dict, multi: dict, workload) -> tuple[dict, list[str], list[str]]:
    """(per-layer metrics, self-check failures, notes) of a traced run."""
    metrics, counts, repeats = layer_metrics(single)
    multi_metrics, multi_counts, multi_repeats = layer_metrics(multi)
    repeats += multi_repeats
    if counts != multi_counts:
        repeats.append("counts differ between the 1-thread and the default-thread traced run")
    mismatches = [f"{label}: {key} = {seen.get(key, 0)}, hand-computed {value}"
                  for label, seen in counts.items()
                  for key, value in workload.expected(label).items()
                  if seen.get(key, 0) != value]
    # The overhead estimate is a difference of noisy medians; its size is
    # the resolution below which two timings of one stage cannot be told apart.
    threshold = abs(metrics["trace_overhead_s"])
    flagged = [s for s in STAGES
               if abs(metrics[f"program.{s}_s"] - metrics[f"outside.{s}_s"]) > threshold]
    out = {name: metrics[name] for name in per_layer_units() if name in metrics}
    out["program.stage_flags"] = len(flagged)
    out["count_mismatches"] = len(mismatches)
    out["mt.pass_s"] = multi_metrics["pass_s"]
    out["mt.trace_overhead_s"] = multi_metrics["trace_overhead_s"]
    out.update({f"mt.{name}": multi_metrics[name] for name in LAYER_TIMES})
    notes = [f"program stage {s}: program {metrics[f'program.{s}_s']:.4f} s vs outside "
             f"{metrics[f'outside.{s}_s']:.4f} s differs by more than the tracing "
             f"overhead {threshold:.4f} s" for s in flagged]
    notes += [f"count mismatch: {m}" for m in mismatches]
    shown = {label: {k: v for k, v in seen.items() if k in workload.expected(label)}
             for label, seen in counts.items()}
    notes.append("counts per command: " + json.dumps(shown, sort_keys=True))
    return out, repeats, notes


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path,
        tiny: bool = False) -> tuple[dict, list[str], list[dict]]:
    """Run the workers; return (result object, detail lines, worker records)."""
    workload = WORKLOADS[workload_name]
    if tiny:
        workload = workload.tiny()
    started = time.monotonic()

    def budget(share: float) -> float:
        return (RUN_LIMIT_S - VERIFY_RESERVE_S - (time.monotonic() - started)) * share

    if trace:
        records = [worker(workload_name, seed, seconds / 2, "traced", work / "1t",
                          True, budget(0.5), tiny)]
        records.append(worker(workload_name, seed, seconds / 2, "traced", work / "mt", False,
                              budget(1.0), tiny))
    else:
        records = [worker(workload_name, seed, seconds, "timed", work / "1t", True,
                          budget(1.0), tiny)]
    attempted, failures = verify(workload, records)
    if trace:
        metrics, self_check, lines = traced_metrics(records[0], records[1], workload)
        units = per_layer_units()
    else:
        (metrics, lines), self_check = end_to_end(records[0]), []
        units = END_TO_END
    lines.append(f"error_rate {len(failures) / attempted:.4f} 1 "
                 f"({len(failures)} of {attempted} commands)")
    lines += [f"check failed: {f}" for f in failures + self_check]
    result = {
        "correct": not failures and not self_check,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="multialign CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multialign" / "cli.py").is_file():
        print(f"no multialign sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    settings = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "clients": 1, "loop": "closed",
                "commit": git_commit()}
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        result, lines, records = run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), work)
    except WorkerFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = records[0]["env"]
    print("environment " + json.dumps(env, sort_keys=True))
    print("settings " + json.dumps(settings, sort_keys=True))
    for line in lines:
        print(line)
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    full = {"settings": settings, "environment": env, "result": result, "details": lines,
            "workers": records}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(full), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
