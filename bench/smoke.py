"""Self-test of the benchmark on tiny shapes; exits 0 when every check holds.

    python3 bench/smoke.py

* A tiny untraced and a tiny traced run of every workload verify clean and
  print every metric ``BENCHMARK.json`` names, with its unit; the traced
  counts match the hand-computed ones.
* A perturbed ``loso_*.json`` and a perturbed ``z_*.csv`` are each counted
  as failed commands, not as passes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

SEED = 3


def expect(condition: bool, message: str, problems: list[str]) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def check_names(result: dict, declared: list[dict], label: str, problems) -> None:
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    expect(printed == wanted, f"{label}: prints exactly the declared metrics and units",
           problems)


def perturbed(workload: str, label: str, edit, work: Path, problems) -> None:
    """Run once, apply ``edit`` to the first pass's output, re-verify.

    The worker keeps one copy of byte-identical outputs, so the edit fails
    every pass whose output had the first pass's bytes, and no other.
    """
    _, _, records = run.run(workload, SEED, 0.1, False, work, tiny=True)
    tiny = WORKLOADS[workload].tiny()
    attempted, before = run.verify(tiny, records)
    entries = [e for e in records[0]["commands"] if e["label"] == label]
    edit(Path(entries[0]["out"]))
    _, after = run.verify(tiny, records)
    sharing = sum(e["digest"] == entries[0]["digest"] for e in entries)
    expect(not before and len(after) == sharing and all(label in f for f in after),
           f"{workload}: a perturbed {label} output fails the {sharing} of {attempted} "
           f"commands that share its bytes ({after[:1]})", problems)


def bump_accuracy(out: Path) -> None:
    path = out / "loso_sha.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    fold = report["folds"][0]
    fold["accuracy"] = fold["accuracy"] - 0.25 if fold["accuracy"] > 0.5 else 1.0
    path.write_text(json.dumps(report), encoding="utf-8")


def nudge_feature(out: Path) -> None:
    path = next(iter(sorted(out.glob("z_*.csv"))))
    rows = path.read_text(encoding="utf-8").splitlines()
    cells = rows[0].split(",")
    cells[0] = repr(float(cells[0]) * (1 + 1e-4) + 1e-4)
    rows[0] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    problems: list[str] = []
    expect(sorted(names) == sorted(WORKLOADS), "BENCHMARK.json lists the workloads",
           problems)
    work = run.ROOT / ".bench_work" / "smoke"
    try:
        for name in WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                result, lines, _ = run.run(name, SEED, 0.1, bool(trace),
                                           work / f"{name}-{trace}", tiny=True)
                label = f"{name} trace {trace}"
                expect(result["correct"] and result["failed"] == 0,
                       f"{label}: outputs verify ({result['attempted']} commands)", problems)
                check_names(result, declared[section], label, problems)
                if trace:
                    expect(result["metrics"]["count_mismatches"]["value"] == 0,
                           f"{label}: counts match the hand-computed ones "
                           f"{[x for x in lines if x.startswith('count')]}", problems)
        perturbed("loso-wide", "loso_sha", bump_accuracy, work / "perturb-loso", problems)
        perturbed("align-long", "align_rha", nudge_feature, work / "perturb-align", problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke test " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
