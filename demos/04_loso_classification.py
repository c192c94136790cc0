"""
Leave-one-subject-out classification
====================================

The end-to-end benchmark: hold out one subject, align the rest, map
everyone through the fitted model, train a ridge classifier on the mapped
training subjects, and score the held-out subject.  The held-out labels
are used only for scoring.
"""

from multialign import SynthConfig, generate, run_loso

# ---------------------------------------------------------------------------
# A dataset hard enough that the baseline struggles: every subject has its
# own rotation, so unaligned voxel patterns do not transfer across subjects.
dataset, _ = generate(SynthConfig(noise_sigma=0.5, seed=8))

print(f"{'method':8s} {'accuracy':>18s} {'auc':>18s}")
for method in ("none", "rha", "sha", "sha_r"):
    report = run_loso(dataset, method)
    acc = f"{report.accuracy_mean:.3f} +/- {report.accuracy_std:.3f}"
    auc = f"{report.auc_mean:.3f} +/- {report.auc_std:.3f}"
    print(f"{method:8s} {acc:>18s} {auc:>18s}")

# Chance accuracy here is 1/4: the baseline cannot cross subjects, while
# the aligned methods transfer almost perfectly.

# ---------------------------------------------------------------------------
# Per-fold detail for the supervised method.  Each fold names the held-out
# subject; n_test counts its labeled time points.
report = run_loso(dataset, "sha")
print("\nper-fold (sha):")
for fold in report.folds:
    print(f"  held out {fold.held_out}: accuracy {fold.accuracy:.3f}, "
          f"auc {fold.auc:.3f}, n={fold.n_test}")

# ---------------------------------------------------------------------------
# The report also carries wall-clock stage timings (nanoseconds).  They are
# attached to the in-memory report only — the JSON form excludes them so
# that identical runs serialize identically.
print("\nstage totals (ms):",
      {k: round(v / 1e6, 2) for k, v in report.timings.items()})
print("'timings' in JSON form:", "timings" in report.to_json_dict())
