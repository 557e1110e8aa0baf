"""Bench: end-to-end surrogate fits of the tree engine, gated on its trajectory.

Times ``SurrogateFitter.fit`` for every tree family using the paper's
hand-tuned Table-1 (accuracy) and Table-2 (device) configs and records a
fit/predict trajectory point to ``results/BENCH_fit.json``.

Gates, both against the last recorded point with the same ``num_archs``
(``ANB_BENCH_ARCHS``):

- Quality: R2 and Kendall tau must be exactly equal.  Fits are
  deterministic to the byte, so any drift is a behaviour change, not noise.
- Time: from ``SPEEDUP_MIN_ARCHS`` archs up, the deep-tree rf fits (100
  trees, depth 16/18, where growth cost concentrates) must not exceed the
  recorded time by more than ``RF_TIME_BAND``.  Small CI datasets are
  dominated by fixed overheads and gate quality only.  The recorded times
  come from whichever machine wrote the point, so the band only means
  something on comparable hardware.

Per-family fit times keep the ``*_fused_s`` key so the trajectory stays
comparable with points recorded when a second growth engine existed.
"""

import json

import numpy as np

import repro.obs as obs
from repro.core.surrogate_fit import SurrogateFitter

from conftest import BENCH_ARCHS, RESULTS_DIR, emit, record_trajectory

FAMILIES = ("xgb", "lgb", "rf")
# Below this dataset size, fixed overheads swamp tree growth and wall-clock
# comparisons are meaningless; only the quality gate applies.
SPEEDUP_MIN_ARCHS = 2000
# Allowed slowdown of an rf fit against the last same-size point: leaves
# headroom for noisy shared runners.
RF_TIME_BAND = 1.5


def _last_point(num_archs: int) -> dict | None:
    """The most recent trajectory point recorded at ``num_archs``."""
    path = RESULTS_DIR / "BENCH_fit.json"
    if not path.exists():
        return None
    points = json.loads(path.read_text())["points"]
    same = [p for p in points if p.get("num_archs") == num_archs]
    return same[-1] if same else None


def test_fit_timed_against_trajectory(ctx):
    datasets = [
        ("acc", ctx.accuracy_dataset()),
        ("a100-tput", ctx.device_dataset("a100", "throughput")),
    ]
    fitter = SurrogateFitter()
    previous = _last_point(BENCH_ARCHS)

    lines = [f"Surrogate fit ({BENCH_ARCHS} archs, Table-1/2 configs)"]
    point = {"num_archs": BENCH_ARCHS}
    for tag, dataset in datasets:
        X = fitter.encoder.encode(dataset.archs)
        for family in FAMILIES:
            with obs.timer() as t_fit:
                report = fitter.fit(dataset, family, features=X)
            with obs.timer() as t_pred:
                pred = report.model.predict(X)
            assert np.all(np.isfinite(pred))

            key = f"{tag}_{family}"
            point[f"{key}_fused_s"] = t_fit.seconds
            point[f"{key}_predict_s"] = t_pred.seconds
            point[f"{key}_r2"] = report.r2
            point[f"{key}_kendall"] = report.kendall
            lines.append(
                f"  {tag:>9s} {family:>3s}: fit={t_fit.seconds:6.2f}s "
                f"predict={t_pred.seconds * 1e3:6.1f}ms "
                f"R2={report.r2:.3f} tau={report.kendall:.3f}"
            )
            if previous is None:
                continue
            assert report.r2 == previous[f"{key}_r2"], key
            assert report.kendall == previous[f"{key}_kendall"], key
            if family == "rf" and BENCH_ARCHS >= SPEEDUP_MIN_ARCHS:
                limit = RF_TIME_BAND * previous[f"{key}_fused_s"]
                assert t_fit.seconds <= limit, (
                    f"rf {tag} fit {t_fit.seconds:.2f}s exceeds "
                    f"{RF_TIME_BAND}x the last recorded point ({limit:.2f}s)"
                )

    total = sum(v for k, v in point.items() if k.endswith("_fused_s"))
    lines.append(f"  total fit: {total:.2f}s")
    if previous is None:
        lines.append("  (no earlier point at this size: gates skipped)")
    emit("bench_fit", "\n".join(lines))
    record_trajectory("fit", point)
