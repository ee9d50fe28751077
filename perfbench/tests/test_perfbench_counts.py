"""The traced run's count metrics repeat exactly from one run to the next.

Counts are the one per-layer figure a change may quote without timing noise,
so two traced runs of the same inputs must agree on every one of them. The
cohorts are shrunk to keep the test quick; the code path is the benchmark's.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

COUNTS = ("tree.fits", "behavior.predict_calls", "harness.candidates",
          "ope.trajectories", "data.steps")

SMALL = {
    "chronic_experiment": {"n_patients": 400, "n_candidates": 6},
    "episodic_experiment": {"n_patients": 400, "n_candidates": 6},
    "chronic_evaluate": {"n_patients": 400, "n_candidates": 6,
                         "heldout_patients": 1000},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_count_metrics_repeat_across_traced_runs(name, tmp_path):
    w = replace(workloads.WORKLOADS[name], **SMALL[name])
    runs = []
    for i in range(2):
        work = tmp_path / f"run{i}"
        work.mkdir()
        runs.append(workloads.traced_run(w, str(work), 3, workloads.Tally()))
    first, second = (r["metrics"] for r in runs)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert runs[0]["digests"] == runs[1]["digests"]
    assert first["data.steps"] > 0
    if w.kind == "experiment":
        assert first["tree.fits"] > 0 and first["harness.candidates"] == 6
    else:
        assert first["tree.fits"] == 0 and first["ope.trajectories"] > 0
