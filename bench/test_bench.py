"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def tiny(name: str):
    """A workload shrunk to a smoke-test size, with its own output names."""
    wl = WORKLOADS[name]
    return dataclasses.replace(wl, name=f"{name}-smoke", n_max=min(wl.n_max, 8),
                               paths=2, rep_s=1.0)


def series_text(workload, tmp_path, master_seed=7) -> str:
    """CSV text of one in-process `outwalk run` of the workload's config."""
    from outwalk import cli

    cfg = tmp_path / "run.cfg"
    out = tmp_path / "run.csv"
    cfg.write_text(workload.config_text(master_seed, str(out)))
    assert cli.main(["run", "--config", str(cfg)]) == 0
    return out.read_text()


def corrupt(text: str, estimator: str, fn) -> str:
    """Replace the value of the first per-path `estimator` record by fn(value)."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) == 6 and parts[3] == estimator and parts[1] != "-1":
            parts[4] = repr(fn(float(parts[4])))
            lines[i] = ",".join(parts)
            break
    return "\n".join(lines) + "\n"


def check(workload, text):
    bound = None
    if not workload.kind.startswith("matrix-"):
        bound = run.support_step_bound(workload.config_text(0, "unused.csv"))
    return checks.check_series(checks.parse_series(text), paths=workload.paths,
                               n_max=workload.n_max, step_bound=bound)


def test_body_digest_ignores_comment_lines():
    body = checks.CSV_HEADER + "\ndrift,0,1,drift,0.5,ok\n"
    a = "# outwalk run\n# generated_at = 2024-01-01\n# out = a.csv\n" + body
    b = "# outwalk run\n# generated_at = 2025-06-30\n# out = b.csv\n" + body
    assert checks.body_digest(a) == checks.body_digest(b)
    assert checks.body_digest(a) != checks.body_digest(a.replace("0.5", "0.25"))


def swap_first_bracket(text: str, low: str, high: str) -> str:
    """Swap the values of the first per-path (low, high) pair with low < high."""
    lines = text.splitlines()
    pairs: dict = {}
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) == 6 and parts[1] != "-1" and parts[3] in (low, high):
            pairs.setdefault((parts[1], parts[2]), {})[parts[3]] = i
    for pair in pairs.values():
        a, b = lines[pair[low]].split(","), lines[pair[high]].split(",")
        if float(a[4]) < float(b[4]):
            a[4], b[4] = b[4], a[4]
            lines[pair[low]], lines[pair[high]] = ",".join(a), ",".join(b)
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no record with {low} < {high}")


@pytest.mark.parametrize("name, low, high", [
    ("spectral-niel", "spectral.lower", "spectral.upper"),
    ("guivarch-sl3", "guivarch.rho_lower", "guivarch.rho_upper"),
])
def test_checker_rejects_swapped_bracket_bounds(tmp_path, name, low, high):
    wl = tiny(name)
    text = series_text(wl, tmp_path)
    assert check(wl, text) == []
    errors = check(wl, swap_first_bracket(text, low, high))
    assert any(e.split(": ")[-1].startswith(low) for e in errors), errors


def test_checker_rejects_drift_jump(tmp_path):
    wl = tiny("drift-niel")
    text = series_text(wl, tmp_path)
    assert check(wl, text) == []
    assert any("exceeds support bound" in e for e in check(wl, corrupt(text, "drift", lambda v: v + 1.0)))


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_time_metrics_are_scaled_by_the_probe():
    reps = [dict(errors=[], setup_s=0.2, run_s=2.0, probe_s=p, steps=100, ok_frac=0.5,
                 peak_rss_mb=50.0) for p in (0.12, 0.18, 0.3)]
    scale = run.speed_scale(reps)
    assert scale == pytest.approx(run.PROBE_REFERENCE_S / 0.2)
    metrics = run.end_to_end(reps, scale)
    assert metrics["setup_s"] == pytest.approx(0.2 * scale)
    assert metrics["run_s"] == pytest.approx(2.0 * scale)
    assert metrics["steps_per_s"] == pytest.approx(100 / (2.0 * scale))
    assert (metrics["ok_frac"], metrics["peak_rss_mb"]) == (0.5, 50.0)


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "drift-niel", "--seed", "0", "--seconds", "1"]) == 2


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_of_each_workload(name):
    wl = tiny(name)
    plain = run.run_workload(wl, 0, 1, False, ROOT)
    assert plain["correct"], plain["errors"]
    assert plain["attempted"] == 3 and plain["failed"] == 0
    assert [m for m in plain["metrics"]] == [m for m, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run_workload(wl, 0, 1, True, ROOT)
    assert traced["correct"], traced["errors"]
    layers = {k: v["value"] for k, v in traced["metrics"].items()}
    assert list(layers) == [m for m, _, _ in run.PER_LAYER]
    if wl.kind.startswith("matrix-"):
        assert layers["matrix_oracle.matmul.calls"] > 0
        assert all(v == 0 for k, v in layers.items()
                   if k.startswith("wordkernel.") and k.endswith(".calls"))
    else:
        assert layers["wordkernel.substitute.calls"] > 0
    if wl.kind == "drift":
        assert layers["matrix_oracle.matmul.calls"] == 0
