#!/usr/bin/env python3
"""outwalk benchmark: end-to-end and per-layer metrics of `outwalk run`.

    python3 bench/run.py --workload drift-niel --seed 0 --seconds 30 --trace 0

Run from the repository root.  Workloads are defined in
bench/workloads.py; BENCHMARK.json lists them with every metric.

A run is a closed loop with one client: it starts `outwalk run` on a
generated config in a fresh single-threaded process (bench/child.py),
waits for it, checks its CSV, and only then starts the next repetition.
Repetition r runs config r, whose master_seed is derived from --seed, so
a run averages over many paths; --seconds fixes the repetition count
through the workload's nominal repetition time.

* --trace 0 runs configs 0..K-2 and then config 0 again, and prints the
  end-to-end metrics.  The repeat must reproduce config 0's CSV body.
* --trace 1 runs each of configs 0..J-1 untraced and then traced, and
  prints the per-layer metrics plus the tracing overhead.  The traced
  CSV body must equal the untraced one.

Times are scaled to the speed of the reference machine.  The speed of a
shared host drifts by up to half over minutes, and a run's wall times
drift with it; so every repetition first times a fixed probe
(`speed_probe` in bench/child.py), and setup_s, run_s and steps_per_s
are multiplied by PROBE_REFERENCE_S / (mean probe time of the run).
The mean, not the median: slow spells lengthen a run in proportion to
the time they cover, and the mean probe time weighs them the same way.
The raw wall times stay in the result file.  The probe does not run
outwalk code, so a change to the program moves the scaled times as much
as the raw ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  An operation is one repetition; it fails
when the CLI exits nonzero or its output fails a check (bench/checks.py).
A fuller record (environment, parameters, per-repetition figures, CSV
digests) is written to bench/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import body_digest, check_series, parse_series  # noqa: E402
from spans import RUN_LAYERS  # noqa: E402
from workloads import WORKLOADS, Workload, config_seed  # noqa: E402

# Runs stop starting repetitions after this many seconds, so that a run
# on a much slower program still ends within its 180 s limit; the
# metrics then cover the repetitions that ran.
DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 170.0

# Mean `speed_probe` time on the reference machine (2-vCPU VM,
# Python 3, numpy), the unit in which time metrics are reported.
PROBE_REFERENCE_S = 0.15

# Assumed cost of a traced repetition relative to an untraced one, used
# only to size --trace 1 runs.
TRACE_COST = 1.1

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("ok_frac", "frac", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

# Per-layer metrics: counts and seconds are means per traced repetition.
PER_LAYER = [
    ("wordkernel.substitute.calls", "count", "lower"),
    ("wordkernel.substitute.self_s", "s", "lower"),
    ("wordkernel.substitute.letters_in", "letters", "lower"),
    ("wordkernel.substitute.letters_out", "letters", "lower"),
    ("wordkernel.reduce_array.calls", "count", "lower"),
    ("wordkernel.reduce_array.self_s", "s", "lower"),
    ("wordkernel.reduce_array.letters_in", "letters", "lower"),
    ("wordkernel.stack_reduce.fallback_letters", "letters", "lower"),
    ("wordkernel.cyclic_trim.calls", "count", "lower"),
    ("wordkernel.cyclic_trim.self_s", "s", "lower"),
    ("wordkernel.cyclic_trim.letters_peeled", "letters", "lower"),
    ("outer_metric.dist.calls", "count", "lower"),
    ("outer_metric.dist.self_s", "s", "lower"),
    ("automorphisms.compose.calls", "count", "lower"),
    ("automorphisms.compose.self_s", "s", "lower"),
    ("automorphisms.compose.letters_out", "letters", "lower"),
    ("automorphisms.compose.budget_failures", "count", "lower"),
    ("automorphisms.apply.calls", "count", "lower"),
    ("automorphisms.apply.self_s", "s", "lower"),
    ("spectral.bracket.calls", "count", "lower"),
    ("spectral.bracket.self_s", "s", "lower"),
    ("spectral.bracket.k_used_mean", "count", "higher"),
    ("spectral.stretch_ratio.calls", "count", "lower"),
    ("spectral.stretch_ratio.self_s", "s", "lower"),
    ("spectral.stretch_lower.self_s", "s", "lower"),
    ("matrix_oracle.matmul.calls", "count", "lower"),
    ("matrix_oracle.matmul.self_s", "s", "lower"),
    ("matrix_oracle.matmul.bits_out", "bits", "lower"),
    ("matrix_oracle.spectral_radius.calls", "count", "lower"),
    ("matrix_oracle.spectral_radius.self_s", "s", "lower"),
    ("walk_engine.advance.calls", "count", "lower"),
    ("walk_engine.advance.self_s", "s", "lower"),
    ("walk_engine.path.wall_s_median", "s", "lower"),
    ("walk_engine.path.wall_s_max", "s", "lower"),
    ("walk_engine.path.peak_letters_max", "letters", "lower"),
    ("rng.categorical.calls", "count", "lower"),
    ("rng.categorical.self_s", "s", "lower"),
    ("config.parse_config.s", "s", "lower"),
    ("config.build_measure.s", "s", "lower"),
    ("cli.write_series.s", "s", "lower"),
    ("cli.write_series.bytes", "bytes", "lower"),
] + [(f"{layer}.self_frac", "frac", "lower") for layer in RUN_LAYERS] + [
    ("trace.overhead_frac", "frac", "lower"),
]


def plan(workload: Workload, seconds: float, trace: bool) -> list:
    """(config index, traced) of each repetition, in order."""
    if trace:
        pairs = max(2, round(seconds / (workload.rep_s * (1 + TRACE_COST))))
        return [(i, t) for i in range(pairs) for t in (False, True)]
    configs = max(2, round(seconds / workload.rep_s) - 1)
    return [(i, False) for i in range(configs)] + [(0, False)]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def support_step_bound(config_text: str) -> float:
    """max over the support of max(dist(s), dist(s^{-1})), by outwalk itself."""
    from outwalk.automorphisms import invert
    from outwalk.config import build_measure, parse_config
    from outwalk.outer_metric import dist

    measure = build_measure(parse_config(config_text))
    return max(max(dist(s), dist(invert(s))) for s in measure.support)


def resolved_budgets(config_text: str) -> dict:
    """Budgets and bracket depth as outwalk resolves them, defaults included."""
    from outwalk.config import parse_config

    cfg = parse_config(config_text)
    return {"letter_budget": cfg.letter_budget, "bit_budget": cfg.bit_budget,
            "k_max": cfg.k_max}


class Runner:
    """Runs and checks the repetitions of one workload run."""

    def __init__(self, workload: Workload, seed: int, root: Path, work: Path):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.work = work
        self.env = child_env(root)
        self.digests: dict = {}  # config index -> CSV body sha256
        self.step_bound = None
        if not workload.kind.startswith("matrix-"):
            self.step_bound = support_step_bound(workload.config_text(0, "unused.csv"))

    def repetition(self, rep: int, index: int, traced: bool, deadline: float) -> dict:
        wl = self.workload
        master_seed = config_seed(wl.name, self.seed, index)
        stem = self.work / f"rep{rep:03d}-config{index}{'-traced' if traced else ''}"
        csv_path = os.path.relpath(f"{stem}.csv", self.root)
        cfg_path = f"{stem}.cfg"
        with open(cfg_path, "w") as fh:
            fh.write(wl.config_text(master_seed, csv_path))
        rec = {"rep": rep, "config": index, "master_seed": master_seed,
               "traced": traced, "errors": []}
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        cmd = [sys.executable, str(BENCH / "child.py"), str(spawn_ns), cfg_path]
        if traced:
            cmd.append(f"{stem}.spans.csv")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            rec["errors"].append("timed out")
            return rec
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            rec["errors"].append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return rec
        try:
            report = json.loads(lines[-1])
        except ValueError:
            rec["errors"].append(f"no report from the child: {lines[-1][:200]!r}")
            return rec
        rec.update(setup_s=report["setup_s"], run_s=report["run_s"], probe_s=report["probe_s"],
                   peak_rss_mb=report["maxrss_kb"] / 1024, trace=report.get("trace"))
        try:
            with open(self.root / csv_path) as fh:
                text = fh.read()
            series = parse_series(text)
        except (OSError, ValueError) as e:
            rec["errors"].append(f"unreadable output: {e}")
            return rec
        rec["sha256"] = body_digest(text)
        rec["steps"] = series.steps()
        rec["ok_frac"] = series.ok_frac()
        rec["records"] = len(series.rows)
        rec["errors"] += check_series(series, paths=wl.paths, n_max=wl.n_max,
                                      step_bound=self.step_bound)
        first = self.digests.setdefault(index, rec["sha256"])
        if rec["sha256"] != first:
            rec["errors"].append(f"CSV body of config {index} differs from its first run")
        return rec


def speed_scale(reps: list) -> float:
    """Factor from this run's wall seconds to reference-machine seconds."""
    probes = [r["probe_s"] for r in reps if "probe_s" in r]
    return PROBE_REFERENCE_S / statistics.fmean(probes) if probes else 1.0


def end_to_end(reps: list, scale: float) -> dict:
    good = [r for r in reps if not r["errors"]]
    if not good:
        return {name: 0.0 for name, _, _ in END_TO_END}

    run_total = scale * sum(r["run_s"] for r in good)
    return {
        "setup_s": scale * statistics.median(r["setup_s"] for r in good),
        "run_s": run_total / len(good),
        "steps_per_s": sum(r["steps"] for r in good) / run_total,
        # a repetition that failed counts as wholly failed
        "ok_frac": sum(r.get("ok_frac", 0.0) if not r["errors"] else 0.0
                       for r in reps) / len(reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }


def per_layer(reps: list) -> dict:
    traced = [r for r in reps if r["traced"] and not r["errors"]]
    plain = {r["config"]: r for r in reps if not r["traced"] and not r["errors"]}
    traced = [r for r in traced if r["config"] in plain]
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    if not traced:
        return out
    sums: dict = {}
    for r in traced:
        for key, value in r["trace"]["sums"].items():
            sums[key] = sums.get(key, 0.0) + value
    run_total = sum(r["run_s"] for r in traced)
    walls = [w for r in traced for w in r["trace"]["walls"]]
    for name in out:
        out[name] = sums.get(name, 0.0) / len(traced)
    for layer in RUN_LAYERS:
        out[f"{layer}.self_frac"] = sums.get(f"{layer}.self_s", 0.0) / run_total
    brackets = sums.get("spectral.bracket.calls", 0.0)
    out["spectral.bracket.k_used_mean"] = (
        sums["spectral.bracket.k_used_sum"] / brackets if brackets else 0.0)
    out["walk_engine.path.wall_s_median"] = statistics.median(walls) if walls else 0.0
    out["walk_engine.path.wall_s_max"] = max(walls, default=0.0)
    out["walk_engine.path.peak_letters_max"] = max(r["trace"]["peak_letters"] for r in traced)
    out["trace.overhead_frac"] = run_total / sum(plain[r["config"]]["run_s"] for r in traced) - 1
    return out


def git_commit(root: Path):
    """Commit of the checkout, read from .git when there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    """Run one workload and return the full result record."""
    work = BENCH / "out" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, root, work)
    start = time.monotonic()
    reps = []
    planned = plan(workload, seconds, trace)
    for rep, (index, traced) in enumerate(planned):
        if time.monotonic() - start > DEADLINE_S:
            break
        reps.append(runner.repetition(rep, index, traced, start + CHILD_TIMEOUT_S))
    errors = [f"rep {r['rep']}: {e}" for r in reps for e in r["errors"]]
    scale = speed_scale(reps)
    metrics = per_layer(reps) if trace else end_to_end(reps, scale)
    units = dict((n, u) for n, u, _ in (PER_LAYER if trace else END_TO_END))
    return {
        "correct": not errors,
        "attempted": len(reps),
        "failed": sum(bool(r["errors"]) for r in reps),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "errors": errors,
        "benchmark": {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "wall_s": time.monotonic() - start,
            "repetitions_planned": len(planned),
            "params": workload.params(),
            "resolved": resolved_budgets(workload.config_text(0, "unused.csv")),
            "step_bound": runner.step_bound,
            "speed_scale": scale,
            "raw_metrics": None if trace else end_to_end(reps, 1.0),
        },
        "environment": environment(root),
        "reps": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
        "csv_sha256": runner.digests,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "outwalk" / "cli.py").is_file():
        print("error: run from the repository root; src/outwalk not found", file=sys.stderr)
        return 2
    warm = subprocess.run([sys.executable, "-c", "import outwalk.cli"], cwd=root,
                          env=child_env(root), capture_output=True, text=True)
    if warm.returncode != 0:
        print(f"error: cannot import outwalk: {warm.stderr.strip()}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), root)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w") as fh:
        json.dump(result, fh, indent=1)
    for error in result["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
