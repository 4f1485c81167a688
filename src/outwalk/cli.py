"""Experiment runner CLI.

    outwalk run --config <file> [--out <file>] [--seed <u64>]
                [--paths <int>] [--threads <int>]
    outwalk summarize --in <file> --out <file>

Exit codes: 0 success, 2 validation or schema error, 3 budget exhausted
everywhere.  CSV schema (exact): experiment,path_id,n,estimator,value,status.
The resolved config is embedded as `# key = value` comment lines; the
timestamp lives in its own comment line so output bodies stay
byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
from datetime import datetime, timezone

from .config import (
    ConfigError,
    ExperimentConfig,
    MATRIX_KINDS,
    build_measure,
    format_config,
    parse_config,
    seed_words,
    validate,
)
from .outer_metric import dist
from .automorphisms import invert
from .spectral import bracket
from .walk_engine import (
    EstimateSeries,
    conjugacy_growth_experiment,
    delta_experiment,
    drift_experiment,
    gromov_decay_experiment,
    matrix_experiments,
    spectral_experiment,
)

CSV_HEADER = "experiment,path_id,n,estimator,value,status"

SUMMARY_HEADER = "experiment,n,estimator,mean,median,ci_low,ci_high,effective_paths"


def _fmt(value: float) -> str:
    # shortest round-trip representation keeps goldens stable
    return repr(float(value))


def write_series(series: EstimateSeries, cfg: ExperimentConfig, out_path: str) -> None:
    lines = ["# outwalk run"]
    lines.append(f"# generated_at = {datetime.now(timezone.utc).isoformat()}")
    for cfg_line in format_config(cfg).rstrip("\n").splitlines():
        lines.append(f"# {cfg_line}")
    lines.append(CSV_HEADER)
    for pid, n, est, value, status in series.records:
        lines.append(f"{series.experiment},{pid},{n},{est},{_fmt(value)},{status}")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run(cfg: ExperimentConfig, threads: int = 1) -> int:
    measure = build_measure(cfg)
    kind = cfg.kind
    if kind == "distance":
        theta = measure.support[0]
        d = dist(theta, budget=cfg.letter_budget)
        s = d + dist(invert(theta), budget=cfg.letter_budget)
        print(f"dist = {d:.6f}")
        print(f"sym = {s:.6f}")
        series = EstimateSeries(
            "distance",
            [(0, 0, "dist", d, "ok"), (0, 0, "sym_dist", s, "ok")],
            {},
        )
    elif kind == "stretch":
        br = bracket(measure.support[0], cfg.k_max, budget=cfg.letter_budget)
        print(f"lower = {br.lower:.6f}")
        print(f"upper = {br.upper:.6f}")
        print(f"point = {br.point:.6f}")
        print(f"k_used = {br.k_used}")
        print(f"converged = {br.converged}")
        series = EstimateSeries(
            "stretch",
            [
                (0, 0, "stretch.lower", br.lower, "ok"),
                (0, 0, "stretch.upper", br.upper, "ok"),
                (0, 0, "stretch.point", br.point, "ok"),
                (0, 0, "stretch.k_used", float(br.k_used), "ok"),
            ],
            {},
        )
    elif kind in MATRIX_KINDS:
        series = matrix_experiments(
            measure,
            n_max=cfg.n_max,
            paths=cfg.paths,
            master_seed=cfg.master_seed,
            vector=cfg.vector,
            bit_budget=cfg.bit_budget,
            threads=threads,
            kind=kind,
        )
    elif kind == "delta":
        series = delta_experiment(
            measure,
            n_max=cfg.n_max,
            master_seed=cfg.master_seed,
            letter_budget=cfg.letter_budget,
        )
        print(f"four_point_delta = {series.records[0][3]:.6f}")
    else:
        common = dict(
            n_max=cfg.n_max,
            paths=cfg.paths,
            master_seed=cfg.master_seed,
            letter_budget=cfg.letter_budget,
            threads=threads,
        )
        if kind == "drift":
            series = drift_experiment(measure, **common)
        elif kind == "conjugacy":
            series = conjugacy_growth_experiment(measure, seed_words(cfg), **common)
        elif kind == "spectral":
            series = spectral_experiment(measure, k_max=cfg.k_max, **common)
        elif kind == "gromov":
            series = gromov_decay_experiment(measure, **common)
        else:  # pragma: no cover - kinds are validated upstream
            raise ConfigError(f"unhandled kind {kind!r}")
    if cfg.out:
        write_series(series, cfg, cfg.out)
    ok_rows = [r for r in series.records if r[0] >= 0 and r[4] == "ok"]
    if not ok_rows:
        print("error: budget exhausted on every path", file=sys.stderr)
        return 3
    return 0


def summarize(in_path: str, out_path: str) -> int:
    """Aggregate a series CSV: per-(experiment, n, estimator) statistics.

    The 95% interval uses batch means over paths in path_id order:
    split the P values into B = floor(sqrt(P)) batches of floor(P/B),
    and take mean +- 1.96 * stdev(batch means) / sqrt(B).  With a single
    path the interval is left empty.
    """
    groups: dict = {}
    try:
        with open(in_path) as fh:
            reader = csv.reader(line for line in fh if not line.startswith("#"))
            header = next(reader, None)
            if header != CSV_HEADER.split(","):
                print(f"error: unexpected CSV header in {in_path}", file=sys.stderr)
                return 2
            for row in reader:
                if len(row) != 6:
                    print(f"error: malformed row {row!r}", file=sys.stderr)
                    return 2
                experiment, pid, n, est, value, status = row
                if int(pid) < 0 or status != "ok":
                    continue
                groups.setdefault((experiment, int(n), est), []).append(
                    (int(pid), float(value))
                )
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: malformed series file: {e}", file=sys.stderr)
        return 2
    lines = [SUMMARY_HEADER]
    for (experiment, n, est) in sorted(groups):
        pairs = sorted(groups[(experiment, n, est)])
        values = [v for _, v in pairs]
        mean = sum(values) / len(values)
        median = statistics.median(values)
        from .walk_engine import batch_means_ci

        half = batch_means_ci(values)
        if half is None:
            lo_s = hi_s = ""
        else:
            lo_s, hi_s = _fmt(mean - half), _fmt(mean + half)
        lines.append(
            f"{experiment},{n},{est},{_fmt(mean)},{_fmt(median)},{lo_s},{hi_s},{len(values)}"
        )
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="outwalk")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--paths", type=int)
    p_run.add_argument("--threads", type=int, default=1)

    p_sum = sub.add_parser("summarize", help="aggregate a series CSV")
    p_sum.add_argument("--in", dest="in_path", required=True)
    p_sum.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "summarize":
        return summarize(args.in_path, args.out)

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        if args.seed is not None:
            cfg.master_seed = args.seed
        if args.paths is not None:
            cfg.paths = args.paths
        if args.out is not None:
            cfg.out = args.out
        validate(cfg)
        return run(cfg, threads=max(1, args.threads))
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
