"""Experiment runner CLI.

    outwalk run --config <file> [--out <file>] [--threads <int>]
    outwalk summarize --in <file> --out <file>

`run` calls the kind's runner in `RUNNERS` with exactly the settings
that `config.KIND_TABLE` names for the kind, all read from the config
file.  A kind that runs no paths refuses `--threads` other than 1.

A run loads the layers of its kind and nothing more.  Importing this
module loads `config`, `walk_engine`, `matrix_oracle` and `rng`; `run`
imports the module of the kind's runner (`RUNNERS`) before
`build_measure` returns, so that the kind's modules load in set-up,
never in the run itself.  A kind on automorphisms adds the word layer
there (`word_walks`, which imports `free_group`, `_wordkernel`,
`automorphisms`, `outer_metric` and `spectral`); a matrix kind adds
nothing.  Only a run at more than one thread imports
`concurrent.futures`, as its paths start, and only `summarize` and its
helpers import `csv` and `statistics`.  The CSV is written line by line
as each record is formatted.

Exit codes: 0 success, 2 validation or schema error (an output path
that cannot be written included, and a walk run with no output path at
all, refused before the run or the aggregation starts), 3 no record
within the budget: none reads ok or downgraded, though a path may have
completed its steps with every record truncated.  A `distance` or
`stretch` run prints its one record, so its output path is optional.
CSV schema (exact): experiment,path_id,n,estimator,value,status.  The
header is the line `# outwalk run`, the timestamp in its own
`# generated_at = ...` line, and the resolved config, less its `out`
path, as `# key = value` lines: every setting that bounded the run, and
nothing else.  Only the timestamp differs between reruns, so output
bodies stay byte-identical across reruns and worker counts.

A `run` body holds per-path records only (path_id 0..paths-1); every
summary comes from `summarize`, the one aggregator.  It reads a series
into one table per experiment, (path_id, n) -> {estimator: (value,
status)}, and writes each row from it.  Its schema (exact):
experiment,n,estimator,mean,median,ci_low,ci_high,effective_paths,
truncated,downgraded; the last three say which paths a row covers.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from importlib import import_module

from .config import (
    KIND_TABLE,
    ConfigError,
    ExperimentConfig,
    build_measure,
    format_config,
    parse_config,
    validate,
)
from .walk_engine import EstimateSeries

CSV_HEADER = "experiment,path_id,n,estimator,value,status"

SUMMARY_HEADER = ("experiment,n,estimator,mean,median,ci_low,ci_high,effective_paths,"
                  "truncated,downgraded")


def _fmt(value: float) -> str:
    # shortest round-trip representation keeps goldens stable
    return repr(float(value))


def write_series(series: EstimateSeries, cfg: ExperimentConfig, out_path: str) -> None:
    """The header, then each record's line as it is formatted: the file's
    text is never held whole."""
    kind = series.experiment
    with open(out_path, "w") as fh:
        fh.write(f"# outwalk run\n# generated_at = {datetime.now(timezone.utc).isoformat()}\n")
        # without `out`, runs that differ only in where they write share a header
        fh.writelines(f"# {cfg_line}\n"
                      for cfg_line in format_config(replace(cfg, out=None)).splitlines())
        fh.write(CSV_HEADER + "\n")
        fh.writelines(f"{kind},{pid},{n},{est},{_fmt(value)},{status}\n"
                      for pid, n, est, value, status in series.records)


def _check_out(path: str) -> None:
    """Refuse an output path that cannot be written, before any work."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(
            path if os.path.exists(path) else parent, os.W_OK):
        raise ConfigError(f"out: cannot write {path!r}")


# kind -> (module, runner): the runner, a function of outwalk.<module>, is
# called as runner(measure, **settings) with the settings that
# config.KIND_TABLE names for the kind, plus `threads` when it runs paths;
# importing the module loads the kind's layers
RUNNERS = {
    "drift": ("word_walks", "drift_experiment"),
    "conjugacy": ("word_walks", "_conjugacy"),
    "spectral": ("word_walks", "spectral_experiment"),
    "gromov": ("word_walks", "gromov_decay_experiment"),
    "matrix-guivarch": ("walk_engine", "guivarch_experiment"),
    "matrix-furstenberg": ("walk_engine", "furstenberg_experiment"),
    "distance": ("word_walks", "_distance"),
    "stretch": ("word_walks", "_stretch"),
}


def run(cfg: ExperimentConfig, threads: int = 1) -> int:
    # the kind's modules load here, in set-up, before build_measure returns
    module, attr = RUNNERS[cfg.kind]
    runner = getattr(import_module(f"{__package__}.{module}"), attr)
    measure = build_measure(cfg)
    settings = {name: getattr(cfg, name) for name in KIND_TABLE[cfg.kind].settings}
    if "paths" in settings:
        settings["threads"] = threads
    series = runner(measure, **settings)
    if cfg.out:
        write_series(series, cfg, cfg.out)
    # downgraded records are certified brackets too, so they count as output
    if not any(r[4] in ("ok", "downgraded") for r in series.records):
        print("error: no record within the budget", file=sys.stderr)
        return 3
    return 0


def batch_means_ci(values) -> float | None:
    """Half-width of a 95% batch-means interval; None below two batches.

    The P values, in path order, split into B = floor(sqrt(P)) batches
    of floor(P/B); the half-width is 1.96 * stdev(batch means) / sqrt(B).
    """
    import statistics

    p = len(values)
    nb = math.isqrt(p)
    if nb < 2:
        return None
    per = p // nb
    means = [sum(values[i * per: (i + 1) * per]) / per for i in range(nb)]
    return 1.96 * statistics.stdev(means) / math.sqrt(nb)


def summary_rows(experiment: str, table: dict) -> list:
    """The summary rows of one experiment's table (path_id, n) ->
    {estimator: (value, status)}, one per (n, estimator) of a record.

    mean, median and the interval are over the finite values of the ok
    records, in path order, and effective_paths counts them; with none,
    the three are left empty.  The 95% interval (`batch_means_ci`) is
    left empty with fewer than four values.  truncated counts the paths
    cut at n: a path whose `truncated_at` step is below n, or one with a
    truncated record at n (a spectral or gromov record).  downgraded
    counts the downgraded records.  So effective_paths + truncated +
    downgraded is the number of paths whenever every ok value is finite.
    """
    import statistics

    pids = sorted({pid for pid, _ in table})
    last_step = {pid: cell["truncated_at"][0] for (pid, _), cell in table.items()
                 if "truncated_at" in cell}
    lines = []
    for n, est in sorted({(n, est) for (_, n), cell in table.items() for est in cell
                          if est != "truncated_at"}):
        cells = [table.get((pid, n), {}) for pid in pids]
        records = [cell[est] for cell in cells if est in cell]
        values = [value for value, status in records if status == "ok" and math.isfinite(value)]
        truncated = sum(last_step.get(pid, n) < n or any(
            status == "truncated" for e, (_, status) in cell.items() if e != "truncated_at")
            for pid, cell in zip(pids, cells))
        downgraded = sum(status == "downgraded" for _, status in records)
        mean_s = median_s = lo_s = hi_s = ""
        if values:
            mean = sum(values) / len(values)
            mean_s, median_s = _fmt(mean), _fmt(statistics.median(values))
            half = batch_means_ci(values)
            if half is not None:
                lo_s, hi_s = _fmt(mean - half), _fmt(mean + half)
        lines.append(f"{experiment},{n},{est},{mean_s},{median_s},{lo_s},{hi_s},"
                     f"{len(values)},{truncated},{downgraded}")
    return lines


def summarize(in_path: str, out_path: str) -> int:
    """Aggregate a series CSV: its records go into one table per
    experiment, (path_id, n) -> {estimator: (value, status)}, and
    `summary_rows` writes every row from it.

    An output path that cannot be written is refused before the input
    is read, and so is an input row that `run` does not write: a
    negative path_id, a status other than ok, downgraded or truncated,
    or a second record of one path, n and estimator.
    """
    import csv

    tables = {}
    try:
        _check_out(out_path)
        with open(in_path) as fh:
            reader = csv.reader(line for line in fh if not line.startswith("#"))
            if next(reader, None) != CSV_HEADER.split(","):
                raise ConfigError(f"unexpected CSV header in {in_path}")
            for row in reader:
                if len(row) != 6:
                    raise ConfigError(f"malformed row {row!r}")
                experiment, pid, n, est, value, status = row
                pid, n = int(pid), int(n)
                if pid < 0:
                    raise ConfigError(f"row {row!r}: path_id must be >= 0")
                if status not in ("ok", "downgraded", "truncated"):
                    raise ConfigError(f"row {row!r}: unknown status {status!r}")
                cell = tables.setdefault(experiment, {}).setdefault((pid, n), {})
                if est in cell:
                    raise ConfigError(f"row {row!r}: a second record of one path, n and estimator")
                cell[est] = (float(value), status)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: malformed series file: {e}", file=sys.stderr)
        return 2
    lines = [SUMMARY_HEADER]
    for experiment in sorted(tables):
        lines += summary_rows(experiment, tables[experiment])
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="outwalk")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out")
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
        if args.out is not None:
            cfg.out = args.out
        validate(cfg)
        if args.threads < 1:
            raise ConfigError("--threads: must be >= 1")
        if args.threads != 1 and not KIND_TABLE[cfg.kind].walks:
            raise ConfigError(f"--threads: a {cfg.kind} run does not read it")
        if cfg.out:
            _check_out(cfg.out)
        elif KIND_TABLE[cfg.kind].walks:
            # a walk prints nothing: without a path its run would be lost
            raise ConfigError(f"out: required for a {cfg.kind} run (--out or out =)")
        return run(cfg, threads=args.threads)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
