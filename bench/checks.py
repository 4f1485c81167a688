"""Output checks for one `outwalk run` series CSV.

The body of a series file is everything after its leading `#` block
(header line and records).  `# generated_at` and `# out =` differ between
otherwise identical runs, so digests cover the body only.

Certified invariants checked on every record:

* spectral: lower <= upper (+ BRACKET_TOL), the program's own tolerance;
* guivarch: rho_lower <= rho_upper <= norm (+ BRACKET_TOL), since the
  upper bound is a minimum over Gelfand norms that starts at the norm;
* drift: |n d_n - (n-1) d_{n-1}| <= step_bound, where d_0 = 0 and
  step_bound = max over the support of max(dist(s), dist(s^{-1})) by the
  triangle inequality for the orbit metric.

Summary rows (path_id -1) are recomputed from the per-path rows.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

CSV_HEADER = "experiment,path_id,n,estimator,value,status"
STATUSES = ("ok", "truncated", "downgraded")
BRACKET_TOL = 1e-9


def body_lines(text: str) -> list:
    """Lines after the leading `#` comment block."""
    lines = text.splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        k += 1
    return lines[k:]


def body_digest(text: str) -> str:
    return hashlib.sha256("\n".join(body_lines(text)).encode()).hexdigest()


@dataclass
class Series:
    """Parsed records of one series file."""

    experiment: str
    rows: list  # (path_id, n, estimator, value, status) with path_id >= 0
    summary: dict = field(default_factory=dict)  # (n, estimator) -> value

    def per_path(self) -> dict:
        out: dict = {}
        for row in self.rows:
            out.setdefault(row[0], []).append(row)
        return out

    def ok_frac(self) -> float:
        return sum(r[4] == "ok" for r in self.rows) / len(self.rows)

    def steps(self) -> int:
        """Path-steps completed: the last n each path reached, summed."""
        return sum(max(r[1] for r in rows) for rows in self.per_path().values())


def parse_series(text: str) -> Series:
    body = body_lines(text)
    if not body or body[0] != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    experiment = None
    rows, summary = [], {}
    for line in body[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            raise ValueError(f"malformed row {line!r}")
        exp, pid, n, est, value, status = parts
        if experiment is None:
            experiment = exp
        elif exp != experiment:
            raise ValueError(f"mixed experiments {experiment!r} and {exp!r}")
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}")
        pid, n, value = int(pid), int(n), float(value)
        if pid < 0:
            summary[(n, est)] = value
        else:
            rows.append((pid, n, est, value, status))
    if not rows:
        raise ValueError("no per-path records")
    return Series(experiment, rows, summary)


def check_series(series: Series, *, paths: int, n_max: int, step_bound=None) -> list:
    """Invariant violations of a parsed series, as messages (empty if none)."""
    errors = []
    seen = set()
    for pid, n, est, value, status in series.rows:
        if (pid, n, est) in seen:
            errors.append(f"duplicate record ({pid}, {n}, {est})")
        seen.add((pid, n, est))
        if not 0 <= n <= n_max:
            errors.append(f"path {pid}: n={n} outside 0..{n_max}")
    if sorted(series.per_path()) != list(range(paths)):
        errors.append(f"expected records for paths 0..{paths - 1}")
    by_key = {(pid, n, est): value for pid, n, est, value, _ in series.rows}
    if series.experiment == "spectral":
        errors += _pairs_ordered(by_key, "spectral.lower", "spectral.upper")
    elif series.experiment == "matrix-guivarch":
        errors += _pairs_ordered(by_key, "guivarch.rho_lower", "guivarch.rho_upper")
        errors += _pairs_ordered(by_key, "guivarch.rho_upper", "guivarch.norm")
    elif series.experiment == "drift":
        if step_bound is None:
            raise ValueError("drift checks need the support step bound")
        errors += _drift_steps(series, step_bound)
    errors += _summary_means(series)
    return errors


def _pairs_ordered(by_key: dict, low: str, high: str) -> list:
    errors = []
    for (pid, n, est), value in by_key.items():
        if est != low:
            continue
        other = by_key.get((pid, n, high))
        if other is None:
            errors.append(f"path {pid} n={n}: {low} without {high}")
        elif not value <= other + BRACKET_TOL:
            errors.append(f"path {pid} n={n}: {low} {value!r} > {high} {other!r}")
    return errors


def _drift_steps(series: Series, step_bound: float) -> list:
    errors = []
    for pid, rows in sorted(series.per_path().items()):
        ok = sorted((n, v) for _, n, est, v, status in rows if est == "drift" and status == "ok")
        prev_n, prev_total = 0, 0.0
        for n, v in ok:
            if n != prev_n + 1:
                errors.append(f"path {pid}: drift records jump from n={prev_n} to n={n}")
                break
            total = n * v
            if v < 0 or abs(total - prev_total) > step_bound + BRACKET_TOL * max(1.0, total):
                errors.append(
                    f"path {pid} n={n}: drift step {abs(total - prev_total)!r} "
                    f"exceeds support bound {step_bound!r}"
                )
                break
            prev_n, prev_total = n, total
    return errors


def _summary_means(series: Series) -> list:
    """`<est>.mean` and `<est>.paths` rows must match the per-path rows."""
    groups: dict = {}
    for pid, n, est, value, status in series.rows:
        if status == "ok" and math.isfinite(value):
            groups.setdefault((n, est), []).append(value)
    errors = []
    for (n, name), value in series.summary.items():
        est, _, stat = name.rpartition(".")
        vals = groups.get((n, est))
        if stat not in ("mean", "paths") or vals is None:
            continue
        want = sum(vals) / len(vals) if stat == "mean" else float(len(vals))
        if value != want:
            errors.append(f"summary {name} at n={n}: {value!r} != {want!r}")
    return errors
