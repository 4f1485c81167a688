"""`outwalk run` end to end: exit codes and budget cut-offs."""

import pytest

from outwalk.automorphisms import automorphism_to_str
from outwalk.cli import main

F3_LINES = """rank = 3
gen.0.map = a->b; b->c; c->a
gen.0.inv = a->c; b->a; c->b
gen.0.weight = 0.5
gen.1.map = a->ab; b->b; c->c
gen.1.inv = a->aB; b->b; c->c
gen.1.weight = 0.5
"""


def measure_lines(measure) -> str:
    lines = [f"rank = {measure.rank}"]
    for i, (a, w) in enumerate(zip(measure.support, measure.weights)):
        fwd, inv = automorphism_to_str(a).split(" | ")
        lines += [f"gen.{i}.map = {fwd}", f"gen.{i}.inv = {inv}", f"gen.{i}.weight = {w!r}"]
    return "\n".join(lines) + "\n"


def run_config(tmp_path, text, *args):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "run.csv"
    cfg.write_text(text)
    rc = main(["run", "--config", str(cfg), "--out", str(out), *args])
    return rc, out


def per_path_rows(out_path) -> dict:
    rows = {}
    for line in out_path.read_text().splitlines():
        parts = line.split(",")
        if line.startswith("#") or parts[1] in ("path_id", "-1"):
            continue
        rows.setdefault(int(parts[1]), []).append((int(parts[2]), parts[5]))
    return rows


def test_exit_0_on_success(tmp_path):
    rc, out = run_config(tmp_path, "kind = drift\nn_max = 4\npaths = 2\n" + F3_LINES)
    assert rc == 0
    assert sorted(per_path_rows(out)) == [0, 1]


@pytest.mark.parametrize("override", [
    ["--paths", "0"],
    ["--paths", "-2"],
    ["--seed", "-1"],
    ["--seed", str(2**64)],
])
def test_exit_2_on_bad_override(tmp_path, override):
    rc, _ = run_config(tmp_path, "kind = drift\nn_max = 4\npaths = 2\n" + F3_LINES, *override)
    assert rc == 2


@pytest.mark.parametrize("text", [
    "kind = drift\nn_max = 4\npaths = 0\n" + F3_LINES,
    "kind = drift\nn_max = 4\nletter_budget = 0\n" + F3_LINES,
    "kind = walk\nn_max = 4\n" + F3_LINES,
])
def test_exit_2_on_bad_config(tmp_path, text):
    assert run_config(tmp_path, text)[0] == 2


def test_exit_3_when_every_path_is_cut_off(tmp_path):
    rc, out = run_config(tmp_path, "kind = drift\nn_max = 4\npaths = 3\nletter_budget = 1\n"
                         + F3_LINES)
    assert rc == 3
    assert all(rows == [(0, "truncated")] for rows in per_path_rows(out).values())


def test_drift_budget_hit_truncates_paths(tmp_path, niel):
    # the figure-eight candidates need up to twice the letters of a
    # generator image, so a budget hit must cut the path off, not crash
    n_max = 40
    text = f"kind = drift\nn_max = {n_max}\npaths = 4\nletter_budget = 1000\n" + measure_lines(niel)
    rc, out = run_config(tmp_path, text)
    assert rc == 0
    rows = per_path_rows(out)
    assert sorted(rows) == [0, 1, 2, 3]
    truncated = 0
    for path_rows in rows.values():
        last_n, status = path_rows[-1]
        if status == "truncated":
            truncated += 1
            assert [n for n, _ in path_rows[:-1]] == list(range(1, last_n + 1))
        else:
            assert last_n == n_max
    assert truncated > 0
