"""`outwalk run` and `outwalk summarize` end to end: exit codes, budget
cut-offs and aggregates."""

import os
import subprocess
import sys
from importlib import import_module

import pytest

from outwalk import cli, word_walks
from outwalk.automorphisms import automorphism_to_str, parse_automorphism
from outwalk.cli import CSV_HEADER, SUMMARY_HEADER, main
from outwalk.config import KIND_TABLE, format_config, parse_config
from outwalk.outer_metric import dist
from outwalk.spectral import bracket

F3_LINES = """rank = 3
gen.0.map = a->b; b->c; c->a
gen.0.inv = a->c; b->a; c->b
gen.0.weight = 0.5
gen.1.map = a->ab; b->b; c->c
gen.1.inv = a->aB; b->b; c->c
gen.1.weight = 0.5
"""

MATRIX_LINES = """dim = 3
gen.0.matrix = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
gen.0.weight = 0.5
gen.1.matrix = [[1, 0, 0], [0, 1, 0], [0, 1, 1]]
gen.1.weight = 0.5
"""

MAP_LINES = "rank = 3\ngen.0.map = a->ab; b->b; c->c\ngen.0.inv = a->aB; b->b; c->c\n"

# kind: a config that sets only what the kind requires
BASES = {
    "drift": "kind = drift\nn_max = 4\n" + F3_LINES,
    "conjugacy": "kind = conjugacy\nn_max = 4\nword.0 = ab\n" + F3_LINES,
    "spectral": "kind = spectral\nn_max = 4\n" + F3_LINES,
    "gromov": "kind = gromov\nn_max = 4\n" + F3_LINES,
    "matrix-guivarch": "kind = matrix-guivarch\nn_max = 4\n" + MATRIX_LINES,
    "matrix-furstenberg": "kind = matrix-furstenberg\nn_max = 4\nvector = [1, 0, 0]\n"
                          + MATRIX_LINES,
    "distance": "kind = distance\n" + MAP_LINES,
    "stretch": "kind = stretch\n" + MAP_LINES,
}


def measure_lines(measure) -> str:
    lines = [f"rank = {measure.rank}"]
    for i, (a, w) in enumerate(zip(measure.support, measure.weights)):
        fwd, inv = automorphism_to_str(a).split(" | ")
        lines += [f"gen.{i}.map = {fwd}", f"gen.{i}.inv = {inv}", f"gen.{i}.weight = {w!r}"]
    return "\n".join(lines) + "\n"


def with_measure(head, niel) -> str:
    """head, with the NIEL(3) measure lines unless it has its own."""
    return head if "\ngen.0." in head else head + measure_lines(niel)


def run_config(tmp_path, text, *args):
    """The exit code of `outwalk run` on the config text, and its output
    path; argparse exits on a flag it does not know."""
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "run.csv"
    cfg.write_text(text)
    try:
        return main(["run", "--config", str(cfg), "--out", str(out), *args]), out
    except SystemExit as e:
        return e.code, out


def per_path_rows(out_path) -> dict:
    rows = {}
    for line in out_path.read_text().splitlines():
        parts = line.split(",")
        if line.startswith("#") or parts[1] == "path_id":
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
    ["--threads", "0"],
    ["--threads", "-3"],
])
def test_exit_2_on_bad_override(tmp_path, override):
    # `--paths` and `--seed` are gone, whatever their value: paths and
    # master_seed come from config lines only, whose bad values are cases
    # of test_input_errors_exit_2
    rc, out = run_config(tmp_path, "kind = drift\nn_max = 4\npaths = 2\n" + F3_LINES, *override)
    assert rc == 2 and not out.exists()


FURSTENBERG_2 = ("kind = matrix-furstenberg\nn_max = 4\ndim = 2\nvector = {vector}\n"
                 "gen.0.matrix = {matrix}\ngen.0.weight = 1\n")


@pytest.mark.parametrize("text, error", [
    ("kind = drift\nn_max = 4\npaths = 0\n", "paths: must be >= 1"),
    ("kind = drift\nn_max = 4\nletter_budget = 0\n", "letter_budget: must be >= 1"),
    ("kind = walk\nn_max = 4\n", "kind: unknown experiment kind 'walk'"),
    ("kind = delta\nn_max = 2\n", "kind: unknown experiment kind 'delta'"),
    ("kind = conjugacy\nn_max = 4\npaths = 4\nword.0 = ab\nword.1 = ab\n",
     "word.1: 'ab' is conjugate to word.0"),
    ("kind = conjugacy\nn_max = 4\nword.0 = abA\nword.1 = b\n",
     "word.1: 'b' is conjugate to word.0"),
    ("kind = conjugacy\nn_max = 4\nword.0 = ab\nword.1 = ba\n",
     "word.1: 'ba' is conjugate to word.0"),
    ("kind = conjugacy\nn_max = 4\nword.0 = a\nword.1 = bc\nword.2 = baB\n",
     "word.2: 'a' is conjugate to word.0"),
    ("kind = conjugacy\nn_max = 4\nword.0 = abC\nword.1 = c\nword.2 = Cab\n",
     "word.2: 'Cab' is conjugate to word.0"),
    ("kind = conjugacy\nn_max = 4\nword.0 = ab\nword.1 = 1\n",
     "word.1: seed word must be nontrivial"),
    ("kind = conjugacy\nn_max = 4\nword.0 = aA\n", "word.0: seed word must be nontrivial"),
    # a determinant other than +-1 is the matrix's fault, not gen.*.weight's
    ("kind = matrix-guivarch\nn_max = 4\ndim = 2\ngen.0.matrix = [[2, 0], [0, 1]]\n"
     "gen.0.weight = 1\n", "gen.0.matrix: determinant 2 is not +-1"),
    # int() read 1.5, '1' and True as 1, and isinstance(True, int) holds
    *[(FURSTENBERG_2.format(vector=vector, matrix="[[1, 1], [0, 1]]"),
       "vector: expected an integer list like [1,0]")
      for vector in ("[1.5, 0]", "['1', 0]", "[True, 0]", "'10'")],
    *[(FURSTENBERG_2.format(vector="[1, 0]", matrix=matrix),
       f"gen.0.matrix: matrix rows must be integer lists: {matrix!r}")
      for matrix in ("[[True, 1], [0, 1]]", "[[1, 1], [0, True]]")],
    # past z a generator has no letter: parsing its map listed '{', '|', ...
    ("kind = drift\nn_max = 4\nrank = 30\ngen.0.map = a->b; b->a\ngen.0.inv = a->b; b->a\n"
     "gen.0.weight = 1\n", "rank: must be <= 26"),
])
def test_exit_2_on_bad_config(tmp_path, capsys, text, error):
    rc, out = run_config(tmp_path, text if "\ngen.0." in text else text + F3_LINES)
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == f"error: {error}\n"


RANK_2 = ("rank = 2\ngen.0.map = a->ab; b->b\ngen.0.inv = a->aB; b->b\ngen.0.weight = 0.5\n"
          "gen.1.map = a->b; b->a\ngen.1.inv = a->b; b->a\ngen.1.weight = 0.5\n")
DRIFT = "kind = drift\nn_max = 4\n" + F3_LINES
CONJUGACY = "kind = conjugacy\nn_max = 4\n" + F3_LINES
FURSTENBERG = "kind = matrix-furstenberg\nn_max = 4\n" + MATRIX_LINES
SERIES = CSV_HEADER + "\n"


@pytest.mark.parametrize("command, text, error", [
    # parse_config
    pytest.param("run", "\n# a comment\nkind drift\n",
                 "line 3: expected 'key = value', got 'kind drift'", id="no '='"),
    pytest.param("run", "kind = drift\n" + DRIFT, "line 2: duplicate key 'kind'",
                 id="key twice"),
    pytest.param("run", "n_max = 4\n" + F3_LINES, "missing required key 'kind'", id="no kind"),
    pytest.param("run", "kind = drift\nn_max = four\n" + F3_LINES,
                 "n_max: expected an integer", id="not an integer"),
    pytest.param("run", FURSTENBERG + "vector = [1, 0\n",
                 "vector: expected an integer list like [1,0]", id="vector literal"),
    pytest.param("run", DRIFT + "gen.x.weight = 1\n", "gen.x.weight: bad generator index",
                 id="gen index"),
    pytest.param("run", CONJUGACY + "word.x = ab\n", "word.x: bad seed word index",
                 id="word index"),
    pytest.param("run", DRIFT + "colour = red\n", "unknown key 'colour'", id="unknown key"),
    pytest.param("run", DRIFT + "gen.3.weight = 0.5\n",
                 "gen.<i> indices must be 0..k-1 without gaps", id="gen gap"),
    pytest.param("run", CONJUGACY + "word.1 = ab\n",
                 "word.<i> indices must be 0..k-1 without gaps", id="word gap"),
    # int() read both spellings of an index, and the key that sorted last won
    pytest.param("run", "kind = drift\nn_max = 4\n" + RANK_2 + "gen.01.map = a->aB; b->b\n",
                 "gen.01.map: same setting as gen.1.map", id="gen index twice"),
    pytest.param("run", CONJUGACY + "word.0 = ab\nword.00 = aab\n",
                 "word.00: same setting as word.0", id="word index twice"),
    # the settings of the retired `--paths` and `--seed`, from config lines
    pytest.param("run", "paths = -2\n" + DRIFT, "paths: must be >= 1", id="paths -2"),
    pytest.param("run", "master_seed = -1\n" + DRIFT, "master_seed: must fit in 64 bits",
                 id="master_seed -1"),
    pytest.param("run", f"master_seed = {2**64}\n" + DRIFT, "master_seed: must fit in 64 bits",
                 id="master_seed 2**64"),
    # validate
    pytest.param("run", "kind = drift\n" + F3_LINES, "n_max: required for a drift run",
                 id="required"),
    pytest.param("run", FURSTENBERG + "vector = [1, 0]\n",
                 "vector: must be a nonzero vector of length dim", id="vector length"),
    pytest.param("run", FURSTENBERG + "vector = [0, 0, 0]\n",
                 "vector: must be a nonzero vector of length dim", id="zero vector"),
    pytest.param("run", "kind = drift\nn_max = 4\nrank = 3\n",
                 "gen.0.*: at least one measure atom is required", id="no gen.0"),
    pytest.param("run", "kind = drift\nn_max = 4\nrank = 2\ngen.0.map = a->ab; b->b\n"
                 "gen.0.weight = 1\n", "gen.0.inv: required for a drift run", id="no inv"),
    pytest.param("run", "kind = drift\nn_max = 4\nrank = 2\ngen.0.weight = 1\n",
                 "gen.0.map/gen.0.inv: required for a drift run", id="no map, no inv"),
    # build_measure
    pytest.param("run", DRIFT.replace("weight = 0.5", "weight = half", 1),
                 "gen.0.weight: expected a number", id="weight not a number"),
    pytest.param("run", "kind = drift\nn_max = 4\n" + MAP_LINES, "gen.0.weight: required",
                 id="no weight"),
    pytest.param("run", "kind = matrix-guivarch\nn_max = 4\ndim = 3\n"
                 "gen.0.matrix = [[1, 1], [0, 1]]\ngen.0.weight = 1\n",
                 "gen.0.matrix: dimension 2 != dim 3", id="matrix dimension"),
    pytest.param("run", "kind = drift\nn_max = 4\nrank = 2\ngen.0.map = a->x; b->b\n"
                 "gen.0.inv = a->a; b->b\ngen.0.weight = 1\n",
                 "gen.0.map: letter 'x' exceeds rank 2", id="map parse"),
    # summarize
    pytest.param("summarize", "path_id,n\n", "unexpected CSV header in {input}", id="header"),
    pytest.param("summarize", SERIES + "drift,0,1,drift,0.5\n",
                 "malformed row ['drift', '0', '1', 'drift', '0.5']", id="short row"),
    pytest.param("summarize", None, "[Errno 2] No such file or directory: '{input}'",
                 id="unreadable"),
    pytest.param("summarize", SERIES + "drift,0,one,drift,0.5,ok\n",
                 "malformed series file: invalid literal for int() with base 10: 'one'",
                 id="malformed value"),
    # a repeated row counted twice: 3 effective paths of 2, and a mean
    # that weighs path 0 double
    pytest.param("summarize", SERIES + "drift,0,1,drift,0.5,ok\ndrift,1,1,drift,0.25,ok\n"
                 "drift,0,1,drift,0.5,ok\n", "row ['drift', '0', '1', 'drift', '0.5', 'ok']: "
                 "a second record of one path, n and estimator", id="repeated row"),
    # a row of any other status counted nowhere: every key read 0,0,0
    pytest.param("summarize", SERIES + "drift,0,1,drift,0.5,skipped\n",
                 "row ['drift', '0', '1', 'drift', '0.5', 'skipped']: unknown status 'skipped'",
                 id="unknown status"),
    # the summary rows that series bodies held before `summarize` existed
    pytest.param("summarize", SERIES + "drift,-1,1,drift.mean,0.5,ok\n",
                 "row ['drift', '-1', '1', 'drift.mean', '0.5', 'ok']: path_id must be >= 0",
                 id="negative path_id"),
])
def test_input_errors_exit_2(tmp_path, capsys, command, text, error):
    # each case is refused before any CSV is written, with its message
    given = tmp_path / "input"
    out = tmp_path / "out.csv"
    if text is not None:
        given.write_text(text)
    flag = "--config" if command == "run" else "--in"
    assert main([command, flag, str(given), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {error.format(input=given)}\n"


NAN_WEIGHT_HEADS = {
    "drift": ("kind = drift\nn_max = 4\npaths = 2\nrank = 2\n"
              "gen.0.map = a->ab; b->b\ngen.0.inv = a->aB; b->b\ngen.0.weight = {w}\n"
              "gen.1.map = a->b; b->a\ngen.1.inv = a->b; b->a\ngen.1.weight = 0.5\n"),
    "matrix-guivarch": ("kind = matrix-guivarch\nn_max = 4\npaths = 2\ndim = 2\n"
                        "gen.0.matrix = [[1, 1], [0, 1]]\ngen.0.weight = {w}\n"
                        "gen.1.matrix = [[1, 0], [1, 1]]\ngen.1.weight = 0.5\n"),
}


@pytest.mark.parametrize("weight", ["nan", "-nan"])
@pytest.mark.parametrize("kind", sorted(NAN_WEIGHT_HEADS))
def test_nan_weight_exits_2(tmp_path, capsys, kind, weight):
    # a NaN weight sum passed the tolerance check, and sampling then
    # bisected a NaN cumulative table
    assert run_config(tmp_path, NAN_WEIGHT_HEADS[kind].format(w=weight))[0] == 2
    assert "gen.*.weight: " in capsys.readouterr().err


@pytest.mark.parametrize("k_max", [0, -3])
@pytest.mark.parametrize("kind", ["spectral", "stretch"])
def test_k_max_below_1_exits_2(tmp_path, capsys, kind, k_max):
    # min(k_used, k_max) >= k_max held for any k_used, so every spectral
    # record read ok
    assert run_config(tmp_path, BASES[kind] + f"k_max = {k_max}\n")[0] == 2
    assert "k_max: " in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(BASES))
def test_measure_size_below_its_least_exits_2(tmp_path, capsys, kind):
    # dim = 0 was refused only as a mismatch of gen.0.matrix
    size = KIND_TABLE[kind].size
    text = BASES[kind].replace(f"{size} = 3", f"{size} = {dict(rank=1, dim=0)[size]}")
    rc, out = run_config(tmp_path, text)
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err.startswith(f"error: {size}: must be >= ")


@pytest.mark.parametrize("where", ["config", "override", "directory", "empty"])
def test_unwritable_out_exits_2_before_the_run(tmp_path, monkeypatch, where):
    # an empty `--out` (say, from an unset variable) ran the whole
    # experiment, wrote nothing and exited 0
    def experiment(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(word_walks, "drift_experiment", experiment)
    out = {"directory": tmp_path, "empty": ""}.get(where, tmp_path / "missing" / "x.csv")
    cfg = tmp_path / "run.cfg"
    head = f"out = {out}\n" if where == "config" else ""
    cfg.write_text(head + "kind = drift\nn_max = 4\npaths = 2\n" + F3_LINES)
    override = [] if where == "config" else ["--out", str(out)]
    assert main(["run", "--config", str(cfg), *override]) == 2


@pytest.mark.parametrize("kind", sorted(BASES))
def test_a_walk_run_without_an_output_path_exits_2(tmp_path, capsys, monkeypatch, kind):
    # with neither `--out` nor `out =`, a walk ran every path, wrote
    # nothing and exited 0; a one-map run prints its record
    if KIND_TABLE[kind].walks:
        def experiment(*args, **kwargs):
            raise AssertionError("the experiment ran")

        module, attr = cli.RUNNERS[kind]
        monkeypatch.setattr(import_module(f"outwalk.{module}"), attr, experiment)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(BASES[kind])
    rc = main(["run", "--config", str(cfg)])
    out, err = capsys.readouterr()
    if KIND_TABLE[kind].walks:
        assert rc == 2 and err.startswith("error: out: ")
    else:
        assert rc == 0 and out.startswith(("dist = ", "lower = "))
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("head", [
    "kind = drift\nn_max = 4\npaths = 2\n",
    "kind = conjugacy\nn_max = 4\npaths = 2\nmaster_seed = 18446744073709551615\n"
    "word.0 = ab\nword.1 = aCb\n",
    "kind = spectral\nn_max = 4\npaths = 2\nk_max = 3\n",
    "kind = gromov\nn_max = 4\npaths = 2\n",
    "kind = matrix-guivarch\nn_max = 4\npaths = 2\nbit_budget = 5000\n" + MATRIX_LINES,
    "kind = matrix-furstenberg\nn_max = 4\npaths = 2\nvector = [0, 1, 1]\n" + MATRIX_LINES,
    "kind = distance\n" + MAP_LINES,
    "kind = stretch\nk_max = 2\n" + MAP_LINES,
])
def test_metadata_round_trips_through_comment_lines(tmp_path, niel, head):
    # a run's metadata is its resolved config: the header is the run line,
    # the timestamp and that config less its `out` path, and no other line
    text = with_measure(head, niel)
    rc, out = run_config(tmp_path, text)
    assert rc == 0
    lines = out.read_text().splitlines()
    k = lines.index(CSV_HEADER)
    assert not any(line.startswith("#") for line in lines[k:])
    assert lines[0] == "# outwalk run" and lines[1].startswith("# generated_at = ")
    assert all(line.startswith("# ") for line in lines[2:k])
    header = "\n".join(line[2:] for line in lines[2:k]) + "\n"
    assert header == format_config(parse_config(text))
    assert parse_config(header) == parse_config(text)


def test_exit_3_when_every_path_is_cut_off(tmp_path, niel):
    # every NIEL move maps one generator to two letters, and drift tracks
    # all three generator images, so no path completes a step
    rc, out = run_config(tmp_path, "kind = drift\nn_max = 4\npaths = 3\nletter_budget = 1\n"
                         + measure_lines(niel))
    assert rc == 3
    assert all(rows == [(0, "truncated")] for rows in per_path_rows(out).values())


def test_exit_3_when_no_record_is_within_the_budget(tmp_path, capsys):
    # both paths complete step 1, within the budget of 2 letters, but the
    # square of each step-1 map needs 3, so both Gromov records are
    # truncated: no path is cut off, and still no record counts
    text = ("kind = gromov\nn_max = 1\npaths = 2\nletter_budget = 2\nrank = 2\n"
            "gen.0.map = a->ab; b->b\ngen.0.inv = a->aB; b->b\ngen.0.weight = 0.5\n"
            "gen.1.map = a->a; b->ba\ngen.1.inv = a->a; b->bA\ngen.1.weight = 0.5\n")
    rc, out = run_config(tmp_path, text)
    assert rc == 3
    assert capsys.readouterr().err == "error: no record within the budget\n"
    assert per_path_rows(out) == {0: [(1, "truncated")], 1: [(1, "truncated")]}
    assert ",truncated_at," not in out.read_text()


def test_drift_budget_hit_truncates_paths(tmp_path, niel):
    # a substitution over the budget must cut the path off, not crash
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


@pytest.mark.parametrize("kind, budget", [("distance", 2), ("stretch", 1)])
def test_a_one_map_run_never_exits_3(tmp_path, capsys, kind, budget):
    # a and b map to two letters each: the raw image of the figure eight
    # ab has four, and so has the substitution that forms the bracket's
    # second power.  A distance reads the images and substitutes nothing,
    # so it reads no budget and refuses one; a bracket reads its first
    # power as it is, and the budget stops the orbit before the second
    theta = "gen.0.map = a->ab; b->bc; c->c\ngen.0.inv = a->acB; b->bC; c->c\n"
    rc, out = run_config(tmp_path, f"kind = {kind}\nletter_budget = {budget}\nrank = 3\n" + theta)
    err = capsys.readouterr().err
    if kind == "distance":
        assert rc == 2 and not out.exists()
        assert err.startswith("error: letter_budget: ")
        return
    assert rc == 0, err
    rows = out.read_text().splitlines()
    upper = dist(parse_automorphism("a->ab; b->bc; c->c | a->acB; b->bC; c->c", 3))
    assert "stretch,0,0,stretch.k_used,1.0,ok" in rows
    assert f"stretch,0,0,stretch.upper,{upper!r},ok" in rows


ONE_PATH_CONFIGS = {
    "distance": "kind = distance\nrank = 3\ngen.0.map = a->ab; b->b; c->c\n"
                "gen.0.inv = a->aB; b->b; c->c\n",
    "stretch": "kind = stretch\nk_max = 3\nrank = 3\ngen.0.map = a->ab; b->b; c->c\n"
               "gen.0.inv = a->aB; b->b; c->c\n",
}


@pytest.mark.parametrize("kind", sorted(ONE_PATH_CONFIGS))
@pytest.mark.parametrize("paths", [0, 5])
def test_one_path_kinds_refuse_paths(tmp_path, capsys, kind, paths):
    # a kind that reads one map would ignore the other paths and still
    # write `# paths = 5` into its header
    text = ONE_PATH_CONFIGS[kind]
    rc, out = run_config(tmp_path, text + f"paths = {paths}\n")
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("error: paths: ")
    assert run_config(tmp_path, text + "paths = 1\n")[0] == 0
    # nor does it run threads: --threads 1 is the one thread it runs
    capsys.readouterr()
    assert run_config(tmp_path, text, "--threads", str(paths))[0] == 2
    assert capsys.readouterr().err.startswith("error: --threads: ")
    assert run_config(tmp_path, text, "--threads", "1")[0] == 0


def test_exit_0_when_every_record_is_downgraded(tmp_path, niel):
    # at 4 letters no bracket completes k_max = 4 orbit steps, but every
    # record is still a certified bracket
    text = ("kind = spectral\nn_max = 2\npaths = 2\nk_max = 4\nletter_budget = 4\n"
            + measure_lines(niel))
    rc, out = run_config(tmp_path, text)
    assert rc == 0
    statuses = [status for rows in per_path_rows(out).values() for _, status in rows]
    assert len(statuses) == 16 and set(statuses) == {"downgraded"}


def test_summarize_leaves_non_finite_ok_values_out(tmp_path):
    # -inf was once written as a "no bound" spectral.lower; aggregates
    # take only the finite values, in path order
    series = tmp_path / "series.csv"
    series.write_text("# outwalk run\n" + CSV_HEADER + "\n" + "\n".join([
        "spectral,0,2,spectral.lower,-inf,ok",
        "spectral,1,2,spectral.lower,0.25,ok",
        "spectral,2,2,spectral.lower,0.5,ok",
        "spectral,3,2,spectral.lower,0.75,downgraded",
        "spectral,4,2,spectral.lower,1.0,ok",
        "spectral,0,2,spectral.upper,1.0,ok",
        "spectral,1,2,spectral.upper,nan,truncated",
        "spectral,3,2,spectral.point,0.75,downgraded",
    ]) + "\n")
    out = tmp_path / "summary.csv"
    assert main(["summarize", "--in", str(series), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    # path 1 hit the budget at n = 2, and path 3 is downgraded there; a key
    # with no ok value keeps its row, with no mean
    assert lines == [
        SUMMARY_HEADER,
        "spectral,2,spectral.lower,0.5833333333333334,0.5,,,3,1,1",
        "spectral,2,spectral.point,,,,,0,1,1",
        "spectral,2,spectral.upper,1.0,1.0,,,1,1,0",
    ]


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_summarize_refuses_unwritable_out_before_aggregating(tmp_path, monkeypatch, capsys,
                                                             where):
    def aggregate(*args, **kwargs):
        raise AssertionError("the series was aggregated")

    monkeypatch.setattr(cli, "summary_rows", aggregate)
    series = tmp_path / "series.csv"
    series.write_text(CSV_HEADER + "\ndrift,0,1,drift,0.5,ok\n")
    out = tmp_path if where == "directory" else tmp_path / "missing" / "y.csv"
    assert main(["summarize", "--in", str(series), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: out: cannot write")


def body(out_path) -> str:
    return "".join(line for line in out_path.read_text().splitlines(True)
                   if not line.startswith("#"))


@pytest.mark.parametrize("head", [
    "kind = drift\nn_max = 12\npaths = 5\n",
    "kind = conjugacy\nn_max = 12\npaths = 5\nword.0 = ab\nword.1 = aCb\n",
    "kind = spectral\nn_max = 8\npaths = 5\nk_max = 3\nletter_budget = 2000\n",
    "kind = gromov\nn_max = 8\npaths = 5\n",
    # past the first chunk of 128 products batched into one Gelfand ladder
    "kind = matrix-guivarch\nn_max = 160\npaths = 5\n" + MATRIX_LINES,
    "kind = matrix-furstenberg\nn_max = 40\npaths = 5\nvector = [1, 0, 0]\n" + MATRIX_LINES,
])
def test_bodies_identical_across_threads(tmp_path, niel, head):
    text = with_measure("master_seed = 11\n" + head, niel)
    bodies = []
    for threads in ("1", "2"):
        rc, out = run_config(tmp_path, text, "--threads", threads)
        assert rc == 0
        bodies.append(body(out))
    assert bodies[0] == bodies[1]
    assert bodies[0].count("\n") > 1


def test_header_does_not_depend_on_the_output_path(tmp_path, niel):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = drift\nn_max = 6\npaths = 2\n" + measure_lines(niel))
    headers, bodies = [], []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        headers.append([line for line in out.read_text().splitlines()
                        if line.startswith("#") and not line.startswith("# generated_at = ")])
        bodies.append(body(out))
    assert headers[0] == headers[1]
    assert "# kind = drift" in headers[0]
    assert bodies[0] == bodies[1]


WALK = {"n_max", "paths", "master_seed"}

# kind: the settings it reads; its header names exactly these
READS = {
    "drift": {"rank", "letter_budget"} | WALK,
    "conjugacy": {"rank", "letter_budget", "word.0"} | WALK,
    "spectral": {"rank", "letter_budget", "k_max"} | WALK,
    "gromov": {"rank", "letter_budget"} | WALK,
    "matrix-guivarch": {"dim", "bit_budget"} | WALK,
    "matrix-furstenberg": {"dim", "bit_budget", "vector"} | WALK,
    "distance": {"rank"},
    "stretch": {"rank", "letter_budget", "k_max"},
}

# (setting, config line that sets it to a value every kind that reads it
# accepts, or a retired command-line override that set it)
SETTERS = [
    ("rank", "rank = 3"),
    ("dim", "dim = 3"),
    ("n_max", "n_max = 4"),
    ("paths", "paths = 2"),
    ("paths", ["--paths", "2"]),
    ("k_max", "k_max = 2"),
    ("master_seed", "master_seed = 7"),
    ("master_seed", ["--seed", "7"]),
    ("letter_budget", "letter_budget = 100000"),
    ("bit_budget", "bit_budget = 100000"),
    ("vector", "vector = [1, 0, 0]"),
    ("word.0", "word.0 = ab"),
]


def test_runners_are_the_table_kinds():
    assert sorted(cli.RUNNERS) == sorted(KIND_TABLE) == sorted(READS)


@pytest.mark.parametrize("kind", sorted(BASES))
@pytest.mark.parametrize("setting, setter", SETTERS,
                         ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_a_setting_runs_only_on_a_kind_that_reads_it(tmp_path, capsys, kind, setting, setter):
    # a setting the kind does not read would bound nothing, yet its header
    # would name it
    text, args = BASES[kind], []
    if isinstance(setter, list):
        args = setter
    elif not any(line.startswith(setting + " = ") for line in text.splitlines()):
        text += setter + "\n"
    rc, out = run_config(tmp_path, text, *args)
    err = capsys.readouterr().err
    if args:
        # no flag sets a setting: the config file alone fixes the run
        assert rc == 2 and not out.exists()
        assert err.endswith(f"error: unrecognized arguments: {' '.join(args)}\n")
    elif setting in READS[kind]:
        assert rc == 0, err
    else:
        assert rc == 2 and not out.exists()
        assert err.startswith(f"error: {setting}: ")


OTHER_FAMILY = {"rank": ["gen.0.matrix = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]"],
                "dim": ["gen.1.map = a->b; b->a; c->c", "gen.0.inv = a->b; b->a; c->c"]}


@pytest.mark.parametrize("kind", sorted(BASES))
def test_measure_lines_of_the_other_family_exit_2(tmp_path, capsys, kind):
    for line in OTHER_FAMILY[KIND_TABLE[kind].size]:
        rc, out = run_config(tmp_path, BASES[kind] + line + "\n")
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {line.split(' = ')[0]}: ")


@pytest.mark.parametrize("kind", sorted(BASES))
def test_header_names_only_the_settings_the_kind_reads(tmp_path, kind):
    head = BASES[kind]
    rc, out = run_config(tmp_path, head)
    assert rc == 0
    comments = [line[2:] for line in out.read_text().splitlines() if line.startswith("# ")]
    header = [line for line in comments if " = " in line and not line.startswith("generated_at")]
    keys = {line.split(" = ")[0] for line in header if not line.startswith("gen.")}
    assert keys == READS[kind] | {"kind"}
    # the header is the resolved config, and it parses back to it
    cfg = parse_config("\n".join(header) + "\n")
    assert cfg == parse_config(head)
    assert parse_config(format_config(cfg)) == cfg


def test_stretch_k_max_1_is_one_bracket(tmp_path):
    # the bracket runs two orbit steps for any k_max, so k_max = 1 is a
    # bracket like any other
    theta = "gen.0.map = a->b; b->c; c->ab\ngen.0.inv = a->cA; b->a; c->b\n"
    rc, out = run_config(tmp_path, "kind = stretch\nk_max = 1\nrank = 3\n" + theta)
    assert rc == 0
    values = {line.split(",")[3]: float(line.split(",")[4])
              for line in out.read_text().splitlines() if line.startswith("stretch,")}
    br = bracket(parse_automorphism("a->b; b->c; c->ab | a->cA; b->a; c->b", 3), 1,
                 budget=10**8)
    assert values == {"stretch.lower": br.lower, "stretch.upper": br.upper,
                      "stretch.point": br.point, "stretch.k_used": 1.0}


LAZY_IMPORT_RUN = """
import sys

import numpy.random
from outwalk import cli

build_measure = cli.build_measure
built = []


def snapshot(cfg):
    measure = build_measure(cfg)
    built.append(set(sys.modules))
    return measure


cli.build_measure = snapshot
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    assert cli.main(["run", "--config", config, "--out", out, "--threads", "1"]) == 0
    print(" ".join(sorted(set(sys.modules) - built[-1])))
"""


def test_a_run_imports_no_module(tmp_path, niel):
    # a module imported lazily inside a run (numpy.ma by np.unique's first
    # call, 10-16 ms) costs every fresh process that time.  Set-up ends as
    # in bench/child.py, when build_measure returns (argparse imports
    # locale before), and numpy.random is imported first, as the bench's
    # speed probe imports it.  The drift and spectral runs take pair
    # deletion and invert words past NUMPY_INVERSE letters
    heads = ["kind = drift\nn_max = 40\npaths = 8\n",
             "kind = spectral\nn_max = 16\npaths = 4\nk_max = 4\nletter_budget = 200000\n",
             "kind = matrix-guivarch\nn_max = 400\npaths = 2\n" + MATRIX_LINES]
    args = []
    for i, head in enumerate(heads):
        cfg = tmp_path / f"{i}.cfg"
        cfg.write_text(with_measure(head, niel))
        args += [str(cfg), str(tmp_path / f"{i}.csv")]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", LAZY_IMPORT_RUN, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["", "", ""]


LOADED_AFTER_RUN = """
import sys

import numpy.random
from outwalk import cli

assert cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2], "--threads", "1"]) == 0
print(" ".join(sorted(sys.modules)))
"""

WORD_LAYER = {"outwalk.free_group", "outwalk._wordkernel", "outwalk.automorphisms",
              "outwalk.outer_metric", "outwalk.spectral"}

# what no run of one thread calls: the thread pool, and what only summarize reads
UNCALLED = {"concurrent.futures", "statistics", "csv"}


@pytest.mark.parametrize("head, unloaded", [
    ("kind = matrix-guivarch\nn_max = 400\npaths = 2\n" + MATRIX_LINES, WORD_LAYER | UNCALLED),
    ("kind = matrix-furstenberg\nn_max = 200\npaths = 2\nvector = [1, 1, 0]\n" + MATRIX_LINES,
     WORD_LAYER | UNCALLED),
    ("kind = drift\nn_max = 40\npaths = 8\n", UNCALLED),
], ids=["matrix-guivarch", "matrix-furstenberg", "drift"])
def test_a_run_loads_only_its_kinds_layers(tmp_path, niel, head, unloaded):
    # a matrix run compiled and imported the whole word layer, and every
    # run the thread pool, statistics and csv, none of which it calls.
    # One fresh process per config, with numpy.random imported first, as
    # the bench's speed probe imports it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(with_measure(head, niel))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", LOADED_AFTER_RUN, str(cfg),
                           str(tmp_path / "run.csv")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) & unloaded == set()
