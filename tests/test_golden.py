"""Golden CSV bodies: `outwalk run` output pinned byte for byte.

One small config per experiment kind, plus one budget-cut config per
walk and matrix kind, the walk kinds on F_2 and the matrix kinds on
SL(2, Z) (whose spectral radius has a closed form) and SL(4, Z), a
conjugacy config whose tracked images outgrow the orbit-step batch cap,
a Gromov config whose tracked maps do, a spectral config at the
benchmark's sizes, a Guivarch config long enough for the
Gelfand ladder's ball regime, one whose budget a Gelfand power passes
mid-chunk, and each matrix kind on dense atoms, whose products no unit
row passes through, runs through the CLI; the sha256 of its CSV body
(every line that is not a `#` comment) must equal the digest recorded
here, at `--threads 1` and, for a config that reads `paths`, at
`--threads 2` too.  A refactor that claims no behaviour change keeps
every digest.
The summary of each config that reads `paths` is pinned the same way:
the sha256 of the whole file that `outwalk summarize` writes from its
`--threads 1` body.
An intended output change updates the digests it moves and says so in
CHANGES.md, together with its cause.
"""

import hashlib
import sys

import numpy as np
import pytest

from outwalk._wordkernel import BATCH_CAP, ImageTable
from outwalk.automorphisms import automorphism_to_str, images
from outwalk.cli import main
from outwalk.free_group import Word
from outwalk.matrix_oracle import IntMatrix
from outwalk.spectral import bracket

THETA = "rank = 3\ngen.0.map = a->b; b->c; c->ab\ngen.0.inv = a->cA; b->a; c->b\n"

# dense atoms of determinant +-1: no row of one is a unit row, so every
# product runs the dense path of `@`
DENSE_ATOMS = ([[2, 1, 1], [1, 1, 1], [1, 1, 2]],
               [[1, 2, 1], [1, 1, 1], [0, 1, 1]],
               [[1, -1, 2], [0, 1, 1], [1, 0, 2]])
DENSE = "dim = 3\n" + "".join(f"gen.{i}.matrix = {rows}\ngen.{i}.weight = {w}\n"
                              for i, (rows, w) in enumerate(zip(DENSE_ATOMS, (0.5, 0.25, 0.25))))

# name: (config head, measure); the measure is THETA or a name in the
# `measures` fixture
CONFIGS = {
    "drift": ("kind = drift\nn_max = 12\npaths = 4\nmaster_seed = 3\n", "niel"),
    "conjugacy": ("kind = conjugacy\nn_max = 12\npaths = 4\nmaster_seed = 3\n"
                  "word.0 = ab\nword.1 = aCb\n", "niel"),
    "spectral": ("kind = spectral\nn_max = 8\npaths = 3\nmaster_seed = 3\nk_max = 3\n"
                 "letter_budget = 2000\n", "niel"),
    "gromov": ("kind = gromov\nn_max = 8\npaths = 3\nmaster_seed = 3\n", "niel"),
    "matrix-guivarch": ("kind = matrix-guivarch\nn_max = 40\npaths = 3\nmaster_seed = 3\n",
                        "sl3"),
    # from n = 28 or so on, the last levels of the Gelfand ladder are balls
    "matrix-guivarch-long": ("kind = matrix-guivarch\nn_max = 600\npaths = 2\nmaster_seed = 3\n",
                             "sl3"),
    "matrix-furstenberg": ("kind = matrix-furstenberg\nn_max = 40\npaths = 3\nmaster_seed = 3\n"
                           "vector = [1, 0, 0]\n", "sl3"),
    "drift-f2": ("kind = drift\nn_max = 12\npaths = 4\nmaster_seed = 3\n", "niel2"),
    "conjugacy-f2": ("kind = conjugacy\nn_max = 12\npaths = 4\nmaster_seed = 3\n"
                     "word.0 = ab\nword.1 = aB\n", "niel2"),
    "spectral-f2": ("kind = spectral\nn_max = 8\npaths = 3\nmaster_seed = 3\nk_max = 3\n"
                    "letter_budget = 2000\n", "niel2"),
    "gromov-f2": ("kind = gromov\nn_max = 8\npaths = 3\nmaster_seed = 3\n", "niel2"),
    "matrix-guivarch-sl2": ("kind = matrix-guivarch\nn_max = 40\npaths = 3\nmaster_seed = 3\n",
                            "sl2"),
    "matrix-guivarch-sl4": ("kind = matrix-guivarch\nn_max = 40\npaths = 2\nmaster_seed = 3\n",
                            "sl4"),
    "matrix-furstenberg-sl2": ("kind = matrix-furstenberg\nn_max = 40\npaths = 3\n"
                               "master_seed = 3\nvector = [1, 0]\n", "sl2"),
    "distance": ("kind = distance\n", THETA),
    "stretch": ("kind = stretch\nk_max = 6\n", THETA),
    "drift-cut": ("kind = drift\nn_max = 40\npaths = 4\nmaster_seed = 5\n"
                  "letter_budget = 2000\n", "niel"),
    "conjugacy-cut": ("kind = conjugacy\nn_max = 40\npaths = 4\nmaster_seed = 5\n"
                      "letter_budget = 200\nword.0 = ab\n", "niel"),
    # a path's three images pass 2^15 letters at n = 42-53 and the budget cuts every path at
    # n = 53-69
    "conjugacy-batch": ("kind = conjugacy\nn_max = 80\npaths = 3\nmaster_seed = 7\n"
                        "letter_budget = 200000\n"
                        + "".join(f"word.{i} = {w}\n" for i, w in enumerate(
                            ["ab", "aCb", "abc", "aBc", "abAB", "aabC", "bcAc", "acBB", "abcABC"])),
                        "niel"),
    # the bench's spectral-niel sizes: power blocks whose seams the table's
    # cache answers, a lower bound batch per step, and downgraded brackets
    "spectral-deep": ("kind = spectral\nn_max = 32\npaths = 4\nmaster_seed = 3\nk_max = 4\n"
                      "letter_budget = 200000\n", "niel"),
    "spectral-cut": ("kind = spectral\nn_max = 16\npaths = 4\nmaster_seed = 1\nk_max = 2\n"
                     "letter_budget = 10\n", "niel"),
    # the states of path 2 pass 2^15 letters and run alone from n = 42 on; at n = 48 the
    # budget marks the records of paths 0 and 2
    "gromov-batch": ("kind = gromov\nn_max = 48\npaths = 3\nmaster_seed = 3\n", "niel"),
    "gromov-cut": ("kind = gromov\nn_max = 16\npaths = 4\nmaster_seed = 1\n"
                   "letter_budget = 10\n", "niel"),
    "matrix-guivarch-cut": ("kind = matrix-guivarch\nn_max = 100\npaths = 4\nmaster_seed = 5\n"
                            "bit_budget = 16\n", "sl3"),
    # the budget cuts paths 0-3 at n = 328, 322, 378 and 353, past the first chunk, where
    # a Gelfand power of the product, not the product, outgrows it
    "matrix-guivarch-ballcut": ("kind = matrix-guivarch\nn_max = 700\npaths = 4\nmaster_seed = 5\n"
                                "bit_budget = 3000\n", "sl3"),
    "matrix-furstenberg-cut": ("kind = matrix-furstenberg\nn_max = 100\npaths = 4\n"
                               "master_seed = 5\nbit_budget = 16\nvector = [1, 0, 0]\n", "sl3"),
    # products of dense atoms, whose entries pass PREC bits within the first chunk
    "matrix-guivarch-dense": ("kind = matrix-guivarch\nn_max = 200\npaths = 3\nmaster_seed = 3\n",
                              DENSE),
    "matrix-furstenberg-dense": ("kind = matrix-furstenberg\nn_max = 200\npaths = 3\n"
                                 "master_seed = 3\nvector = [1, -2, 0]\n", DENSE),
}

DIGESTS = {
    "conjugacy": "c43aeed6745f48049fc1d2fe46ed5be2a946e2ea52ebcb49b85863e33832098c",
    "conjugacy-batch": "caff88f8ba56ad51b8a05882552da48b4aa36161af60fee3400bb2760bef2dbe",
    "conjugacy-cut": "3c10d56b97e3ac98d7225cca40ff7bbe9c2ac60cdb78b65f75bc263f2ea8a6b3",
    "conjugacy-f2": "3a4e18bb8ca861e21914f27760e7fdc9a8a7dc19c54552154dfab84cc8281494",
    "distance": "27689480723d43ece157fff8b9d30bab88e58b5ee9cd5f698aaaa745e5badf34",
    "drift": "b4be53219ccd7f807015478526780bd84a4c29e2a8664190fbe946bd97a1ad0a",
    "drift-cut": "48a8da77e6c92c51ff76ac2dab23a8454b3e4c0917221fe7e5679d29a8954c2f",
    "drift-f2": "b78ccf6ce4dcc22572e8db0e317381db181bda75d1c91418c34b90bf94baa5d2",
    "gromov": "dc43dbced567fbf2a2c60c8a55b04fc1cf597a1ba1a5e2f36079e51b5ca9c91e",
    "gromov-batch": "145cc1b442289ffe28a376a571ba48728b21dd0159725b98f8c2e2a1ca2b8c99",
    "gromov-cut": "1c15500341697be3bd70a6c947300b137ed51322d1669bbe358bffed8fdc560c",
    "gromov-f2": "47322fdd395d1017ce5c559fb006aa57a51c0af9bc4ca7f2ab38810dc4d1f468",
    "matrix-furstenberg": "55a67aec1296e43329a8e530979cb5424092b367bbee028560787ba68d044e49",
    "matrix-furstenberg-cut": "993b5e9f61ae9be8385bc06fc1306c4899d3d44bade5ceb9048acb7ae1e2e543",
    "matrix-furstenberg-dense": "e95c52e9d55f06e0152191616d06a7ae3878f52d189efff5fae72fc41092e5ee",
    "matrix-furstenberg-sl2": "de60d502bdd48b670577cae72e561c1a5d4796def97afdd0f85019c75e2aa9a7",
    "matrix-guivarch": "bf6990c2e4c2919fdd3e1fe3990e82c0c5dc22017046bf02c7d950d0423ea5c9",
    "matrix-guivarch-ballcut": "0a2194f1a84af7ccd6de369c4c62edab56d10761de3d4acf0b0571223471c1df",
    "matrix-guivarch-cut": "015e4214c3e4367857fca370c59153b904a5085b9e861906eb1a00df778f1c67",
    "matrix-guivarch-dense": "49aa4789fa931583d21b26a28639323aa0dc547cef7614c44b4c806956f7bbed",
    "matrix-guivarch-long": "dc70d6bba9f22f20264bc2641222044a41f41d9a60a652ffa0c12caaab55ea79",
    "matrix-guivarch-sl2": "b3b0dee4d7992814d5f2d4ec94968f60a60ea0e0d43223d782897a24f710089f",
    "matrix-guivarch-sl4": "bc8823abc56ec9ab312dfbebb488851137858cb2f38d935a2f41cdff02ff5dbd",
    "spectral": "78451887c2ea48f729c7dcac39c1ca526344b8c915c412aa9ad992723a535b90",
    "spectral-deep": "0fb6df30db07b19b31842bc4eaacb4a045cc75919e77f4bccbea1668969c4789",
    "spectral-cut": "c09995a77f23c93ada7f79aa8fd5769cf9ae5a0c4febf015cd0d5f3c1f32b238",
    "spectral-f2": "cabe62df7c54e65e7fbb580550bfe1eb2a78ad9cd668fc1c8f2252394085a4c0",
    "stretch": "aff07c4095e22ab7f2af4e45dc86bab804b9cd0696028664c96e2790f8d0471c",
}

SUMMARY_DIGESTS = {
    "conjugacy": "7fe9a7afebdc29d7e4142aed4c6187eae8b12595510e12cf551d322a61917a5f",
    "conjugacy-batch": "fe1243bed92c2a9b12e4bfa397b3fb13f3d8928adb7f7271c218e0c57290cc26",
    "conjugacy-cut": "eea2e7b2a7ddd72d60ca88d89108b0c8a54bbf5476e437b7f465e1e7db47a9c2",
    "conjugacy-f2": "94ffe84d2525759351cc889b1c51c813bc659b6da4f08c704d97e44f1f54ffd6",
    "drift": "3084bb31f0c98d5d1ad90e35d50392e64c3c5ba59237d26fb938f26a624493e7",
    "drift-cut": "a0b81d6bb4aae3e63a82aa2e6b28cc56d02890617271aa340123d1aabb08ddbc",
    "drift-f2": "915b7a818fb984c9a28903291fe15f4555477d815757e066830f34be5e9f3abb",
    "gromov": "91dd64b137faeb89b41185fddefc39fbc9b8c4357f84d005a5ab38cd575bbfb0",
    "gromov-batch": "b94b16fd58cdf2f659b2d10a5bc3073c2b208f031f12e27c025ea2eefeb775d8",
    "gromov-cut": "d55400c6fc96f4c02f46ceeca17f9870151a60bd9b7b2f4a6fc0e846b2dfd6a8",
    "gromov-f2": "abc94cfd4919e8e0da51e345bf0119514ab24d84f30c9487977cc4ad74a7e914",
    "matrix-furstenberg": "589c0fe80e64babbb1cf036bd12195c845f2783167e23e184f26d52dc4c64edb",
    "matrix-furstenberg-cut": "ca4bf9cf80f4100c83b06290e6ea7f9307123786f4357b62b5b5d8c7a2a0ad3b",
    "matrix-furstenberg-dense": "6ea2f64997bde5309b26f4940501cce9836e6ab063ca6050a24a80ff58a78336",
    "matrix-furstenberg-sl2": "e72d4ce964a11cc748dfb44bf8ffcaba1bf6b5c60e2977ca95535c9dde92a894",
    "matrix-guivarch": "292fcdd42463e5e18119dc6a0f5052ba705e2b21956a8a3410139b24c93d7ab4",
    "matrix-guivarch-ballcut": "8443d1a2f509e8f76920d0b7719b9b2fb065d307e686d960482dbd30e8c26690",
    "matrix-guivarch-cut": "a6990bd297ca1a3f4530ec8dcc0b6e7d88e3eca4e1012dda30ed083dce17e5a5",
    "matrix-guivarch-dense": "1e40874b05230412d20873975127a2df73b9183cb256ff806e8b76ad3a1da62a",
    "matrix-guivarch-long": "863907f5a5498ac58c761679386c0d960b9ec897460d89373ab841923cdd4d3a",
    "matrix-guivarch-sl2": "dcc93bfec74566ea6de18e89f86cacaa10436c23557dabf9c634267d643b94b1",
    "matrix-guivarch-sl4": "26c702f8ae5de847ce5299c0dc52985420b710f14ab5eedf3a40b9a4eea3480f",
    "spectral": "ceb92965963c730d6a843c9b5389179c7de198cb5b960926d40da67970f98887",
    "spectral-cut": "01e9fd8fa9c286851582746b54f60933a6c6d7c5ee4745815ad504f98871a2fc",
    "spectral-deep": "c54ecb5d375b7f2fb7f93ce977dc52591e97b22ee2f598a99d310c9eb55b7dd3",
    "spectral-f2": "a4219e4bbc3694573d3d2d3224fb649682ed8d972a54472cfef49935d66c7195",
}


def test_dense_atoms_are_unimodular():
    assert [IntMatrix(rows).det() for rows in DENSE_ATOMS] == [1, -1, -1]


def measure_text(measure) -> str:
    if measure.is_matrix:
        lines = [f"dim = {measure.rank}"]
        for i, (m, w) in enumerate(zip(measure.support, measure.weights)):
            lines += [f"gen.{i}.matrix = {[list(row) for row in m.entries]}",
                      f"gen.{i}.weight = {w!r}"]
    else:
        lines = [f"rank = {measure.rank}"]
        for i, (a, w) in enumerate(zip(measure.support, measure.weights)):
            fwd, inv = automorphism_to_str(a).split(" | ")
            lines += [f"gen.{i}.map = {fwd}", f"gen.{i}.inv = {inv}", f"gen.{i}.weight = {w!r}"]
    return "\n".join(lines) + "\n"


def body_lines(tmp_path, text, threads=1) -> list:
    """The lines of the CSV body that `outwalk run` writes for the config text."""
    cfg, out = tmp_path / "golden.cfg", tmp_path / "golden.csv"
    cfg.write_text(text)
    main(["run", "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
    return [line for line in out.read_text().splitlines(True) if not line.startswith("#")]


def body_digest(tmp_path, text, threads=1) -> str:
    return hashlib.sha256("".join(body_lines(tmp_path, text, threads)).encode()).hexdigest()


def summary_digest(tmp_path, text) -> str:
    """The sha256 of the summary that `outwalk summarize` writes from the run's CSV."""
    body_lines(tmp_path, text)
    out = tmp_path / "summary.csv"
    assert main(["summarize", "--in", str(tmp_path / "golden.csv"), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def config_text(measures, name) -> str:
    head, measure = CONFIGS[name]
    return head + (measure_text(measures[measure]) if measure in measures else measure)


# every config at one thread, and one that reads `paths` at two threads,
# one group of paths per thread
RUNS = [pytest.param(name, threads, id=name if threads == 1 else f"{name}-threads{threads}")
        for name in sorted(CONFIGS)
        for threads in ((1, 2) if "\npaths = " in CONFIGS[name][0] else (1,))]


@pytest.mark.parametrize("name, threads", RUNS)
def test_body_matches_golden(tmp_path, measures, name, threads):
    assert body_digest(tmp_path, config_text(measures, name), threads) == DIGESTS[name]


@pytest.mark.parametrize("name", [name for name in sorted(CONFIGS)
                                  if "\npaths = " in CONFIGS[name][0]])
def test_summary_matches_golden(tmp_path, measures, name):
    assert summary_digest(tmp_path, config_text(measures, name)) == SUMMARY_DIGESTS[name]


@pytest.mark.parametrize("threads", [1, 2])
def test_conjugacy_is_cut_where_drift_is(tmp_path, measures, threads):
    # the conjugacy kind reads every seed class off drift's images, so the
    # budget cuts its paths at the steps where it cuts drift's
    text = config_text(measures, "conjugacy-cut")
    drift = text.replace("kind = conjugacy\n", "kind = drift\n").replace("word.0 = ab\n", "")

    def cuts(text, kind):
        return [line.replace(f"{kind},", "", 1) for line in body_lines(tmp_path, text, threads)
                if ",truncated_at," in line]

    assert cuts(text, "conjugacy") == cuts(drift, "drift") == [
        f"{pid},{n},truncated_at,{n}.0,truncated\n" for pid, n in enumerate([26, 19, 19, 25])]


def test_substitute_is_reached_only_through_lockstep_substitute(tmp_path, measures,
                                                                 monkeypatch):
    # the kernel has one batch entry: every `substitute` call comes from
    # `lockstep_substitute`, and a one-map table gets the int8 letters as
    # they are, from `images`, the power step of a lone bracket and the
    # steps of a path that runs alone once its words pass BATCH_CAP
    calls = []
    substitute = ImageTable.substitute

    def spy(self, word):
        calls.append((sys._getframe(1).f_code.co_name, self.lens.size == self.stride,
                      word.dtype, word.size))
        return substitute(self, word)

    monkeypatch.setattr(ImageTable, "substitute", spy)
    phi = measures["niel"].support[5]
    gens = [Word.generator(i, 3) for i in (1, 2, 3)]
    images(phi, gens)
    bracket(phi, 2)
    assert [call[1:3] for call in calls] == [(True, np.int8)] * 2
    assert body_digest(tmp_path, config_text(measures, "conjugacy-batch")) == DIGESTS[
        "conjugacy-batch"]
    assert {caller for caller, *_ in calls} == {"lockstep_substitute"}
    assert {dtype for _, one_map, dtype, _ in calls if one_map} == {np.dtype(np.int8)}
    assert max(size for _, one_map, _, size in calls[2:] if one_map) >= BATCH_CAP
