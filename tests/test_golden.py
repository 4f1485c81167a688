"""Golden CSV bodies: `outwalk run` output pinned byte for byte.

One small config per experiment kind, plus one budget-cut config per
walk and matrix kind, the walk kinds on F_2 and the matrix kinds on
SL(2, Z) (whose spectral radius has a closed form) and SL(4, Z), a
conjugacy config whose nine tracked words
outgrow the orbit-step batch cap, a Guivarch config long enough for the
Gelfand ladder's ball regime, and one whose budget a Gelfand power passes
mid-chunk, runs through the CLI; the sha256 of its CSV body
(every line that is not a `#` comment) must equal the digest recorded
here.  A refactor that claims no behaviour change keeps every digest.
An intended output change updates the digests it moves and says so in
CHANGES.md, together with its cause.
"""

import hashlib

import pytest

from outwalk.automorphisms import automorphism_to_str
from outwalk.cli import main

THETA = "rank = 3\ngen.0.map = a->b; b->c; c->ab\ngen.0.inv = a->cA; b->a; c->b\n"

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
    # a word passes 2^15 letters at n = 43-50 and the budget cuts every path at n = 50-59
    "conjugacy-batch": ("kind = conjugacy\nn_max = 80\npaths = 3\nmaster_seed = 7\n"
                        "letter_budget = 200000\n"
                        + "".join(f"word.{i} = {w}\n" for i, w in enumerate(
                            ["ab", "aCb", "abc", "aBc", "abAB", "aabC", "bcAc", "acBB", "abcABC"])),
                        "niel"),
    "spectral-cut": ("kind = spectral\nn_max = 16\npaths = 4\nmaster_seed = 1\nk_max = 2\n"
                     "letter_budget = 10\n", "niel"),
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
}

DIGESTS = {
    "conjugacy": "f29f02b9fec09b0fec0e899a97abd99130bbb24fc8099ed85cb005625af94c11",
    "conjugacy-batch": "9541ea3af2ab9fa62f95ebb0479b5706e226e00378aa37899818280931b595ae",
    "conjugacy-cut": "389bfd27ef64417ee0fae91732805ac5793038d4d46433010f66fd66224e7243",
    "conjugacy-f2": "a603f3890bd2e0eb732bec91564497a72baca41bc1bdb08344d915034577f3c4",
    "distance": "27689480723d43ece157fff8b9d30bab88e58b5ee9cd5f698aaaa745e5badf34",
    "drift": "3ebb7a0c2049b05a321ed4b9f820e99f0b6a2569f5c37d2a38ed41f10a4df8e5",
    "drift-cut": "b7451677266f9da2861b6b958bbe81d00e3f7c453dbac04f3a15cd55a4d7fde6",
    "drift-f2": "d0908785d51a232770488d186420bd3154716958b9d39f1c423b09d813f27ca1",
    "gromov": "36745266139ace089e6c22acebd72b6b854954228713978779067bfe72d178a7",
    "gromov-cut": "779b4c83162c9afc42124785bf70675b215798d988864d5c80195977d6495f6a",
    "gromov-f2": "71d3f536e7480ffab44597c84f5a6f6bc030ae9952977c6bcc7add3b2f28b26b",
    "matrix-furstenberg": "e5daf769526510307977b17f6944f87a0bb53e6a5a755ac6107a0b6ed728e9e5",
    "matrix-furstenberg-cut": "4495481cc31f73c9659a9249d10fb3f478346a8c29117f31221b5e310f795d4c",
    "matrix-furstenberg-sl2": "200de35df9f7032a99d84f6a383122613d459cdcbef6c864697eafbe979cabd3",
    "matrix-guivarch": "f0547c21ce6a68e06bc24e77496631dc5235ccbfc1af85da2743792eee378e5b",
    "matrix-guivarch-ballcut": "4f7e73d455bf383cac775906b2f32ca5abb99911920fe39f2421a8cd46bc797e",
    "matrix-guivarch-cut": "88c3903d732676b03dd5625e80869c82cf3cd84f19d73b84f3ca1f2ab3524260",
    "matrix-guivarch-long": "c7d04fd6d99fd5d33c82242bf4cf355c1d1c7dc1bc27b303f3a2c52b82843bc1",
    "matrix-guivarch-sl2": "d9962a01d0ba62639d8418562e1910f575acda46ff0af4db2c9aec65729a9872",
    "matrix-guivarch-sl4": "bc5cb171cbcbf4e7e1044c4e95b73ac39c16f117c19dad87a5e5a5b2b773cb7d",
    "spectral": "5d1ee46cf21818ae9ca2b969e7260a6e6669eaca90804213e2c7104c6f53b1c6",
    "spectral-cut": "939f3891ecc9b9747d6318dbfae356b2989376c03e039e46aa8717424ebc11f6",
    "spectral-f2": "d647c1cda7d1f2c5ecc792ff09c933e9d2744131f2eeab98d552cccf14d9b897",
    "stretch": "aff07c4095e22ab7f2af4e45dc86bab804b9cd0696028664c96e2790f8d0471c",
}


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


def body_digest(tmp_path, text) -> str:
    cfg, out = tmp_path / "golden.cfg", tmp_path / "golden.csv"
    cfg.write_text(text)
    main(["run", "--config", str(cfg), "--out", str(out)])
    body = "".join(line for line in out.read_text().splitlines(True) if not line.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_body_matches_golden(tmp_path, measures, name):
    head, measure = CONFIGS[name]
    measure = measure_text(measures[measure]) if measure in measures else measure
    assert body_digest(tmp_path, head + measure) == DIGESTS[name]
