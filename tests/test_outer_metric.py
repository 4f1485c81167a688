"""Rose-orbit metric: candidates, distances, Gromov products."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outwalk._wordkernel import stack_reduce
from outwalk.free_group import as_bytes, cyclic_reduce, parse_word, reduce, word_to_str
from outwalk.automorphisms import (
    Automorphism,
    compose,
    cyclic_images,
    identity_automorphism,
    inversion,
    invert,
    parse_automorphism,
    permutation,
    right_multiplier,
    apply,
)
from outwalk.outer_metric import (
    candidate_lengths,
    candidates,
    dist,
    image_dist,
    log_stretch,
    sym_dist,
)
from outwalk import outer_metric
from outwalk.walk_engine import sample_path

from conftest import gromov_product, orbit_dist

TWIST = parse_automorphism("a->ab; b->b | a->aB; b->b")


def library(rank):
    lib = []
    for i in range(1, rank + 1):
        lib.append(inversion(rank, i))
        for j in range(1, rank + 1):
            if i != j:
                lib.append(right_multiplier(rank, i, j))
                lib.append(right_multiplier(rank, i, -j))
    return lib


def products(rank, max_factors=4):
    lib = library(rank)
    return st.lists(
        st.integers(min_value=0, max_value=len(lib) - 1), min_size=1, max_size=max_factors
    ).map(lambda ids: _prod(lib, ids, rank))


def _prod(lib, ids, rank):
    out = identity_automorphism(rank)
    for i in ids:
        out = compose(out, lib[i])
    return out


def brute_force_sup(theta, max_len):
    """log sup over ALL cyclic words of length <= max_len of the stretch."""
    rank = theta.rank
    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    best = 0.0
    for k in range(1, max_len + 1):
        for tup in itertools.product(letters, repeat=k):
            ok = all(tup[i] != -tup[i + 1] for i in range(k - 1)) and tup[0] != -tup[-1]
            if not ok:
                continue
            w = reduce(list(tup), rank)
            img = len(cyclic_reduce(apply(theta, w)))
            best = max(best, math.log(img / k))
    return best


def test_candidate_sets():
    c2 = candidates(2)
    assert len(c2) == 4
    assert sorted(w.letters.tolist() for w in c2) == [[1], [1, -2], [1, 2], [2]]
    assert len(candidates(3)) == 9
    assert all(len(w) <= 2 for w in candidates(3))
    with pytest.raises(ValueError):
        candidates(1)


def test_candidate_order_at_rank_3():
    # the one order of every candidate list: petals, then figure eights
    assert [word_to_str(c) for c in candidates(3)] == [
        "a", "b", "c", "ab", "aB", "ac", "aC", "bc", "bC"]


def test_dist_examples():
    assert dist(identity_automorphism(2)) == 0.0
    assert dist(TWIST) == pytest.approx(math.log(2))
    assert dist(invert(TWIST)) == pytest.approx(math.log(2))
    assert sym_dist(TWIST) == pytest.approx(2 * math.log(2))


@settings(max_examples=40)
@given(products(2))
def test_candidate_sufficiency_rank2(theta):
    # the candidate maximum is the true supremum over all short classes
    assert dist(theta) == pytest.approx(brute_force_sup(theta, 6), abs=1e-12)


def test_candidate_sufficiency_rank3_spot():
    # heavier brute force, a few deterministic rank-3 cases
    lib = library(3)
    for ids in [(0,), (3, 7), (4, 10, 2), (5, 5, 11)]:
        theta = _prod(lib, ids, 3)
        assert dist(theta) == pytest.approx(brute_force_sup(theta, 6), abs=1e-12)


def test_dist_zero_iff_signed_permutation():
    assert dist(permutation(3, [2, 3, 1])) == 0.0
    assert dist(permutation(2, [2, 1], signs=[-1, 1])) == 0.0
    assert dist(inversion(3, 2)) == 0.0
    assert dist(TWIST) > math.log(2) - 1e-12


def substituted_lengths(theta, budget=None) -> list:
    """Candidate lengths by substituting every candidate loop: the reference."""
    return [len(w) for w in cyclic_images(theta, candidates(theta.rank), budget=budget)]


def conjugation(g: list, rank: int) -> Automorphism:
    """x -> g x g^{-1}, with inverse x -> g^{-1} x g."""
    g_inv = [-x for x in reversed(g)]
    gens = range(1, rank + 1)
    return Automorphism(tuple(reduce(g + [i] + g_inv, rank) for i in gens),
                        tuple(reduce(g_inv + [i] + g, rank) for i in gens), rank)


def assert_best_first_read(words):
    """image_dist is the maximum of the full read, as the same float."""
    assert image_dist(words) == log_stretch(candidates(len(words)),
                                            candidate_lengths(words))


def random_letters(seed: int, size: int, rank: int) -> list:
    rng = np.random.default_rng(seed)
    return (rng.integers(1, rank + 1, size) * rng.choice([-1, 1], size)).tolist()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda rank: products(rank, 8)))
def test_candidate_lengths_on_nielsen_moves(theta):
    assert candidate_lengths(as_bytes(theta.images)) == substituted_lengths(theta)
    assert_best_first_read(as_bytes(theta.images))


@pytest.fixture(scope="module")
def walk_inverses_16_32_44(niel):
    """Phi_n^{-1} of NIEL walks at n = 16, 32 and 44; the longest images
    pass a few thousand letters."""
    return [inv for pid in range(4) for n, _, inv in sample_path(niel, 9, pid, 44)
            if n in (16, 32, 44)]


def test_candidate_lengths_on_walk_inverses(walk_inverses_16_32_44):
    assert max(len(w) for inv in walk_inverses_16_32_44 for w in inv.images) > 2048
    for inv in walk_inverses_16_32_44:
        assert candidate_lengths(as_bytes(inv.images)) == substituted_lengths(inv)
        assert_best_first_read(as_bytes(inv.images))


def test_best_first_reads_only_the_loops_that_can_win(walk_inverses_16_32_44, monkeypatch):
    # a loop's ratio is at most its raw size over its length: image_dist
    # reads every loop whose bound beats the maximum ratio and none whose
    # bound falls short of it, so never more than the N^2 lengths; of the
    # figure eights it reads only the x_i x_j, never x_i x_j^{-1}
    loops = candidates(3)
    wants = [max([Fraction(1)] + [Fraction(n, len(c)) for n, c in
                                  zip(candidate_lengths(as_bytes(inv.images)), loops)])
             for inv in walk_inverses_16_32_44]
    bounds = []
    petal, eight = outer_metric.cyclic_length, outer_metric.product_cyclic_length

    def read_petal(u, u_inv):
        bounds.append(Fraction(len(u)))
        return petal(u, u_inv)

    def read_eight(u, u_inv, v, v_inv):
        assert v in images
        bounds.append(Fraction(len(u) + len(v), 2))
        return eight(u, u_inv, v, v_inv)

    monkeypatch.setattr(outer_metric, "cyclic_length", read_petal)
    monkeypatch.setattr(outer_metric, "product_cyclic_length", read_eight)
    reads = []
    for inv, want in zip(walk_inverses_16_32_44, wants):
        bounds.clear()
        images = as_bytes(inv.images)
        image_dist(images)
        sizes = [len(w) for w in inv.images]
        all_bounds = [Fraction(sum(sizes[abs(x) - 1] for x in c.letters.tolist()), len(c))
                      for c in loops if min(c.letters) > 0]
        assert min(bounds) >= want
        assert sum(b > want for b in all_bounds) <= len(bounds) <= len(loops)
        reads.append(len(bounds))
    assert sum(reads) < len(reads) * len(loops)


# conjugator sizes around the first window, and across doubled windows
conjugator_sizes = st.one_of(st.integers(0, 8), st.integers(60, 70), st.integers(1018, 1030),
                             st.integers(2000, 4200))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), size=conjugator_sizes, seed=st.integers(0, 2**32))
def test_candidate_lengths_on_conjugations(data, size, seed):
    # u_i = g x_i g^{-1}: seams cancel all of g, and the peel of a figure
    # eight runs past the end of a piece whenever g ends in x_j^{+-1}
    rank = data.draw(st.integers(2, 4))
    inner = conjugation(random_letters(seed, size, rank), rank)
    for theta in (inner, compose(inner, data.draw(products(rank))),
                  compose(data.draw(products(rank)), inner)):
        assert candidate_lengths(as_bytes(theta.images)) == substituted_lengths(theta)
        assert_best_first_read(as_bytes(theta.images))


def peel(letters) -> list:
    """Cyclic trim of a reduced letter list, one matched pair of ends at
    a time."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i, j = i + 1, j - 1
    return letters[i:j]


def inverse(letters) -> list:
    return [-x for x in reversed(letters)]


def brute_force_lengths(images) -> list:
    """The conjugacy length of each candidate's image: the raw
    concatenation of the images of its letters, reduced by the stack and
    peeled one pair of ends at a time."""
    out = []
    for c in candidates(len(images)):
        raw = []
        for x in c.letters.tolist():
            raw += images[x - 1] if x > 0 else inverse(images[-x - 1])
        out.append(len(peel(stack_reduce(raw))))
    return out


# piece sizes around the first window, and across doubled windows
piece_sizes = st.one_of(st.integers(1, 8), st.integers(60, 70), st.integers(1016, 1024))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_lengths_on_bytes_against_the_brute_force(data, seed):
    # each image joins up to three pieces of a shared pool, some
    # inverted, so seams cancel whole pieces and the ends of a loop peel
    # deep, across many windows: images of up to 3072 letters
    rank = data.draw(st.integers(2, 4))
    sizes = data.draw(st.lists(piece_sizes, min_size=1, max_size=4))
    pool = [reduce(random_letters(seed + k, n, rank), rank).letters.tolist()
            for k, n in enumerate(sizes)]
    picks = st.tuples(st.integers(0, len(pool) - 1), st.booleans())
    images = []
    for i in range(1, rank + 1):
        parts = data.draw(st.lists(picks, min_size=1, max_size=3))
        image = stack_reduce([x for k, flip in parts for x in (inverse(pool[k]) if flip else pool[k])])
        images.append(image or [i])
    assert max(map(len, images)) <= 3072
    want = brute_force_lengths(images)
    words = [np.array(w, dtype=np.int8).tobytes() for w in images]
    assert candidate_lengths(words) == want
    assert image_dist(words) == log_stretch(candidates(rank), want)
    # what image_dist's skipping of x_i x_j^{-1} rests on: its length is
    # that of x_i x_j, or both are at most the petals' sum
    by_piece = dict(zip(outer_metric._pieces(rank), want))
    for (i, j, flip), n in by_piece.items():
        if flip:
            m = by_piece[i, j, False]
            assert n == m or max(n, m) <= by_piece[i, i, False] + by_piece[j, j, False]


@pytest.mark.parametrize("theta, want", [
    (identity_automorphism(4), 0.0),
    (permutation(3, [2, 3, 1]), 0.0),
    (permutation(2, [2, 1], signs=[-1, 1]), 0.0),
    (inversion(3, 2), 0.0),
    # the petals a, b and the figure eights ab, aB all stretch by 2
    (parse_automorphism("a->ab; b->bc; c->c | a->acB; b->bC; c->c"), math.log(2)),
])
def test_image_dist_ties(theta, want):
    # every bound ties the best ratio: the read stops without a better one
    assert_best_first_read(as_bytes(theta.images))
    assert image_dist(as_bytes(theta.images)) == dist(theta) == want


@settings(max_examples=40, deadline=None)
@given(data=st.data(), size=conjugator_sizes, seed=st.integers(0, 2**32))
def test_dist_budget_matches_the_substitution_route(data, size, seed):
    # the raw size of a candidate is the sum of |theta(x)| over its
    # letters; dist reads the images and substitutes nothing, so it is
    # the float of substituting the candidates at every budget they fit
    rank = data.draw(st.integers(2, 4))
    theta = compose(conjugation(random_letters(seed, size, rank), rank),
                    data.draw(products(rank)))
    loops = candidates(rank)
    largest = max(sum(len(theta.images[abs(x) - 1]) for x in c.letters.tolist()) for c in loops)
    for budget in (largest, largest + 1):
        want = max(n / len(c) for n, c in zip(substituted_lengths(theta, budget), loops))
        assert dist(theta) == math.log(max(1, want))


@settings(max_examples=60)
@given(products(3), products(3))
def test_triangle_inequality(a, b):
    assert dist(compose(a, b)) <= dist(a) + dist(b) + 1e-9


@settings(max_examples=40)
@given(products(3))
def test_sym_dist_symmetry(theta):
    assert sym_dist(theta) == pytest.approx(sym_dist(invert(theta)), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=6))
def test_sym_dist_is_a_metric_on_walk_orbits(ids):
    # the symmetrized distance between the orbit points Phi_i.y0 of a walk:
    # zero on the diagonal, symmetric and within the triangle inequality
    lib = library(3)
    markings = [identity_automorphism(3)]
    for i in ids:
        markings.append(compose(markings[-1], lib[i % len(lib)]))
    d = [[sym_dist(compose(invert(psi), phi)) for psi in markings] for phi in markings]
    for i, j, k in itertools.product(range(len(d)), repeat=3):
        assert d[i][i] == 0.0 and d[i][j] == pytest.approx(d[j][i], abs=1e-12)
        assert d[i][k] <= d[i][j] + d[j][k] + 1e-9


@settings(max_examples=40)
@given(products(3), products(3), products(3))
def test_left_invariance(phi, psi, xi):
    # d(phi.y0, psi.y0) = dist(psi^-1 phi) is invariant under left translation
    lhs = dist(compose(invert(psi), phi))
    rhs = dist(compose(invert(compose(xi, psi)), compose(xi, phi)))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_gromov_product_examples():
    phi = TWIST
    assert gromov_product(identity_automorphism(2), phi) == pytest.approx(0.0)
    # (x|x) equals the symmetrized distance to x
    assert gromov_product(phi, phi) == pytest.approx(sym_dist(phi))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4).flatmap(lambda rank: products(rank, 8)))
def test_gromov_product_with_the_inverse_reads_sym_dist_once(theta):
    # sym_dist(theta^{-1}) is the sum of sym_dist(theta)'s two distances in
    # the other order, the same float: the `gromov` kind, which reads
    # sym_dist(theta) once, as a + a, writes this product's float
    phi = invert(theta)
    a = sym_dist(phi)
    c = orbit_dist(phi, theta) + orbit_dist(theta, phi)
    assert sym_dist(theta) == a
    assert gromov_product(phi, theta) == 0.5 * (a + a - c)


@settings(max_examples=40)
@given(products(3), products(3))
def test_gromov_product_nonnegative(phi, psi):
    assert gromov_product(phi, psi) >= -1e-9


# The pairwise functions push the candidate loops through both factors;
# their definitions compose the relative map psi^{-1} phi.  Equal floats.

@settings(max_examples=40)
@given(products(3), products(3))
def test_orbit_dist_equals_dist_of_composed(phi, psi):
    assert orbit_dist(phi, psi) == dist(compose(invert(psi), phi))


@settings(max_examples=40)
@given(products(3), products(3))
def test_gromov_product_equals_composed_definition(phi, psi):
    c = sym_dist(compose(invert(psi), phi))
    assert gromov_product(phi, psi) == 0.5 * (sym_dist(phi) + sym_dist(psi) - c)
