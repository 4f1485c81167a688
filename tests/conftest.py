"""Shared measures for the walk and CLI tests, and the orbit-distance
oracles that the `gromov` kind's records are checked against."""

import pytest

from outwalk.automorphisms import (
    Automorphism,
    images,
    invert,
    left_multiplier,
    right_multiplier,
)
from outwalk.free_group import as_bytes
from outwalk.matrix_oracle import IntMatrix
from outwalk.outer_metric import image_dist, sym_dist
from outwalk.walk_engine import ProbMeasure


def nielsen_measure(rank: int) -> ProbMeasure:
    """Uniform measure on the elementary Nielsen moves of F_rank:
    x_i -> x_i x_j^{+-1} and x_i -> x_j^{+-1} x_i (i != j)."""
    moves = [
        move(rank, i, sign * j)
        for i in range(1, rank + 1)
        for j in range(1, rank + 1)
        if i != j
        for sign in (1, -1)
        for move in (right_multiplier, left_multiplier)
    ]
    return ProbMeasure(tuple(moves), tuple(1 / len(moves) for _ in moves))


def transvection_measure(dim: int) -> ProbMeasure:
    """Uniform measure on the elementary transvections I +- E_ij of
    SL(dim, Z) (i != j), the abelianizations of the Nielsen moves."""
    mats = []
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            for sign in (1, -1):
                rows = [[int(r == c) for c in range(dim)] for r in range(dim)]
                rows[i][j] = sign
                mats.append(IntMatrix(rows))
    return ProbMeasure(tuple(mats), tuple(1 / len(mats) for _ in mats))


def orbit_dist(phi: Automorphism, psi: Automorphism, *, budget: int | None = None) -> float:
    """d(phi.y0, psi.y0) = dist(psi^{-1} phi), from the generator images
    of phi substituted through psi^{-1}.  Raises WordBudgetExceeded for
    the first image whose substitution needs more letters than the
    budget."""
    return image_dist(as_bytes(images(invert(psi), phi.images, budget=budget)))


def gromov_product(phi: Automorphism, psi: Automorphism, *, budget: int | None = None) -> float:
    """Gromov product (phi.y0 | psi.y0) at the identity marking.

    Computed in the symmetrized orbit metric:
    (x|y) = (d_sym(y0,x) + d_sym(y0,y) - d_sym(x,y)) / 2, with
    d_sym(y0, phi.y0) = sym_dist(phi).  Nonnegative by the triangle
    inequality.  Raises WordBudgetExceeded where an `orbit_dist` does.
    The `gromov` kind's records read the same four distances off power
    orbits, composing no map.
    """
    a = sym_dist(phi)
    b = sym_dist(psi)
    c = orbit_dist(phi, psi, budget=budget) + orbit_dist(psi, phi, budget=budget)
    return 0.5 * (a + b - c)


@pytest.fixture(scope="module")
def niel():
    """The 24 elementary Nielsen moves of F_3, uniformly."""
    return nielsen_measure(3)


@pytest.fixture(scope="module")
def sl3():
    """The 12 elementary transvections of SL(3, Z), uniformly."""
    return transvection_measure(3)


@pytest.fixture(scope="module")
def measures(niel, sl3):
    """The walk measures by name: Nielsen moves of F_2 and F_3 and
    transvections of SL(2, Z), SL(3, Z) and SL(4, Z)."""
    return {"niel": niel, "niel2": nielsen_measure(2), "sl2": transvection_measure(2),
            "sl3": sl3, "sl4": transvection_measure(4)}
