"""Shared measures for the walk and CLI tests."""

import pytest

from outwalk.automorphisms import left_multiplier, right_multiplier
from outwalk.matrix_oracle import IntMatrix
from outwalk.walk_engine import ProbMeasure


@pytest.fixture(scope="module")
def niel():
    """Uniform measure on the 24 elementary Nielsen moves of F_3:
    x_i -> x_i x_j^{+-1} and x_i -> x_j^{+-1} x_i (i != j)."""
    moves = [
        move(3, i, sign * j)
        for i in range(1, 4)
        for j in range(1, 4)
        if i != j
        for sign in (1, -1)
        for move in (right_multiplier, left_multiplier)
    ]
    return ProbMeasure(tuple(moves), tuple(1 / len(moves) for _ in moves))


@pytest.fixture(scope="module")
def sl3():
    """Uniform measure on the 12 elementary transvections I +- E_ij of
    SL(3, Z) (i != j), the abelianizations of the NIEL moves."""
    mats = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for sign in (1, -1):
                rows = [[int(r == c) for c in range(3)] for r in range(3)]
                rows[i][j] = sign
                mats.append(IntMatrix(rows))
    return ProbMeasure(tuple(mats), tuple(1 / len(mats) for _ in mats))
