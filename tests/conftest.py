"""Shared measures for the walk and CLI tests."""

import pytest

from outwalk.automorphisms import left_multiplier, right_multiplier
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
