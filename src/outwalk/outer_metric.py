"""Lipschitz metric on the rose orbit of outer space.

Every distance used here reduces to the one-argument function
dist(theta) = log max over candidate loops c of |theta(c)| / |c|, where
|.| is conjugacy length: this is the stretch of the optimal map from the
unit rose to the rose remarked by theta (covolume normalization cancels
in the ratio).  With the left action Phi . y0 = R . Phi^{-1}, pairwise
orbit distances are d(Phi.y0, Psi.y0) = dist(Psi^{-1} Phi): the
generator images of Phi substituted through Psi^{-1}.

The candidate loops on a rose are the petals and the figure eights; the
optimal stretch is always attained on one of them (Francaviglia-Martino,
Metric properties of Outer space, 2011), which the test suite checks
against brute force over all short cyclic words.  So dist needs only
the conjugacy lengths of the N^2 candidate images, and those need only
the N generator images theta(x_i): a petal x_i is the cyclic trim of
theta(x_i), a figure eight x_i x_j^{+-1} the seam between theta(x_i)
and theta(x_j)^{+-1}, then the trim (`candidate_lengths`), and
`log_stretch` turns candidate lengths into the exact maximal ratio.
The candidate order is written once, as the (i, j, flip) triples of
`_pieces`: the loops of `candidates`, the lengths of
`candidate_lengths` and the best-first queue of `image_dist` follow it.

A distance needs only the maximum, so `image_dist` reads it best-first:
the conjugacy length of a loop's image is at most the loop's raw size,
the sum of |theta(x)| over its letters x, so the image sizes alone bound
every ratio, and exact lengths are read in decreasing order of that
bound until no bound left can beat the best ratio (about 2.0 of the 9
lengths per step of a rank-3 NIEL drift walk: a figure eight x_i x_j^{-1}
never beats both x_i x_j and the petals, so it is never read).  `dist`
reads theta.images this way;
every other distance reads generator images tracked through several
maps, without composing maps: drift and Gromov records along a walk
through `image_dist`, the stretch brackets along powers through every
candidate length, since their point estimate reads each loop's ratio.

`candidate_lengths` and `image_dist` read the images as bytes, one byte
per int8 letter, the currency in which the walks and brackets track
them (`_wordkernel`), each image u read as the byte pair (u, u^{-1}).
`dist` takes an automorphism and converts its `Word` images to bytes.

A distance reads words already formed, so no letter budget bounds it:
`dist` and `sym_dist` read any map.

The metric is asymmetric; Gromov products use the symmetrized version
d_sym(x, y) = d(x, y) + d(y, x).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._wordkernel import cyclic_length, inverse_bytes, product_cyclic_length
from .free_group import CyclicWord, as_bytes
from .automorphisms import Automorphism, invert

__all__ = [
    "candidates",
    "candidate_lengths",
    "log_stretch",
    "image_dist",
    "dist",
    "sym_dist",
]

@lru_cache(maxsize=None)
def _pieces(rank: int) -> tuple:
    """(i, j, flip) per candidate loop on the rank-N rose, with 0-based
    image indices: (i, i, False) for the petal x_i, (i, j, flip) for the
    figure eight x_i x_j^{-1 if flip else 1}.  The order of every
    candidate list: petals, then figure eights by (i, j), x_j before
    x_j^{-1}."""
    if rank < 2:
        raise ValueError("need rank >= 2")
    return tuple([(i, i, False) for i in range(rank)]
                 + [(i, j, flip) for i in range(rank) for j in range(i + 1, rank)
                    for flip in (False, True)])


@lru_cache(maxsize=None)
def candidates(rank: int) -> tuple:
    """Petals and figure eights on the rank-N rose, N^2 cyclic loops of
    length <= 2, in the order of `_pieces`."""
    loops = []
    for i, j, flip in _pieces(rank):
        letters = [i + 1] if i == j else [i + 1, -(j + 1) if flip else j + 1]
        loops.append(CyclicWord(np.array(letters, dtype=np.int8), rank))
    return tuple(loops)


def candidate_lengths(images) -> list:
    """Conjugacy lengths |theta(c)| of the candidate loops c, in the order
    of `candidates`, from the reduced generator images images[i] = theta(x_i),
    given as bytes.

    A petal x_i is the cyclic trim of theta(x_i); a figure eight
    x_i x_j^{+-1} is the seam between theta(x_i) and theta(x_j)^{+-1},
    then the trim, both read off the images without forming the product
    (`_wordkernel.cyclic_length`, `product_cyclic_length`).  These are
    the one- and two-letter cases of `_wordkernel.class_length`, which
    the `conjugacy` kind reads every seed class with; the candidates
    call them directly, since going through the general reader costs
    drift time on every step.
    """
    readings = [(w, inverse_bytes(w)) for w in images]
    return [_loop_length(readings, *piece) for piece in _pieces(len(images))]


def _loop_length(readings, i: int, j: int, flip: bool) -> int:
    """Conjugacy length of the image of the candidate (i, j, flip) of
    `_pieces`, from the byte pairs (u, u^{-1}) of the generator images."""
    u, u_inv = readings[i]
    if i == j:
        return cyclic_length(u, u_inv)
    v, v_inv = readings[j]
    if flip:
        return product_cyclic_length(u, u_inv, v_inv, v)
    return product_cyclic_length(u, u_inv, v, v_inv)


def log_stretch(loops, lengths) -> float:
    """log of the largest ratio lengths[i] / |loops[i]|, at least 0.

    lengths[i] is the conjugacy length of the image of loops[i]; ratios
    are compared exactly in integers, so the result is the same float
    however it is reached.
    """
    best_num, best_den = 1, 1
    for c, num in zip(loops, lengths):
        den = len(c)
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return math.log(best_num / best_den)


@lru_cache(maxsize=None)
def _queue(rank: int) -> tuple:
    """(m, pieces, index) of the loops that `image_dist` reads, the
    petals and the figure eights x_i x_j of `_pieces`, sorted by (i, j):
    their count m, the (i, j, loop length) of each, and the (i, j, r) of
    each piece r.  The queue key of piece r of a loop whose bound is b / 2
    is b m + r, so the keys sort as the tuples (b, i, j)."""
    pieces = sorted((i, j) for i, j, flip in _pieces(rank) if not flip)
    return (len(pieces), tuple([(i, j, 1 if i == j else 2) for i, j in pieces]),
            tuple([(i, j, r) for r, (i, j) in enumerate(pieces)]))


def image_dist(images) -> float:
    """dist read off the reduced generator images images[i] = theta(x_i),
    given as bytes: log_stretch(candidates(N), candidate_lengths(images)),
    with the exact lengths read best-first.

    The image of a loop is reduced, so its conjugacy length is at most
    its raw size: |theta(x_i)| for a petal, |theta(x_i)| + |theta(x_j)|
    for a figure eight.  Candidates are read in decreasing order of that
    bound on their ratio, from one sorted list of int keys (`_queue`),
    each image's inverse built only on first use, and the loop stops at
    the first key whose bound cannot beat the best ratio.  Ratios are
    compared as `log_stretch` compares them, exactly in integers and
    strictly, so the maximum is the same rational and the same float.

    The figure eights x_i x_j^{-1} are not read.  Conjugacy length is
    translation length in the Cayley tree of F_N, and for g = theta(x_i),
    h = theta(x_j): if the axes of g and h are disjoint, g h and g h^{-1}
    have the same length; if they meet, both have at most |g| + |h|
    (cyclic lengths), a ratio no better than the better petal's
    (Culler-Morgan, Group actions on R-trees, 1987).  So x_i x_j^{-1}
    never beats both x_i x_j and the petals, and the maximum is the same.
    """
    m, pieces, index = _queue(len(images))
    # twice the bound, times m: 2|u_i| for a petal, |u_i| + |u_j| for a
    # figure eight
    sizes = [len(w) * m for w in images]
    keys = sorted([sizes[i] + sizes[j] + r for i, j, r in index], reverse=True)
    inverses = [None] * len(images)
    best_num, best_den = 1, 1
    # a key below stop has twice its bound at most 2 best_num / best_den
    stop = 3 * m
    for key in keys:
        if key < stop:
            break
        i, j, den = pieces[key % m]
        u, u_inv = images[i], inverses[i]
        if u_inv is None:
            u_inv = inverses[i] = inverse_bytes(u)
        if i == j:
            num = cyclic_length(u, u_inv)
        else:
            v, v_inv = images[j], inverses[j]
            if v_inv is None:
                v_inv = inverses[j] = inverse_bytes(v)
            num = product_cyclic_length(u, u_inv, v, v_inv)
        if num * best_den > best_num * den:
            best_num, best_den = num, den
            stop = (2 * num // den + 1) * m
    return math.log(best_num / best_den)


def dist(theta: Automorphism) -> float:
    """Orbit distance d(R, R.theta): log of the maximal candidate stretch.

    Read off theta.images best-first (`image_dist`): the raw image of a
    candidate, the sum of |theta(x)| over its letters x, reduces and
    cyclically trims to its conjugacy length, so raw size over loop
    length bounds each ratio from above, and a candidate whose bound
    cannot beat the best ratio so far is never read.  Zero exactly when
    theta permutes the generators up to inversion.
    """
    return image_dist(as_bytes(theta.images))


def sym_dist(theta: Automorphism) -> float:
    """Symmetrized orbit distance; invariant under theta <-> theta^{-1}."""
    return dist(theta) + dist(invert(theta))

