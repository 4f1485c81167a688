"""Reproducible per-path random streams.

Algorithm pin, so results reproduce across reimplementations: the
counter-based Philox 4x64 generator with 10 rounds, keyed by the pair
(master_seed, path_id) as two unsigned 64-bit words, counter starting at
zero.  Increment k of a path consumes the k-th uniform double of that
stream (53-bit, numpy Generator.random()), and the support index is the
first i with u < cumulative_weight[i].  `categorical_stream` reads
those doubles DRAW_BLOCK at a time, Generator.random(DRAW_BLOCK), which
gives the same doubles in the same order as one Generator.random() call
each: the same indices as one `categorical` call per step.

Keying by path makes streams independent of scheduling: any worker count
replays identical paths.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

__all__ = ["path_generator", "categorical", "categorical_stream", "cumulative"]

U64 = 2**64

# uniforms drawn per Generator.random call by `categorical_stream`: one
# call costs about as much as reading a dozen doubles off a block
DRAW_BLOCK = 64


def path_generator(master_seed: int, path_id: int) -> np.random.Generator:
    if not 0 <= master_seed < U64:
        raise ValueError("master_seed must fit in 64 bits")
    if not 0 <= path_id < U64:
        raise ValueError("path_id must fit in 64 bits")
    key = np.array([master_seed, path_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def cumulative(weights) -> list:
    total = 0.0
    out = []
    for w in weights:
        total += w
        out.append(total)
    out[-1] = max(out[-1], 1.0)  # guard the final bin against rounding
    return out


def categorical(gen: np.random.Generator, cum: list) -> int:
    return bisect_right(cum, gen.random())


def categorical_stream(gen: np.random.Generator, cum: list):
    """The indices of `categorical(gen, cum)` called once per step, read
    off blocks of DRAW_BLOCK uniforms; the generator runs ahead of the
    steps read by at most a block.  A block is held as its indices, not
    its floats, since a lockstep group holds one block per path."""
    while True:
        yield from [bisect_right(cum, u) for u in gen.random(DRAW_BLOCK).tolist()]
