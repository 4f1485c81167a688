"""The default bounds of the word kinds, in a module that loads no layer.

`config` fills them into a resolved config, so a matrix run reads them
without importing the word layer; `automorphisms`, `spectral` and
`word_walks` apply them.
"""

DEFAULT_LETTER_BUDGET = 10**8

DEFAULT_K_MAX = 12  # standalone; walk experiments pass their own, default 4

WALK_K_MAX = 4  # default bracket depth inside walk experiments
