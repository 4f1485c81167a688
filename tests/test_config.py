"""Config text: parse_config inverts format_config on every valid config."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outwalk.automorphisms import automorphism_to_str, inversion, left_multiplier, right_multiplier
from outwalk.config import (KIND_TABLE, ConfigError, ExperimentConfig, format_config,
                            parse_config, seed_words, validate)
from outwalk.free_group import word_to_str


def maps(rank):
    moves = [inversion(rank, i) for i in range(1, rank + 1)]
    moves += [f(rank, i, s * j) for f in (left_multiplier, right_multiplier)
              for i in range(1, rank + 1) for j in range(1, rank + 1) if i != j for s in (1, -1)]
    return st.sampled_from([automorphism_to_str(m).split(" | ") for m in moves])


weights = st.floats(min_value=1e-6, max_value=1.0).map(repr)


@st.composite
def configs(draw):
    """A config that sets only settings its kind reads; a setting left
    None takes the kind's default."""
    kind = draw(st.sampled_from(sorted(KIND_TABLE)))
    spec = KIND_TABLE[kind]
    values = dict(
        n_max=st.integers(1, 10**6),
        paths=st.integers(1, 10**4),
        k_max=st.none() | st.integers(1, 64),
        master_seed=st.none() | st.integers(0, 2**64 - 1),
        letter_budget=st.none() | st.integers(1, 10**12),
        bit_budget=st.none() | st.integers(1, 10**12),
    )
    fields = {name: draw(values[name]) for name in spec.settings if name in values}
    fields.update(kind=kind, out=draw(st.none() | st.text(max_size=20)))
    if spec.size == "dim":
        dim = fields["dim"] = draw(st.integers(1, 4))
        row = st.lists(st.integers(-9, 9), min_size=dim, max_size=dim)
        mats = st.lists(row, min_size=dim, max_size=dim).map(str)
        fields["gens"] = draw(st.lists(st.fixed_dictionaries({"matrix": mats, "weight": weights}),
                                       min_size=1, max_size=4))
        if "vector" in spec.settings:
            fields["vector"] = tuple(draw(st.lists(st.integers(-5, 5), min_size=dim, max_size=dim)
                                          .filter(any)))
    else:
        rank = fields["rank"] = draw(st.integers(2, 5))
        gens = []
        for _ in range(draw(st.integers(1, 4 if spec.walks else 1))):
            fwd, inv = draw(maps(rank))
            gens.append({"map": fwd, "inv": inv, "weight": draw(weights)})
        fields["gens"] = gens
        if "words" in spec.settings:
            letters = "abcde"[:rank] + "ABCDE"[:rank]
            fields["words"] = draw(st.lists(st.text(letters, min_size=1, max_size=8),
                                            min_size=1, max_size=3))
    return fields


@settings(max_examples=200, deadline=None)
@given(configs())
def test_parse_inverts_format(fields):
    cfg = ExperimentConfig(**fields)
    try:
        validate(cfg)
    except ConfigError:
        # only an `out` that is empty or cannot be written as one line is refused
        assert cfg.out == "" or cfg.out != cfg.out.strip() or len(cfg.out.splitlines()) > 1
        return
    assert parse_config(format_config(cfg)) == cfg


def test_seed_words_refuse_repeated_classes():
    assert [len(g) for g in seed_words(["ab", "aCb", "Cab"], 3)] == [2, 3, 3]
    for words in (["ab", "ab"], ["abA", "b"], ["c", "a", "bcB"], ["ab", "ba"], ["aCb", "baC"],
                  ["a", "bc", "baB"], ["abC", "c", "Cab"]):
        with pytest.raises(ConfigError, match=f"word.{len(words) - 1}"):
            seed_words(words, 3)


def test_seed_words_are_the_cyclic_reductions():
    # conjugacy_growth_experiment reads its seeds as given: distinct,
    # nontrivial and cyclically reduced
    got = seed_words(["abA", "CaBc", "bbcaBB"], 3)
    assert [word_to_str(g) for g in got] == ["b", "aB", "ca"]
    with pytest.raises(ConfigError, match=r"^word\.1: letter 'd' exceeds rank 3$"):
        seed_words(["ab", "ad"], 3)


@pytest.mark.parametrize("kind", ["distance", "stretch"])
@pytest.mark.parametrize("weighted", [True, False])
def test_single_map_kinds_refuse_a_second_atom(kind, weighted):
    gens = [{"map": "a->ab; b->b", "inv": "a->aB; b->b"}, {"map": "a->b; b->a", "inv": "a->b; b->a"}]
    if weighted:
        for g in gens:
            g["weight"] = "0.5"
    with pytest.raises(ConfigError, match=r"^gen\.1: "):
        validate(ExperimentConfig(kind=kind, rank=2, gens=gens))
    validate(ExperimentConfig(kind=kind, rank=2, gens=gens[:1]))
