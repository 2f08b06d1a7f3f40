import enum
import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import smq
from conftest import P_A, P_C, instances
from references import reference_validate

# int subclasses are valid scores: validate must accept them, not only plain ints
Score = enum.IntEnum("Score", {f"s{v}": v for v in range(16)})

FAULTS = ("bool", "float", "str", "none", "nested", "negative", "duplicate", "int subclass",
          "short row", "long row", "not a row", "missing row", "extra row")


@st.composite
def matrices_with_a_fault(draw):
    """(n, men, women): rows of distinct scores, with one fault injected at a
    drawn side, row and column; the faulty row is a list or a tuple."""
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, n + 9), min_size=n, max_size=n, unique=True)
    sides = [[draw(row) for _ in range(n)] for _ in range(2)]
    rows = sides[draw(st.integers(0, 1))]
    r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    cells = rows[r]
    fault = draw(st.sampled_from(FAULTS))
    if fault == "missing row":
        del rows[r]
    elif fault == "extra row":
        rows.append(draw(row))
    elif fault == "not a row":
        # the last three hold n distinct scores, but are neither list nor tuple
        rows[r] = draw(st.sampled_from(["abc", None, 7, {"0": 1},
                                        set(cells), dict.fromkeys(cells), range(n)]))
    elif fault == "short row":
        del cells[c]
    elif fault == "long row":
        cells.append(draw(st.integers(0, n + 9)))
    else:
        cells[c] = draw({
            "bool": st.booleans(),
            "float": st.sampled_from([0.0, 1.0, 2.5, float("nan")]),
            "str": st.just(str(cells[c])),
            "none": st.none(),
            "nested": st.just([cells[c]]),
            "negative": st.integers(-4, -1),
            "duplicate": st.just(cells[c - 1]),
            "int subclass": st.just(Score(cells[c])),
        }[fault])
    if r < len(rows) and rows[r] is cells and draw(st.booleans()):
        rows[r] = tuple(cells)
    return n, sides[0], sides[1]


def _outcome(check, n, men, women):
    try:
        inst = check(n, men, women)
    except smq.InvalidInstanceError as exc:
        fields = tuple(getattr(exc, name, None)
                       for name in ("side", "person", "first", "second", "value"))
        return type(exc), str(exc), fields
    cell_types = [[type(v) for v in row] for row in inst.men_scores + inst.women_scores]
    return inst, cell_types


def test_validate_accepts_the_two_couple_market():
    inst = smq.validate(2, [[9, 1], [3, 2]], [[1, 2], [3, 1]])
    assert inst == P_A


def test_validate_smallest_instance():
    inst = smq.validate(1, [[5]], [[7]])
    assert inst.n == 1


def test_duplicate_score_in_one_row_rejected():
    with pytest.raises(smq.DuplicateScoreError) as err:
        smq.validate(2, [[4, 4], [1, 2]], [[1, 2], [3, 1]])
    assert err.value.side == "men"
    assert err.value.person == 0
    assert (err.value.first, err.value.second) == (0, 1)
    assert "m1" in str(err.value)


def test_same_score_across_people_is_fine():
    # two men may both score a woman 2; distinctness is per row only
    inst = smq.validate(2, [[2, 1], [2, 1]], [[1, 2], [3, 1]])
    assert inst.men_scores == ((2, 1), (2, 1))


def test_zero_size_rejected():
    with pytest.raises(smq.ZeroSizeError):
        smq.validate(0, [], [])


def test_negative_score_rejected():
    with pytest.raises(smq.NegativeScoreError):
        smq.validate(2, [[9, -1], [3, 2]], [[1, 2], [3, 1]])


def test_non_square_rejected():
    with pytest.raises(smq.NonSquareError):
        smq.validate(2, [[9, 1]], [[1, 2], [3, 1]])
    with pytest.raises(smq.NonSquareError):
        smq.validate(2, [[9, 1, 5], [3, 2, 4]], [[1, 2], [3, 1]])


def test_an_instance_needs_n_rows_per_matrix():
    rows = ((1, 2), (3, 4))
    for n, men, women in ((3, rows, rows), (1, rows, rows), (2, rows, rows[:1]),
                          (2, rows[:1], rows)):
        with pytest.raises(ValueError, match="rows per matrix"):
            smq.QuantInstance(n, men, women)
    # the oracle's refusal of an empty instance needs one to exist
    assert smq.QuantInstance(0, (), ()).n == 0


def test_an_instance_needs_rows_of_n_entries():
    square = ((1, 2), (3, 4))
    for men, women in ((((1, 2), (3,)), square), (square, ((1, 2), (3, 4, 5))),
                       (square, ((), ()))):
        with pytest.raises(smq.NonSquareError, match="rows of 2 entries"):
            smq.QuantInstance(2, men, women)
    # so an audit never indexes past a short row
    with pytest.raises(smq.NonSquareError):
        smq.is_stable(smq.QuantInstance(2, ((1, 2), (3,)), square),
                      smq.Marriage((0, 1)), "classical")


def test_non_integer_score_rejected():
    with pytest.raises(smq.InvalidInstanceError):
        smq.validate(1, [[1.5]], [[2]])
    with pytest.raises(smq.InvalidInstanceError):
        smq.validate(1, [[True]], [[2]])


@given(matrices_with_a_fault())
def test_validate_matches_the_per_cell_reference(case):
    n, men, women = case
    assert _outcome(smq.validate, n, men, women) == _outcome(reference_validate, n, men, women)


def test_derive_classical_two_couple_market():
    profile = smq.derive_classical(P_A)
    assert profile.men_prefs == ((0, 1), (0, 1))
    assert profile.women_prefs == ((1, 0), (0, 1))


def test_derive_classical_single():
    profile = smq.derive_classical(smq.validate(1, [[5]], [[7]]))
    assert profile.men_prefs == ((0,),)
    assert profile.women_prefs == ((0,),)


def test_derive_classical_link_fixture():
    # row-by-row sort of P_C's scores gives the same orders as P_A's
    assert smq.derive_classical(P_C) == smq.derive_classical(P_A)


@given(instances())
def test_classical_lists_start_with_max_score(inst):
    profile = smq.derive_classical(inst)
    for scores, prefs in (
        (inst.men_scores, profile.men_prefs),
        (inst.women_scores, profile.women_prefs),
    ):
        for row, order in zip(scores, prefs):
            assert sorted(order) == list(range(inst.n))
            assert row[order[0]] == max(row)
            assert all(row[a] > row[b] for a, b in zip(order, order[1:]))


def test_parse_instance_example():
    text = '{"n":2,"men":[[9,1],[3,2]],"women":[[1,2],[3,1]]}'
    assert smq.parse_instance(text) == P_A


@given(instances())
def test_parse_serialize_round_trip(inst):
    assert smq.parse_instance(smq.serialize_instance(inst)) == inst


def test_serialize_is_canonical():
    noisy = ' {"women": [[1,2], [3,1]], "n": 2,\n "men": [[9, 1], [3, 2]]} '
    assert smq.serialize_instance(smq.parse_instance(noisy)) == (
        '{"n":2,"men":[[9,1],[3,2]],"women":[[1,2],[3,1]]}'
    )


def test_parse_rejects_bad_json():
    with pytest.raises(json.JSONDecodeError):
        smq.parse_instance("{nope")


def test_parse_rejects_an_integer_literal_over_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    text = f'{{"n":1,"men":[[{"9" * (limit + 1)}]],"women":[[1]]}}'
    with pytest.raises(smq.InvalidInstanceError, match=f"more than {limit} digits"):
        smq.parse_instance(text)


def test_parse_rejects_non_square():
    with pytest.raises(smq.NonSquareError):
        smq.parse_instance('{"n":2,"men":[[9,1]],"women":[[1,2],[3,1]]}')


def test_parse_rejects_missing_key():
    with pytest.raises(smq.InvalidInstanceError):
        smq.parse_instance('{"n":1,"men":[[1]]}')
    with pytest.raises(smq.InvalidInstanceError):
        smq.parse_instance("[1,2]")


def test_marriage_helpers():
    marriage = smq.Marriage((1, 0, 2))
    assert marriage.inverse() == (1, 0, 2)
    assert smq.Marriage((2, 0, 1)).inverse() == (1, 2, 0)
    assert marriage.pairs() == [(0, 1), (1, 0), (2, 2)]
    assert smq.serialize_marriage(marriage) == '{"match":[1,0,2]}'
    # the empty matching permutes 0..-1, but no instance has its size
    with pytest.raises(ValueError, match="size 0"):
        smq.is_stable(smq.random_instance(1, 0), smq.Marriage(()), "classical")


# a float or bool equal to an index is not an index
@pytest.mark.parametrize("match", [(True, False), (1.0, 0.0), (1.0, 0), (0, 0), (1, 2)])
def test_a_marriage_holds_each_index_once_as_an_exact_int(match):
    with pytest.raises(ValueError, match=r"is not a permutation of 0\.\.1$"):
        smq.Marriage(match)


def test_random_instance_is_valid_and_deterministic():
    a = smq.random_instance(4, seed=11)
    b = smq.random_instance(4, seed=11)
    assert a == b
    assert a != smq.random_instance(4, seed=12)
    # reconstructing through validate must not raise
    smq.validate(a.n, a.men_scores, a.women_scores)
    flat = [v for row in a.men_scores + a.women_scores for v in row]
    assert all(1 <= v <= 100 for v in flat)


def test_random_instance_needs_enough_scores():
    with pytest.raises(ValueError, match="n must be positive"):
        smq.random_instance(0, seed=0)
    with pytest.raises(ValueError):
        smq.random_instance(5, seed=0, max_score=4)
    tight = smq.random_instance(5, seed=0, max_score=5)
    assert all(sorted(row) == [1, 2, 3, 4, 5] for row in tight.men_scores)


def test_a_malformed_weak_profile_is_refused():
    # the weak-stability filter answered both with [Marriage((0,))]
    with pytest.raises(ValueError, match="the women's lists are not 1 rankings"):
        smq.weakly_stable_set(smq.WeakProfile((((0, 1),),), ()))
    with pytest.raises(ValueError, match="the men's lists are not 1 rankings"):
        smq.weakly_stable_set(smq.WeakProfile((((5, 1),),), (((0, 1),),)))


@st.composite
def maybe_weak_lists(draw):
    """(men_values, women_values): n men's lists and about n women's lists of
    (candidate, value) pairs, half the time all rankings, else lists that may
    also repeat or miss a candidate, step outside 0..n-1, break the order,
    have the wrong length or hold a pair of the wrong size."""
    n = draw(st.integers(0, 4))
    values = st.integers(0, 2)  # few values, so ties are common

    @st.composite
    def ranking(draw):
        pairs = [(c, draw(values)) for c in draw(st.permutations(range(n)))]
        return tuple(sorted(pairs, key=lambda p: (-p[1], p[0])))

    pair = st.one_of(st.tuples(st.integers(-1, n), values),
                     st.tuples(st.integers(0, n), values, values), st.tuples(values))
    bent = st.one_of(ranking().map(lambda r: r[::-1]),
                     st.lists(pair, min_size=max(n - 1, 0), max_size=n + 1).map(tuple))
    row = ranking() if draw(st.booleans()) else st.one_of(ranking(), bent)
    counts = (n, draw(st.sampled_from([n, n, n + 1, max(n - 1, 0)])))
    return tuple(tuple(draw(row) for _ in range(count)) for count in counts)


@given(maybe_weak_lists())
def test_a_weak_profile_builds_iff_every_list_ranks_its_side(lists):
    men_values, women_values = lists
    n = len(men_values)

    def ranks(row):
        return (all(len(p) == 2 for p in row) and sorted(c for c, _ in row) == list(range(n))
                and list(row) == sorted(row, key=lambda p: (-p[1], p[0])))

    valid = len(women_values) == n and all(map(ranks, men_values + women_values))
    try:
        profile = smq.WeakProfile(men_values, women_values)
    except ValueError:
        assert not valid
    else:
        assert valid and profile.men_values == men_values
