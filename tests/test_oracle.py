import pickle
import time
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smq
from smq import oracle
from smq.oracle import DEFAULT_SIZE_BOUND, _masks, _scan, _stable_marriages
from smq.stability import NOTIONS, _table, is_stable
from conftest import M1, M2, P_A, P_B, P_C, alphas, instances, tie_heavy_instances
from references import (
    reference_enumerate_stable,
    reference_masks,
    reference_pruned_scan,
    reference_skyline,
)
from test_link import ALL_TIED

# Small score ranges make ties across rows (and between the two scores of a
# pair) common; validate admits those, only a repeat within one row is refused.
tied_instances = st.integers(5, 12).flatmap(lambda k: instances(max_n=6, max_score=k))


def test_gap_two_stable_set():
    stable = smq.enumerate_stable(P_B, "alpha", 2)
    assert stable.marriages() == [M1, M2]
    assert stable.notion == "alpha" and stable.alpha == 2


def test_link_add_stable_set_is_a_singleton():
    assert smq.enumerate_stable(P_C, "link-add").marriages() == [M1]


def test_classical_stable_set_of_two_couple_market():
    # the other marriage is blocked by m2 and w1
    assert smq.enumerate_stable(P_A, "classical").marriages() == [M2]


def test_stable_set_json():
    doc = smq.enumerate_stable(P_B, "alpha", 2).to_json()
    assert doc["notion"] == "alpha" and doc["alpha"] == 2
    assert doc["marriages"][0] == {
        "match": [0, 1],
        "undominated": True,
        "link_add": 14,
        "link_max": 8,
    }


def test_size_bound_is_enforced():
    big = smq.random_instance(9, seed=1)
    with pytest.raises(smq.SizeBoundError):
        smq.enumerate_stable(big, "classical")
    smq.enumerate_stable(big, "classical", size_bound=9)  # override works


@pytest.mark.parametrize("query", [
    lambda q: smq.enumerate_stable(q, "classical"),
    lambda q: smq.lex_optimum(q, 1, (), ()),
    lambda q: smq.highest_link(q, "add"),
    lambda q: smq.feasible_partners(q, 1),
    lambda q: smq.weakly_stable_set(smq.alpha_transform(q, 1)),
], ids=["enumerate_stable", "lex_optimum", "highest_link", "feasible_partners",
        "weakly_stable_set"])
def test_empty_instance_is_refused(query):
    with pytest.raises(ValueError, match="at least one man and one woman"):
        query(smq.QuantInstance(0, (), ()))


def test_worker_partitioning_is_deterministic():
    for seed in (3, 4):
        sequential = smq.enumerate_stable(smq.random_instance(5, seed=seed), "classical")
        # an equal, fresh instance: the first one would answer from its kept search
        parallel = smq.enumerate_stable(smq.random_instance(5, seed=seed), "classical", jobs=2)
        assert sequential == parallel
    dense = smq.random_instance(6, seed=2, max_score=6)
    expected = reference_enumerate_stable(dense, "alpha", 2)
    assert len(expected) > 1
    assert smq.enumerate_stable(dense, "alpha", 2, jobs=2) == expected


@given(tied_instances, alphas)
@settings(max_examples=150)
def test_search_and_skyline_match_exhaustive_scan(inst, alpha):
    for notion in NOTIONS:
        a = alpha if notion == "alpha" else None
        expected = reference_enumerate_stable(inst, notion, a)
        assert smq.enumerate_stable(inst, notion, a).to_json() == expected.to_json()
        # the parts the workers search, one per partner of man 0, in order
        parts = [m for first in range(inst.n) for m in _scan(inst, notion, a, first)]
        assert parts == [m.partner_of_man for m in expected.marriages()], notion


def eager_json(stable_set):
    """`to_json` as read off the set's Marriage records and its other columns."""
    return {"notion": stable_set.notion, "alpha": stable_set.alpha, "marriages": [
        {"match": list(m.partner_of_man), "undominated": flag, "link_add": add, "link_max": top}
        for m, flag, add, top in zip(stable_set.marriages(), stable_set.undominated,
                                     stable_set.link_add, stable_set.link_max)]}


@given(st.one_of(tie_heavy_instances(max_n=5), instances(max_n=5)), alphas)
@settings(max_examples=60)
def test_the_columns_answer_as_eager_records_do(inst, alpha):
    # the set keeps columns and builds its records on request; the reference
    # set's columns come from eager `dominates` and `marriage_link` calls on
    # its records, as a caller of StableSet builds one
    for notion in NOTIONS:
        a = alpha if notion == "alpha" else None
        expected = reference_enumerate_stable(inst, notion, a)
        doc = eager_json(expected)
        stable = smq.enumerate_stable(inst, notion, a)
        assert stable.to_json() == expected.to_json() == doc, notion
        for name in smq.StableSet._fields:
            assert getattr(stable, name) == getattr(expected, name), (notion, name)
        marriages = list(map(smq.Marriage, expected.matches))
        assert stable.marriages() == expected.marriages() == marriages, notion
        flagged = [m for m, flag in zip(marriages, expected.undominated) if flag]
        assert smq.undominated(inst, stable) == smq.undominated(inst, expected) == flagged
        assert len(stable) == len(expected) == len(expected.matches)
        assert stable == expected and hash(stable) == hash(expected)
        assert repr(stable) == repr(expected)
        clone = pickle.loads(pickle.dumps(stable))
        assert clone == expected and clone.to_json() == doc
        assert smq.undominated(inst, clone) == flagged


def exact(*args):
    """A certification for `_scan` that accepts every complete match but
    fails at once on a blocked one: the search then runs as uncertified, with
    only the pair masks keeping non-members out, and a loose mask fails at
    its first non-member instead of running through many more."""
    assert is_stable(*args), args[1]
    return True


@given(tie_heavy_instances(min_n=6, max_n=9), alphas)
@settings(max_examples=20)
def test_forward_checking_matches_the_pairwise_scan(inst, alpha):
    # the whole search
    with patch.object(oracle, "is_stable", exact):
        for notion in NOTIONS:
            a = alpha if notion == "alpha" else None
            assert _scan(inst, notion, a) == reference_pruned_scan(inst, notion, a), notion


@given(tie_heavy_instances(min_n=6, max_n=9), alphas)
@settings(max_examples=15)
def test_the_uncertified_search_matches_the_pairwise_scan(inst, alpha):
    # each part for one first woman, as its slice of the whole reference
    with patch.object(oracle, "is_stable", exact):
        for notion in NOTIONS:
            a = alpha if notion == "alpha" else None
            expected = reference_pruned_scan(inst, notion, a)
            for first in range(inst.n):
                part = _scan(inst, notion, a, first)
                assert part == [m for m in expected if m[0] == first], (notion, first)


# n = 1 has no memo, n = 2 keeps it at man 0, and n = 3 and 4 reach it
# through one or two placed men; ties make equal keys under different prefixes
small_instances = st.one_of(tie_heavy_instances(max_n=4), instances(max_n=4, max_score=40))


@given(small_instances, alphas)
@settings(max_examples=200)
def test_the_last_two_men_memo_matches_the_pairwise_scan(inst, alpha):
    with patch.object(oracle, "is_stable", exact):
        for notion in NOTIONS:
            a = alpha if notion == "alpha" else None
            expected = reference_pruned_scan(inst, notion, a)
            assert _scan(inst, notion, a) == expected, notion
            for first in range(inst.n):
                part = _scan(inst, notion, a, first)
                assert part == [m for m in expected if m[0] == first], (notion, first)


@given(st.one_of(tie_heavy_instances(max_n=6), instances(max_n=6, max_score=30)), alphas)
@settings(max_examples=40)
def test_every_member_is_certified_once_memo_hit_or_not(inst, alpha):
    for notion in NOTIONS:
        a = alpha if notion == "alpha" else None
        for first in (None, *range(inst.n)):
            with patch.object(oracle, "is_stable", wraps=is_stable) as certify:
                members = _scan(inst, notion, a, first)
            certified = [call.args[1].partner_of_man for call in certify.call_args_list]
            assert certified == members, (notion, first)
            assert len(set(members)) == len(members)
            # the certification reads only a marriage's length, not whether it permutes
            assert all(sorted(m) == list(range(inst.n)) for m in members), (notion, first)


@pytest.mark.parametrize("n", [1, 9, 10])
def test_forward_checking_matches_the_pairwise_scan_above_the_bound(n):
    # n = 1 has no later man to cut on; at n = 9 and 10 the n*n bits of a
    # search state pass 64
    for seed, max_score, alpha in ((1, 10 * n, n), (2, 5 * n, n // 2 + 1), (3, 2 * n, 3)):
        inst = smq.random_instance(n, seed=seed, max_score=max_score)
        for notion in NOTIONS:
            a = alpha if notion == "alpha" else None
            with patch.object(oracle, "is_stable", exact):
                matches = _scan(inst, notion, a)
            assert matches == reference_pruned_scan(inst, notion, a), (seed, notion)


@given(tie_heavy_instances(), st.integers(1, 3))
@settings(max_examples=100)
def test_masks_match_their_definition(inst, alpha):
    for notion in NOTIONS:
        a = alpha if notion == "alpha" else None
        assert _masks(*_table(inst, notion, a)) == reference_masks(inst, notion, a), notion


def test_dense_stable_set_is_annotated_fast():
    # 6,394 of the 40,320 marriages are stable and 32 undominated: testing
    # every member against every other would take about 40.9 million
    # dominance tests, and the indexed skyline takes one per dominated member
    inst = smq.random_instance(8, seed=5, max_score=8)
    start = time.perf_counter()
    with patch.object(oracle, "dominates", wraps=oracle.dominates) as dominates:
        stable = smq.enumerate_stable(inst, "alpha", 4)
    elapsed = time.perf_counter() - start
    assert len(stable) == 6394
    assert len(smq.undominated(inst, stable)) == 32
    assert dominates.call_count == 6362
    assert elapsed < 3.0


def test_sparse_set_above_the_default_bound_is_found_fast():
    # 1,243 of the 14! (about 87 billion) marriages are stable
    inst = smq.random_instance(14, seed=1, max_score=140)
    start = time.perf_counter()
    stable = smq.enumerate_stable(inst, "alpha", 14, size_bound=14)
    elapsed = time.perf_counter() - start
    assert len(stable) == 1243
    assert elapsed < 1.2


def test_both_gap_two_marriages_are_undominated():
    stable = smq.enumerate_stable(P_B, "alpha", 2)
    assert smq.undominated(P_B, stable) == [M1, M2]


def test_singleton_set_is_its_own_undominated_subset():
    stable = smq.enumerate_stable(P_B, "classical")
    assert smq.undominated(P_B, stable) == stable.marriages()


@given(instances(max_n=4))
@settings(max_examples=60)
def test_male_optimal_is_never_dominated(inst):
    stable = smq.enumerate_stable(inst, "classical")
    male_opt = smq.gs(smq.derive_classical(inst), "men")
    assert male_opt in smq.undominated(inst, stable)


@given(instances(max_n=7))
@settings(max_examples=60)
def test_male_optimal_is_the_only_undominated_classical_marriage(inst):
    # every man weakly prefers his men-optimal partner to his partner in any
    # other classical stable marriage, and strictly so where they differ
    stable = smq.enumerate_stable(inst, "classical")
    male_opt = smq.gs(smq.derive_classical(inst), "men")
    assert smq.undominated(inst, stable) == [male_opt]


@st.composite
def repeating_instances(draw, max_n=5):
    """Instances built without `validate` in which some row repeats a score,
    so two different marriages can give every man the same score."""
    n = draw(st.integers(2, max_n))
    cell = st.integers(0, n)
    men, women = ([draw(st.lists(cell, min_size=n, max_size=n)) for _ in range(n)]
                  for _ in range(2))
    row = draw(st.sampled_from(men + women))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    row[j] = row[i]
    return smq.QuantInstance(n, tuple(map(tuple, men)), tuple(map(tuple, women)))


# Seeded like the bench's dense pool, so alpha-stable sets run to thousands
# of members. Not `instances`: Hypothesis favours markets in which every man
# ranks the women alike, where all n! marriages can be link-max stable with
# equal score sums, none dominated, and the pairwise reference then tests
# every pair of them.
dense_instances = st.integers(6, 8).flatmap(lambda n: st.builds(
    smq.random_instance, st.just(n), st.integers(0, 2**32), st.integers(n, 2 * n)))


@given(st.tuples(dense_instances, st.integers(2, 5)) | st.tuples(repeating_instances(), alphas))
@settings(max_examples=60)
def test_indexed_skyline_matches_the_pairwise_skyline(case):
    inst, alpha = case
    for notion in NOTIONS:
        stable = smq.enumerate_stable(inst, notion, alpha if notion == "alpha" else None)
        flags = list(stable.undominated)
        assert flags == reference_skyline(inst, stable.marriages()), notion


def test_lex_optimum_examples():
    assert smq.lex_optimum(P_B, 2, (0, 1), (0, 1)) == M1
    single = smq.validate(1, [[5]], [[7]])
    assert smq.lex_optimum(single, 1, (0,), (0,)) == smq.Marriage((0,))
    # singleton stable set: the optimum is forced whatever the orders
    assert smq.lex_optimum(P_A, 1, (0, 1), (0, 1)) == M2
    assert smq.lex_optimum(P_A, 1, (1, 0), (1, 0)) == M2


def test_lex_optimum_refuses_orders_that_are_not_permutations():
    # (1,) once passed as a men's order; its completions (1, 0, 2, 3),
    # (1, 2, 0, 3) and (1, 3, 2, 0) have three different optima
    inst = smq.random_instance(4, 3, 6)
    full = (0, 1, 2, 3)
    optima = {smq.lex_optimum(inst, 2, order, full)
              for order in ((1, 0, 2, 3), (1, 2, 0, 3), (1, 3, 2, 0))}
    assert len(optima) == 3
    for bad in ((1,), (0, 1), (0, 1, 2, 2), (0, 1, 2, 3, 4), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="not a permutation"):
            smq.lex_optimum(inst, 2, bad, full)
        with pytest.raises(ValueError, match="not a permutation"):
            smq.lex_optimum(inst, 2, full, bad)


def test_highest_link_examples():
    assert smq.highest_link(P_C, "add") == [M1]
    assert smq.marriage_link(P_C, M1, "add") == 40
    single = smq.validate(1, [[5]], [[7]])
    assert smq.highest_link(single, "add") == [smq.Marriage((0,))]


def test_highest_link_returns_all_tied_maximizers():
    # every pair of ALL_TIED has additive strength 3, so both marriages are
    # link-stable with aggregate 6
    stable = smq.enumerate_stable(ALL_TIED, "link-add")
    assert stable.marriages() == [M1, M2]
    assert smq.highest_link(ALL_TIED, "add") == [M1, M2]


def test_feasible_partners_widen_with_the_threshold():
    men, women = smq.feasible_partners(P_B, 2)
    assert men == [{0, 1}, {0, 1}] and women == [{0, 1}, {0, 1}]
    men, women = smq.feasible_partners(P_B, 1)
    assert men == [{0}, {1}] and women == [{0}, {1}]
    single = smq.validate(1, [[5]], [[7]])
    assert smq.feasible_partners(single, 1) == ([{0}], [{0}])


def test_weak_filter_matches_gap_stability_on_fixture():
    weak = smq.weakly_stable_set(smq.alpha_transform(P_B, 2))
    assert weak == smq.enumerate_stable(P_B, "alpha", 2).marriages()


def test_weak_filter_matches_link_stability_on_fixture():
    weak = smq.weakly_stable_set(smq.link_transform(P_C, "add"))
    assert weak == smq.enumerate_stable(P_C, "link-add").marriages()


@given(instances(max_n=4), alphas)
@settings(max_examples=50)
def test_weak_filter_agrees_with_direct_predicate(inst, alpha):
    assert (
        smq.weakly_stable_set(smq.alpha_transform(inst, alpha))
        == smq.enumerate_stable(inst, "alpha", alpha).marriages()
    )
    for mode in ("add", "max"):
        assert (
            smq.weakly_stable_set(smq.link_transform(inst, mode))
            == smq.enumerate_stable(inst, f"link-{mode}").marriages()
        )


@given(instances(max_n=4), alphas)
@settings(max_examples=50)
def test_stable_sets_are_never_empty(inst, alpha):
    assert smq.enumerate_stable(inst, "classical").matches
    assert smq.enumerate_stable(inst, "alpha", alpha).matches
    assert smq.enumerate_stable(inst, "link-add").matches
    assert smq.enumerate_stable(inst, "link-max").matches


# The oracle's entry points, each reading the instance's kept search of one
# notion; `a` is the call's alpha, ignored by the link calls.
QUERIES = {
    "enumerate classical": lambda q, a: smq.enumerate_stable(q, "classical"),
    "enumerate alpha": lambda q, a: smq.enumerate_stable(q, "alpha", a),
    "enumerate link-add": lambda q, a: smq.enumerate_stable(q, "link-add"),
    "enumerate link-max": lambda q, a: smq.enumerate_stable(q, "link-max"),
    "lex_optimum": lambda q, a: smq.lex_optimum(q, a, *smq.popularity_orders(q)),
    "highest_link add": lambda q, a: smq.highest_link(q, "add"),
    "highest_link max": lambda q, a: smq.highest_link(q, "max"),
    "feasible_partners": lambda q, a: smq.feasible_partners(q, a),
}


@given(instances(max_n=5, max_score=8), st.data())
def test_kept_searches_answer_as_a_fresh_instance_does(inst, data):
    calls = data.draw(st.lists(st.tuples(st.sampled_from(sorted(QUERIES)), st.integers(1, 3)),
                               min_size=1, max_size=12))
    for name, alpha in calls:
        fresh = smq.QuantInstance(inst.n, inst.men_scores, inst.women_scores)
        query = QUERIES[name]
        assert query(inst, alpha) == query(fresh, alpha), (name, alpha)


def test_kept_searches_still_refuse_above_the_bound():
    inst = smq.random_instance(5, seed=1)
    for query in QUERIES.values():
        query(inst, 2)  # every notion's search is now kept
    bounded = [
        lambda: smq.enumerate_stable(inst, "classical", size_bound=4),
        lambda: smq.enumerate_stable(inst, "alpha", 2, size_bound=4),
        lambda: smq.enumerate_stable(inst, "link-add", size_bound=4),
        lambda: smq.lex_optimum(inst, 2, *smq.popularity_orders(inst), size_bound=4),
        lambda: smq.highest_link(inst, "max", size_bound=4),
        lambda: smq.feasible_partners(inst, 2, size_bound=4),
    ]
    for call in bounded:
        with pytest.raises(smq.SizeBoundError):
            call()


def test_returned_lists_are_the_callers_own():
    inst = smq.random_instance(4, seed=2, max_score=5)
    # the search hands out the tuple it keeps, which no caller can change;
    # no public entry point hands it out, each builds its own answer from it
    first = _stable_marriages(inst, "alpha", 2, DEFAULT_SIZE_BOUND)
    assert isinstance(first, tuple)
    assert _stable_marriages(inst, "alpha", 2, DEFAULT_SIZE_BOUND) is first
    best = smq.highest_link(inst, "add")
    expected = list(best)
    best.append(smq.Marriage((0, 1, 2, 3)))
    assert smq.highest_link(inst, "add") == expected


def test_alpha_one_shares_the_classical_search():
    # alpha 1 has the classical table and gap, so one search serves both
    inst = smq.random_instance(5, seed=4)
    classical = _stable_marriages(inst, "classical", None, DEFAULT_SIZE_BOUND)
    assert _stable_marriages(inst, "alpha", 1, DEFAULT_SIZE_BOUND) is classical
    assert "alpha" not in inst._kept
    fresh = smq.QuantInstance(inst.n, inst.men_scores, inst.women_scores)
    assert smq.enumerate_stable(inst, "alpha", 1) == smq.enumerate_stable(fresh, "alpha", 1)
    assert smq.enumerate_stable(inst, "alpha", 1).to_json()["alpha"] == 1


def test_kept_results_never_travel():
    inst = smq.random_instance(5, seed=3)
    size = len(pickle.dumps(inst))
    for mode in ("add", "max"):
        smq.link_stable_gs(inst, mode)
    for notion, alpha in (("classical", None), ("alpha", 2), ("link-add", None),
                          ("link-max", None)):
        smq.enumerate_stable(inst, notion, alpha)
    assert len(pickle.dumps(inst)) == size
    assert pickle.loads(pickle.dumps(inst)) == inst
