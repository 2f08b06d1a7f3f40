import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smq
from conftest import P_A, P_C, alphas, instances, instances_with_marriage, tie_heavy_instances
from references import (
    reference_blocking_pairs,
    reference_link_greedy,
    reference_link_stable_gs,
    reference_link_transform,
    reference_link_value,
    reference_linearize_weak,
    reference_marriage_link,
    reference_strengths,
)

# every pair has additive strength 3, so all marriages tie
ALL_TIED = smq.QuantInstance(2, ((1, 2), (2, 1)), ((2, 1), (1, 2)))


def test_pair_strength_needs_int_indices_in_range():
    inst = smq.random_instance(4, 1, 10)
    for man, woman in ((-1, 0), (9, 0), (0, 4), (0, -4), (True, 0), (0, 1.0), ("0", 0)):
        bad = "man" if man not in range(4) or type(man) is not int else "woman"
        with pytest.raises(ValueError, match=f"^{bad} .* is not an index"):
            smq.link_value(inst, man, woman, "add")


def test_pair_strengths():
    assert smq.link_value(P_C, 0, 0, "add") == 35
    assert smq.link_value(P_C, 1, 1, "add") == 5
    assert smq.link_value(P_C, 0, 1, "add") == 13
    assert smq.link_value(P_C, 1, 0, "add") == 10
    assert smq.link_value(P_A, 0, 0, "max") == 9


def test_bad_mode_rejected():
    for call in (
        lambda mode: smq.link_value(P_C, 0, 0, mode),
        lambda mode: smq.marriage_link(P_C, smq.Marriage((0, 1)), mode),
        lambda mode: smq.link_transform(P_C, mode),
        lambda mode: smq.link_stable_gs(P_C, mode),
        lambda mode: smq.highest_link(P_C, mode),
    ):
        with pytest.raises(ValueError, match="mode must be 'add' or 'max', got 'foo'"):
            call("foo")


def test_marriage_strength():
    assert smq.marriage_link(P_C, smq.Marriage((0, 1)), "add") == 40
    assert smq.marriage_link(P_C, smq.Marriage((1, 0)), "add") == 23
    single = smq.validate(1, [[5]], [[7]])
    assert smq.marriage_link(single, smq.Marriage((0,)), "max") == 7


def test_transform_values_and_order():
    profile = smq.link_transform(P_C, "add")
    assert profile.men_values == (((0, 35), (1, 13)), ((0, 10), (1, 5)))
    assert profile.women_values == (((0, 35), (1, 10)), ((0, 13), (1, 5)))
    assert [dict(row) for row in profile.men_values] == [{0: 35, 1: 13}, {0: 10, 1: 5}]


@given(instances())
def test_transform_is_symmetric_across_sides(inst):
    for mode in ("add", "max"):
        profile = smq.link_transform(inst, mode)
        men = [dict(row) for row in profile.men_values]
        women = [dict(row) for row in profile.women_values]
        for m in range(inst.n):
            for w in range(inst.n):
                value = reference_link_value(inst, m, w, mode)
                assert men[m][w] == women[w][m] == smq.link_value(inst, m, w, mode) == value


@given(st.one_of(tie_heavy_instances(), instances()), st.sampled_from(smq.link.MODES),
       st.booleans(), st.data())
def test_one_pair_reads_as_the_kept_table_does(inst, mode, kept, data):
    # link_value reads its pair's two scores, on a fresh instance without
    # building the table
    if kept:
        smq.link_stable_gs(inst, mode)
    man, woman = (data.draw(st.integers(0, inst.n - 1)) for _ in range(2))
    value = smq.link_value(inst, man, woman, mode)
    assert (mode in inst._kept) == kept
    table = smq.link._strengths(inst, mode)
    assert value == reference_link_value(inst, man, woman, mode)
    assert value == table.men_scores[man][woman] == table.women_scores[woman][man]


def test_order_preserving_transform_changes_nothing():
    # mirror scores (everyone values their counterpart equally) keep every
    # ranking intact under both strength modes
    inst = smq.QuantInstance(2, ((4, 1), (2, 3)), ((4, 2), (1, 3)))
    classical = smq.derive_classical(inst)
    for mode in ("add", "max"):
        profile = smq.link_transform(inst, mode)
        assert not smq.has_ties(profile)
        assert reference_linearize_weak(profile) == classical
        # with identical rankings, the link-stable set is the classical one
        assert (
            smq.enumerate_stable(inst, f"link-{mode}").marriages()
            == smq.enumerate_stable(inst, "classical").marriages()
        )


def test_tie_detection():
    assert not smq.has_ties(smq.link_transform(P_C, "add"))
    assert smq.has_ties(smq.link_transform(ALL_TIED, "add"))


def test_weak_linearization_breaks_ties_by_index():
    # every strength is 3, so each row lists its tied candidates by index
    profile = smq.link_transform(ALL_TIED, "add")
    assert profile.men_values == profile.women_values == (((0, 3), (1, 3)),) * 2


def test_solver_finds_the_strongest_pairing():
    assert smq.link_stable_gs(P_C, "add") == smq.Marriage((0, 1))
    single = smq.validate(1, [[5]], [[7]])
    assert smq.link_stable_gs(single, "add") == smq.Marriage((0,))


def test_solver_max_mode_against_enumeration():
    assert smq.link_stable_gs(P_A, "max") == smq.Marriage((0, 1))
    assert smq.enumerate_stable(P_A, "link-max").marriages() == [smq.Marriage((0, 1))]
    assert smq.highest_link(P_A, "max") == [smq.Marriage((0, 1))]


@given(instances())
def test_solver_output_is_link_stable(inst):
    for mode in ("add", "max"):
        marriage = smq.link_stable_gs(inst, mode)
        assert smq.blocking_pairs(inst, marriage, f"link-{mode}").stable


@given(instances(max_n=4))
@settings(max_examples=60)
def test_no_ties_means_solver_hits_the_unique_strongest(inst):
    for mode in ("add", "max"):
        if smq.has_ties(smq.link_transform(inst, mode)):
            continue
        best = smq.highest_link(inst, mode)
        assert len(best) == 1
        assert smq.link_stable_gs(inst, mode) == best[0]


@given(instances_with_marriage(max_n=8, max_score=20))
def test_transform_and_strength_match_per_pair_reference(case):
    inst, marriage = case
    for mode in ("add", "max"):
        assert smq.link_transform(inst, mode) == reference_link_transform(inst, mode)
        assert smq.marriage_link(inst, marriage, mode) == reference_marriage_link(
            inst, marriage, mode
        )


@given(tie_heavy_instances())
def test_solver_matches_the_linearized_reference_under_ties(inst):
    for mode in ("add", "max"):
        assert smq.link_stable_gs(inst, mode) == reference_link_stable_gs(inst, mode)


@given(st.one_of(tie_heavy_instances(), instances(max_n=8)))
def test_solver_pairs_greedily_by_strength(inst):
    # the strongest pair has no rival that either member prefers, so deferred
    # acceptance on the strengths must take it, and so on down the table
    for mode in ("add", "max"):
        assert smq.link_stable_gs(inst, mode) == reference_link_greedy(inst, mode), mode


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solver_pairs_greedily_at_the_bench_size(seed):
    inst = smq.random_instance(300, seed, 10**9)
    for mode in ("add", "max"):
        assert smq.link_stable_gs(inst, mode) == reference_link_greedy(inst, mode), mode


@given(st.one_of(tie_heavy_instances(), instances()))
def test_strengths_as_values_replay_the_linearized_reference(inst):
    # receivers comparing strengths, ties to the lower index, must make the
    # same proposals, in the same order, as receivers ranking the reference
    # lists
    for mode in ("add", "max"):
        scored = smq.ScoredProfile(*reference_strengths(inst, mode))
        strict = reference_linearize_weak(reference_link_transform(inst, mode))
        for side in ("men", "women"):
            assert smq.step_trace(scored, side) == smq.step_trace(strict, side), (mode, side)


@pytest.mark.parametrize("max_score", [3000, 300])
def test_solvers_at_the_bench_size_match_their_references(max_score):
    # at max_score 300 every row is a permutation of 1..300, so pair
    # strengths tie often; at 3000 they seldom do
    inst = smq.random_instance(300, seed=2, max_score=max_score)
    scored = smq.ScoredProfile(inst.men_scores, inst.women_scores)
    start = time.perf_counter()
    link = {mode: smq.link_stable_gs(inst, mode) for mode in ("add", "max")}
    classical = {side: smq.gs(scored, side) for side in ("men", "women")}
    assert time.perf_counter() - start < 2.0
    for mode in ("add", "max"):
        assert link[mode] == reference_link_stable_gs(inst, mode), mode
    ranked = smq.derive_classical(inst)
    for side in ("men", "women"):
        assert classical[side] == smq.gs(ranked, side), side


# The public calls that read pair strengths, by name so that a failing call
# order reads plainly; all but link_value read the kept table.
TABLE_READERS = {
    "link_value": lambda q, marriage, mode: [smq.link_value(q, m, w, mode)
                                             for m in range(q.n) for w in range(q.n)],
    "link_stable_gs": lambda q, marriage, mode: smq.link_stable_gs(q, mode),
    "link_transform": lambda q, marriage, mode: smq.link_transform(q, mode),
    "marriage_link": lambda q, marriage, mode: smq.marriage_link(q, marriage, mode),
    "blocking_pairs": lambda q, marriage, mode: smq.blocking_pairs(q, marriage, f"link-{mode}"),
    "is_stable": lambda q, marriage, mode: smq.is_stable(q, marriage, f"link-{mode}"),
}


@given(instances_with_marriage(max_n=6), st.data())
def test_kept_tables_answer_as_a_fresh_instance_does(case, data):
    inst, marriage = case
    calls = data.draw(st.permutations([(name, mode) for name in TABLE_READERS
                                       for mode in ("add", "max")]))
    for name, mode in calls:
        fresh = smq.QuantInstance(inst.n, inst.men_scores, inst.women_scores)
        read = TABLE_READERS[name]
        assert read(inst, marriage, mode) == read(fresh, marriage, mode), (name, mode)


# The public calls that read a kept ranking, by name.
RANKING_READERS = {
    "derive_classical": lambda q, alpha: smq.derive_classical(q),
    "gs men": lambda q, alpha: smq.gs(smq.derive_classical(q), "men"),
    "gs women": lambda q, alpha: smq.gs(smq.derive_classical(q), "women"),
    "link_stable_gs add": lambda q, alpha: smq.link_stable_gs(q, "add"),
    "link_stable_gs max": lambda q, alpha: smq.link_stable_gs(q, "max"),
    "lex_male_alpha_gs": lambda q, alpha: smq.lex_male_alpha_gs(q, alpha),
    "link_transform add": lambda q, alpha: smq.link_transform(q, "add"),
    "link_transform max": lambda q, alpha: smq.link_transform(q, "max"),
}
# scores from 0..k with k close to n tie the larger of two scores often
tied_markets = st.integers(5, 9).flatmap(lambda k: instances_with_marriage(max_n=6, max_score=k))


@given(st.one_of(tied_markets, instances_with_marriage(max_n=6)), alphas, st.data())
def test_kept_rankings_answer_as_a_fresh_instance_does(case, alpha, data):
    inst, marriage = case
    audits = [(audit, notion) for audit in ("blocking_pairs", "is_stable")
              for notion in smq.stability.NOTIONS]
    for call in data.draw(st.permutations([*RANKING_READERS, *audits])):
        fresh = smq.QuantInstance(inst.n, inst.men_scores, inst.women_scores)
        if call in RANKING_READERS:
            read = RANKING_READERS[call]
            assert read(inst, alpha) == read(fresh, alpha), call
            continue
        audit, notion = call
        a = alpha if notion == "alpha" else None
        expected = reference_blocking_pairs(inst, marriage, notion, a)
        if audit == "is_stable":
            assert smq.is_stable(inst, marriage, notion, a) == (not expected), call
        else:
            report = smq.blocking_pairs(inst, marriage, notion, a)
            assert [(p.man, p.woman, p.witness) for p in report.pairs] == expected, call


def test_kept_tables_leave_identity_alone():
    inst = smq.random_instance(5, seed=3)
    identity = (hash(inst), repr(inst))
    for mode in ("add", "max"):
        smq.link_stable_gs(inst, mode)
    fresh = smq.QuantInstance(inst.n, inst.men_scores, inst.women_scores)
    assert inst == fresh and (hash(inst), repr(inst)) == identity
    clone = pickle.loads(pickle.dumps(inst))
    assert clone == fresh and (hash(clone), repr(clone)) == identity
    for mode in ("add", "max"):
        assert smq.link_transform(clone, mode) == smq.link_transform(fresh, mode)
        # worker processes receive the instance pickled without its kept
        # tables, and build their own
        assert (smq.enumerate_stable(inst, f"link-{mode}", jobs=2)
                == smq.enumerate_stable(fresh, f"link-{mode}"))
