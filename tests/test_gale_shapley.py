import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smq
from conftest import P_A, P_B, instances, tie_heavy_instances
from references import reference_step_trace, reference_strengths, shuffled_deferred_acceptance


def scored(inst):
    return smq.ScoredProfile(inst.men_scores, inst.women_scores)


def final_engagements(trace):
    fiance = {}
    for event in trace:
        if event.outcome in ("engaged", "displaced"):
            fiance[event.proposee] = event.proposer
    return {(m, w) for w, m in fiance.items()}


def married(trace, side):
    """The marriage a trace ends in, reported man -> woman."""
    pairs = final_engagements(trace)
    if side == "women":
        pairs = {(m, w) for w, m in pairs}
    return smq.Marriage(tuple(w for _, w in sorted(pairs)))


def test_men_proposing_on_two_couple_market():
    assert smq.gs(smq.derive_classical(P_A), "men") == smq.Marriage((1, 0))


def test_women_proposing_coincides_here():
    assert smq.gs(smq.derive_classical(P_A), "women") == smq.Marriage((1, 0))


def test_single_couple():
    profile = smq.StrictProfile(((0,),), ((0,),))
    assert smq.gs(profile, "men") == smq.Marriage((0,))
    trace = smq.step_trace(profile, "men")
    assert trace == [smq.Proposal(0, 0, "engaged")]


def test_bad_side_rejected():
    for profile in (smq.derive_classical(P_A), scored(P_A)):
        with pytest.raises(ValueError):
            smq.gs(profile, "either")
        with pytest.raises(ValueError):
            smq.step_trace(profile, "either")


def test_a_short_list_is_refused():
    # man 0's list never names woman 1; deferred acceptance used to marry them
    with pytest.raises(ValueError, match="the men's lists are not 2 permutations of 0..1"):
        smq.gs(smq.StrictProfile(((0,), (0, 1)), ((0, 1), (0, 1))), "men")


def test_value_rows_of_the_wrong_width_are_refused():
    # the men's rows are 3 wide and the women's 2; with women proposing this
    # used to solve silently
    with pytest.raises(smq.NonSquareError, match="size 2 needs 2 rows of 2 entries"):
        smq.ScoredProfile(((1, 2, 3), (3, 4, 5)), ((1, 2), (3, 4)))


def test_a_repeated_entry_is_refused_when_built():
    # man 0's list never names woman 1; gs used to marry them all the same
    with pytest.raises(ValueError, match="the men's lists are not 2 permutations of 0..1"):
        smq.StrictProfile(((0, 0), (0, 1)), ((0, 1), (0, 1)))


def test_the_trace_refuses_short_lists():
    with pytest.raises(ValueError, match="the men's lists are not 2 permutations of 0..1"):
        smq.step_trace(smq.StrictProfile(((0,), (0,)), ((0, 1), (0, 1))), "men")


def test_a_negative_proposer_entry_is_refused():
    # -1 and -2 used to read women 1 and 0 from the end of the row
    with pytest.raises(ValueError, match="the men's lists are not 2 permutations of 0..1"):
        smq.gs(smq.StrictProfile(((-1, 0), (-2, 1)), ((0, 1), (0, 1))), "men")


def test_a_proposer_entry_past_n_is_refused():
    # man 0 used to be accepted before he reached the 5
    with pytest.raises(ValueError, match="the men's lists are not 2 permutations of 0..1"):
        smq.gs(smq.StrictProfile(((0, 5), (1, 0)), ((0, 1), (0, 1))), "men")


def test_a_negative_receiver_entry_is_refused():
    with pytest.raises(ValueError, match="the women's lists are not 2 permutations of 0..1"):
        smq.gs(smq.StrictProfile(((0, 1), (0, 1)), ((0, -1), (0, 1))), "men")


def test_the_trace_refuses_a_receiver_entry_past_n():
    # used to raise IndexError while inverting woman 1's list
    with pytest.raises(ValueError, match="the women's lists are not 2 permutations of 0..1"):
        smq.step_trace(smq.StrictProfile(((0, 1), (0, 1)), ((0, 1), (7, 1))), "men")


def test_value_rows_of_another_type_are_refused():
    # a receiver that is not a tuple or list would be read as her unread list
    with pytest.raises(ValueError, match="value rows that are tuples or lists"):
        smq.gs(smq.ScoredProfile(((1, 2), (2, 1)), (range(2), range(2))), "men")


@st.composite
def maybe_strict_lists(draw):
    """(men_prefs, women_prefs): n men's lists and about n women's lists,
    half the time all permutations of 0..n-1, else lists that may also
    repeat an entry, step outside 0..n-1 or have the wrong length."""
    n = draw(st.integers(0, 5))
    good = st.permutations(range(n)).map(tuple)
    bent = st.lists(st.integers(-1, n), min_size=max(n - 1, 0), max_size=n + 1).map(tuple)
    row = good if draw(st.booleans()) else st.one_of(good, bent)
    counts = (n, draw(st.sampled_from([n, n, n + 1, max(n - 1, 0)])))
    return tuple(tuple(draw(row) for _ in range(count)) for count in counts)


@given(maybe_strict_lists())
def test_a_strict_profile_builds_iff_every_list_permutes_its_side(lists):
    men_prefs, women_prefs = lists
    n = len(men_prefs)
    valid = len(women_prefs) == n and all(sorted(prefs) == list(range(n))
                                          for prefs in men_prefs + women_prefs)
    try:
        profile = smq.StrictProfile(men_prefs, women_prefs)
    except ValueError:
        assert not valid
    else:
        assert valid and profile.men_prefs == men_prefs and profile.women_prefs == women_prefs


@st.composite
def strict_profiles(draw):
    n = draw(st.integers(1, 8))
    lists = st.tuples(*[st.permutations(range(n)).map(tuple)] * n)
    return smq.StrictProfile(draw(lists), draw(lists))


@given(strict_profiles())
def test_receivers_handed_over_unread_reach_the_same_marriage(profile):
    # each woman's list arrives as an iterator, drawn only at her first comparison
    unread = [iter(prefs) for prefs in profile.women_prefs]
    expected = married(reference_step_trace(profile, "men"), "men")
    assert smq.gale_shapley._solve(profile.men_prefs, unread, "men") == expected


@given(strict_profiles())
def test_plain_strict_profiles_propose_as_the_reference(profile):
    # a plain profile's receivers are read lazily; the reference reads places as values
    assert profile._source is None
    for side in ("men", "women"):
        trace = reference_step_trace(profile, side)
        assert smq.step_trace(profile, side) == trace, side
        assert smq.gs(profile, side) == married(trace, side), side


def test_trace_replays_to_gs_result():
    profile = smq.derive_classical(P_A)
    trace = smq.step_trace(profile, "men")
    assert final_engagements(trace) == {(0, 1), (1, 0)}
    assert len(trace) <= 4


def test_trace_on_second_fixture_matches_enumerated_stable_set():
    trace = smq.step_trace(smq.derive_classical(P_B), "men")
    assert final_engagements(trace) == {(0, 0), (1, 1)}
    # the classical stable set of this market is a singleton, so the
    # male-optimal marriage is forced
    stable = smq.enumerate_stable(P_B, "classical").marriages()
    assert stable == [smq.Marriage((0, 1))]


@given(instances())
def test_gs_output_has_no_classical_blocking_pair(inst):
    for profile in (smq.derive_classical(inst), scored(inst)):
        for side in ("men", "women"):
            marriage = smq.gs(profile, side)
            assert smq.blocking_pairs(inst, marriage, "classical").stable


@given(instances())
def test_proposal_count_is_at_most_n_squared(inst):
    for profile in (smq.derive_classical(inst), scored(inst)):
        for side in ("men", "women"):
            assert len(smq.step_trace(profile, side)) <= inst.n * inst.n


@given(st.one_of(tie_heavy_instances(), instances()), st.integers(1, 12))
def test_scores_as_values_replay_the_ranked_profile(inst, alpha):
    classical = smq.derive_classical(inst)
    semiorder = smq.alpha_transform(inst, alpha)
    profiles = (
        classical,
        scored(inst),
        smq.ScoredProfile(*reference_strengths(inst, "add")),
        smq.ScoredProfile(*reference_strengths(inst, "max")),
        smq.linearize(semiorder, *smq.popularity_orders(inst)),
    )
    for side in ("men", "women"):
        assert smq.step_trace(scored(inst), side) == smq.step_trace(classical, side), side
        for profile in profiles:
            trace = reference_step_trace(profile, side)
            assert smq.step_trace(profile, side) == trace, (side, profile)
            assert smq.gs(profile, side) == married(trace, side), (side, profile)


@st.composite
def repeating_rows(draw):
    # QuantInstance takes rows that repeat a value, which validate refuses;
    # the ranking then lists the lower index first, and a receiver reading
    # the scores must prefer it too
    n = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    return smq.QuantInstance(n, *(tuple(draw(row) for _ in range(n)) for _ in range(2)))


@given(st.one_of(tie_heavy_instances(), instances(), repeating_rows()))
def test_derived_lists_propose_as_the_same_plain_lists(inst):
    # derive_classical's lists are read through the scores they rank, plain
    # lists lazily, each receiver's only until her first comparison
    derived = smq.derive_classical(inst)
    plain = smq.StrictProfile(derived.men_prefs, derived.women_prefs)
    assert derived == plain and derived._source is not None and plain._source is None
    for side in ("men", "women"):
        assert smq.step_trace(derived, side) == smq.step_trace(plain, side), side
        assert smq.gs(derived, side) == smq.gs(plain, side), side


@given(st.one_of(tie_heavy_instances(), instances(), repeating_rows()))
def test_an_instance_proposes_as_its_scores_and_its_classical_lists(inst):
    # an instance is the ScoredProfile of its scores, so gs takes it as one
    for side in ("men", "women"):
        profiles = (inst, smq.derive_classical(inst), scored(inst))
        assert len({smq.gs(profile, side) for profile in profiles}) == 1, side
        traces = [smq.step_trace(profile, side) for profile in profiles]
        assert traces[0] == traces[1] == traces[2], side


@given(instances(max_n=4))
@settings(max_examples=60)
def test_proposer_optimality_against_enumeration(inst):
    profile = smq.derive_classical(inst)
    stable = smq.enumerate_stable(inst, "classical").marriages()
    male_opt = smq.gs(profile, "men")
    female_opt = smq.gs(profile, "women")
    assert male_opt in stable and female_opt in stable
    inv_opt = female_opt.inverse()
    for other in stable:
        inv_other = other.inverse()
        for m in range(inst.n):
            assert (
                inst.men_scores[m][male_opt.partner_of_man[m]]
                >= inst.men_scores[m][other.partner_of_man[m]]
            )
        for w in range(inst.n):
            assert inst.women_scores[w][inv_opt[w]] >= inst.women_scores[w][inv_other[w]]


@pytest.mark.parametrize("seed", range(10))
def test_solvers_are_optimal_above_the_default_bound(seed):
    # sizes 9-12, past the oracle's default bound of 8
    n = 9 + seed % 4
    inst = smq.random_instance(n, seed, 1000)
    stable = smq.enumerate_stable(inst, "classical", size_bound=n).marriages()
    profile = smq.derive_classical(inst)
    male_opt = smq.gs(profile, "men")
    female_opt = smq.gs(profile, "women")
    assert male_opt in stable and female_opt in stable
    for m, row in enumerate(inst.men_scores):
        best = max(row[other.partner_of_man[m]] for other in stable)
        assert row[male_opt.partner_of_man[m]] == best
    female_inverse = female_opt.inverse()
    inverses = [other.inverse() for other in stable]
    for w, row in enumerate(inst.women_scores):
        best = max(row[inverse[w]] for inverse in inverses)
        assert row[female_inverse[w]] == best
    for mode in ("add", "max"):
        link_stable = smq.enumerate_stable(inst, f"link-{mode}", size_bound=n).marriages()
        assert smq.link_stable_gs(inst, mode) in link_stable


@given(instances(), st.integers(0, 2**32 - 1))
def test_result_does_not_depend_on_free_proposer_order(inst, seed):
    profile = smq.derive_classical(inst)
    shuffled, proposals = shuffled_deferred_acceptance(profile, random.Random(seed))
    assert shuffled == smq.gs(profile, "men")
    assert proposals == len(smq.step_trace(profile, "men"))
