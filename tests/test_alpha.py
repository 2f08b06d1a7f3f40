import collections
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smq
from conftest import P_A, P_B, alphas, instances
from references import reference_linearize, reference_score_sum_rule


def test_transform_marks_small_gaps_incomparable():
    semi = smq.alpha_transform(P_B, 2)
    assert (0, 1) in semi.incomparable_pairs("men", 0)  # gap 3-2 stays below 2
    assert semi.strictly_prefers("men", 1, 0, 1)  # 4-2
    assert semi.strictly_prefers("women", 0, 0, 1)  # 8-5
    assert semi.strictly_prefers("women", 1, 0, 1)  # 3-1
    assert semi.incomparable_pairs("men", 0) == [(0, 1)]
    assert semi.incomparable_pairs("men", 1) == []


def test_threshold_one_keeps_every_comparison():
    semi = smq.alpha_transform(P_B, 1)
    profile = smq.derive_classical(P_B)
    for side, prefs, scores in (
        ("men", profile.men_prefs, P_B.men_scores),
        ("women", profile.women_prefs, P_B.women_scores),
    ):
        for person in range(2):
            for a in range(2):
                for b in range(2):
                    if a == b:
                        continue
                    expected = scores[person][a] > scores[person][b]
                    assert semi.strictly_prefers(side, person, a, b) == expected


def test_huge_threshold_makes_everything_incomparable():
    semi = smq.alpha_transform(P_B, 10)
    for side in ("men", "women"):
        for person in range(2):
            assert semi.incomparable_pairs(side, person) == [(0, 1)]


@pytest.mark.parametrize("bad", [0, -1, -3, None, 1.5, True])
def test_threshold_must_be_positive_integer(bad):
    # the profile refuses it when built, so `linearize` and
    # `weakly_stable_set` never read such an alpha
    with pytest.raises(ValueError, match="integer alpha >= 1"):
        smq.SemiorderProfile(P_B, bad)
    with pytest.raises(ValueError, match="integer alpha >= 1"):
        smq.alpha_transform(P_B, bad)
    with pytest.raises(ValueError):
        smq.lex_male_alpha_gs(P_B, bad)


@given(instances(max_n=4), alphas)
def test_strict_relation_is_asymmetric_and_transitive(inst, alpha):
    semi = smq.alpha_transform(inst, alpha)
    n = inst.n
    for side in ("men", "women"):
        for person in range(n):
            prefers = [
                [semi.strictly_prefers(side, person, a, b) for b in range(n)]
                for a in range(n)
            ]
            for a in range(n):
                assert not prefers[a][a]
                for b in range(n):
                    assert not (prefers[a][b] and prefers[b][a])
                    for c in range(n):
                        if prefers[a][b] and prefers[b][c]:
                            assert prefers[a][c]


def test_linearize_resolves_the_single_incomparable_pair_by_popularity():
    profile = smq.linearize(smq.alpha_transform(P_B, 2), (0, 1), (0, 1))
    assert profile.men_prefs == ((0, 1), (0, 1))
    assert profile.women_prefs == ((0, 1), (0, 1))


def test_linearize_is_identity_on_total_lists():
    # m2's list in the gap-2 view of P_B is already total
    profile = smq.linearize(smq.alpha_transform(P_B, 2), (0, 1), (0, 1))
    assert profile.men_prefs[1] == smq.derive_classical(P_B).men_prefs[1]


def test_greedy_linearization_three_candidates():
    # man 0 scores 5,4,3 at threshold 2: only w1 > w3 is forced; the guide
    # order w3 > w2 > w1 then yields w2 > w1 > w3
    inst = smq.QuantInstance(
        3,
        ((5, 4, 3), (1, 2, 3), (3, 1, 2)),
        ((1, 2, 3), (3, 2, 1), (2, 3, 1)),
    )
    profile = smq.linearize(smq.alpha_transform(inst, 2), (0, 1, 2), (2, 1, 0))
    assert profile.men_prefs[0] == (1, 0, 2)


def _extensions(semi, side, person):
    n = semi.n
    out = []
    for perm in itertools.permutations(range(n)):
        pos = {c: i for i, c in enumerate(perm)}
        if all(
            pos[a] < pos[b]
            for a in range(n)
            for b in range(n)
            if semi.strictly_prefers(side, person, a, b)
        ):
            out.append(perm)
    return out


def test_greedy_output_is_best_extension_by_enumeration():
    inst = smq.QuantInstance(
        3,
        ((5, 4, 3), (1, 2, 3), (3, 1, 2)),
        ((1, 2, 3), (3, 2, 1), (2, 3, 1)),
    )
    semi = smq.alpha_transform(inst, 2)
    guide = (2, 1, 0)
    rank = {c: r for r, c in enumerate(guide)}
    extensions = _extensions(semi, "men", 0)
    assert set(extensions) == {(0, 1, 2), (0, 2, 1), (1, 0, 2)}
    best = min(extensions, key=lambda p: tuple(rank[c] for c in p))
    assert smq.linearize(semi, (0, 1, 2), guide).men_prefs[0] == best


@given(instances(max_n=4), alphas)
@settings(max_examples=60)
def test_linearize_extends_every_forced_comparison(inst, alpha):
    semi = smq.alpha_transform(inst, alpha)
    men_order = tuple(range(inst.n))
    women_order = tuple(range(inst.n))
    profile = smq.linearize(semi, men_order, women_order)
    for side, prefs in (("men", profile.men_prefs), ("women", profile.women_prefs)):
        for person, order in enumerate(prefs):
            pos = {c: i for i, c in enumerate(order)}
            for a in range(inst.n):
                for b in range(inst.n):
                    if a != b and semi.strictly_prefers(side, person, a, b):
                        assert pos[a] < pos[b]


@given(instances(max_n=4), alphas, st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_greedy_beats_every_other_extension(inst, alpha, rng):
    semi = smq.alpha_transform(inst, alpha)
    guide = list(range(inst.n))
    rng.shuffle(guide)
    rank = {c: r for r, c in enumerate(guide)}
    profile = smq.linearize(semi, tuple(range(inst.n)), tuple(guide))
    person = rng.randrange(inst.n)
    key = lambda p: tuple(rank[c] for c in p)
    assert key(profile.men_prefs[person]) == min(
        key(ext) for ext in _extensions(semi, "men", person)
    )


def test_score_sums_and_orders():
    assert smq.score_totals(P_B.women_scores) == [11, 6]
    assert smq.score_totals(P_B.men_scores) == [7, 4]
    assert smq.score_sum_rule(P_B.women_scores) == (0, 1)
    assert smq.score_sum_rule(P_B.men_scores) == (0, 1)
    assert smq.popularity_orders(P_B) == ((0, 1), (0, 1))


def test_totals_count_candidates_not_voters():
    # three voters over two candidates, and two voters over three
    assert smq.score_totals([[1, 2], [3, 4], [5, 6]]) == [9, 12]
    assert smq.score_sum_rule([[1, 2], [3, 4], [5, 6]]) == (1, 0)
    assert smq.score_totals([[1, 2, 3], [4, 5, 6]]) == [5, 7, 9]
    assert smq.score_sum_rule([[1, 2, 3], [4, 5, 6]]) == (2, 1, 0)


def test_totals_read_one_shot_ballots_once():
    # the length check used to exhaust an iterator, which then summed to nothing
    assert smq.score_totals(iter([[1, 2], [3, 4]])) == [4, 6]
    assert smq.score_sum_rule(iter([[1, 2], [3, 4]])) == (1, 0)
    assert smq.score_totals(row for row in ((1, 2, 3), (3, 2, 1))) == [4, 4, 4]


def test_ragged_ballots_are_refused():
    # [[1, 2], [3]] would otherwise drop the candidate scored 2
    for ballots in ([[1, 2], [3]], [[1], [2, 3]], [[1, 2, 3], [4, 5], [6, 7, 8]]):
        with pytest.raises(ValueError, match="differ in length"):
            smq.score_totals(ballots)
        with pytest.raises(ValueError, match="differ in length"):
            smq.score_sum_rule(ballots)


def test_linearize_refuses_orders_that_are_not_permutations():
    semi = smq.alpha_transform(smq.random_instance(4, 3, 6), 2)
    full = (0, 1, 2, 3)
    for bad in ((1,), (0, 1), (0, 1, 2, 2), (0, 1, 2, 3, 4), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="not a permutation"):
            smq.linearize(semi, bad, full)
        with pytest.raises(ValueError, match="not a permutation"):
            smq.linearize(semi, full, bad)


def test_orders_must_hold_int_indices():
    inst = smq.random_instance(4, 3, 6)
    semi, full = smq.alpha_transform(inst, 2), (0, 1, 2, 3)
    marriage = smq.Marriage(full)
    for bad in ((0.0, 1, 2, 3), (0, True, 2, 3), (0, 1)):
        with pytest.raises(ValueError, match="not a permutation"):
            smq.linearize(semi, bad, full)
        with pytest.raises(ValueError, match="not a permutation"):
            smq.lex_optimum(inst, 1, bad, full)
        with pytest.raises(ValueError, match="not a permutation"):
            smq.lex_key(marriage, bad, full)
        with pytest.raises(ValueError, match="not a permutation"):
            smq.lex_key(marriage, full, bad)
    assert smq.lex_key(smq.Marriage(()), (), ()) == ()


def test_equal_totals_break_by_lower_index():
    assert smq.score_sum_rule(((1, 2), (2, 1))) == (0, 1)


@st.composite
def tied_ballots(draw):
    """Square ballot matrices, n <= 8, scores 0..3, so totals often tie."""
    n = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@given(tied_ballots())
def test_score_sum_rule_matches_the_reference_under_ties(ballots):
    assert smq.score_sum_rule(ballots) == reference_score_sum_rule(ballots)


@given(instances(), st.integers(0, 20), st.data())
def test_shifting_one_voter_row_keeps_the_order(inst, k, data):
    ballots = inst.women_scores
    voter = data.draw(st.integers(0, inst.n - 1))
    shifted = tuple(
        tuple(v + k for v in row) if i == voter else row
        for i, row in enumerate(ballots)
    )
    assert smq.score_sum_rule(shifted) == smq.score_sum_rule(ballots)


def test_lex_solver_on_gap_two_fixture():
    assert smq.lex_male_alpha_gs(P_B, 2) == smq.Marriage((0, 1))


def test_lex_solver_reduces_to_classical_at_threshold_one():
    assert smq.lex_male_alpha_gs(P_A, 1) == smq.Marriage((1, 0))
    # only while every row is distinct: man 0's tie is broken by popularity,
    # woman 1 before woman 0, where the classical ranking takes the lower index
    tied = smq.QuantInstance(2, ((2, 2), (0, 1)), ((1, 1), (1, 1)))
    assert smq.lex_male_alpha_gs(tied, 1) == smq.Marriage((1, 0))
    assert smq.gs(tied, "men") == smq.Marriage((0, 1))


def test_lex_solver_on_singleton_stable_set():
    # the classical stable set of P_B is the lone marriage m1-w1, m2-w2
    assert smq.enumerate_stable(P_B, "classical").marriages() == [smq.Marriage((0, 1))]
    assert smq.lex_male_alpha_gs(P_B, 1) == smq.Marriage((0, 1))


@given(instances())
def test_threshold_one_linearization_equals_classical_profile(inst):
    semi = smq.alpha_transform(inst, 1)
    men_order, women_order = smq.popularity_orders(inst)
    assert smq.linearize(semi, men_order, women_order) == smq.derive_classical(inst)
    assert smq.lex_male_alpha_gs(inst, 1) == smq.gs(smq.derive_classical(inst), "men")


@given(instances(), alphas)
def test_lex_solver_output_is_alpha_stable(inst, alpha):
    marriage = smq.lex_male_alpha_gs(inst, alpha)
    assert smq.blocking_pairs(inst, marriage, "alpha", alpha).stable


@given(instances(), alphas)
@settings(max_examples=60)
def test_lex_solver_is_men_optimal_for_its_own_linearization(inst, alpha):
    # The guided solver does not always return the lex optimum (finding A6),
    # but it is the men-optimal classical stable marriage of the strict
    # profile it linearizes to: every man gets his best stable partner.
    men_order, women_order = smq.popularity_orders(inst)
    profile = smq.linearize(smq.alpha_transform(inst, alpha), men_order, women_order)
    n = inst.n

    def scores(prefs):
        return tuple(tuple(n - row.index(c) for c in range(n)) for row in prefs)

    strict = smq.validate(n, scores(profile.men_prefs), scores(profile.women_prefs))
    stable = smq.enumerate_stable(strict, "classical").marriages()
    solved = smq.lex_male_alpha_gs(inst, alpha).partner_of_man
    for m, row in enumerate(strict.men_scores):
        assert row[solved[m]] == max(row[s.partner_of_man[m]] for s in stable)


def test_voting_rule_is_pluggable():
    by_index = lambda ballots: tuple(range(len(ballots)))
    marriage = smq.lex_male_alpha_gs(P_B, 2, rule=by_index)
    assert smq.blocking_pairs(P_B, marriage, "alpha", 2).stable


@given(st.data())
@settings(max_examples=200)
def test_sweep_matches_reference_greedy(data):
    # alpha runs past the whole score range, where every pair is incomparable
    # and each list is the guide order itself; bare instances repeat scores
    # within a row, and at alpha 1 their tied candidates are the only
    # incomparable ones, so they must follow the guide and not the index
    max_score = data.draw(st.integers(7, 30))
    if data.draw(st.booleans()):
        inst = data.draw(instances(max_n=8, max_score=max_score))
    else:
        n = data.draw(st.integers(1, 8))
        row = st.tuples(*[st.integers(0, n)] * n)
        inst = smq.QuantInstance(n, data.draw(st.tuples(*[row] * n)),
                                 data.draw(st.tuples(*[row] * n)))
    alpha = data.draw(st.one_of(st.just(1), st.integers(1, 3 * max_score)))
    men_order = tuple(data.draw(st.permutations(range(inst.n))))
    women_order = tuple(data.draw(st.permutations(range(inst.n))))
    semi = smq.alpha_transform(inst, alpha)
    assert smq.linearize(semi, men_order, women_order) == reference_linearize(
        semi, men_order, women_order
    )


@given(st.data())
@settings(max_examples=200)
def test_lazy_solver_matches_the_eager_linearization(data):
    # the eager reference builds both full extensions with linearize and
    # hands the strict profile to gs; bare instances repeat scores in a row
    max_score = data.draw(st.integers(7, 30))
    if data.draw(st.booleans()):
        inst = data.draw(instances(max_n=8, max_score=max_score))
    else:
        n = data.draw(st.integers(1, 8))
        row = st.tuples(*[st.integers(0, n)] * n)
        inst = smq.QuantInstance(n, data.draw(st.tuples(*[row] * n)),
                                 data.draw(st.tuples(*[row] * n)))
    alpha = data.draw(st.one_of(st.just(1), st.integers(1, 3 * max_score)))
    least_popular_first = lambda ballots: smq.score_sum_rule(ballots)[::-1]
    rule = data.draw(st.sampled_from([smq.score_sum_rule, least_popular_first]))
    semi = smq.alpha_transform(inst, alpha)
    eager = smq.gs(smq.linearize(semi, *smq.popularity_orders(inst, rule)), "men")
    assert smq.lex_male_alpha_gs(inst, alpha, rule) == eager


def counted_sweeps(monkeypatch, rows):
    """Draws per person, by index into `rows`, from every alpha._sweep over one of them."""
    drawn = collections.Counter()
    sweep = smq.alpha._sweep

    def counted(row, *args):
        person = next((i for i, mine in enumerate(rows) if mine is row), None)
        for c in sweep(row, *args):
            if person is not None:
                drawn[person] += 1
            yield c

    monkeypatch.setattr(smq.alpha, "_sweep", counted)
    return drawn


def test_the_solver_reads_each_mans_list_only_as_far_as_he_proposes(monkeypatch):
    n, alpha = 40, 40
    inst = smq.random_instance(n, seed=3, max_score=10 * n)
    drawn = counted_sweeps(monkeypatch, inst.men_scores)
    smq.lex_male_alpha_gs(inst, alpha)
    monkeypatch.undo()
    profile = smq.linearize(smq.alpha_transform(inst, alpha), *smq.popularity_orders(inst))
    trace = smq.step_trace(profile, "men")
    assert drawn == collections.Counter(event.proposer for event in trace)
    assert sum(drawn.values()) == len(trace) < n * n


def test_the_solver_reads_each_womans_list_only_until_her_first_comparison(monkeypatch):
    n, alpha = 40, 40
    inst = smq.random_instance(n, seed=3, max_score=10 * n)
    drawn = counted_sweeps(monkeypatch, inst.women_scores)
    smq.lex_male_alpha_gs(inst, alpha)
    monkeypatch.undo()
    profile = smq.linearize(smq.alpha_transform(inst, alpha), *smq.popularity_orders(inst))
    proposers = collections.defaultdict(list)
    for event in smq.step_trace(profile, "men"):
        proposers[event.proposee].append(event.proposer)
    # she draws up to the first of her first two proposers; once proposed to, none
    expected = collections.Counter({
        w: min(map(profile.women_prefs[w].index, suitors[:2])) + 1
        for w, suitors in proposers.items() if len(suitors) > 1
    })
    assert len(proposers) == n and len(expected) < n
    assert drawn == expected
    assert sum(drawn.values()) < n * n


def test_at_alpha_one_distinct_rows_are_read_as_scores_unranked(monkeypatch):
    inst = smq.random_instance(40, seed=3, max_score=400)
    inst = smq.validate(inst.n, inst.men_scores, inst.women_scores)
    # neither side sweeps: the men's rows too are ranked, not walked
    drawn = counted_sweeps(monkeypatch, inst.men_scores + inst.women_scores)
    marriage = smq.lex_male_alpha_gs(inst, 1)
    assert not drawn and "women" not in inst._kept
    assert marriage == smq.gs(smq.derive_classical(inst), "men")


@pytest.mark.parametrize("alpha", [1, 2, 10, 2500])
def test_lex_solver_meets_its_time_bound_at_500(alpha):
    inst = smq.random_instance(500, seed=1, max_score=5000)
    start = time.perf_counter()
    marriage = smq.lex_male_alpha_gs(inst, alpha)
    assert time.perf_counter() - start < 5.0
    assert sorted(marriage.partner_of_man) == list(range(500))
