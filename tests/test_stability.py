import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smq
from smq.stability import NOTIONS
from conftest import M1, M2, P_B, P_C, instances, instances_with_marriage
from references import reference_blocking_pairs


def test_alpha_two_accepts_the_swapped_marriage():
    assert smq.blocking_pairs(P_B, M2, "alpha", 2).stable


def test_classical_rejects_the_swapped_marriage():
    report = smq.blocking_pairs(P_B, M2, "classical")
    assert [(p.man, p.woman) for p in report.pairs] == [(0, 0)]
    witness = report.pairs[0].witness
    assert witness["man_score_new"] == 3 and witness["man_score_current"] == 2
    assert witness["woman_score_new"] == 8 and witness["woman_score_current"] == 5


def test_link_add_blocking_on_strong_pair():
    report = smq.blocking_pairs(P_C, M2, "link-add")
    assert [(p.man, p.woman) for p in report.pairs] == [(0, 0)]
    witness = report.pairs[0].witness
    assert witness == {"link_new": 35, "link_man_current": 13, "link_woman_current": 10}


def test_alpha_witness_records_gains():
    report = smq.blocking_pairs(P_B, M2, "alpha", 1)
    assert report.pairs[0].witness["man_gain"] == 1
    assert report.pairs[0].witness["woman_gain"] == 3


def test_report_json_shape():
    doc = smq.blocking_pairs(P_B, M2, "alpha", 1).to_json()
    assert doc["notion"] == "alpha" and doc["alpha"] == 1
    assert doc["pairs"][0]["m"] == 0 and doc["pairs"][0]["w"] == 0
    assert "man_gain" in doc["pairs"][0]["witness"]


def test_notion_validation():
    with pytest.raises(ValueError):
        smq.blocking_pairs(P_B, M1, "weak")
    with pytest.raises(ValueError):
        smq.blocking_pairs(P_B, M1, "alpha")  # alpha value missing
    with pytest.raises(ValueError):
        smq.blocking_pairs(P_B, M1, "alpha", 0)
    with pytest.raises(ValueError):
        smq.blocking_pairs(P_B, M1, "classical", 2)  # alpha does not apply


@given(instances_with_marriage())
def test_threshold_one_report_equals_classical(pair):
    inst, marriage = pair
    classical = smq.blocking_pairs(inst, marriage, "classical")
    relaxed = smq.blocking_pairs(inst, marriage, "alpha", 1)
    assert [(p.man, p.woman) for p in classical.pairs] == [
        (p.man, p.woman) for p in relaxed.pairs
    ]


@given(instances_with_marriage(), st.integers(1, 3), st.integers(0, 3))
def test_raising_the_threshold_removes_blocking_pairs(pair, alpha, extra):
    inst, marriage = pair
    low = smq.blocking_pairs(inst, marriage, "alpha", alpha)
    high = smq.blocking_pairs(inst, marriage, "alpha", alpha + extra)
    low_pairs = {(p.man, p.woman) for p in low.pairs}
    high_pairs = {(p.man, p.woman) for p in high.pairs}
    assert high_pairs <= low_pairs


@given(instances_with_marriage(), st.integers(1, 3))
def test_scan_matches_reference(pair, alpha):
    inst, marriage = pair
    for notion in smq.stability.NOTIONS:
        a = alpha if notion == "alpha" else None
        expected = reference_blocking_pairs(inst, marriage, notion, a)
        report = smq.blocking_pairs(inst, marriage, notion, a)
        assert [(p.man, p.woman, p.witness) for p in report.pairs] == expected
        assert smq.is_stable(inst, marriage, notion, a) == (not expected)


def test_dominance_on_gap_two_fixture():
    # each man prefers a different one of the two stable marriages
    assert not smq.dominates(P_B, M1, M2)
    assert not smq.dominates(P_B, M2, M1)
    assert not smq.dominates(P_B, M1, M1)


@given(instances(min_n=2), st.data())
def test_dominance_is_irreflexive_and_antisymmetric(inst, data):
    perm = st.permutations(tuple(range(inst.n)))
    a = smq.Marriage(tuple(data.draw(perm)))
    b = smq.Marriage(tuple(data.draw(perm)))
    assert not smq.dominates(inst, a, a)
    assert not (smq.dominates(inst, a, b) and smq.dominates(inst, b, a))


def test_lex_key_on_gap_two_fixture():
    assert smq.lex_key(M1, (0, 1), (0, 1)) < smq.lex_key(M2, (0, 1), (0, 1))
    assert smq.lex_key(M1, (0, 1), (1, 0)) > smq.lex_key(M2, (0, 1), (1, 0))


@given(st.integers(2, 5), st.data())
@settings(max_examples=60)
def test_lex_key_order_is_total_and_transitive(n, data):
    perm = st.permutations(tuple(range(n)))
    men_order = tuple(data.draw(perm))
    women_order = tuple(data.draw(perm))
    marriages = [smq.Marriage(tuple(data.draw(perm))) for _ in range(3)]
    keys = [smq.lex_key(m, men_order, women_order) for m in marriages]

    for x, kx in zip(marriages, keys):
        for y, ky in zip(marriages, keys):
            assert (kx == ky) == (x == y)
            if x != y:
                assert (kx < ky) != (ky < kx)
    a, b, c = keys
    if a < b and b < c:
        assert a < c


@pytest.mark.parametrize("size", [2, 4])
def test_a_marriage_of_another_size_is_refused(size):
    inst = smq.random_instance(3, seed=1)
    misfit = smq.Marriage(tuple(range(size)))
    fits = smq.Marriage((0, 1, 2))
    calls = [
        lambda: smq.is_stable(inst, misfit, "classical"),
        lambda: smq.is_stable(inst, misfit, "link-add"),
        lambda: smq.blocking_pairs(inst, misfit, "alpha", 2),
        lambda: smq.blocking_pairs(inst, misfit, "link-max"),
        lambda: smq.marriage_link(inst, misfit, "add"),
        lambda: smq.marriage_link(inst, misfit, "max"),
        lambda: smq.dominates(inst, misfit, fits),
        lambda: smq.dominates(inst, fits, misfit),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"size {size} .* size 3"):
            call()


@pytest.mark.parametrize("match", [(0, 0, 0), (0, 0, 1), (0, 1, -1), (0, 1, 5),
                                   (0, 1, 2.0), (True, 0, 2)])
def test_a_marriage_that_is_not_a_permutation_is_refused(match):
    # refused when built, so no audit, dominance test or link total reads it
    with pytest.raises(ValueError, match=r"is not a permutation of 0\.\.2$"):
        smq.Marriage(match)
