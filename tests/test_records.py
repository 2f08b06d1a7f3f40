"""The record contract: every record type compares by class and fields,
hashes its field tuple, prints in the `Name(field=value, ...)` format,
pickles, and refuses to be changed."""

import pickle

import pytest

import smq
from conftest import P_A, P_B

STABLE_SET_FIELDS = ("notion", "alpha", "matches", "undominated", "link_add", "link_max")

# Each record with its field names and its repr, as the frozen dataclasses
# the records replace printed it.
RECORDS = [
    (P_B, ("n", "men_scores", "women_scores"),
     "QuantInstance(n=2, men_scores=((3, 2), (4, 2)), women_scores=((8, 5), (3, 1)))"),
    (smq.derive_classical(P_B), ("men_prefs", "women_prefs"),
     "StrictProfile(men_prefs=((0, 1), (0, 1)), women_prefs=((0, 1), (0, 1)))"),
    (smq.ScoredProfile(P_B.men_scores, P_B.women_scores), ("men_scores", "women_scores"),
     "ScoredProfile(men_scores=((3, 2), (4, 2)), women_scores=((8, 5), (3, 1)))"),
    (smq.Marriage((1, 0)), ("partner_of_man",), "Marriage(partner_of_man=(1, 0))"),
    (smq.WeakProfile((((1, 7), (0, 5)), ((0, 4), (1, 4))), (((0, 3), (1, 3)), ((1, 6), (0, 2)))),
     ("men_values", "women_values"),
     "WeakProfile(men_values=(((1, 7), (0, 5)), ((0, 4), (1, 4))), "
     "women_values=(((0, 3), (1, 3)), ((1, 6), (0, 2))))"),
    (smq.step_trace(smq.derive_classical(P_A))[-1],
     ("proposer", "proposee", "outcome", "displaced"),
     "Proposal(proposer=0, proposee=1, outcome='engaged', displaced=None)"),
    (smq.Proposal(1, 0, "displaced", 0), ("proposer", "proposee", "outcome", "displaced"),
     "Proposal(proposer=1, proposee=0, outcome='displaced', displaced=0)"),
    (smq.blocking_pairs(P_A, smq.Marriage((0, 1)), "alpha", 1).pairs[0],
     ("man", "woman", "witness"),
     "BlockingPair(man=1, woman=0, witness={'man_score_new': 3, 'man_score_current': 2, "
     "'woman_score_new': 2, 'woman_score_current': 1, 'man_gain': 1, 'woman_gain': 1})"),
    (smq.blocking_pairs(P_A, smq.Marriage((0, 1)), "alpha", 1), ("notion", "alpha", "pairs"),
     "BlockingReport(notion='alpha', alpha=1, pairs=(BlockingPair(man=1, woman=0, "
     "witness={'man_score_new': 3, 'man_score_current': 2, 'woman_score_new': 2, "
     "'woman_score_current': 1, 'man_gain': 1, 'woman_gain': 1}),))"),
    (smq.alpha_transform(P_B, 2), ("instance", "alpha"),
     "SemiorderProfile(instance=QuantInstance(n=2, men_scores=((3, 2), (4, 2)), "
     "women_scores=((8, 5), (3, 1))), alpha=2)"),
    # `smq gen --n 3 --seed 2 --max-score 6`, whose classical set has a dominated member
    (smq.enumerate_stable(smq.random_instance(3, seed=2, max_score=6), "classical"),
     STABLE_SET_FIELDS,
     "StableSet(notion='classical', alpha=None, matches=((1, 2, 0), (2, 1, 0)), "
     "undominated=(True, False), link_add=(25, 23), link_max=(6, 6))"),
    (smq.enumerate_stable(P_B, "alpha", 2), STABLE_SET_FIELDS,
     "StableSet(notion='alpha', alpha=2, matches=((0, 1), (1, 0)), undominated=(True, True), "
     "link_add=(14, 14), link_max=(8, 5))"),
]
IDS = [f"{type(record).__name__}-{i}" for i, (record, _, _) in enumerate(RECORDS)]


def test_every_public_record_type_is_covered():
    covered = {type(record) for record, _, _ in RECORDS}
    records = {value for value in vars(smq).values()
               if isinstance(value, type) and issubclass(value, smq.instances._Record)}
    assert records == covered and len(covered) == 10


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_a_record_prints_hashes_and_rebuilds_from_its_fields(record, fields, text):
    assert repr(record) == text
    values = tuple(getattr(record, name) for name in fields)
    cls = type(record)
    assert cls(*values) == record
    assert cls(**dict(zip(fields, values))) == record
    try:
        expected = hash(values)
    except TypeError:  # a witness dict is unhashable, and so is its record
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_a_record_refuses_to_change(record, fields, text):
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record, fields, text", RECORDS, ids=IDS)
def test_a_record_survives_a_pickle_round_trip(record, fields, text):
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record) and clone == record and repr(clone) == text


def test_records_compare_by_class_and_fields():
    a, b = P_B.men_scores, P_B.women_scores
    lists = ((0, 1), (1, 0))
    assert smq.StrictProfile(lists, lists) != smq.ScoredProfile(lists, lists)
    assert smq.QuantInstance(2, a, b) != smq.ScoredProfile(a, b)
    assert smq.Marriage((0, 1)) != ((0, 1),) and smq.Marriage((0, 1)) != smq.Marriage((1, 0))
    assert smq.Proposal(0, 1, "engaged") == smq.Proposal(0, 1, "engaged", None)
    # a caller may pickle the marriages a stable set returns
    marriages = smq.enumerate_stable(P_B, "alpha", 2).marriages()
    assert pickle.loads(pickle.dumps(marriages)) == marriages


def test_a_records_slots_are_its_fields_and_the_named_memos():
    # ==, hash, repr and pickling read the fields alone, so a slot outside
    # them may only be a memo they ignore: the kept results or the source
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)
    for cls in subclasses(smq.instances._Record):
        slots = {name for klass in cls.__mro__ for name in getattr(klass, "__slots__", ())}
        assert set(cls._fields) <= slots and slots - set(cls._fields) <= {"_kept", "_source"}, cls


def test_kept_results_stay_out_of_the_record():
    inst = smq.QuantInstance(P_B.n, P_B.men_scores, P_B.women_scores)
    empty = smq.QuantInstance(P_B.n, P_B.men_scores, P_B.women_scores)._kept
    smq.enumerate_stable(inst, "link-add")
    smq.gs(smq.derive_classical(inst), "women")
    assert inst._kept != empty
    assert inst == P_B and hash(inst) == hash(P_B) and repr(inst) == repr(P_B)
    clone = pickle.loads(pickle.dumps(inst))
    assert clone._kept == empty == {}


def test_the_memo_holds_exactly_the_three_readers_keys():
    inst = smq.random_instance(4, seed=2, max_score=5)
    smq.derive_classical(inst)
    for mode in smq.link.MODES:
        smq.link_transform(inst, mode)
    for notion in smq.stability.NOTIONS:
        smq.enumerate_stable(inst, notion, 2 if notion == "alpha" else None)
    # the rankings, the pair-strength profiles and the searches
    key_sets = ({"men", "women"}, set(smq.link.MODES), set(smq.stability.NOTIONS))
    assert set(inst._kept) == set().union(*key_sets)
    assert len(inst._kept) == sum(map(len, key_sets))


def test_kept_rankings_stay_out_of_the_profiles():
    # a ScoredProfile keeps its rankings, and derive_classical's lists keep
    # the scores they rank; neither shows in ==, hash, repr or a pickle
    scored = smq.ScoredProfile(P_B.men_scores, P_B.women_scores)
    ranked = smq.derive_classical(smq.QuantInstance(P_B.n, P_B.men_scores, P_B.women_scores))
    plain = smq.StrictProfile(ranked.men_prefs, ranked.women_prefs)
    for side in ("men", "women"):
        smq.gs(scored, side)
        smq.gs(ranked, side)
    assert scored._kept and ranked._source is not None and ranked._source._kept
    for profile, twin in ((scored, smq.ScoredProfile(P_B.men_scores, P_B.women_scores)),
                          (ranked, plain)):
        assert profile == twin and hash(profile) == hash(twin) and repr(profile) == repr(twin)
        clone = pickle.loads(pickle.dumps(profile))
        assert clone == twin and len(pickle.dumps(profile)) == len(pickle.dumps(twin))
    assert pickle.loads(pickle.dumps(scored))._kept == {}
    assert pickle.loads(pickle.dumps(ranked))._source is None
