"""Stable marriage solvers for two-sided markets with integer scores.

Three stability families are supported on the same instance type:

* classical stability on the score-induced strict orders,
* gap-threshold stability, where a pair only blocks when both sides gain
  at least ``alpha`` points by defecting, and
* link stability, where pairs are judged by their combined strength
  (sum or max of the two scores).

Solvers reduce everything to deferred acceptance, on the scores or pair
strengths themselves or on a strict profile; the
:mod:`smq.oracle` module certifies them by exhaustive enumeration at small
sizes.
"""

from .alpha import (
    SemiorderProfile,
    alpha_transform,
    lex_male_alpha_gs,
    linearize,
    popularity_orders,
    score_sum_rule,
    score_totals,
)
from .gale_shapley import Proposal, gs, step_trace
from .instances import (
    DuplicateScoreError,
    InvalidInstanceError,
    Marriage,
    NegativeScoreError,
    NonSquareError,
    QuantInstance,
    ScoredProfile,
    StrictProfile,
    WeakProfile,
    ZeroSizeError,
    derive_classical,
    man_name,
    parse_instance,
    random_instance,
    serialize_instance,
    serialize_marriage,
    validate,
    woman_name,
)
from .link import (
    has_ties,
    link_stable_gs,
    link_transform,
    link_value,
    marriage_link,
)
from .oracle import (
    SizeBoundError,
    StableSet,
    enumerate_stable,
    feasible_partners,
    highest_link,
    lex_optimum,
    undominated,
    weakly_stable_set,
)
from .stability import (
    BlockingPair,
    BlockingReport,
    blocking_pairs,
    dominates,
    is_stable,
    lex_key,
)

__all__ = [
    "BlockingPair",
    "BlockingReport",
    "DuplicateScoreError",
    "InvalidInstanceError",
    "Marriage",
    "NegativeScoreError",
    "NonSquareError",
    "Proposal",
    "QuantInstance",
    "ScoredProfile",
    "SemiorderProfile",
    "SizeBoundError",
    "StableSet",
    "StrictProfile",
    "WeakProfile",
    "ZeroSizeError",
    "alpha_transform",
    "blocking_pairs",
    "derive_classical",
    "dominates",
    "enumerate_stable",
    "feasible_partners",
    "gs",
    "has_ties",
    "highest_link",
    "is_stable",
    "lex_key",
    "lex_male_alpha_gs",
    "lex_optimum",
    "linearize",
    "link_stable_gs",
    "link_transform",
    "link_value",
    "man_name",
    "marriage_link",
    "parse_instance",
    "popularity_orders",
    "random_instance",
    "score_sum_rule",
    "score_totals",
    "serialize_instance",
    "serialize_marriage",
    "step_trace",
    "undominated",
    "validate",
    "weakly_stable_set",
    "woman_name",
]
