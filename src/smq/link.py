"""Pair-strength ("link") transforms and solvers.

Instead of judging each side separately, a pair can be judged by how much
the two people want each other: the sum of their two scores, or the
maximum. Replacing every score with the pair's strength yields a profile
with ties (both members of a pair see the same value), and stability with
respect to those values is solved by running deferred acceptance on the
values themselves, equal values going to the lower index.
"""

from __future__ import annotations

import operator

from .gale_shapley import gs
from .instances import (Marriage, QuantInstance, ScoredProfile, WeakProfile, _check_choice,
                        _check_indices, _partners, _trusted)

MODES = ("add", "max")


def link_value(instance: QuantInstance, man: int, woman: int, mode: str) -> int:
    """Strength of one pair, as :func:`_strengths` keeps it: sum for 'add',
    max for 'max'. Raises ValueError unless both indices are ints in 0..n-1."""
    _check_indices(instance.n, man=man, woman=woman)
    _check_choice("mode", mode, MODES)
    a, b = instance.men_scores[man][woman], instance.women_scores[woman][man]
    return a + b if mode == "add" else max(a, b)


def marriage_link(instance: QuantInstance, marriage: Marriage, mode: str) -> int:
    """Aggregate strength of a marriage: sum of pair strengths for 'add',
    maximum pair strength for 'max'. Raises ValueError unless the marriage
    has the instance's size; :class:`Marriage` checks the rest."""
    return _totals(instance, [_partners(instance, marriage)], mode)[0]


def _totals(instance: QuantInstance, matches, mode: str) -> tuple[int, ...]:
    """The aggregate strength of each match, read from the strength rows
    that :func:`_strengths` keeps for the mode: their sum for 'add', their
    maximum for 'max'."""
    values = _strengths(instance, mode).men_scores
    aggregate = sum if mode == "add" else max
    return tuple([aggregate(map(list.__getitem__, values, match)) for match in matches])


def link_transform(instance: QuantInstance, mode: str) -> WeakProfile:
    """Replace every score with the pair's strength and re-derive rankings.

    Both members of a pair carry the identical value, so ties are common;
    rows are sorted by descending value, ascending candidate index. Each row
    lists its kept ranking, so the profile skips :class:`WeakProfile`'s check.
    """
    profile = _strengths(instance, mode)
    ranked = lambda rows, side: tuple(tuple((c, row[c]) for c in order)
                                      for row, order in zip(rows, profile._ranking(side)))
    return _trusted(WeakProfile)(ranked(profile.men_scores, "men"),
                                 ranked(profile.women_scores, "women"))


def _strengths(instance: QuantInstance, mode: str) -> ScoredProfile:
    """The pair strengths as a :class:`ScoredProfile` of (values,
    transpose). Built once per instance and mode and kept on the instance
    with its rankings; every reader shares it, so none may mutate it."""
    _check_choice("mode", mode, MODES)
    kept = instance._kept
    if mode not in kept:
        # zip(*women_scores) yields the women's columns, one per man
        rows = zip(instance.men_scores, zip(*instance.women_scores))
        if mode == "add":
            values = [list(map(operator.add, men_row, women_column))
                      for men_row, women_column in rows]
        else:
            # the builtin max() per pair costs more than the comparison itself
            values = [[a if a > b else b for a, b in zip(men_row, women_column)]
                      for men_row, women_column in rows]
        kept[mode] = ScoredProfile(values, list(zip(*values)))
    return kept[mode]


def has_ties(profile: WeakProfile) -> bool:
    """True if any list holds two candidates at the same value. Uniqueness
    claims about highest-strength marriages are conditioned on this."""
    return any(a == b for row in (*profile.men_values, *profile.women_values)
               for (_, a), (_, b) in zip(row, row[1:]))


def link_stable_gs(instance: QuantInstance, mode: str) -> Marriage:
    """Solve for a link-stable marriage: run deferred acceptance with men
    proposing on the pair strengths, as a :class:`ScoredProfile`.

    Every person prefers higher pair strength, equal strengths by ascending
    candidate index: the order in which :func:`link_transform` lists each
    row. Only the men's rows are ranked, once per instance and mode; the
    women compare strengths as they stand.

    The output is always link-stable for the chosen mode. When the
    transformed profile has no ties it is additionally the unique link-stable
    marriage with the highest aggregate strength.
    """
    return gs(_strengths(instance, mode), "men")
