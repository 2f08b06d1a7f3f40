"""Score-gap stability machinery.

Raising the blocking threshold relaxes stability: a pair only blocks a
marriage when both sides gain at least ``alpha`` score points by defecting.
Pairs of candidates whose scores differ by less than alpha become
incomparable, which turns each preference list into a semiorder. Solvers
work on a strict linearization of that semiorder, guided by popularity
orders produced by a voting rule.
"""

from __future__ import annotations

from collections.abc import Iterator

from .gale_shapley import _solve, gs
from .instances import (Marriage, QuantInstance, StrictProfile, _check_choice, _check_indices,
                        _check_permutes, _rank_rows, _Record, _trusted, derive_classical)
from .stability import _check_notion

TotalOrder = tuple[int, ...]
# A voting rule turns a ballot matrix (ballots[v][c] = voter v's score for
# candidate c) into a strict total order over the candidates, best first.


class SemiorderProfile(_Record):
    """Per-person preference relations at a given gap threshold: x strictly
    prefers a over b iff score(x,a) - score(x,b) >= alpha; smaller gaps make
    the pair incomparable.

    The strict part is irreflexive, asymmetric, and transitive (two stacked
    gaps of alpha span at least alpha), so every list is a semiorder for an
    integer alpha >= 1; building the profile raises ValueError for any other.
    """

    __slots__ = _fields = ("instance", "alpha")

    def __init__(self, instance: QuantInstance, alpha: int):
        _check_notion("alpha", alpha)
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "alpha", alpha)

    @property
    def n(self) -> int:
        return self.instance.n

    def _row(self, side: str, person: int) -> tuple[int, ...]:
        scores = self.instance.men_scores if side == "men" else self.instance.women_scores
        return scores[person]

    def strictly_prefers(self, side: str, person: int, a: int, b: int) -> bool:
        _check_choice("side", side, ("men", "women"))
        _check_indices(self.n, person=person, a=a, b=b)
        return self._prefers(side, person, a, b)

    def _prefers(self, side: str, person: int, a: int, b: int) -> bool:
        """:meth:`strictly_prefers` unchecked, for callers that pass indices
        by construction: the weak-stability filter and `smq transform`."""
        row = self._row(side, person)
        return row[a] - row[b] >= self.alpha

    def incomparable_pairs(self, side: str, person: int) -> list[tuple[int, int]]:
        """All unordered incomparable candidate pairs (a < b) on one list."""
        _check_choice("side", side, ("men", "women"))
        _check_indices(self.n, person=person)
        row, n = self._row(side, person), self.n
        return [(a, b) for a in range(n) for b in range(a + 1, n)
                if abs(row[a] - row[b]) < self.alpha]


def alpha_transform(instance: QuantInstance, alpha: int) -> SemiorderProfile:
    """View an instance at gap threshold alpha. At alpha=1 every distinct
    pair stays comparable, so the relation matches the classical profile;
    :class:`SemiorderProfile` refuses an alpha that is not an integer >= 1."""
    return SemiorderProfile(instance, alpha)


def score_totals(ballots) -> list[int]:
    """Total score each candidate receives, summed over all voters (column
    sums of the ballots, any iterable of them, read once). Raises
    ValueError unless every ballot has the same length."""
    ballots = tuple(ballots)
    lengths = set(map(len, ballots))
    if len(lengths) > 1:
        raise ValueError(f"ballots differ in length: {sorted(lengths)}")
    return [sum(column) for column in zip(*ballots)]


def score_sum_rule(ballots) -> TotalOrder:
    """Rank candidates by descending total received score; equal totals are
    broken by ascending candidate index."""
    return _rank_rows((score_totals(ballots),))[0]


def popularity_orders(instance: QuantInstance, rule=score_sum_rule):
    """(men_order, women_order): each side ranked by applying the voting
    rule to the scores the *other* side hands out."""
    return rule(instance.women_scores), rule(instance.men_scores)


def linearize(
    semiorder: SemiorderProfile, men_order: TotalOrder, women_order: TotalOrder
) -> StrictProfile:
    """Extend every semiorder list to a strict total order, resolving
    incomparability by popularity.

    Greedy rule, per list: among the remaining candidates that no other
    remaining candidate strictly beats, emit the one the guide order ranks
    best (women_order guides men's lists, men_order guides women's). The
    result is always a linear extension, and it is the guide-lexicographically
    best one; lists that are already total come out unchanged.

    The greedy walks each list in phases, in descending score. With `top`
    the best-scored candidate not yet emitted, candidate c is unbeaten
    exactly when score(c) > score(top) - alpha. That floor, and with it the
    window of unbeaten candidates, stays put until `top` is emitted, so one
    phase emits every window member the guide ranks above `top`, best first,
    and then `top`. The window is an int with bit r set for its member of
    guide rank r: the members ranked above `top` are its bits below top's,
    and they leave lowest bit first. Cost per list: O(n) operations on ints
    of up to n bits (each candidate enters the window, is passed over by
    `top` and leaves it once, plus a constant per phase), so O(n^2 / w) for
    w-bit machine words and O(n^3 / w) for the profile. At alpha 1 with no
    repeated score in any row, the profile is :func:`derive_classical`'s.
    Each sweep emits every candidate once, so the profile skips
    :class:`StrictProfile`'s check.

    Raises ValueError unless both orders permute 0..n-1.
    """
    _check_permutes(semiorder.n, men_order, women_order)
    instance, alpha = semiorder.instance, semiorder.alpha
    if _total(instance, alpha):
        return derive_classical(instance)
    men = tuple(map(tuple, _extensions(instance, "men", alpha, women_order)))
    women = tuple(map(tuple, _extensions(instance, "women", alpha, men_order)))
    return _trusted(StrictProfile)(men, women, None)


def _total(instance: QuantInstance, alpha: int) -> bool:
    """alpha is 1 and no row repeats a score, so every list is its score ranking."""
    rows = (*instance.men_scores, *instance.women_scores)
    return alpha == 1 and set(map(len, map(set, rows))) == {instance.n}


def _extensions(instance: QuantInstance, side: str, alpha: int, guide: TotalOrder) -> list:
    """Each person's extension, guided by the other side's order, as a lazy
    :func:`_sweep` over the person's row and its kept ranking."""
    rows = instance.men_scores if side == "men" else instance.women_scores
    bit = _bits(guide)
    return [_sweep(row, by_score, alpha, bit, guide)
            for row, by_score in zip(rows, instance._ranking(side))]


def _bits(order: TotalOrder) -> list[int]:
    """bit[c] = 1 << (c's rank in the order)."""
    bit = [0] * len(order)
    for r, c in enumerate(order):
        bit[c] = 1 << r
    return bit


def _sweep(row: tuple[int, ...], by_score: tuple[int, ...], alpha: int,
           bit: list[int], guide: TotalOrder) -> Iterator[int]:
    """Yield one list's greedy extension, guided by `guide` and its `_bits`,
    one candidate per draw: a reader that stops early never walks the rest."""
    n = len(row)
    window = top = entered = 0  # by_score[entered:] have not entered the window
    while top < n:
        c = by_score[top]
        floor = row[c] - alpha
        while entered < n and row[by_score[entered]] > floor:
            window |= bit[by_score[entered]]
            entered += 1
        b = bit[c]
        if window == b:  # top alone: once it is out, the next top is the next to enter
            window = 0
            yield c
            top = entered
            continue
        ahead = window & (b - 1)
        window ^= ahead | b
        while ahead:
            low = ahead & -ahead
            yield guide[low.bit_length() - 1]
            ahead ^= low
        yield c
        top += 1
        while top < entered and not window & bit[by_score[top]]:
            top += 1


def lex_male_alpha_gs(
    instance: QuantInstance, alpha: int, rule=score_sum_rule
) -> Marriage:
    """Popularity-guided solver for gap-threshold stability: men-proposing
    deferred acceptance on the strict profile :func:`linearize` gives along
    the voting rule's popularity orders, so that profile's men-optimal
    stable marriage. It is always alpha-stable, because any marriage with
    no blocking pair in a linearization has none in the semiorder either.

    At alpha 1 on an instance whose every row has distinct scores, that
    profile is the classical one, so this is ``gs(instance, "men")``.
    Otherwise the profile is never built whole: each man's list is a lazy
    :func:`_sweep` read only as far as he proposes, and each woman's only at
    her first comparison, as far as the first of those two proposers.
    """
    _check_notion("alpha", alpha)
    men_order, women_order = popularity_orders(instance, rule)
    _check_permutes(instance.n, men_order, women_order)
    if _total(instance, alpha):
        return gs(instance, "men")
    return _solve(_extensions(instance, "men", alpha, women_order),
                  _extensions(instance, "women", alpha, men_order), "men")
