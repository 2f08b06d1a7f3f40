"""Score-gap stability machinery.

Raising the blocking threshold relaxes stability: a pair only blocks a
marriage when both sides gain at least ``alpha`` score points by defecting.
Pairs of candidates whose scores differ by less than alpha become
incomparable, which turns each preference list into a semiorder. Solvers
work on a strict linearization of that semiorder, guided by popularity
orders produced by a voting rule.
"""

from __future__ import annotations

import heapq

from .gale_shapley import gs
from .instances import Marriage, QuantInstance, StrictProfile, _rank_rows, _Record
from .stability import _check_notion, _table

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
        row = self._row(side, person)
        return row[a] - row[b] >= self.alpha

    def incomparable_pairs(self, side: str, person: int) -> list[tuple[int, int]]:
        """All unordered incomparable candidate pairs (a < b) on one list."""
        row = self._row(side, person)
        n = len(row)
        return [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if abs(row[a] - row[b]) < self.alpha
        ]


def alpha_transform(instance: QuantInstance, alpha: int) -> SemiorderProfile:
    """View an instance at gap threshold alpha. At alpha=1 every distinct
    pair stays comparable, so the relation matches the classical profile;
    :class:`SemiorderProfile` refuses an alpha that is not an integer >= 1."""
    return SemiorderProfile(instance, alpha)


def score_totals(ballots) -> list[int]:
    """Total score each candidate receives, summed over all voters
    (column sums of the ballot matrix, one per candidate). Raises
    ValueError unless every ballot has the same length."""
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


def _check_orders(n: int, *orders: TotalOrder) -> None:
    """Raise ValueError unless each popularity order permutes 0..n-1."""
    for order in orders:
        if sorted(order) != list(range(n)):
            raise ValueError(f"order {list(order)} is not a permutation of 0..{n - 1}")


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

    The greedy runs as one sweep per list in descending score. With M the
    highest remaining score, candidate c is unbeaten exactly when
    score(c) > M - alpha, so candidates join a heap keyed by guide rank as
    soon as they clear that floor, and each step pops the heap's best. The
    floor never rises, so a candidate in the heap stays unbeaten until it is
    popped. Cost: O(n log n) per list, O(n^2 log n) for the profile.

    Raises ValueError unless both orders permute 0..n-1.
    """
    _check_orders(semiorder.n, men_order, women_order)
    men_rank = {m: r for r, m in enumerate(men_order)}
    women_rank = {w: r for r, w in enumerate(women_order)}
    scores, alpha = _table(semiorder.instance, "alpha", semiorder.alpha)
    men_prefs = tuple(_sweep(row, by_score, alpha, women_rank)
                      for row, by_score in zip(scores.men_scores, scores._ranking("men")))
    women_prefs = tuple(_sweep(row, by_score, alpha, men_rank)
                        for row, by_score in zip(scores.women_scores, scores._ranking("women")))
    return StrictProfile(men_prefs, women_prefs)


def _sweep(row: tuple[int, ...], by_score: tuple[int, ...], alpha: int,
           guide_rank: dict[int, int]) -> tuple[int, ...]:
    emitted = [False] * len(row)
    heap: list[tuple[int, int]] = []
    top = entered = 0  # by_score[top] scores M; by_score[entered:] are not in the heap
    out = []
    for _ in by_score:
        while emitted[by_score[top]]:
            top += 1
        floor = row[by_score[top]] - alpha
        while entered < len(row) and row[by_score[entered]] > floor:
            c = by_score[entered]
            heapq.heappush(heap, (guide_rank[c], c))
            entered += 1
        c = heapq.heappop(heap)[1]
        emitted[c] = True
        out.append(c)
    return tuple(out)


def lex_male_alpha_gs(
    instance: QuantInstance, alpha: int, rule=score_sum_rule
) -> Marriage:
    """Popularity-guided solver for gap-threshold stability.

    Computes both popularity orders with the voting rule, linearizes the
    alpha semiorder along them, and runs deferred acceptance with men
    proposing. The output is always alpha-stable, because any marriage with
    no blocking pair in a linearization has none in the semiorder either.
    """
    semiorder = alpha_transform(instance, alpha)
    men_order, women_order = popularity_orders(instance, rule)
    return gs(linearize(semiorder, men_order, women_order), "men")
