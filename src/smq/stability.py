"""Blocking-pair detection for every stability notion, plus dominance and
the lexicographic marriage order used by the popularity-guided solver.

One private scan, :func:`_blocks`, finds the blocking pairs of all four
notions: classical stability is the score-gap test at gap 1, and the two
link notions differ only in how a pair's strength is combined.
:func:`is_stable` stops that scan at the first blocking pair;
:func:`blocking_pairs` runs it to the end and adds a witness to each pair
it reports.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .instances import Marriage, QuantInstance

NOTIONS = ("classical", "alpha", "link-add", "link-max")


@dataclass(frozen=True)
class BlockingPair:
    man: int
    woman: int
    witness: dict[str, int]


@dataclass(frozen=True)
class BlockingReport:
    """Pairs that violate one stability notion for one marriage; empty pairs
    means the marriage is stable under that notion."""

    notion: str
    alpha: int | None
    pairs: tuple[BlockingPair, ...]

    @property
    def stable(self) -> bool:
        return not self.pairs

    def to_json(self) -> dict:
        return {
            "notion": self.notion,
            "alpha": self.alpha,
            "pairs": [
                {"m": p.man, "w": p.woman, "witness": dict(p.witness)} for p in self.pairs
            ],
        }


def _check_notion(notion: str, alpha: int | None) -> None:
    if notion not in NOTIONS:
        raise ValueError(f"unknown stability notion {notion!r}")
    if notion == "alpha":
        if not isinstance(alpha, int) or isinstance(alpha, bool) or alpha < 1:
            raise ValueError("notion 'alpha' needs an integer alpha >= 1")
    elif alpha is not None:
        raise ValueError(f"alpha does not apply to notion {notion!r}")


def _blocks(
    instance: QuantInstance,
    marriage: Marriage,
    notion: str,
    alpha: int | None,
    first_only: bool,
) -> list[tuple[int, int]]:
    """The blocking (man, woman) pairs in ascending order, or only the first.

    Under every notion a pair blocks when its value for the man beats a
    bound fixed by his current pairing and its value for the woman beats a
    bound fixed by hers, so each bound is computed once per person. Partners
    share one pair strength, so under the link notions both bounds come
    from the same list of current strengths, indexed by woman.
    """
    men = instance.men_scores
    women = instance.women_scores
    match = marriage.partner_of_man
    n = instance.n
    found: list[tuple[int, int]] = []

    if notion == "classical" or notion == "alpha":
        # Scores are integers, so "strictly prefers" is a gain of at least 1.
        gap = 1 if notion == "classical" else alpha
        woman_needs = [0] * n
        for m, w in enumerate(match):
            woman_needs[w] = women[w][m] + gap
        for m in range(n):
            row = men[m]
            man_needs = row[match[m]] + gap
            for w in range(n):
                if row[w] >= man_needs and women[w][m] >= woman_needs[w]:
                    if first_only:
                        return [(m, w)]
                    found.append((m, w))
        return found

    current = [0] * n
    if notion == "link-add":
        for m, w in enumerate(match):
            current[w] = men[m][w] + women[w][m]
        for m in range(n):
            row = men[m]
            mine = current[match[m]]
            for w in range(n):
                new = row[w] + women[w][m]
                if new > mine and new > current[w]:
                    if first_only:
                        return [(m, w)]
                    found.append((m, w))
        return found

    for m, w in enumerate(match):
        a, b = men[m][w], women[w][m]
        current[w] = a if a > b else b
    for m in range(n):
        row = men[m]
        mine = current[match[m]]
        for w in range(n):
            a, b = row[w], women[w][m]
            # max(a, b) > bound  <=>  a > bound or b > bound
            if (a > mine or b > mine) and (a > current[w] or b > current[w]):
                if first_only:
                    return [(m, w)]
                found.append((m, w))
    return found


def _witness(
    instance: QuantInstance,
    match: tuple[int, ...],
    inverse: tuple[int, ...],
    notion: str,
    m: int,
    w: int,
) -> dict[str, int]:
    """The numbers that certify one blocking pair."""
    men = instance.men_scores
    women = instance.women_scores
    w_cur = match[m]
    m_cur = inverse[w]
    if notion == "classical" or notion == "alpha":
        witness = {
            "man_score_new": men[m][w],
            "man_score_current": men[m][w_cur],
            "woman_score_new": women[w][m],
            "woman_score_current": women[w][m_cur],
        }
        if notion == "alpha":
            witness["man_gain"] = men[m][w] - men[m][w_cur]
            witness["woman_gain"] = women[w][m] - women[w][m_cur]
        return witness
    link = operator.add if notion == "link-add" else max
    return {
        "link_new": link(men[m][w], women[w][m]),
        "link_man_current": link(men[m][w_cur], women[w_cur][m]),
        "link_woman_current": link(men[m_cur][w], women[w][m_cur]),
    }


def blocking_pairs(
    instance: QuantInstance,
    marriage: Marriage,
    notion: str,
    alpha: int | None = None,
) -> BlockingReport:
    """Scan all man/woman pairs for violations of the chosen notion.

    classical: both strictly prefer each other to their current partners.
    alpha: both prefer each other by a score margin of at least alpha.
    link-add / link-max: the pair's combined strength (sum, resp. max, of
    the two scores) exceeds the strength of both current pairings.

    Witness values record the numbers certifying each violation. Pairs are
    reported in ascending (man, woman) order.
    """
    _check_notion(notion, alpha)
    match = marriage.partner_of_man
    inverse = marriage.inverse()
    return BlockingReport(notion, alpha, tuple(
        BlockingPair(m, w, _witness(instance, match, inverse, notion, m, w))
        for m, w in _blocks(instance, marriage, notion, alpha, False)
    ))


def is_stable(
    instance: QuantInstance,
    marriage: Marriage,
    notion: str,
    alpha: int | None = None,
) -> bool:
    """Early-exit stability check; the same scan as :func:`blocking_pairs`."""
    _check_notion(notion, alpha)
    return not _blocks(instance, marriage, notion, alpha, True)


def dominates(instance: QuantInstance, first: Marriage, second: Marriage) -> bool:
    """True iff every man weakly prefers his partner in `first` over his
    partner in `second` (by his own scores) and at least one strictly does.
    Irreflexive: a marriage never dominates itself.
    """
    strict = False
    for m, row in enumerate(instance.men_scores):
        a = row[first.partner_of_man[m]]
        b = row[second.partner_of_man[m]]
        if a < b:
            return False
        if a > b:
            strict = True
    return strict


def lex_key(marriage: Marriage, men_order, women_order) -> tuple[int, ...]:
    """Sort key for the popularity-lexicographic marriage order: the
    women_order rank of each man's partner, men scanned in men_order.
    Smaller keys are better (rank 0 is the most popular woman)."""
    rank = {w: r for r, w in enumerate(women_order)}
    return tuple(rank[marriage.partner_of_man[m]] for m in men_order)
