"""Blocking-pair detection for every stability notion, plus dominance and
the lexicographic marriage order used by the popularity-guided solver.

One table, :func:`_table`, states the blocking rule of all four notions:
classical stability is the score-gap test at gap 1, and the two link
notions are the same test at gap 1 on the pair-strength table that
:mod:`smq.link` keeps on the instance. One private scan, :func:`_blocks`,
runs that test for every notion, walking each man's kept ranking only as
far as the women he prefers to his partner (so a lone audit of a fresh
instance pays for one ranking): :func:`is_stable` stops it at the first
blocking pair; :func:`blocking_pairs` runs it to the end, sorts what it
found, and reads a witness for each pair it reports from the table.
"""

from __future__ import annotations

from . import link
from .instances import Marriage, QuantInstance, ScoredProfile, _check_permutes, _partners, _Record

NOTIONS = ("classical", "alpha", "link-add", "link-max")


class BlockingPair(_Record):
    """One pair that blocks a marriage, with the values that witness it.
    Built by :func:`blocking_pairs`, so the constructor checks nothing."""

    __slots__ = _fields = ("man", "woman", "witness")

    def __init__(self, man: int, woman: int, witness: dict[str, int]):
        object.__setattr__(self, "man", man)
        object.__setattr__(self, "woman", woman)
        object.__setattr__(self, "witness", witness)


class BlockingReport(_Record):
    """Pairs that violate one stability notion for one marriage; empty pairs
    means the marriage is stable under that notion. Built by
    :func:`blocking_pairs`, so the constructor checks nothing."""

    __slots__ = _fields = ("notion", "alpha", "pairs")

    def __init__(self, notion: str, alpha: int | None, pairs: tuple[BlockingPair, ...]):
        object.__setattr__(self, "notion", notion)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "pairs", pairs)

    @property
    def stable(self) -> bool:
        return not self.pairs

    def to_json(self) -> dict:
        return {"notion": self.notion, "alpha": self.alpha, "pairs": [
            {"m": p.man, "w": p.woman, "witness": dict(p.witness)} for p in self.pairs]}


def _check_notion(notion: str, alpha: int | None) -> None:
    if notion not in NOTIONS:
        raise ValueError(f"unknown stability notion {notion!r}")
    if notion == "alpha":
        if not isinstance(alpha, int) or isinstance(alpha, bool) or alpha < 1:
            raise ValueError("notion 'alpha' needs an integer alpha >= 1")
    elif alpha is not None:
        raise ValueError(f"alpha does not apply to notion {notion!r}")


def _table(instance: QuantInstance, notion: str, alpha: int | None) -> tuple[ScoredProfile, int]:
    """(profile, g) such that, under the notion, (m, w) blocks a marriage
    exactly when U[m][w] >= U[m][w'] + g and W[w][m] >= W[w][m'] + g, where
    (U, W) are the profile's rows, w' is m's partner and m' is w's. U is
    indexed by man and W by woman: the instance itself for the gap notions,
    with g = 1 (scores are integers, so a strict preference is a gain of at
    least 1) or alpha; the kept strength table and its transpose for the
    link notions, with g = 1."""
    if notion == "classical" or notion == "alpha":
        return instance, 1 if notion == "classical" else alpha
    return link._strengths(instance, notion.removeprefix("link-")), 1


def _audit(instance: QuantInstance, marriage: Marriage, notion: str, alpha: int | None):
    """(profile, g, match) for both audits, after their checks: a ValueError
    unless alpha fits the notion and the marriage has the instance's size."""
    _check_notion(notion, alpha)
    match = _partners(instance, marriage)
    return *_table(instance, notion, alpha), match


def _blocks(profile: ScoredProfile, g: int, match: tuple[int, ...],
            first_only: bool) -> list[tuple[int, int]]:
    """The pairs (m, w) that block the marriage `match` under the table
    (profile, g) of :func:`_table`, in ascending order, or just one of them.

    A pair blocks when its value for the man reaches a bound fixed by his
    current pairing and its value for the woman reaches a bound fixed by
    hers, so each bound is computed once per person. Each man's row is
    walked best first along his kept ranking, up to the first woman below
    his bound: of a stable man's row, only the women he would rather have.
    """
    U, W = profile.men_scores, profile.women_scores
    found: list[tuple[int, int]] = []
    woman_needs = [0] * len(U)
    for m, w in enumerate(match):
        woman_needs[w] = W[w][m] + g
    for m, (row, ranked) in enumerate(zip(U, profile._ranking("men"))):
        man_needs = row[match[m]] + g
        for w in ranked:
            if row[w] < man_needs:
                break
            if W[w][m] >= woman_needs[w]:
                if first_only:
                    return [(m, w)]
                found.append((m, w))
    found.sort()
    return found


def _witness(U, W, notion: str, m: int, w: int, w_cur: int, m_cur: int) -> dict[str, int]:
    """The numbers that certify that (m, w) blocks, read from the rows of
    :func:`_table`; w_cur is m's partner and m_cur is w's."""
    if notion.startswith("link-"):
        return {"link_new": U[m][w], "link_man_current": U[m][w_cur],
                "link_woman_current": W[w][m_cur]}
    witness = {"man_score_new": U[m][w], "man_score_current": U[m][w_cur],
               "woman_score_new": W[w][m], "woman_score_current": W[w][m_cur]}
    if notion == "alpha":
        witness["man_gain"] = U[m][w] - U[m][w_cur]
        witness["woman_gain"] = W[w][m] - W[w][m_cur]
    return witness


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
    reported in ascending (man, woman) order. A ValueError is raised unless
    the marriage has the instance's size; :class:`Marriage` checks the rest.
    """
    profile, g, match = _audit(instance, marriage, notion, alpha)
    U, W = profile.men_scores, profile.women_scores
    inverse = marriage.inverse()
    return BlockingReport(notion, alpha, tuple(
        BlockingPair(m, w, _witness(U, W, notion, m, w, match[m], inverse[w]))
        for m, w in _blocks(profile, g, match, False)
    ))


def is_stable(
    instance: QuantInstance,
    marriage: Marriage,
    notion: str,
    alpha: int | None = None,
) -> bool:
    """Early-exit stability check; the same scan and checks as
    :func:`blocking_pairs`: a ValueError unless the marriage has the
    instance's size."""
    return not _blocks(*_audit(instance, marriage, notion, alpha), True)


def dominates(instance: QuantInstance, first: Marriage, second: Marriage) -> bool:
    """True iff every man weakly prefers his partner in `first` over his
    partner in `second` (by his own scores) and at least one strictly does.
    Irreflexive: a marriage never dominates itself. Raises ValueError
    unless both have the instance's size; :class:`Marriage` checks the rest.
    """
    first_match, second_match = _partners(instance, first), _partners(instance, second)
    strict = False
    for row, a, b in zip(instance.men_scores, first_match, second_match):
        if row[a] < row[b]:
            return False
        strict = strict or row[a] > row[b]
    return strict


def lex_key(marriage: Marriage, men_order, women_order) -> tuple[int, ...]:
    """Sort key for the popularity-lexicographic marriage order: the
    women_order rank of each man's partner, men scanned in men_order.
    Smaller keys are better (rank 0 is the most popular woman). Raises
    ValueError unless both orders permute the marriage's indices."""
    _check_permutes(len(marriage.partner_of_man), men_order, women_order)
    return _lex_key(marriage.partner_of_man, men_order, {w: r for r, w in enumerate(women_order)})


def _lex_key(match: tuple[int, ...], men_order, rank: dict[int, int]) -> tuple[int, ...]:
    """:func:`lex_key` of a match tuple, with women_order given as rank[w],
    so a caller that compares many matches builds the ranks once."""
    return tuple(rank[match[m]] for m in men_order)
