"""Deferred acceptance on strict preference lists or on scores.

This is the engine behind every solver in the package. The classical and
link solvers hand :func:`gs` the values they already hold, as a
:class:`ScoredProfile`; strict lists, the gap-threshold solver's among
them, are read lazily. Either way, one loop does the proposing.
"""

from __future__ import annotations

from .instances import _VALUE_ROWS, Marriage, ScoredProfile, StrictProfile, _Record


class Proposal(_Record):
    """One proposal event. Indices are relative to the proposing side:
    with men proposing, proposer is a man index and proposee a woman index.

    outcome is "engaged" (proposee was free), "rejected" (proposee kept her
    current fiance), or "displaced" (proposee switched; the bumped proposer
    is recorded in displaced).
    """

    __slots__ = _fields = ("proposer", "proposee", "outcome", "displaced")

    def __init__(self, proposer: int, proposee: int, outcome: str, displaced: int | None = None):
        object.__setattr__(self, "proposer", proposer)
        object.__setattr__(self, "proposee", proposee)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "displaced", displaced)


def gs(profile: StrictProfile | ScoredProfile, proposing_side: str = "men") -> Marriage:
    """Run deferred acceptance and return the stable marriage that is
    optimal for the proposing side.

    The profile is either strict lists or a :class:`ScoredProfile`, where
    higher values are preferred and equal values go to the lower index, the
    order :func:`derive_classical` and :func:`link_transform` list. The
    receivers of a ``ScoredProfile`` compare values as they stand, and only
    the proposers' rows are ranked, once per profile; derived lists are read
    through their scores, plain ones only until each first comparison.
    Both records check their shapes when built; gs refuses only a bad side.

    Every proposer starts free and proposes down his list; a proposee keeps
    the best proposer seen so far and releases the other. With men proposing
    the result pairs every man with his best partner achievable in any
    stable marriage of the profile; with women proposing, roles are swapped
    and the result is the women-optimal stable marriage (still reported as a
    man -> woman matching).

    Deterministic: among the currently free proposers, the lowest index
    always proposes next. Proposers enter in index order, a new one only
    when every earlier one is engaged, and a proposal frees at most one of
    them, so the free one among them is always the lowest free index. The
    outcome does not depend on that order; the fixed order just makes
    traces reproducible.
    """
    return _solve(*_sides(profile, proposing_side), proposing_side)


def step_trace(profile: StrictProfile | ScoredProfile,
               proposing_side: str = "men") -> list[Proposal]:
    """Full proposal history of :func:`gs`, in execution order. A
    ``ScoredProfile`` yields the same events as the strict profile that
    lists its values best first, equal values by ascending index.

    The final engaged pairs equal the gs output, and the number of events is
    at most n*n (nobody proposes to the same person twice).
    """
    trace: list[Proposal] = []
    _deferred_acceptance(*_sides(profile, proposing_side), trace)
    return trace


def _sides(profile: StrictProfile | ScoredProfile, proposing_side: str):
    """(proposer lists, receivers: value rows or unread list iterators) for
    the proposing side, after a ValueError for any other side. Both records
    checked their shapes when built, so this reads them as they stand."""
    if proposing_side not in ("men", "women"):
        raise ValueError(f"proposing_side must be 'men' or 'women', got {proposing_side!r}")
    if isinstance(profile, StrictProfile) and profile._source is not None:
        profile = profile._source  # its rankings are the lists
    if isinstance(profile, ScoredProfile):
        receivers = profile.women_scores if proposing_side == "men" else profile.men_scores
        return profile._ranking(proposing_side), receivers
    lists = (profile.men_prefs, profile.women_prefs)
    proposers, receivers = lists if proposing_side == "men" else lists[::-1]
    return proposers, list(map(iter, receivers))


def _solve(proposer_lists, receiver_values, proposing_side: str) -> Marriage:
    """The marriage deferred acceptance reaches, as partner_of_man."""
    marriage = Marriage(tuple(_deferred_acceptance(proposer_lists, receiver_values)))
    return marriage if proposing_side == "women" else Marriage(marriage.inverse())


def _deferred_acceptance(
    proposer_lists,
    receiver_values,
    trace: list[Proposal] | None = None,
) -> list[int]:
    """Core loop; returns fiance[r] = proposer engaged to receiver r.

    A proposer's list is any iterable over the n receivers, read best first
    and only as far as he proposes. Receiver r prefers proposer p over her
    fiance c when ``receiver_values[r][p]`` is higher, or equal with p < c.
    Proposers enter in index order; an entrant proposes until he is engaged,
    and a displaced fiance proposes next in his place. None runs out: each
    receiver who refused him stays engaged, and he has only n-1 rivals.

    A receiver's value row is a tuple or a list; anything else is her strict
    list, unread, an iterator over the proposers, best first: the one form of
    a plain :class:`StrictProfile`'s receivers and lex-alpha's women. She
    needs it only at her first comparison, between fiance c and proposer p:
    it is drawn until c or p appears, that one wins, and the values drawn
    (n-1-k for the k-th entry, -1 for the rest) replace it. Her fiance stays
    drawn ever after, and a proposer not yet drawn comes after every drawn
    entry, so he loses to the fiance: her list is never read again.
    """
    n = len(proposer_lists)
    choices = [iter(prefs) for prefs in proposer_lists]
    fiance: list[int | None] = [None] * n
    for p in range(n):
        while p is not None:
            r = next(choices[p])
            current = fiance[r]
            if current is not None:
                if not isinstance(values := receiver_values[r], _VALUE_ROWS):
                    drawn = [-1] * n
                    for v, q in zip(range(n - 1, -1, -1), values):
                        drawn[q] = v
                        if q == p or q == current:
                            break
                    values = receiver_values[r] = drawn
                if values[p] < values[current] or values[p] == values[current] and p > current:
                    if trace is not None:
                        trace.append(Proposal(p, r, "rejected"))
                    continue
            fiance[r] = p
            if trace is not None:
                outcome = "engaged" if current is None else "displaced"
                trace.append(Proposal(p, r, outcome, current))
            p = current
    return fiance
