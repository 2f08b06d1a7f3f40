"""Deferred acceptance on strict preference profiles.

This is the engine behind every solver in the package: the score-gap and
link solvers all reduce their problem to a strict profile and run it
through :func:`gs`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .instances import Marriage, StrictProfile


@dataclass(frozen=True)
class Proposal:
    """One proposal event. Indices are relative to the proposing side:
    with men proposing, proposer is a man index and proposee a woman index.

    outcome is "engaged" (proposee was free), "rejected" (proposee kept her
    current fiance), or "displaced" (proposee switched; the bumped proposer
    is recorded in displaced).
    """

    proposer: int
    proposee: int
    outcome: str
    displaced: int | None = None


def gs(profile: StrictProfile, proposing_side: str = "men") -> Marriage:
    """Run deferred acceptance and return the stable marriage that is
    optimal for the proposing side.

    Every proposer starts free and proposes down his list; a proposee keeps
    the best proposer seen so far and releases the other. With men proposing
    the result pairs every man with his best partner achievable in any
    stable marriage of the profile; with women proposing, roles are swapped
    and the result is the women-optimal stable marriage (still reported as a
    man -> woman matching).

    Deterministic: among the currently free proposers, the lowest index
    always proposes next. The outcome does not depend on that order; the
    fixed order just makes traces reproducible.
    """
    marriage = Marriage(tuple(_deferred_acceptance(*_sides(profile, proposing_side))))
    return marriage if proposing_side == "men" else Marriage(marriage.inverse())


def step_trace(profile: StrictProfile, proposing_side: str = "men") -> list[Proposal]:
    """Full proposal history of :func:`gs`, in execution order.

    The final engaged pairs equal the gs output, and the number of events is
    at most n*n (nobody proposes to the same person twice).
    """
    trace: list[Proposal] = []
    _deferred_acceptance(*_sides(profile, proposing_side), trace)
    return trace


def _sides(profile: StrictProfile, proposing_side: str):
    """(proposer lists, receiver lists) for the proposing side."""
    if proposing_side == "men":
        return profile.men_prefs, profile.women_prefs
    if proposing_side == "women":
        return profile.women_prefs, profile.men_prefs
    raise ValueError(f"proposing_side must be 'men' or 'women', got {proposing_side!r}")


def _deferred_acceptance(
    proposer_prefs,
    receiver_prefs,
    trace: list[Proposal] | None = None,
) -> list[int]:
    """Core loop; returns matching[p] = receiver engaged to proposer p.

    Free proposers wait in a heap, so the lowest index proposes next.
    """
    n = len(proposer_prefs)
    # rank[r][p] = position of proposer p in receiver r's list (0 = best)
    rank = [[0] * n for _ in range(n)]
    for r, prefs in enumerate(receiver_prefs):
        for pos, p in enumerate(prefs):
            rank[r][p] = pos

    next_choice = [0] * n
    fiance: list[int | None] = [None] * n
    free = list(range(n))  # ascending, hence already a heap

    while free:
        p = heapq.heappop(free)
        r = proposer_prefs[p][next_choice[p]]
        next_choice[p] += 1
        current = fiance[r]
        if current is None:
            fiance[r] = p
            if trace is not None:
                trace.append(Proposal(p, r, "engaged"))
        elif rank[r][p] < rank[r][current]:
            fiance[r] = p
            heapq.heappush(free, current)
            if trace is not None:
                trace.append(Proposal(p, r, "displaced", current))
        else:
            heapq.heappush(free, p)
            if trace is not None:
                trace.append(Proposal(p, r, "rejected"))

    matching = [0] * n
    for r, p in enumerate(fiance):
        matching[p] = r
    return matching
