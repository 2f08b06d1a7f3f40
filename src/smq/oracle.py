"""Brute-force ground truth at desk scale.

Everything here enumerates all n! marriages, so it refuses instances above
a configurable size bound instead of silently sampling. The module exists
to certify the solvers: exact stable sets per notion, dominance-free
subsets, lexicographic optima, highest-strength marriages, and the
weak-stability dual filters used to cross-check set equalities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter

from .alpha import SemiorderProfile, TotalOrder
from .instances import Marriage, QuantInstance, WeakProfile
from .link import marriage_link
from .stability import dominates, is_stable, lex_key

DEFAULT_SIZE_BOUND = 8


class SizeBoundError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class StableEntry:
    marriage: Marriage
    undominated: bool
    link_add: int
    link_max: int


@dataclass(frozen=True)
class StableSet:
    """All marriages stable under one notion, in lexicographic match order,
    annotated with dominance flags and both aggregate link strengths."""

    notion: str
    alpha: int | None
    entries: tuple[StableEntry, ...]

    def marriages(self) -> list[Marriage]:
        return [e.marriage for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "notion": self.notion,
            "alpha": self.alpha,
            "marriages": [
                {
                    "match": list(e.marriage.partner_of_man),
                    "undominated": e.undominated,
                    "link_add": e.link_add,
                    "link_max": e.link_max,
                }
                for e in self.entries
            ],
        }


def _check_bound(n: int, size_bound: int) -> None:
    if n > size_bound:
        raise SizeBoundError(
            f"instance size {n} exceeds the enumeration bound {size_bound}"
        )


def _scan_block(instance: QuantInstance, notion: str, alpha: int | None, first: int):
    """Stable matches among permutations assigning woman `first` to man 0."""
    rest = [w for w in range(instance.n) if w != first]
    out = []
    for tail in itertools.permutations(rest):
        match = (first, *tail)
        if is_stable(instance, Marriage(match), notion, alpha):
            out.append(match)
    return out


def enumerate_stable(
    instance: QuantInstance,
    notion: str,
    alpha: int | None = None,
    *,
    size_bound: int = DEFAULT_SIZE_BOUND,
    jobs: int = 1,
) -> StableSet:
    """Exact stable set under a notion, by exhaustive permutation scan.

    Permutations are visited in lexicographic order. With jobs > 1 the scan
    is partitioned across worker processes by man 0's partner; partitions
    are merged and re-sorted, so the result is identical for any job count.

    Raises SizeBoundError when n exceeds size_bound (default 8).
    """
    _check_bound(instance.n, size_bound)
    if jobs > 1 and instance.n > 1:
        # Imported here: it costs a sizeable share of `import smq`.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, instance.n)) as pool:
            blocks = pool.map(
                _scan_block,
                itertools.repeat(instance),
                itertools.repeat(notion),
                itertools.repeat(alpha),
                range(instance.n),
            )
            matches = sorted(m for block in blocks for m in block)
    else:
        matches = [m for w in range(instance.n) for m in _scan_block(instance, notion, alpha, w)]
    stable = [Marriage(m) for m in matches]
    entries = tuple(
        StableEntry(
            marriage=m,
            undominated=not any(
                dominates(instance, other, m) for other in stable if other != m
            ),
            link_add=marriage_link(instance, m, "add"),
            link_max=marriage_link(instance, m, "max"),
        )
        for m in stable
    )
    return StableSet(notion, alpha, entries)


def undominated(instance: QuantInstance, stable_set: StableSet) -> list[Marriage]:
    """Members of the set dominated by no other member."""
    return [e.marriage for e in stable_set.entries if e.undominated]


def lex_optimum(
    instance: QuantInstance,
    alpha: int,
    men_order: TotalOrder,
    women_order: TotalOrder,
    *,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> Marriage:
    """The lexicographically best alpha-stable marriage for the given
    popularity orders. Unique because the lexicographic comparison is a
    strict total order and the stable set is never empty."""
    stable = enumerate_stable(instance, "alpha", alpha, size_bound=size_bound)
    return min(stable.marriages(), key=lambda m: lex_key(m, men_order, women_order))


def highest_link(
    instance: QuantInstance,
    mode: str,
    *,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> list[Marriage]:
    """Link-stable marriages attaining the maximal aggregate strength."""
    entries = enumerate_stable(instance, f"link-{mode}", size_bound=size_bound).entries
    strength = attrgetter(f"link_{mode}")
    best = max(map(strength, entries))
    return [e.marriage for e in entries if strength(e) == best]


def feasible_partners(
    instance: QuantInstance,
    alpha: int,
    *,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> tuple[list[set[int]], list[set[int]]]:
    """Per-person partner sets across all alpha-stable marriages: first the
    men's woman-sets, then the women's man-sets."""
    stable = enumerate_stable(instance, "alpha", alpha, size_bound=size_bound)
    men: list[set[int]] = [set() for _ in range(instance.n)]
    women: list[set[int]] = [set() for _ in range(instance.n)]
    for marriage in stable.marriages():
        for m, w in marriage.pairs():
            men[m].add(w)
            women[w].add(m)
    return men, women


def weakly_stable_set(
    profile: SemiorderProfile | WeakProfile,
    *,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> list[Marriage]:
    """Marriages with no pair in which both participants strictly prefer
    each other over their current partners, under the profile's own
    preference relation.

    This filter never touches the score-gap or link predicates, so it is an
    independent route to the same sets: the alpha-stable marriages of an
    instance are exactly the weakly stable marriages of its semiorder view,
    and the link-stable ones are those of the link-transformed profile.
    """
    _check_bound(profile.n, size_bound)
    if isinstance(profile, SemiorderProfile):
        men_prefers = lambda m, a, b: profile.strictly_prefers("men", m, a, b)
        women_prefers = lambda w, a, b: profile.strictly_prefers("women", w, a, b)
    else:
        men_matrix = profile.men_matrix()
        women_matrix = profile.women_matrix()
        men_prefers = lambda m, a, b: men_matrix[m][a] > men_matrix[m][b]
        women_prefers = lambda w, a, b: women_matrix[w][a] > women_matrix[w][b]

    out = []
    for perm in itertools.permutations(range(profile.n)):
        inverse = [0] * profile.n
        for m, w in enumerate(perm):
            inverse[w] = m
        blocked = any(
            w != perm[m]
            and men_prefers(m, w, perm[m])
            and women_prefers(w, m, inverse[w])
            for m in range(profile.n)
            for w in range(profile.n)
        )
        if not blocked:
            out.append(Marriage(perm))
    return out
