"""Exhaustive ground truth at desk scale.

Stable sets come from a backtracking search over all n! marriages with
forward checking: the pairs still admissible are the bits of one int, and
each placed pair clears, with one mask, its woman's column and every pair
that would then block, so such a partner is never tried, and a branch is
cut as soon as some man has no pair left. Every mask is built before the
search, in O(n^2), by four prefix-OR walks down the kept rankings of both
sides, and the last two men's pairs are memoized per state of their fields.
Every member is certified by `is_stable`, so a fault in the cut could only
drop members; members skip :class:`Marriage`'s permutation check, which the
search meets by construction. The weak-stability filter scans every
permutation. Both are exponential in the worst case, so the module refuses
instances above a configurable size bound instead of silently sampling; it
refuses empty ones too. It exists to certify the solvers: exact stable sets
per notion, dominance-free subsets, lexicographic optima, highest-strength
marriages, and the weak-stability dual filters used to cross-check set
equalities.

Each instance keeps its last search per value table and gap, so
`enumerate_stable`, `lex_optimum`, `highest_link` and `feasible_partners`
share one search per notion and alpha; alpha 1 shares the classical one.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_, getitem

from .alpha import SemiorderProfile, TotalOrder
from .instances import (Marriage, QuantInstance, ScoredProfile, WeakProfile, _check_orders,
                        _Record, _trusted)
from .link import _check_mode, _totals, marriage_link
from .stability import _check_notion, _lex_key, _table, dominates, is_stable

DEFAULT_SIZE_BOUND = 8


class SizeBoundError(ValueError):
    """Instance too large for exhaustive enumeration."""


class StableEntry(_Record):
    __slots__ = _fields = ("marriage", "undominated", "link_add", "link_max")

    def __init__(self, marriage: Marriage, undominated: bool, link_add: int, link_max: int):
        object.__setattr__(self, "marriage", marriage)
        object.__setattr__(self, "undominated", undominated)
        object.__setattr__(self, "link_add", link_add)
        object.__setattr__(self, "link_max", link_max)


class StableSet(_Record):
    """All marriages stable under one notion, in lexicographic match order,
    annotated with dominance flags and both aggregate link strengths."""

    __slots__ = _fields = ("notion", "alpha", "entries")

    def __init__(self, notion: str, alpha: int | None, entries: tuple[StableEntry, ...]):
        object.__setattr__(self, "notion", notion)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "entries", entries)

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
    if n < 1:
        raise ValueError(f"instance size {n}: the oracle needs at least one man and one woman")
    if n > size_bound:
        raise SizeBoundError(
            f"instance size {n} exceeds the enumeration bound {size_bound}"
        )


def _reach(rows, ranking, items, g: int) -> list[list[int]]:
    """Entry [p][c], for person p and candidate c: the OR of items[p][x]
    over the x with rows[p][x] >= rows[p][c] + g. Those x are a prefix of
    p's kept ranking, and bars only fall along it, so one walk down it with
    a running OR and a pointer covers each person: O(n)."""
    n = len(ranking)
    out = []
    for row, order, item in zip(rows, ranking, items):
        reach = [0] * n
        got = q = 0
        for c in order:
            bar = row[c] + g
            while q < n and row[order[q]] >= bar:
                got |= item[order[q]]
                q += 1
            reach[c] = got
        out.append(reach)
    return out


def _masks(profile: ScoredProfile, g: int) -> list[list[int]]:
    """allowed[k][w] for every man k but the last: the pairs, bit m*n + w
    for (m, w), that placing man k with woman w keeps (see `_scan`)."""
    U, W = profile.men_scores, profile.women_scores
    men_rank, women_rank = profile._ranking("men"), profile._ranking("women")
    n = len(U)
    full = (1 << n) - 1
    rep = ((1 << n * n) - 1) // full  # bit m*n for every man m
    # worse[i][w]: the pairs (i, v) with U[i][v] <= U[i][w] - g, man i's field less
    # the prefix U[i][v] >= U[i][w] + 1 - g (integer scores); beaten: the same for women
    keep = _reach(U, men_rank, [[1 << v for v in range(n)]] * n, 1 - g)
    worse = [[(full ^ r) << i * n for r in row] for i, row in enumerate(keep)]
    keep = _reach(W, women_rank, [[1 << x * n for x in range(n)]] * n, 1 - g)
    beaten = [[(rep ^ r) << v for r in row] for v, row in enumerate(keep)]
    gains = _reach(U[: n - 1], men_rank, zip(*beaten), g)  # the (j, v) that (k, v) blocks
    heads = _reach(W, women_rank, zip(*worse), g)  # the (i, v) that (i, w) blocks
    column = [rep << w for w in range(n)]
    every_pair = full * rep
    return [[every_pair ^ (c | gain | head) for c, gain, head in zip(column, row, col)]
            for row, col in zip(gains, zip(*heads))]


def _scan(
    instance: QuantInstance, notion: str, alpha: int | None, first: int | None = None
) -> list[Marriage]:
    """Stable marriages in lexicographic order, by backtracking with forward
    checking: men are placed in index order, each trying the free women in
    ascending index. With `first` given, man 0 is placed with that woman only.

    The pairs still admissible are the bits of one int, bit m*n + w for the
    pair (m, w). Placing man k with woman w keeps only the pairs of the mask
    `allowed[k][w]`, which removes woman w's column, each (j, v) with
    U[k][v] >= U[k][w] + g and W[v][k] >= W[v][j] + g ((k, v) would block),
    and each (i, v) with W[w][i] >= W[w][k] + g and U[i][w] >= U[i][v] + g
    ((i, w) would block). So the masks are exact: a complete match is stable
    iff no placement removed one of its pairs. `_masks` builds them all
    before the search, in O(n^2) from the kept rankings of both sides.

    Domains only shrink deeper in the tree, so a branch is cut as soon as a
    later man's n-bit field is empty. One test covers them all: adding
    2**(n-1) - 1 to a field's low n - 1 bits carries into its top bit iff
    one of them is set.

    The search from man n - 2 on reads only the last two men's fields,
    `domain >> (n-2)*n`, so the (w, w_last) pairs that pass the mask are
    found once per such key and kept for the rest of the scan; once man
    n - 2 is placed, the last man's field holds at most one bit, so a
    nonzero field is his cut test. Every member, memo hit or not, is
    certified by `is_stable`, so a fault in the cut could only drop members.
    Members skip :class:`Marriage`'s check (:func:`_trusted`), and `is_stable`
    does not repeat it: the search places every woman once.
    """
    profile, g = _table(instance, notion, alpha)
    allowed = _masks(profile, g)
    n = instance.n
    member = _trusted(Marriage)
    if n == 1:  # no memo: the one match is certified alone
        marriage = member((0,))
        return [marriage] if is_stable(instance, marriage, notion, alpha) else []
    penult = n - 2
    full = (1 << n) - 1
    every_pair = (1 << n * n) - 1
    rep = every_pair // full  # bit m*n for every man m
    low = rep * (full >> 1)  # the low n - 1 bits of every man's field
    top = rep << n - 1  # the top bit of every man's field
    later = [top >> (k + 1) * n << (k + 1) * n for k in range(penult)]  # the later men's top bits
    tails = [mask >> penult * n for mask in allowed[penult]]  # man n - 2's masks, last two fields
    ends: dict[int, list[tuple[int, int]]] = {}  # the pairs of the last two men, per key
    match = [0] * penult
    out: list[Marriage] = []

    def place(k: int, domain: int) -> None:
        if k == penult:
            key = domain >> k * n
            pairs = ends.get(key)
            if pairs is None:
                pairs = ends[key] = []
                bits = key & full
                while bits:
                    w = (bits & -bits).bit_length() - 1
                    bits &= bits - 1
                    lone = (key & tails[w]) >> n  # the last man's field
                    if lone:
                        pairs.append((w, lone.bit_length() - 1))
            head = tuple(match)
            for pair in pairs:
                marriage = member(head + pair)
                if is_stable(instance, marriage, notion, alpha):
                    out.append(marriage)
            return
        bits = domain >> k * n & full
        row = allowed[k]
        hi = later[k]
        while bits:
            w = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            match[k] = w
            rest = domain & row[w]
            if (((rest & low) + low) | rest) & hi == hi:
                place(k + 1, rest)

    # with `first` given, man 0's field holds that woman alone
    place(0, every_pair if first is None else every_pair & ~full | 1 << first)
    return out


def _stable_marriages(
    instance: QuantInstance, notion: str, alpha: int | None, size_bound: int, jobs: int = 1
) -> tuple[Marriage, ...]:
    """The stable set in lexicographic match order, without annotations;
    with jobs > 1 the parts, one per partner of man 0, come back in order.

    The tuple of certified marriages is kept on the instance per value table
    and gap, alpha 1 as classical: a later call for the same notion and
    alpha returns that tuple without searching; a call at another alpha
    searches and replaces it. The job count is not in the key, since the
    result is identical for any count. Both checks run on every call."""
    _check_bound(instance.n, size_bound)
    _check_notion(notion, alpha)
    if notion == "alpha" and alpha == 1:
        notion, alpha = "classical", None
    kept = instance._kept.get(notion)
    if kept is not None and kept[0] == alpha:
        return kept[1]
    if jobs > 1 and instance.n > 1:
        # Imported here: it costs a sizeable share of `import smq`.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, instance.n)) as pool:
            parts = pool.map(
                _scan,
                itertools.repeat(instance),
                itertools.repeat(notion),
                itertools.repeat(alpha),
                range(instance.n),
            )
            stable = tuple(m for part in parts for m in part)
    else:
        stable = tuple(_scan(instance, notion, alpha))
    instance._kept[notion] = alpha, stable
    return stable


def enumerate_stable(
    instance: QuantInstance,
    notion: str,
    alpha: int | None = None,
    *,
    size_bound: int = DEFAULT_SIZE_BOUND,
    jobs: int = 1,
) -> StableSet:
    """Exact stable set under a notion, by backtracking search with forward checking.

    Marriages come out in lexicographic match order. With jobs > 1 the
    search is partitioned across worker processes by man 0's partner; the
    result is identical for any job count.

    Dominance flags come from a sort-filter skyline: a dominator has a
    strictly larger sum of men's scores and dominance is transitive, so
    members visited in descending sum order need only be tested against the
    undominated members found before them. Those are indexed by man: bit b
    of covers[m][w] is set iff man m scores his partner in skyline member b
    at least as high as woman w, so the AND of covers[m][x[m]] over the men
    holds x's rivals, the skyline members that give no man a worse partner
    than x does. With no rival, x is undominated; otherwise `dominates`
    decides on its first rival, since a dominated x is dominated by every
    rival (one that gave every man x's score would share x's dominator, and
    no skyline member is dominated). The link totals are read from the kept
    strength tables.

    Raises SizeBoundError when n exceeds size_bound (default 8), and
    ValueError when n < 1, as every query of this module does.
    """
    stable = _stable_marriages(instance, notion, alpha, size_bound, jobs)
    men, ranking = instance.men_scores, instance._ranking("men")
    matches = [m.partner_of_man for m in stable]
    sums = [sum(map(getitem, men, match)) for match in matches]
    flags = [False] * len(stable)
    skyline: list[Marriage] = []
    covers = [[0] * instance.n for _ in men]
    for i in sorted(range(len(stable)), key=sums.__getitem__, reverse=True):
        rivals = reduce(and_, map(getitem, covers, matches[i]))
        if rivals and dominates(instance, skyline[(rivals & -rivals).bit_length() - 1], stable[i]):
            continue
        flags[i] = True
        bit = 1 << len(skyline)
        skyline.append(stable[i])
        for row, order, cover, w in zip(men, ranking, covers, matches[i]):
            # the women this man scores at most as high as w: a suffix of his ranking
            bar = row[w]
            for v in reversed(order):
                if row[v] > bar:
                    break
                cover[v] |= bit
    entries = tuple(map(StableEntry, stable, flags, _totals(instance, matches, "add"),
                        _totals(instance, matches, "max")))
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
    strict total order and the stable set is never empty. Raises ValueError
    unless both orders permute 0..n-1."""
    _check_orders(instance.n, men_order, women_order)
    stable = _stable_marriages(instance, "alpha", alpha, size_bound)
    rank = {w: r for r, w in enumerate(women_order)}
    return min(stable, key=lambda m: _lex_key(m, men_order, rank))


def highest_link(
    instance: QuantInstance,
    mode: str,
    *,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> list[Marriage]:
    """Link-stable marriages attaining the maximal aggregate strength."""
    _check_mode(mode)
    stable = _stable_marriages(instance, f"link-{mode}", None, size_bound)
    strengths = [marriage_link(instance, m, mode) for m in stable]
    best = max(strengths)
    return [m for m, s in zip(stable, strengths) if s == best]


def feasible_partners(
    instance: QuantInstance,
    alpha: int,
    *,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> tuple[list[set[int]], list[set[int]]]:
    """Per-person partner sets across all alpha-stable marriages: first the
    men's woman-sets, then the women's man-sets."""
    men: list[set[int]] = [set() for _ in range(instance.n)]
    women: list[set[int]] = [set() for _ in range(instance.n)]
    for marriage in _stable_marriages(instance, "alpha", alpha, size_bound):
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
        men_values = [dict(row) for row in profile.men_values]
        women_values = [dict(row) for row in profile.women_values]
        men_prefers = lambda m, a, b: men_values[m][a] > men_values[m][b]
        women_prefers = lambda w, a, b: women_values[w][a] > women_values[w][b]

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
