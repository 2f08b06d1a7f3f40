"""Exhaustive ground truth at desk scale.

Stable sets come from a backtracking search over all n! marriages with
forward checking: the pairs still admissible are the bits of one int, and
each placed pair clears, with one mask, its woman's column and every pair
that would then block, so such a partner is never tried, and a branch is
cut as soon as some man has no pair left. Every mask is built before the
search, in O(n^2), by four prefix-OR walks down the kept rankings of both
sides, and the last two men's pairs are memoized per state of their fields.
The search, :func:`_scan`, knows no notion; :func:`_certified` audits what
it finds. Members are match tuples in the search, in its kept results and
in a :class:`StableSet`'s `matches` field, and no record is kept. A
:class:`Marriage` is built, without the permutation check the search meets
by construction, only where one is returned or where `is_stable`,
`dominates` or `marriage_link` reads it. The weak-stability filter scans
every permutation as a tuple and builds a record for each member only.
Both are exponential in the worst case, so the module refuses instances
above a configurable size bound instead of silently sampling; it refuses
empty ones too. It exists to certify the solvers: exact stable sets per
notion, dominance-free subsets, lexicographic optima, highest-strength
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
from .instances import (Marriage, QuantInstance, ScoredProfile, WeakProfile, _check_choice,
                        _check_permutes, _inverse, _Record, _trusted)
from .link import MODES, _totals, marriage_link
from .stability import _check_notion, _lex_key, _table, dominates, is_stable

DEFAULT_SIZE_BOUND = 8
_marriage = _trusted(Marriage)  # members meet Marriage's check by construction


class SizeBoundError(ValueError):
    """Instance too large for exhaustive enumeration."""


class StableSet(_Record):
    """All marriages stable under one notion, in lexicographic match order,
    annotated with dominance flags and both aggregate link strengths.

    Beside the notion and alpha, its fields are four columns of tuples, one
    item per member: the match tuples, the undominated flags and the `add`
    and `max` link totals; :meth:`to_json` lists them per member. It keeps
    no record: :meth:`marriages` and :func:`undominated` build Marriage
    records per call. Built by :func:`enumerate_stable`, so it checks no
    rule."""

    __slots__ = _fields = ("notion", "alpha", "matches", "undominated", "link_add", "link_max")

    def marriages(self) -> list[Marriage]:
        return list(map(_marriage, self.matches))

    def __len__(self) -> int:
        return len(self.matches)

    def to_json(self) -> dict:
        columns = zip(self.matches, self.undominated, self.link_add, self.link_max)
        return {"notion": self.notion, "alpha": self.alpha, "marriages": [
            {"match": list(match), "undominated": flag, "link_add": add, "link_max": top}
            for match, flag, add, top in columns]}


def _check_bound(n: int, size_bound: int) -> None:
    if n < 1:
        raise ValueError(f"instance size {n}: the oracle needs at least one man and one woman")
    if n > size_bound:
        raise SizeBoundError(f"instance size {n} exceeds the enumeration bound {size_bound}")


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


def _scan(profile: ScoredProfile, g: int, first: int | None = None) -> list[tuple[int, ...]]:
    """Stable match tuples of the table (profile, g) in lexicographic order, by
    backtracking with forward checking: men are placed in index order, each
    trying the free women in ascending index (man 0 only `first`, if given).

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
    nonzero field is his cut test; :func:`_certified` audits the members.
    """
    n = len(profile.men_scores)
    if n == 1:  # no later man to cut on: the one match has no pair to block it
        return [(0,)]
    allowed = _masks(profile, g)
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
    out: list[tuple[int, ...]] = []

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
            out.extend(head + pair for pair in pairs)
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


def _certified(instance: QuantInstance, notion: str, alpha: int | None,
               first: int | None = None) -> list[tuple[int, ...]]:
    """The members :func:`_scan` finds that `is_stable` passes on a
    :func:`_trusted` Marriage: the oracle's one runtime check. It catches a
    blocked member, but not a dropped one nor one that places a woman twice
    (`is_stable` tests only a length); the tests scan every permutation."""
    return [match for match in _scan(*_table(instance, notion, alpha), first)
            if is_stable(instance, _marriage(match), notion, alpha)]


def _stable_marriages(
    instance: QuantInstance, notion: str, alpha: int | None, size_bound: int, jobs: int = 1
) -> tuple[tuple[int, ...], ...]:
    """The stable set as match tuples in lexicographic order, with no record
    built; with jobs > 1 each worker certifies the part of one partner of man 0.

    The tuple of certified matches is kept on the instance per value table
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
            parts = pool.map(_certified, *map(itertools.repeat, (instance, notion, alpha)),
                             range(instance.n))
            stable = tuple(itertools.chain.from_iterable(parts))
    else:
        stable = tuple(_certified(instance, notion, alpha))
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
    strength tables. The set's fields hold the match tuples, flags and
    totals as tuples; the skyline's records, which `dominates` reads, are not kept.

    Raises SizeBoundError when n exceeds size_bound (default 8), and
    ValueError when n < 1, as every query of this module does.
    """
    matches = _stable_marriages(instance, notion, alpha, size_bound, jobs)
    men, ranking = instance.men_scores, instance._ranking("men")
    sums = [sum(map(getitem, men, match)) for match in matches]
    flags = [False] * len(matches)
    skyline: list[Marriage] = []  # the undominated members' records, in visiting order
    covers = [[0] * instance.n for _ in men]
    for i in sorted(range(len(matches)), key=sums.__getitem__, reverse=True):
        match = matches[i]
        rivals = reduce(and_, map(getitem, covers, match))
        if rivals and dominates(instance, skyline[(rivals & -rivals).bit_length() - 1],
                                _marriage(match)):
            continue
        flags[i] = True
        bit = 1 << len(skyline)
        skyline.append(_marriage(match))
        for row, order, cover, w in zip(men, ranking, covers, match):
            # the women this man scores at most as high as w: a suffix of his ranking
            bar = row[w]
            for v in reversed(order):
                if row[v] > bar:
                    break
                cover[v] |= bit
    return StableSet(notion, alpha, matches, tuple(flags), _totals(instance, matches, "add"),
                     _totals(instance, matches, "max"))


def undominated(instance: QuantInstance, stable_set: StableSet) -> list[Marriage]:
    """Members of the set dominated by no other member."""
    return list(map(_marriage, itertools.compress(stable_set.matches, stable_set.undominated)))


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
    _check_permutes(instance.n, men_order, women_order)
    stable = _stable_marriages(instance, "alpha", alpha, size_bound)
    rank = {w: r for r, w in enumerate(women_order)}
    return _marriage(min(stable, key=lambda match: _lex_key(match, men_order, rank)))


def highest_link(
    instance: QuantInstance,
    mode: str,
    *,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> list[Marriage]:
    """Link-stable marriages attaining the maximal aggregate strength."""
    _check_choice("mode", mode, MODES)
    stable = _stable_marriages(instance, f"link-{mode}", None, size_bound)
    strengths = [marriage_link(instance, _marriage(match), mode) for match in stable]
    best = max(strengths)
    return [_marriage(match) for match, s in zip(stable, strengths) if s == best]


def feasible_partners(
    instance: QuantInstance,
    alpha: int,
    *,
    size_bound: int = DEFAULT_SIZE_BOUND,
) -> tuple[list[set[int]], list[set[int]]]:
    """Per-person partner sets across all alpha-stable marriages: first the
    men's woman-sets, then the women's man-sets."""
    # column m holds man m's partners; the set is never empty, as gs's marriage is in it
    men = list(map(set, zip(*_stable_marriages(instance, "alpha", alpha, size_bound))))
    return men, [{m for m, partners in enumerate(men) if w in partners} for w in range(instance.n)]


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
        prefers = profile._prefers
    else:
        values = {"men": list(map(dict, profile.men_values)),
                  "women": list(map(dict, profile.women_values))}
        prefers = lambda side, p, a, b: values[side][p][a] > values[side][p][b]
    n = profile.n
    out = []
    for perm in itertools.permutations(range(n)):
        inverse = _inverse(perm)
        if not any(w != perm[m] and prefers("men", m, w, perm[m])
                   and prefers("women", w, m, inverse[w]) for m in range(n) for w in range(n)):
            out.append(_marriage(perm))
    return out
