"""Plain, slow references that the tests hold the fast paths against.

Each one spells its rule out directly, with no shared helpers, so a fault in
the library's scan, search or proposal loop cannot hide in the reference as
well.
"""

import itertools

import smq
from smq import (
    DuplicateScoreError,
    InvalidInstanceError,
    Marriage,
    NegativeScoreError,
    NonSquareError,
    QuantInstance,
    is_stable,
)
from smq.instances import Matrix


def reference_blocking_pairs(instance, marriage, notion, alpha=None):
    """(man, woman, witness) for every blocking pair, in ascending order.

    classical: both strictly prefer each other to their current partners.
    alpha: both gain at least alpha score points.
    link-add / link-max: the pair's strength (sum, resp. max, of the two
    scores) exceeds the strength of both current pairings.
    """
    men = instance.men_scores
    women = instance.women_scores
    match = marriage.partner_of_man
    inverse = marriage.inverse()
    found = []

    for m in range(instance.n):
        w_cur = match[m]
        for w in range(instance.n):
            if w == w_cur:
                continue
            m_cur = inverse[w]
            if notion == "classical":
                if men[m][w] > men[m][w_cur] and women[w][m] > women[w][m_cur]:
                    found.append((m, w, {
                        "man_score_new": men[m][w],
                        "man_score_current": men[m][w_cur],
                        "woman_score_new": women[w][m],
                        "woman_score_current": women[w][m_cur],
                    }))
            elif notion == "alpha":
                man_gain = men[m][w] - men[m][w_cur]
                woman_gain = women[w][m] - women[w][m_cur]
                if man_gain >= alpha and woman_gain >= alpha:
                    found.append((m, w, {
                        "man_score_new": men[m][w],
                        "man_score_current": men[m][w_cur],
                        "woman_score_new": women[w][m],
                        "woman_score_current": women[w][m_cur],
                        "man_gain": man_gain,
                        "woman_gain": woman_gain,
                    }))
            else:
                if notion == "link-add":
                    new = men[m][w] + women[w][m]
                    man_cur = men[m][w_cur] + women[w_cur][m]
                    woman_cur = men[m_cur][w] + women[w][m_cur]
                else:
                    new = max(men[m][w], women[w][m])
                    man_cur = max(men[m][w_cur], women[w_cur][m])
                    woman_cur = max(men[m_cur][w], women[w][m_cur])
                if new > man_cur and new > woman_cur:
                    found.append((m, w, {
                        "link_new": new,
                        "link_man_current": man_cur,
                        "link_woman_current": woman_cur,
                    }))
    return found


def shuffled_deferred_acceptance(profile, rng):
    """Men-proposing deferred acceptance in which a random free man proposes
    next, instead of the lowest-indexed one. Returns the marriage and the
    number of proposals made."""
    n = len(profile.men_prefs)
    next_choice = [0] * n
    fiance = [None] * n
    free = list(range(n))
    while free:
        m = free.pop(rng.randrange(len(free)))
        w = profile.men_prefs[m][next_choice[m]]
        next_choice[m] += 1
        current = fiance[w]
        if current is None:
            fiance[w] = m
        elif profile.women_prefs[w].index(m) < profile.women_prefs[w].index(current):
            fiance[w] = m
            free.append(current)
        else:
            free.append(m)
    partner = [0] * n
    for w, m in enumerate(fiance):
        partner[m] = w
    return smq.Marriage(tuple(partner)), sum(next_choice)


def reference_step_trace(profile, side):
    """The proposal history of deferred acceptance, by its stated rule.

    Every proposer starts free, and the lowest free index proposes next.
    Each proposer's list is ranked by (-value, index). A receiver compares
    two proposers by value, and an equal value goes to the lower index. A
    strict profile's lists are read as values: an earlier place is higher.
    """
    if isinstance(profile, smq.ScoredProfile):
        men, women = profile.men_scores, profile.women_scores
    else:
        men, women = (
            [[-prefs.index(q) for q in range(len(prefs))] for prefs in lists]
            for lists in (profile.men_prefs, profile.women_prefs)
        )
    proposers, receivers = (men, women) if side == "men" else (women, men)
    n = len(proposers)
    ranked = [sorted(range(n), key=lambda q: (-row[q], q)) for row in proposers]
    next_choice = [0] * n
    fiance = [None] * n
    free = set(range(n))
    trace = []
    while free:
        p = min(free)
        r = ranked[p][next_choice[p]]
        next_choice[p] += 1
        current = fiance[r]
        if current is None:
            free.remove(p)
            fiance[r] = p
            trace.append(smq.Proposal(p, r, "engaged"))
        elif (receivers[r][p], -p) > (receivers[r][current], -current):
            free.remove(p)
            free.add(current)
            fiance[r] = p
            trace.append(smq.Proposal(p, r, "displaced", current))
        else:
            trace.append(smq.Proposal(p, r, "rejected"))
    return trace


def reference_enumerate_stable(instance, notion, alpha=None):
    """The annotated stable set by exhaustive scan: every permutation, in
    lexicographic order, is kept when `is_stable` accepts it, and every member
    is tested for dominance against every other member."""
    stable = [
        smq.Marriage(match)
        for match in itertools.permutations(range(instance.n))
        if smq.is_stable(instance, smq.Marriage(match), notion, alpha)
    ]
    return smq.StableSet(
        notion,
        alpha,
        matches=tuple(m.partner_of_man for m in stable),
        undominated=tuple(
            not any(smq.dominates(instance, other, m) for other in stable if other != m)
            for m in stable
        ),
        link_add=tuple(smq.marriage_link(instance, m, "add") for m in stable),
        link_max=tuple(smq.marriage_link(instance, m, "max") for m in stable),
    )


def reference_skyline(instance, marriages):
    """The undominated flags of `marriages`, in their order, by the pairwise
    sort-filter skyline: a dominator has a strictly larger sum of men's
    scores and dominance is transitive, so members visited in descending sum
    order need only be tested against the undominated members found before
    them."""
    sums = [sum(row[w] for row, w in zip(instance.men_scores, m.partner_of_man))
            for m in marriages]
    flags = [False] * len(marriages)
    skyline = []
    for i in sorted(range(len(marriages)), key=sums.__getitem__, reverse=True):
        if not any(smq.dominates(instance, top, marriages[i]) for top in skyline):
            skyline.append(marriages[i])
            flags[i] = True
    return flags


def reference_table(instance, notion, alpha=None):
    """(U, W, g): a pair (m, w) blocks when U[m][w] >= U[m][w'] + g and
    W[w][m] >= W[w][m'] + g, from the raw scores or `reference_strengths`."""
    if notion.startswith("link-"):
        return (*reference_strengths(instance, notion.removeprefix("link-")), 1)
    return instance.men_scores, instance.women_scores, 1 if notion == "classical" else alpha


def reference_masks(instance, notion, alpha=None):
    """The oracle's masks by their definition: allowed[k][w], for every man
    k < n - 1 and woman w, holds pair (j, v), bit j*n + v, unless v == w,
    (k, v) blocks the pairs (k, w) and (j, v), or (j, w) blocks them."""
    U, W, g = reference_table(instance, notion, alpha)
    n = instance.n

    def removed(k, w, j, v):
        return (v == w
                or U[k][v] >= U[k][w] + g and W[v][k] >= W[v][j] + g
                or W[w][j] >= W[w][k] + g and U[j][w] >= U[j][v] + g)

    return [[sum(1 << j * n + v for j in range(n) for v in range(n) if not removed(k, w, j, v))
             for w in range(n)] for k in range(n - 1)]


def reference_pruned_scan(
    instance: QuantInstance, notion: str, alpha: int | None
) -> list[tuple[int, ...]]:
    """The oracle's search before forward checking, kept as its slow twin.

    Stable matches in lexicographic order, by backtracking: men are
    placed in index order, each trying the free women in ascending index.

    A pair's verdict is fixed once the man and the woman's partner are both
    placed, so placing man k with woman w tests just the pairs (k, match[j])
    and (j, w) for j < k, and a blocked prefix is cut with everything below
    it. Each complete match is then certified by `is_stable`, so a fault in
    the cut could only drop members, never admit one.
    """
    U, W, g = reference_table(instance, notion, alpha)
    n = instance.n
    match = [0] * n
    man_needs = [0] * n  # man j's bound: U[j][match[j]] + g
    woman_needs = [0] * n  # woman w's bound: W[w][her man] + g
    used = [False] * n
    out: list[tuple[int, ...]] = []

    def place(k: int) -> None:
        u = U[k]
        for w in range(n):
            if used[w]:
                continue
            ww = W[w]
            k_needs = u[w] + g
            w_needs = ww[k] + g
            for j in range(k):
                wj = match[j]
                if (u[wj] >= k_needs and W[wj][k] >= woman_needs[wj]) or (
                    U[j][w] >= man_needs[j] and ww[j] >= w_needs
                ):
                    break
            else:
                match[k] = w
                if k + 1 == n:
                    full = tuple(match)
                    if is_stable(instance, Marriage(full), notion, alpha):
                        out.append(full)
                    continue
                man_needs[k] = k_needs
                woman_needs[w] = w_needs
                used[w] = True
                place(k + 1)
                used[w] = False

    place(0)
    return out


def reference_linearize(semiorder, men_order, women_order):
    """Each list's guide-lexicographically best linear extension by the direct
    greedy: every step rescans all remaining pairs for one that is strictly
    beaten, then emits the best-ranked unbeaten candidate."""
    men_rank = {m: r for r, m in enumerate(men_order)}
    women_rank = {w: r for r, w in enumerate(women_order)}
    men_prefs = tuple(
        _greedy_extension(semiorder, "men", i, women_rank) for i in range(semiorder.n)
    )
    women_prefs = tuple(
        _greedy_extension(semiorder, "women", i, men_rank) for i in range(semiorder.n)
    )
    return smq.StrictProfile(men_prefs, women_prefs)


def _greedy_extension(semiorder, side, person, guide_rank):
    remaining = list(range(semiorder.n))
    out = []
    while remaining:
        undominated = [
            c
            for c in remaining
            if not any(
                d != c and semiorder.strictly_prefers(side, person, d, c)
                for d in remaining
            )
        ]
        best = min(undominated, key=guide_rank.__getitem__)
        out.append(best)
        remaining.remove(best)
    return tuple(out)


def reference_score_sum_rule(ballots):
    """Candidates by descending column sum of the ballots, equal sums by
    ascending index."""
    totals = [sum(column) for column in zip(*ballots)]
    return tuple(sorted(range(len(totals)), key=lambda c: (-totals[c], c)))


def reference_link_value(instance, man, woman, mode):
    """Strength of one pair, from the raw scores: their sum ('add') or their
    maximum ('max')."""
    a = instance.men_scores[man][woman]
    b = instance.women_scores[woman][man]
    return a + b if mode == "add" else max(a, b)


def reference_strengths(instance, mode):
    """(U, W): U[m][w] and W[w][m] are both the strength of the pair (m, w)."""
    n = instance.n
    U = [[reference_link_value(instance, m, w, mode) for w in range(n)] for m in range(n)]
    return U, [[U[m][w] for m in range(n)] for w in range(n)]


def reference_link_transform(instance, mode):
    """Pair strengths by one `reference_link_value` call per pair, each row
    sorted by descending value, ascending candidate index."""
    n = instance.n
    men_values = tuple(
        tuple(sorted(((w, reference_link_value(instance, m, w, mode)) for w in range(n)),
                     key=lambda p: (-p[1], p[0])))
        for m in range(n)
    )
    women_values = tuple(
        tuple(sorted(((m, reference_link_value(instance, m, w, mode)) for m in range(n)),
                     key=lambda p: (-p[1], p[0])))
        for w in range(n)
    )
    return smq.WeakProfile(men_values, women_values)


def reference_marriage_link(instance, marriage, mode):
    """Sum ('add') or maximum ('max') of the pair strengths of the marriage."""
    values = (reference_link_value(instance, m, w, mode) for m, w in marriage.pairs())
    return sum(values) if mode == "add" else max(values)


def reference_linearize_weak(profile):
    """Strict lists from a weak profile, ties by ascending candidate index:
    the rows are stored in that order, so this drops the values."""
    strip = lambda rows: tuple(tuple(c for c, _ in row) for row in rows)
    return smq.StrictProfile(strip(profile.men_values), strip(profile.women_values))


def reference_link_stable_gs(instance, mode):
    """The link solver by its definition: linearize the per-pair reference
    transform (ties by ascending candidate index) and run men-proposing
    deferred acceptance."""
    return smq.gs(reference_linearize_weak(reference_link_transform(instance, mode)), "men")


def reference_validate(n, men_scores, women_scores):
    """`smq.validate` for a positive `n`, with every row checked cell by cell."""
    return QuantInstance(n, _checked_matrix("men", n, men_scores),
                         _checked_matrix("women", n, women_scores))


def _checked_matrix(side: str, n: int, rows) -> Matrix:
    if not isinstance(rows, (list, tuple)) or len(rows) != n:
        raise NonSquareError(f"{side} matrix must have {n} rows")
    out = []
    for person, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            raise NonSquareError(f"{side} row {person + 1} must have {n} entries")
        seen: dict[int, int] = {}
        for cand, value in enumerate(row):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidInstanceError(
                    f"{side} row {person + 1}: score {value!r} is not an integer"
                )
            if value < 0:
                raise NegativeScoreError(
                    f"{side} row {person + 1}: score {value} is negative"
                )
            if value in seen:
                raise DuplicateScoreError(side, person, seen[value], cand, value)
            seen[value] = cand
        out.append(tuple(row))
    return tuple(out)
