"""Inputs and independent checks that do not depend on the code under test.

The generator draws instances the same way as ``smq.random_instance`` but
lives here, so a change to the library cannot change the benchmark's inputs.
The blocking-pair check is a plain O(n^2) scan written from the definitions;
it imports nothing from ``smq``, so a broken predicate in ``smq.stability``
cannot certify its own solvers.
"""

from __future__ import annotations

import json
import operator
import random
from collections import Counter


def make_instance(n: int, seed: int, max_score: int) -> tuple[list[list[int]], list[list[int]]]:
    """(men, women) score matrices; every row holds n distinct scores from 1..max_score."""
    rng = random.Random(seed)
    pool = range(1, max_score + 1)
    men = [rng.sample(pool, n) for _ in range(n)]
    women = [rng.sample(pool, n) for _ in range(n)]
    return men, women


def instance_json(men: list[list[int]], women: list[list[int]]) -> str:
    return json.dumps({"n": len(men), "men": men, "women": women}, separators=(",", ":"))


def _strength(a: int, b: int, notion: str) -> int:
    return a + b if notion == "link-add" else max(a, b)


def blocking_pair(men, women, match, notion: str, alpha: int | None = None):
    """First (man, woman) pair that blocks `match` under `notion`, or None.

    classical: both strictly prefer each other to their partners.
    alpha: both gain at least alpha points by defecting.
    link-add / link-max: the pair's strength (sum / max of the two scores)
    beats the strength of both current pairs.

    Each man's side of the condition is filtered first, in one pass over his
    row; only the women he would leave his partner for are checked further.
    """
    n = len(match)
    if sorted(match) != list(range(n)):
        return ("not a permutation", match)
    inverse = [0] * n
    for m, w in enumerate(match):
        inverse[w] = m
    if notion in ("classical", "alpha"):
        gap = 1 if notion == "classical" else alpha  # scores are integers: a > b iff a - b >= 1
        for m, w_cur in enumerate(match):
            row = men[m]
            floor = row[w_cur] + gap
            for w in [w for w, score in enumerate(row) if score >= floor]:
                if women[w][m] - women[w][inverse[w]] >= gap:
                    return (m, w)
        return None
    for m, w_cur in enumerate(match):
        row = men[m]
        mine = _strength(row[w_cur], women[w_cur][m], notion)
        for w in [w for w in range(n) if _strength(row[w], women[w][m], notion) > mine]:
            rival = inverse[w]
            if _strength(row[w], women[w][m], notion) > _strength(men[rival][w], women[w][rival],
                                                                  notion):
                return (m, w)
    return None


def incomparable_share(men, women, alpha: int) -> float:
    """Share of unordered candidate pairs, over all lists of both sides, whose
    scores differ by less than alpha (so the semiorder leaves them unordered)."""
    close = total = 0
    for row in (*men, *women):
        values = sorted(row)
        lo = 0
        for hi, value in enumerate(values):
            while value - values[lo] >= alpha:
                lo += 1
            close += hi - lo
        total += len(row) * (len(row) - 1) // 2
    return close / total


def tie_share(men, women, mode: str) -> float:
    """Share of unordered candidate pairs, over all lists of both sides, that
    carry the same pair strength after the add or max link transform."""
    n = len(men)
    combine = operator.add if mode == "add" else max
    women_by_man = list(zip(*women))  # women_by_man[m][w] = women[w][m]
    men_by_woman = list(zip(*men))  # men_by_woman[w][m] = men[m][w]
    ties = 0
    for person in range(n):
        for row in (map(combine, men[person], women_by_man[person]),
                    map(combine, men_by_woman[person], women[person])):
            ties += sum(k * (k - 1) // 2 for k in Counter(row).values())
    return ties / (2 * n * (n * (n - 1) // 2))
