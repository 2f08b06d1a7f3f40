"""Data model for two-sided matching markets with integer preference scores.

A market instance pairs n men with n women. Every person assigns a
distinct non-negative integer score to each member of the other side;
higher means more wanted. Indices are 0-based everywhere in code, while
human-facing output uses the 1-based names m1..mn and w1..wn.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import chain, repeat

Matrix = tuple[tuple[int, ...], ...]
_VALUE_ROWS = (tuple, list)  # a ScoredProfile's rows; any other receiver is an unread list


class InvalidInstanceError(ValueError):
    """Candidate instance data violates the score-matrix contract."""


class ZeroSizeError(InvalidInstanceError):
    pass


class NonSquareError(InvalidInstanceError):
    pass


class NegativeScoreError(InvalidInstanceError):
    pass


class DuplicateScoreError(InvalidInstanceError):
    """One person scored two candidates identically, so their ranking is ambiguous."""

    def __init__(self, side: str, person: int, first: int, second: int, value: int):
        self.side = side
        self.person = person
        self.first = first
        self.second = second
        self.value = value
        who = man_name(person) if side == "men" else woman_name(person)
        a, b = (
            (woman_name(first), woman_name(second))
            if side == "men"
            else (man_name(first), man_name(second))
        )
        super().__init__(f"{who} scores {a} and {b} both at {value}")


def man_name(i: int) -> str:
    return f"m{i + 1}"


def woman_name(j: int) -> str:
    return f"w{j + 1}"


class _Record:
    """Base of the immutable records: a record keeps the fields named in
    `_fields` in slots and compares (same class, equal fields), hashes,
    prints and pickles by them; setting or deleting one raises AttributeError."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ScoredProfile(_Record):
    """Preferences as values: men_scores[i][j] is man i's value for woman j,
    women_scores[i][j] woman i's value for man j. Higher is preferred, and
    equal values go to the lower index: the order :func:`derive_classical`
    lists. Building one raises ValueError unless every row is a tuple or
    list, and NonSquareError unless both are n rows of n entries.

    `_kept`, a slot outside the fields that ``==``, ``hash``, ``repr`` and
    pickling ignore, is the one memo of results derived from the rows, so
    the rows must never be mutated; a record has no ``__dict__``, so it
    slows no attribute load. Its keys fall in three disjoint sets, each
    filled by one reader: :meth:`_ranking` keeps each side's rankings under
    ``"men"`` and ``"women"``; `link._strengths` keeps the pair-strength
    profile of each mode under ``"add"`` and ``"max"``; and
    `oracle._stable_marriages` keeps ``(alpha, marriages)``, the last
    search of a value table and gap, under the notion's name (alpha 1 under
    ``"classical"``). A pickled profile carries none of them."""

    _fields = ("men_scores", "women_scores")
    __slots__ = (*_fields, "_kept")

    def __init__(self, men_scores: Matrix, women_scores: Matrix):
        n, rows = len(men_scores), (*men_scores, *women_scores)
        if not all(map(isinstance, rows, repeat(_VALUE_ROWS))):
            raise ValueError("a scored profile needs value rows that are tuples or lists")
        if len(women_scores) != n or set(map(len, rows)) - {n}:
            raise NonSquareError(f"a scored profile of size {n} needs {n} rows of {n} entries")
        object.__setattr__(self, "men_scores", men_scores)
        object.__setattr__(self, "women_scores", women_scores)
        object.__setattr__(self, "_kept", {})

    def _ranking(self, side: str) -> Matrix:
        """Every row of one side ("men" or "women") ranked by :func:`_rank_rows`."""
        ranked = self._kept.get(side)
        if ranked is None:
            rows = self.men_scores if side == "men" else self.women_scores
            ranked = self._kept[side] = _rank_rows(rows)
        return ranked


class QuantInstance(ScoredProfile):
    """A scored market: men_scores[i][j] is man i's score for woman j,
    women_scores[i][j] is woman i's score for man j. It is the
    :class:`ScoredProfile` of its scores, the value table of classical and
    alpha stability, and keeps its derived results in the memo that
    :class:`ScoredProfile` describes.

    Construct through :func:`validate` (or :func:`parse_instance`) unless the
    data is known to satisfy the invariants already. Building one raises
    NonSquareError unless both matrices have n rows, then refuses what
    :class:`ScoredProfile` refuses; the scores themselves are left to
    :func:`validate`. Immutable and hashable, and never equal to a bare
    :class:`ScoredProfile` of the same scores.
    """

    _fields = ("n", "men_scores", "women_scores")
    __slots__ = ("n",)

    def __init__(self, n: int, men_scores: Matrix, women_scores: Matrix):
        if not len(men_scores) == len(women_scores) == n:
            raise NonSquareError(f"an instance of size {n} needs {n} rows per matrix, "
                                 f"got {len(men_scores)} and {len(women_scores)}")
        object.__setattr__(self, "n", n)
        ScoredProfile.__init__(self, men_scores, women_scores)


class StrictProfile(_Record):
    """Strict preference lists, most preferred first. Building one raises
    ValueError unless each side holds n lists, each a permutation of
    0..n-1, so deferred acceptance trusts them: no proposer runs out, and
    each receiver's list is read only until her first comparison.

    `_source`, a slot outside the fields, holds the :class:`ScoredProfile`
    whose rankings :func:`derive_classical` lists, unchecked, so that
    deferred acceptance reads its values instead of the lists."""

    _fields = ("men_prefs", "women_prefs")
    __slots__ = (*_fields, "_source")

    def __init__(self, men_prefs: Matrix, women_prefs: Matrix):
        n, everyone = len(men_prefs), set(range(len(men_prefs)))
        for side, lists in (("men", men_prefs), ("women", women_prefs)):
            if len(lists) != n or any(len(row) != n or set(row) != everyone for row in lists):
                raise ValueError(f"the {side}'s lists are not {n} permutations of 0..{n - 1}")
        object.__setattr__(self, "men_prefs", men_prefs)
        object.__setattr__(self, "women_prefs", women_prefs)
        object.__setattr__(self, "_source", None)


class Marriage(_Record):
    """A perfect matching; partner_of_man[i] is the woman married to man i.
    Building one raises ValueError unless it permutes 0..len-1; readers trust that."""

    __slots__ = _fields = ("partner_of_man",)

    def __init__(self, partner_of_man: tuple[int, ...]):
        if not set(partner_of_man).issuperset(range(len(partner_of_man))):
            raise ValueError(f"{list(partner_of_man)} is not a permutation "
                             f"of 0..{len(partner_of_man) - 1}")
        object.__setattr__(self, "partner_of_man", partner_of_man)

    def inverse(self) -> tuple[int, ...]:
        """partner_of_woman: entry j is the man married to woman j."""
        out = [0] * len(self.partner_of_man)
        for m, w in enumerate(self.partner_of_man):
            out[w] = m
        return tuple(out)

    def pairs(self) -> list[tuple[int, int]]:
        return list(enumerate(self.partner_of_man))


def _partners(instance: QuantInstance, marriage: Marriage) -> tuple[int, ...]:
    """The marriage's partner_of_man, after a ValueError unless it has the
    instance's size; a :class:`Marriage` is a permutation already, so that
    is all a reader tests."""
    match = marriage.partner_of_man
    if len(match) != instance.n:
        raise ValueError(f"a marriage of size {len(match)} ({list(match)}) is not a "
                         f"permutation of the women of an instance of size {instance.n}")
    return match


def _check_orders(n: int, *orders: tuple[int, ...]) -> None:
    """Raise ValueError unless each order permutes 0..n-1 with int entries:
    a float or bool that equals an index is not one."""
    for order in orders:
        if not set(map(type, order)) <= {int} or sorted(order) != list(range(n)):
            raise ValueError(f"order {list(order)} is not a permutation of 0..{n - 1}")


PairList = tuple[tuple[int, int], ...]


class WeakProfile(_Record):
    """Preference lists with ties: each entry is a (candidate, value) list
    sorted by descending value, ascending candidate index within equal values.
    Equal values denote indifference."""

    __slots__ = _fields = ("men_values", "women_values")

    def __init__(self, men_values: tuple[PairList, ...], women_values: tuple[PairList, ...]):
        object.__setattr__(self, "men_values", men_values)
        object.__setattr__(self, "women_values", women_values)

    @property
    def n(self) -> int:
        return len(self.men_values)


def validate(n, men_scores, women_scores) -> QuantInstance:
    """Check candidate data against every invariant and build an instance.

    Raises:
        ZeroSizeError: n is not a positive integer.
        NonSquareError: a matrix is not n rows of n entries.
        NegativeScoreError: a score is below zero.
        DuplicateScoreError: one person's row repeats a value.
        InvalidInstanceError: a score is not an integer.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ZeroSizeError(f"instance size must be a positive integer, got {n!r}")
    men = _checked_matrix("men", n, men_scores)
    women = _checked_matrix("women", n, women_scores)
    return QuantInstance(n, men, women)


def _checked_matrix(side: str, n: int, rows) -> Matrix:
    if not isinstance(rows, (list, tuple)) or len(rows) != n:
        raise NonSquareError(f"{side} matrix must have {n} rows")
    # n rows of n distinct non-negative plain ints pass on C-level checks of
    # the whole matrix. Any other matrix, faulty or holding int subclasses,
    # takes the per-cell loop, which accepts it or names the first fault.
    if (set(map(type, rows)) <= {list, tuple} and set(map(len, rows)) == {n}
            and set(map(type, chain.from_iterable(rows))) == {int}
            and min(map(min, rows)) >= 0 and set(map(len, map(set, rows))) == {n}):
        return tuple(map(tuple, rows))
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


def derive_classical(instance: QuantInstance) -> StrictProfile:
    """Keep only the orderings the scores induce: each list is sorted by
    strictly decreasing own score. Rankings are permutations, so this skips
    :class:`StrictProfile`'s check, and keeps the instance as `_source`."""
    profile = StrictProfile.__new__(StrictProfile)
    for name, value in (("men_prefs", instance._ranking("men")),
                        ("women_prefs", instance._ranking("women")), ("_source", instance)):
        object.__setattr__(profile, name, value)
    return profile


def _rank_rows(rows) -> Matrix:
    """Indices of each row by descending value, equal values by ascending
    index: the one ranking rule every derived list follows. sorted() is
    stable under reverse=True, so equal values keep their index order. The
    rows sort one shared index tuple, so rankings hold no ints of their own."""
    index = tuple(range(len(rows[0]) if rows else 0))
    # a list's __getitem__ is a C method, cheaper per call than a tuple's slot wrapper
    return tuple([tuple(sorted(index, key=list(row).__getitem__, reverse=True)) for row in rows])


def make_marriage(values) -> Marriage:
    """Build a marriage from outside input, woman indices one per man.
    Raises ValueError unless there is at least one entry and every entry is
    an int; :class:`Marriage` then refuses one that does not permute 0..n-1."""
    match = tuple(values)
    # exact int type, checked in C: bools and floats equal indices but are not indices
    if set(map(type, match)) != {int}:
        raise ValueError(f"{list(match)} is not a non-empty list of int indices")
    return Marriage(match)


def parse_instance(text: str) -> QuantInstance:
    """Parse the instance JSON format: {"n":..., "men":[[...]], "women":[[...]]}.

    Raises json.JSONDecodeError on malformed JSON, InvalidInstanceError for
    an integer literal over ``sys.get_int_max_str_digits()`` digits, then the
    validate errors.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        # the only other ValueError json.loads raises: int() refusing a long literal
        raise InvalidInstanceError(
            f"an integer literal has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    if not isinstance(data, dict):
        raise InvalidInstanceError("instance JSON must be an object")
    for key in ("n", "men", "women"):
        if key not in data:
            raise InvalidInstanceError(f"instance JSON is missing key {key!r}")
    return validate(data["n"], data["men"], data["women"])


def serialize_instance(instance: QuantInstance) -> str:
    """Canonical JSON: fixed key order, compact separators, no whitespace."""
    doc = {
        "n": instance.n,
        "men": [list(row) for row in instance.men_scores],
        "women": [list(row) for row in instance.women_scores],
    }
    return json.dumps(doc, separators=(",", ":"))


def serialize_marriage(marriage: Marriage) -> str:
    return json.dumps({"match": list(marriage.partner_of_man)}, separators=(",", ":"))


def random_instance(n: int, seed: int, max_score: int = 100) -> QuantInstance:
    """Seeded random instance; every row draws n distinct scores from 1..max_score.

    Deterministic: the same (n, seed, max_score) always yields the same
    instance. Requires max_score >= n so a row of distinct scores exists.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if max_score < n:
        raise ValueError(f"max_score {max_score} cannot cover {n} distinct scores")
    rng = random.Random(seed)
    pool = range(1, max_score + 1)
    men = tuple(tuple(rng.sample(pool, n)) for _ in range(n))
    women = tuple(tuple(rng.sample(pool, n)) for _ in range(n))
    return QuantInstance(n, men, women)
