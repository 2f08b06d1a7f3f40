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
        self.side, self.person, self.value = side, person, value
        self.first, self.second = first, second
        who, whom = _NAMES[side]
        super().__init__(f"{who(person)} scores {whom(first)} and {whom(second)} both at {value}")


def man_name(i: int) -> str:
    return f"m{i + 1}"


def woman_name(j: int) -> str:
    return f"w{j + 1}"


# per side, the names of its own members and of the members they rank
_NAMES = {"men": (man_name, woman_name), "women": (woman_name, man_name)}


class _Record:
    """Base of the immutable records: a record keeps the fields named in
    `_fields` in slots and compares (same class, equal fields), hashes,
    prints and pickles by them; setting or deleting one raises AttributeError.

    Building one binds positional values to the first fields in order, then
    named values to theirs, and raises TypeError naming the record and its
    fields unless each field gets one value. A record with a rule checks it
    and then calls this, or is built through :func:`_trusted`."""

    __slots__ = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named:  # the named values of the fields after the positional ones, in field order
            values = (*values, *[named.pop(name) for name in fields[len(values):] if name in named])
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__qualname__} takes each of its fields "
                            f"({', '.join(fields)}) once")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

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
    `oracle._stable_marriages` keeps ``(alpha, matches)``, the last
    search of a value table and gap, under the notion's name (alpha 1 under
    ``"classical"``). A pickled profile carries none of them."""

    _fields = ("men_scores", "women_scores")
    __slots__ = (*_fields, "_kept")

    def __init__(self, men_scores: Matrix, women_scores: Matrix):
        _check_rows(men_scores, women_scores)
        _Record.__init__(self, men_scores, women_scores)
        object.__setattr__(self, "_kept", {})

    def _ranking(self, side: str) -> Matrix:
        """Every row of one side ("men" or "women") ranked by :func:`_rank_rows`."""
        ranked = self._kept.get(side)
        if ranked is None:
            rows = self.men_scores if side == "men" else self.women_scores
            ranked = self._kept[side] = _rank_rows(rows)
        return ranked


def _check_rows(men_scores: Matrix, women_scores: Matrix) -> None:
    """Raise the errors for rows that :class:`ScoredProfile` states."""
    n, rows = len(men_scores), (*men_scores, *women_scores)
    if not all(map(isinstance, rows, repeat(_VALUE_ROWS))):
        raise ValueError("a scored profile needs value rows that are tuples or lists")
    if len(women_scores) != n or set(map(len, rows)) - {n}:
        raise NonSquareError(f"a scored profile of size {n} needs {n} rows of {n} entries")


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
        _check_rows(men_scores, women_scores)
        _Record.__init__(self, n, men_scores, women_scores)
        object.__setattr__(self, "_kept", {})


class StrictProfile(_Record):
    """Strict preference lists, most preferred first. Building one raises
    ValueError unless each side holds n lists, each holding 0..n-1 once as
    exact ints (:func:`_permutes`), so deferred acceptance trusts them: no
    proposer runs out, and a receiver's list is read to her first comparison.
    :func:`derive_classical` and :func:`linearize` build theirs through
    :func:`_trusted`, since their lists permute by construction.

    `_source`, a slot outside the fields, holds the :class:`ScoredProfile`
    whose rankings :func:`derive_classical` lists, so that deferred
    acceptance reads its values instead of the lists."""

    _fields = ("men_prefs", "women_prefs")
    __slots__ = (*_fields, "_source")

    def __init__(self, men_prefs: Matrix, women_prefs: Matrix):
        n = len(men_prefs)
        for side, lists in (("men", men_prefs), ("women", women_prefs)):
            if len(lists) != n or not all(_permutes(row, n) for row in lists):
                raise ValueError(f"the {side}'s lists are not {n} permutations of 0..{n - 1}")
        _Record.__init__(self, men_prefs, women_prefs)
        object.__setattr__(self, "_source", None)


class Marriage(_Record):
    """A perfect matching; partner_of_man[i] is the woman married to man i.
    Building one raises ValueError unless it holds 0..len-1 once as exact
    ints (:func:`_permutes`); readers trust that. The oracle builds its
    records through :func:`_trusted`, since its search places every woman once."""

    __slots__ = _fields = ("partner_of_man",)

    def __init__(self, partner_of_man: tuple[int, ...]):
        _check_permutes(len(partner_of_man), partner_of_man)
        _Record.__init__(self, partner_of_man)

    def inverse(self) -> tuple[int, ...]:
        """partner_of_woman: entry j is the man married to woman j."""
        return _inverse(self.partner_of_man)

    def pairs(self) -> list[tuple[int, int]]:
        return list(enumerate(self.partner_of_man))


def _partners(instance: QuantInstance, marriage: Marriage) -> tuple[int, ...]:
    """The marriage's partner_of_man, after a ValueError unless it has the
    instance's size; a :class:`Marriage` is a permutation already, so that
    is all a reader tests. Only checked marriages and those the oracle's
    search builds reach it: a :func:`_trusted` one that does not permute
    would pass unnoticed."""
    match = marriage.partner_of_man
    if len(match) != instance.n:
        raise ValueError(f"a marriage of size {len(match)} ({list(match)}) is not a "
                         f"permutation of the women of an instance of size {instance.n}")
    return match


def _permutes(values, n: int) -> bool:
    """Each of 0..n-1 once, as exact ints: a float or bool equal to one is not."""
    return set(map(type, values)) <= {int} and len(values) == n and set(values).issuperset(range(n))


def _inverse(match) -> tuple[int, ...]:
    """The inverse of a permutation of 0..n-1: entry j is the index holding j."""
    out = [0] * len(match)
    for i, j in enumerate(match):
        out[j] = i
    return tuple(out)


def _check_indices(n: int, **indices: int) -> None:
    """Raise ValueError naming the first argument that is not an exact int in 0..n-1."""
    for name, index in indices.items():
        if type(index) is not int or not 0 <= index < n:
            raise ValueError(f"{name} {index!r} is not an index of an instance of size {n}")


def _check_choice(name: str, value, choices: tuple[str, ...]) -> None:
    """Raise ValueError naming the argument unless value is one of the choices."""
    if value not in choices:
        raise ValueError(f"{name} must be {' or '.join(map(repr, choices))}, got {value!r}")


def _check_permutes(n: int, *sequences: tuple[int, ...]) -> None:
    """Raise ValueError unless each sequence passes :func:`_permutes`."""
    for values in sequences:
        if not _permutes(values, n):
            raise ValueError(f"{list(values)} is not a permutation of 0..{n - 1}")


PairList = tuple[tuple[int, int], ...]


class WeakProfile(_Record):
    """Preference lists with ties: each list holds one (candidate, value) pair
    per candidate, sorted by descending value, ascending candidate index within
    equal values. Equal values denote indifference. Building one raises
    ValueError unless each side holds n such lists (:func:`_ranked`), so the
    weak-stability filter and :func:`has_ties` trust them;
    :func:`link_transform` builds its rankings through :func:`_trusted`."""

    __slots__ = _fields = ("men_values", "women_values")

    def __init__(self, men_values: tuple[PairList, ...], women_values: tuple[PairList, ...]):
        n = len(men_values)
        for side, lists in (("men", men_values), ("women", women_values)):
            if len(lists) != n or not all(_ranked(row, n) for row in lists):
                raise ValueError(f"the {side}'s lists are not {n} rankings of 0..{n - 1} "
                                 f"by descending value, ties by ascending index")
        _Record.__init__(self, men_values, women_values)

    @property
    def n(self) -> int:
        return len(self.men_values)


def _ranked(row, n: int) -> bool:
    """n (candidate, value) pairs whose candidates pass :func:`_permutes`, by
    descending value, equal values by ascending candidate."""
    try:
        candidates, values = zip(*row)
        return set(map(len, row)) == {2} and _permutes(candidates, n) and all(
            a > b or a == b and c < d
            for a, b, c, d in zip(values, values[1:], candidates, candidates[1:]))
    except (TypeError, ValueError):  # a pair that is not two items, or values that do not compare
        return False


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
    # n rows of n entries each, so the instance skips QuantInstance's check
    return _trusted(QuantInstance)(n, men, women, {})


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
    return _trusted(StrictProfile)(instance._ranking("men"), instance._ranking("women"), instance)


def _trusted(cls):
    """The builder of `cls` records without the checks of its ``__init__``,
    for values that meet its contract by construction, and the one place
    that builds a record so. It takes one value per slot of `cls` and its
    bases: its `_fields` in order, then its memo slots (`_kept`, `_source`).
    The oracle builds one :class:`Marriage` per member, so a one-slot record
    is built without a loop."""
    new = cls.__new__
    memos = [name for klass in cls.__mro__ for name in vars(klass).get("__slots__", ())
             if name not in cls._fields]
    puts = [getattr(cls, name).__set__ for name in (*cls._fields, *memos)]
    if len(puts) == 1:
        (put,) = puts

        def build(value):
            record = new(cls)
            put(record, value)
            return record
        return build

    def build(*values):
        record = new(cls)
        for put, value in zip(puts, values, strict=True):
            put(record, value)
        return record
    return build


def _rank_rows(rows) -> Matrix:
    """Indices of each row by descending value, equal values by ascending
    index: the one ranking rule every derived list follows. sorted() is
    stable under reverse=True, so equal values keep their index order. The
    rows sort one shared index tuple, so rankings hold no ints of their own."""
    index = tuple(range(len(rows[0]) if rows else 0))
    # a list's __getitem__ is a C method, cheaper per call than a tuple's slot wrapper
    return tuple([tuple(sorted(index, key=list(row).__getitem__, reverse=True)) for row in rows])


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
    instance. Requires n <= max_score <= sys.maxsize, random.sample's limit.
    """
    if isinstance(n, bool):
        raise ValueError("n must be an integer, not a bool")
    if n < 1:
        raise ValueError("n must be positive")
    if not n <= max_score <= sys.maxsize:
        raise ValueError(f"max_score {max_score} is not in {n}..{sys.maxsize}")
    rng = random.Random(seed)
    pool = range(1, max_score + 1)
    men = tuple(tuple(rng.sample(pool, n)) for _ in range(n))
    women = tuple(tuple(rng.sample(pool, n)) for _ in range(n))
    return QuantInstance(n, men, women)
