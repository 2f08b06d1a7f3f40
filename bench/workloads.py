"""The four workloads: how each op calls the library, what the CLI counterpart
is, how outputs are checked and which input properties are reported.

Each op calls the public API through the package namespace (``smq.gs``), so
the tracer's wrappers see it. An op returns the raw objects; `canonical`
turns them into the bytes whose SHA-256 the pool recorded, outside the timer.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from reference import blocking_pair, incomparable_share, tie_share

POOLS = Path(__file__).resolve().parent / "pools"
DECK_TOLERANCE = 0.02
MAX_DRAWS = 100_000
NOTIONS = ("classical", "alpha", "link-add", "link-max")


@dataclass(frozen=True)
class Case:
    """One input of a workload, regenerated from (n, seed, max_score)."""

    id: int
    n: int
    seed: int
    max_score: int
    alpha: int | None
    group: int  # a deck draws the same number of cases from every group (alpha value)
    cost_ms: float  # op time at the reference host speed when recorded; used only to draw op decks
    cli_cost_ms: float  # the same for the CLI counterpart; used only to draw CLI decks
    digest: str
    cli_digest: str
    set_sizes: dict
    properties: dict  # input properties the op's cost depends on (Workload.properties)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _match(marriage) -> list[int]:
    return list(marriage.partner_of_man)


def _dump(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


# --- solve-strict ------------------------------------------------------------

def _op_solve_strict(smq, text, case):
    q = smq.parse_instance(text)
    profile = smq.derive_classical(q)
    solutions = {
        "classical-men": smq.gs(profile, "men"),
        "classical-women": smq.gs(profile, "women"),
        "link-add": smq.link_stable_gs(q, "add"),
        "link-max": smq.link_stable_gs(q, "max"),
    }
    audits = [
        smq.is_stable(q, solutions["classical-men"], "classical"),
        smq.is_stable(q, solutions["classical-women"], "classical"),
        smq.is_stable(q, solutions["link-add"], "link-add"),
        smq.is_stable(q, solutions["link-max"], "link-max"),
    ]
    report = smq.blocking_pairs(q, solutions["classical-men"], "classical")
    return solutions, audits, report


def _canonical_solve_strict(result) -> bytes:
    solutions, audits, report = result
    return _dump({"solutions": {k: _match(m) for k, m in solutions.items()},
                  "audits": audits, "report": report.to_json()})


def _solutions_solve_strict(result, case):
    solutions = result[0]
    return [("classical", None, solutions["classical-men"]),
            ("classical", None, solutions["classical-women"]),
            ("link-add", None, solutions["link-add"]),
            ("link-max", None, solutions["link-max"])]


# --- solve-alpha -------------------------------------------------------------

def _op_solve_alpha(smq, text, case):
    q = smq.parse_instance(text)
    marriage = smq.lex_male_alpha_gs(q, case.alpha)
    return marriage, smq.is_stable(q, marriage, "alpha", case.alpha)


def _canonical_solve_alpha(result) -> bytes:
    marriage, audit = result
    return _dump({"match": _match(marriage), "audit": audit})


def _solutions_solve_alpha(result, case):
    return [("alpha", case.alpha, result[0])]


# --- certify -----------------------------------------------------------------

def _op_certify(smq, text, case):
    q = smq.parse_instance(text)
    a = case.alpha
    sets = {notion: smq.enumerate_stable(q, notion, a if notion == "alpha" else None)
            for notion in NOTIONS}
    men_order, women_order = smq.popularity_orders(q)
    queries = {
        "lex_optimum": smq.lex_optimum(q, a, men_order, women_order),
        "highest_link_add": smq.highest_link(q, "add"),
        "highest_link_max": smq.highest_link(q, "max"),
        "feasible_partners": smq.feasible_partners(q, a),
    }
    solvers = {
        "classical": smq.gs(smq.derive_classical(q), "men"),
        "alpha": smq.lex_male_alpha_gs(q, a),
        "link-add": smq.link_stable_gs(q, "add"),
        "link-max": smq.link_stable_gs(q, "max"),
    }
    return sets, queries, solvers


def _canonical_certify(result) -> bytes:
    sets, queries, solvers = result
    men, women = queries["feasible_partners"]
    return _dump({
        "sets": {notion: s.to_json() for notion, s in sets.items()},
        "lex_optimum": _match(queries["lex_optimum"]),
        "highest_link_add": [_match(m) for m in queries["highest_link_add"]],
        "highest_link_max": [_match(m) for m in queries["highest_link_max"]],
        "feasible_partners": [[sorted(s) for s in men], [sorted(s) for s in women]],
        "solvers": {notion: _match(m) for notion, m in solvers.items()},
    })


def _solutions_certify(result, case):
    return [(notion, case.alpha if notion == "alpha" else None, m)
            for notion, m in result[2].items()]


def _members_certify(result, case) -> list[str]:
    """Solver outputs (and the queries' answers) must lie in the enumerated sets."""
    sets, queries, solvers = result
    members = {notion: {tuple(_match(m)) for m in s.marriages()} for notion, s in sets.items()}
    claims = [(f"solver {notion}", notion, m) for notion, m in solvers.items()]
    claims.append(("lex_optimum", "alpha", queries["lex_optimum"]))
    claims += [("highest_link_add", "link-add", m) for m in queries["highest_link_add"]]
    claims += [("highest_link_max", "link-max", m) for m in queries["highest_link_max"]]
    return [f"{label} output {_match(m)} is not in the {notion} stable set"
            for label, notion, m in claims if tuple(_match(m)) not in members[notion]]


# --- enumerate-dense ---------------------------------------------------------

def _op_enumerate_dense(smq, text, case):
    q = smq.parse_instance(text)
    stable_set = smq.enumerate_stable(q, "alpha", case.alpha)
    return stable_set, smq.undominated(q, stable_set)


def _canonical_enumerate_dense(result) -> bytes:
    stable_set, undominated = result
    return _dump({"set": stable_set.to_json(),
                  "undominated": [_match(m) for m in undominated]})


def _sizes_certify(result) -> dict:
    return {notion: len(s) for notion, s in result[0].items()}


def _sizes_enumerate_dense(result) -> dict:
    return {"alpha": len(result[0])}


def _no_sizes(result) -> dict:
    return {}


def _no_solutions(result, case):
    return []


def _no_members(result, case) -> list[str]:
    return []


def op_cost(case: Case) -> float:
    return case.cost_ms


def cli_cost(case: Case) -> float:
    return case.cli_cost_ms


def cost_profile(cases: list[Case], cost: Callable) -> tuple[float, float]:
    costs = [cost(c) for c in cases]
    return statistics.fmean(costs), statistics.median(costs)


def _draw(pool: list[Case], rng: random.Random, size: int, cost: Callable) -> list[Case]:
    """`size` distinct cases: one from each `cost` stratum of each group
    (every group gives the same number), redrawn until the deck's recorded
    mean and median cost are both within DECK_TOLERANCE of the pool's.

    Pool costs span up to 18x (enumerate-dense), so a plain random draw would
    make the medians of two seeds differ by the draw, not by the program.
    Balanced decks keep the inputs seed-dependent and the medians comparable.
    CLI decks are balanced on the CLI's own cost, which is not proportional
    to the op's: the CLI reads a file, does its own part of the op's work
    and prints the result.
    """
    groups: dict[int, list[Case]] = {}
    for case in pool:
        groups.setdefault(case.group, []).append(case)
    per_group = size // len(groups)
    strata = []
    for group in sorted(groups):
        members = sorted(groups[group], key=lambda c: (cost(c), c.id))
        strata += [members[k * len(members) // per_group:(k + 1) * len(members) // per_group]
                   for k in range(per_group)]
    mean, median = cost_profile(pool, cost)
    for _ in range(MAX_DRAWS):
        picks = [rng.choice(stratum) for stratum in strata]
        deck_mean, deck_median = cost_profile(picks, cost)
        if (abs(deck_mean / mean - 1) <= DECK_TOLERANCE
                and abs(deck_median / median - 1) <= DECK_TOLERANCE):
            rng.shuffle(picks)
            return picks
    raise RuntimeError(f"no deck of {size} matches the pool's cost profile")


def _params(rng, n, max_score, alpha, group=None) -> dict:
    """Case fields for one candidate input; alpha workloads group by alpha."""
    return {"n": n, "seed": rng.randrange(2**31), "max_score": max_score, "alpha": alpha,
            "group": (alpha or 0) if group is None else group}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool_size: int
    op_deck: int  # cases per round of in-process ops
    cli_deck: int  # cases per run of CLI calls
    rounds: int  # rounds in an untraced run of REFERENCE_SECONDS (see run.rounds_for)
    op: Callable
    canonical: Callable
    solutions: Callable  # (result, case) -> [(notion, alpha, marriage)] to check independently
    members: Callable  # (result, case) -> problems found by set-membership checks
    cli: Callable  # case -> argv after "smq", without "-i <file>"
    link_modes: tuple[str, ...]  # link transforms the op performs, for link.tie_share
    candidate: Callable  # (rng, index) -> Case fields n, seed, max_score, alpha, group
    set_sizes: Callable = _no_sizes  # result -> {notion: stable-set size}, recorded per case
    alpha_set_range: tuple[int, int] | None = None  # keep only cases with this many alpha-stable marriages
    cost_range: tuple[float, float] | None = None  # keep only cases whose op takes this many ms

    def cli_argv(self, case: Case, path: str) -> list[str]:
        return [*self.cli(case), "-i", path]

    def load_pool(self) -> list[Case]:
        doc = json.loads((POOLS / f"{self.name}.json").read_text())
        return [Case(**entry) for entry in doc["cases"]]

    def decks(self, pool: list[Case], seed: int) -> tuple[list[Case], Iterator[list[Case]]]:
        """The run's inputs, drawn by `seed`: its CLI deck, and an endless
        series of op decks, one per round."""
        rng = random.Random(f"{self.name}/{seed}")
        cli_deck = _draw(pool, rng, self.cli_deck, cli_cost)

        def op_decks():
            while True:
                yield _draw(pool, rng, self.op_deck, op_cost)

        return cli_deck, op_decks()

    def check(self, case: Case, text: str, result, verified: dict) -> list[str]:
        """Problems with one op's output: digest mismatch, blocking pairs found
        by the independent check, missing members. Identical output bytes
        are checked independently once per run (`verified`)."""
        digest = sha256(self.canonical(result))
        if digest != case.digest:
            return [f"case {case.id}: output digest {digest[:12]} != recorded {case.digest[:12]}"]
        if digest not in verified:
            instance = json.loads(text)
            men, women = instance["men"], instance["women"]
            problems = self.members(result, case)
            for notion, alpha, marriage in self.solutions(result, case):
                found = blocking_pair(men, women, _match(marriage), notion, alpha)
                if found is not None:
                    problems.append(f"{notion} output {_match(marriage)} blocked by {found}")
            verified[digest] = [f"case {case.id}: {p}" for p in problems]
        return verified[digest]

    def properties(self, case: Case, men, women) -> dict:
        """Input properties the op's cost depends on (see README)."""
        props = {}
        if case.alpha is not None:
            props["alpha.incomparable_share"] = incomparable_share(men, women, case.alpha)
        for mode in self.link_modes:
            props[f"link.tie_share.{mode}"] = tie_share(men, women, mode)
        return props


WORKLOADS = {w.name: w for w in (
    Workload(
        name="solve-strict",
        why="polynomial path at n=300: link transform, parsing, audits and deferred acceptance; no alpha or oracle",
        pool_size=32, op_deck=8, cli_deck=8, rounds=3,
        op=_op_solve_strict, canonical=_canonical_solve_strict,
        solutions=_solutions_solve_strict, members=_no_members,
        cli=lambda case: ["solve", "--notion", "link-add"],
        link_modes=("add", "max"),
        candidate=lambda rng, i: _params(rng, 300, 3000, None),
    ),
    Workload(
        name="solve-alpha",
        why="lex-alpha solver at n=40 with alpha 1, n, 5n: the alpha linearization dominates",
        pool_size=48, op_deck=12, cli_deck=12, rounds=2,
        op=_op_solve_alpha, canonical=_canonical_solve_alpha,
        solutions=_solutions_solve_alpha, members=_no_members,
        cli=lambda case: ["solve", "--notion", "lex-alpha", "--alpha", str(case.alpha)],
        link_modes=(),
        candidate=lambda rng, i: _params(rng, 40, 400, (1, 40, 200)[i % 3]),
    ),
    Workload(
        name="certify",
        why="oracle at n=8 with small stable sets: eight n! permutation scans per op dominate",
        pool_size=36, op_deck=3, cli_deck=12, rounds=8,
        op=_op_certify, canonical=_canonical_certify,
        solutions=_solutions_certify, members=_members_certify,
        cli=lambda case: ["enumerate", "--notion", "classical"],
        link_modes=("add", "max"),
        candidate=lambda rng, i: _params(rng, 8, 80, (1, 2, 8)[i % 3]),
        set_sizes=_sizes_certify,
    ),
    Workload(
        name="enumerate-dense",
        why="oracle at n=8 with 1,000-4,000 alpha-stable marriages: the all-pairs dominance annotation dominates",
        pool_size=48, op_deck=24, cli_deck=8, rounds=1,
        op=_op_enumerate_dense, canonical=_canonical_enumerate_dense,
        solutions=_no_solutions, members=_no_members,
        cli=lambda case: ["enumerate", "--notion", "alpha", "--alpha", str(case.alpha)],
        link_modes=(),
        candidate=lambda rng, i: _params(rng, 8, rng.randint(8, 16), rng.randint(3, 6), group=0),
        set_sizes=_sizes_enumerate_dense,
        alpha_set_range=(1000, 4000),
        cost_range=(700.0, 1700.0),
    ),
)}
