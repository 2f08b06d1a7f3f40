"""Command-line front end.

Machine-readable JSON goes to stdout; human-readable tables are added only
under --pretty; diagnostics go to stderr. Exit codes: 0 ok, 1 invalid
instance, 2 bad flags, 3 marriage found unstable by `check`, 4 malformed
--marriage value; 0 also when a reader closes stdout early, without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .alpha import alpha_transform, lex_male_alpha_gs
from .gale_shapley import gs
from .instances import (
    _NAMES,
    Marriage,
    QuantInstance,
    derive_classical,
    man_name,
    parse_instance,
    random_instance,
    serialize_instance,
    serialize_marriage,
    woman_name,
)
from .link import link_stable_gs, link_transform, marriage_link
from .oracle import DEFAULT_SIZE_BOUND, SizeBoundError, enumerate_stable
from .stability import NOTIONS, BlockingReport, blocking_pairs

OK, INVALID_INSTANCE, USAGE, UNSTABLE, BAD_MARRIAGE = 0, 1, 2, 3, 4

# Largest instance `gen` writes, four times the n=500 the solvers are held
# to. Memory grows as n^2; peaks at this size on 64-bit CPython 3.11: `solve`
# 420-532 MB by notion, `check` of a marriage with ~10^6 blocking pairs 1.2 GB.
GEN_MAX_N = 2000


class _Fail(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smq",
        description="Solvers and audits for stable marriage instances with integer scores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute one marriage under a solution notion")
    solve.add_argument("--notion", required=True,
                       choices=["male", "female", "lex-alpha", "link-add", "link-max"])
    solve.add_argument("--alpha", type=int, help="gap threshold; required iff --notion lex-alpha")
    solve.add_argument("-i", "--instance", required=True, help="instance JSON file")
    solve.add_argument("--pretty", action="store_true", help="also print a pairing table")
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser("check", help="audit a marriage for blocking pairs")
    # argparse reads an argument that opens with "-" as a flag unless it is a
    # plain negative number; a --marriage value such as -1,0 is a value too
    check._negative_number_matcher = re.compile(r"-\d")
    check.add_argument("--notion", required=True, choices=NOTIONS)
    check.add_argument("--alpha", type=int)
    check.add_argument("--marriage", required=True,
                       help="comma-separated 0-based woman index per man, e.g. 1,0")
    check.add_argument("-i", "--instance", required=True)
    check.add_argument("--pretty", action="store_true")
    check.set_defaults(func=_cmd_check)

    enum = sub.add_parser("enumerate", help="exhaustively list all stable marriages")
    enum.add_argument("--notion", required=True, choices=NOTIONS)
    enum.add_argument("--alpha", type=int)
    enum.add_argument("--size-bound", type=int, default=DEFAULT_SIZE_BOUND,
                      help=f"refuse instances larger than this (default {DEFAULT_SIZE_BOUND})")
    enum.add_argument("--jobs", type=int, default=1,
                      help="worker processes; output is identical for any count")
    enum.add_argument("-i", "--instance", required=True)
    enum.add_argument("--pretty", action="store_true")
    enum.set_defaults(func=_cmd_enumerate)

    trans = sub.add_parser("transform", help="print a derived preference profile")
    what = trans.add_mutually_exclusive_group(required=True)
    what.add_argument("--alpha", type=int, help="semiorder view at this gap threshold")
    what.add_argument("--link-add", action="store_true", help="additive pair-strength profile")
    what.add_argument("--link-max", action="store_true", help="maximal pair-strength profile")
    trans.add_argument("-i", "--instance", required=True)
    trans.set_defaults(func=_cmd_transform)

    gen = sub.add_parser("gen", help="emit a seeded random instance")
    gen.add_argument("--n", type=int, required=True,
                     help=f"instance size, 1..{GEN_MAX_N}")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--max-score", type=int, default=100,
                     help="scores are drawn without replacement from 1..K (K >= n)")
    gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader stopped early: on devnull, the final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = OK
    return code


def _run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        return args.func(args)
    except _Fail as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def _load_instance(path: str) -> QuantInstance:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Fail(INVALID_INSTANCE, f"cannot read instance file: {exc}")
    try:
        return parse_instance(text)
    except ValueError as exc:
        # InvalidInstanceError, including a literal over the digit limit,
        # and json.JSONDecodeError
        raise _Fail(INVALID_INSTANCE, f"invalid instance: {exc}")
    except RecursionError:
        raise _Fail(INVALID_INSTANCE, "invalid instance: JSON nested too deeply")


def _require_alpha(args, needed: bool, flag_context: str) -> int | None:
    if needed:
        if args.alpha is None:
            raise _Fail(USAGE, f"--alpha is required with {flag_context}")
        if args.alpha < 1:
            raise _Fail(USAGE, "--alpha must be >= 1")
        return args.alpha
    if args.alpha is not None:
        raise _Fail(USAGE, f"--alpha does not apply to {flag_context}")
    return None


def _parse_marriage(text: str, n: int) -> Marriage:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise _Fail(BAD_MARRIAGE, f"--marriage {text!r} is not a comma-separated int list")
    if len(values) == n:
        try:
            return Marriage(tuple(values))
        except ValueError:
            pass
    raise _Fail(BAD_MARRIAGE, f"--marriage {text!r} is not a permutation of 0..{n - 1}")


def _cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    alpha = _require_alpha(args, args.notion == "lex-alpha", f"--notion {args.notion}")
    if args.notion in ("male", "female"):
        side = "men" if args.notion == "male" else "women"
        marriage = gs(instance, side)
    elif args.notion == "lex-alpha":
        marriage = lex_male_alpha_gs(instance, alpha)
    else:
        marriage = link_stable_gs(instance, args.notion.removeprefix("link-"))
    print(serialize_marriage(marriage))
    if args.pretty:
        print(f"pairing ({args.notion}):")
        for m, w in marriage.pairs():
            print(f"  {man_name(m)} -- {woman_name(w)}")
        if args.notion.startswith("link-"):
            mode = args.notion.removeprefix("link-")
            print(f"  link ({mode}) = {marriage_link(instance, marriage, mode)}")
    return OK


def _witness_line(notion: str, pair) -> str:
    m, w, wit = man_name(pair.man), woman_name(pair.woman), pair.witness
    if notion in ("classical", "alpha"):
        return (f"  ({m},{w}): {m} scores {w} at {wit['man_score_new']} vs current "
                f"{wit['man_score_current']}; {w} scores {m} at {wit['woman_score_new']} "
                f"vs current {wit['woman_score_current']}")
    return (f"  ({m},{w}): link {wit['link_new']} beats {m}'s current "
            f"{wit['link_man_current']} and {w}'s current {wit['link_woman_current']}")


def _cmd_check(args) -> int:
    instance = _load_instance(args.instance)
    alpha = _require_alpha(args, args.notion == "alpha", f"--notion {args.notion}")
    marriage = _parse_marriage(args.marriage, instance.n)
    report: BlockingReport = blocking_pairs(instance, marriage, args.notion, alpha)
    print(json.dumps(report.to_json(), separators=(",", ":")))
    if args.pretty:
        if report.stable:
            print(f"stable under {args.notion}")
        else:
            print(f"{len(report.pairs)} blocking pair(s) under {args.notion}:")
            for pair in report.pairs:
                print(_witness_line(args.notion, pair))
    return OK if report.stable else UNSTABLE


def _cmd_enumerate(args) -> int:
    instance = _load_instance(args.instance)
    alpha = _require_alpha(args, args.notion == "alpha", f"--notion {args.notion}")
    if args.jobs < 1:
        raise _Fail(USAGE, "--jobs must be >= 1")
    if args.size_bound < 1:
        raise _Fail(USAGE, "--size-bound must be >= 1")
    try:
        stable = enumerate_stable(instance, args.notion, alpha,
                                  size_bound=args.size_bound, jobs=args.jobs)
    except SizeBoundError as exc:
        raise _Fail(INVALID_INSTANCE, str(exc))
    print(json.dumps(stable.to_json(), separators=(",", ":")))
    if args.pretty:
        print(f"{len(stable)} stable marriage(s) under {args.notion}:")
        for match, flag, add, top in zip(stable.matches, stable.undominated,
                                         stable.link_add, stable.link_max):
            tag = "undominated" if flag else "dominated"
            pairs = ", ".join(f"{man_name(m)}-{woman_name(w)}" for m, w in enumerate(match))
            print(f"  [{pairs}] {tag}, link add={add} max={top}")
    return OK


def _cmd_transform(args) -> int:
    instance = _load_instance(args.instance)
    alpha = _require_alpha(args, not (args.link_add or args.link_max), "--link-add or --link-max")
    if alpha is not None:
        prefers = alpha_transform(instance, alpha)._prefers
        view = derive_classical(instance)
        rows = view.men_prefs, view.women_prefs
        label = lambda other, cand: other(cand)
        mark = lambda side, person, a, b: ">" if prefers(side, person, a, b) else "⋈"
    else:
        view = link_transform(instance, "add" if args.link_add else "max")
        rows = view.men_values, view.women_values
        label = lambda other, entry: f"{other(entry[0])}[{entry[1]}]"
        mark = lambda side, person, a, b: "=" if a[1] == b[1] else ">"
    for side, side_rows in zip(("men", "women"), rows):
        name, other = _NAMES[side]
        for person, row in enumerate(side_rows):
            rest = "".join(f" {mark(side, person, a, b)} {label(other, b)}"
                           for a, b in zip(row, row[1:]))
            print(f"{name(person)}: {label(other, row[0])}{rest}")
    return OK


def _cmd_gen(args) -> int:
    if args.n < 1:
        raise _Fail(USAGE, "--n must be >= 1")
    if args.n > GEN_MAX_N:
        raise _Fail(USAGE, f"--n {args.n} exceeds the gen ceiling of {GEN_MAX_N}")
    if args.max_score < args.n:
        raise _Fail(USAGE, f"--max-score {args.max_score} cannot cover {args.n} distinct scores")
    if args.max_score > sys.maxsize:
        # random.sample cannot take the length of a larger score range
        raise _Fail(USAGE, f"--max-score {args.max_score} exceeds the gen ceiling of {sys.maxsize}")
    print(serialize_instance(random_instance(args.n, args.seed, args.max_score)))
    return OK


if __name__ == "__main__":
    sys.exit(main())
