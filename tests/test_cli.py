import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import smq
from smq.cli import GEN_MAX_N, main
from conftest import P_A, P_B, P_C, instances, tie_heavy_instances


@pytest.fixture
def files(tmp_path):
    paths = {}
    # G3 is `smq gen --n 3 --seed 2 --max-score 6`: its classical set has a dominated member
    g3 = smq.random_instance(3, seed=2, max_score=6)
    for name, inst in (("P_A", P_A), ("P_B", P_B), ("P_C", P_C), ("G3", g3)):
        path = tmp_path / f"{name}.json"
        path.write_text(smq.serialize_instance(inst))
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_male(files, capsys):
    code, out, _ = run(capsys, "solve", "--notion", "male", "-i", files["P_A"])
    assert code == 0
    assert out.splitlines()[0] == '{"match":[1,0]}'


def test_solve_female_coincides(files, capsys):
    code, out, _ = run(capsys, "solve", "--notion", "female", "-i", files["P_A"])
    assert code == 0
    assert json.loads(out)["match"] == [1, 0]


def test_solve_lex_alpha(files, capsys):
    code, out, _ = run(capsys, "solve", "--notion", "lex-alpha", "--alpha", "2",
                       "-i", files["P_B"])
    assert code == 0
    assert out.splitlines()[0] == '{"match":[0,1]}'


def test_solve_link_add_reports_strength(files, capsys):
    code, out, _ = run(capsys, "solve", "--notion", "link-add", "-i", files["P_C"],
                       "--pretty")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '{"match":[0,1]}'
    assert any("40" in line for line in lines[1:])


def test_solve_alpha_flag_contract(files, capsys):
    code, _, err = run(capsys, "solve", "--notion", "lex-alpha", "-i", files["P_B"])
    assert code == 2 and "--alpha" in err
    code, _, _ = run(capsys, "solve", "--notion", "male", "--alpha", "2",
                     "-i", files["P_A"])
    assert code == 2
    code, _, _ = run(capsys, "solve", "--notion", "lex-alpha", "--alpha", "0",
                     "-i", files["P_B"])
    assert code == 2


def test_check_stable_marriage_exits_zero(files, capsys):
    code, out, _ = run(capsys, "check", "--notion", "alpha", "--alpha", "2",
                       "--marriage", "1,0", "-i", files["P_B"])
    assert code == 0
    assert json.loads(out)["pairs"] == []


def test_check_blocking_pair_exits_three(files, capsys):
    code, out, _ = run(capsys, "check", "--notion", "classical",
                       "--marriage", "1,0", "-i", files["P_B"])
    assert code == 3
    report = json.loads(out)
    assert [(p["m"], p["w"]) for p in report["pairs"]] == [(0, 0)]


@pytest.mark.parametrize("argv, expected", [
    (["--notion", "classical", "-i", "P_B"], [
        '{"notion":"classical","alpha":null,"pairs":[{"m":0,"w":0,"witness":'
        '{"man_score_new":3,"man_score_current":2,"woman_score_new":8,'
        '"woman_score_current":5}}]}',
        "1 blocking pair(s) under classical:",
        "  (m1,w1): m1 scores w1 at 3 vs current 2; w1 scores m1 at 8 vs current 5",
    ]),
    (["--notion", "alpha", "--alpha", "1", "-i", "P_B"], [
        '{"notion":"alpha","alpha":1,"pairs":[{"m":0,"w":0,"witness":'
        '{"man_score_new":3,"man_score_current":2,"woman_score_new":8,'
        '"woman_score_current":5,"man_gain":1,"woman_gain":3}}]}',
        "1 blocking pair(s) under alpha:",
        "  (m1,w1): m1 scores w1 at 3 vs current 2; w1 scores m1 at 8 vs current 5",
    ]),
    (["--notion", "link-add", "-i", "P_C"], [
        '{"notion":"link-add","alpha":null,"pairs":[{"m":0,"w":0,"witness":'
        '{"link_new":35,"link_man_current":13,"link_woman_current":10}}]}',
        "1 blocking pair(s) under link-add:",
        "  (m1,w1): link 35 beats m1's current 13 and w1's current 10",
    ]),
    (["--notion", "link-max", "-i", "P_C"], [
        '{"notion":"link-max","alpha":null,"pairs":[{"m":0,"w":0,"witness":'
        '{"link_new":30,"link_man_current":10,"link_woman_current":6}}]}',
        "1 blocking pair(s) under link-max:",
        "  (m1,w1): link 30 beats m1's current 10 and w1's current 6",
    ]),
])
def test_check_pretty_prints_witnesses(files, capsys, argv, expected):
    argv = [files.get(arg, arg) for arg in argv]
    code, out, _ = run(capsys, "check", *argv, "--marriage", "1,0", "--pretty")
    assert code == 3
    assert out.splitlines() == expected


@pytest.mark.parametrize("argv, code, out, err", [
    (["enumerate", "--notion", "alpha", "--alpha", "2", "-i", "P_B", "--pretty"], 0,
     '{"notion":"alpha","alpha":2,"marriages":[{"match":[0,1],"undominated":true,'
     '"link_add":14,"link_max":8},{"match":[1,0],"undominated":true,"link_add":14,'
     '"link_max":5}]}\n'
     "2 stable marriage(s) under alpha:\n"
     "  [m1-w1, m2-w2] undominated, link add=14 max=8\n"
     "  [m1-w2, m2-w1] undominated, link add=14 max=5\n", ""),
    (["check", "--notion", "alpha", "--alpha", "2", "--marriage", "1,0", "-i", "P_B",
      "--pretty"], 0, '{"notion":"alpha","alpha":2,"pairs":[]}\nstable under alpha\n', ""),
    (["transform", "--alpha", "0", "-i", "P_B"], 2, "", "error: --alpha must be >= 1\n"),
    (["enumerate", "--notion", "classical", "-i", "G3", "--pretty"], 0,
     '{"notion":"classical","alpha":null,"marriages":[{"match":[1,2,0],"undominated":true,'
     '"link_add":25,"link_max":6},{"match":[2,1,0],"undominated":false,"link_add":23,'
     '"link_max":6}]}\n'
     "2 stable marriage(s) under classical:\n"
     "  [m1-w2, m2-w3, m3-w1] undominated, link add=25 max=6\n"
     "  [m1-w3, m2-w2, m3-w1] dominated, link add=23 max=6\n", ""),
    (["solve", "--notion", "lex-alpha", "-i", "P_B"], 2, "",
     "error: --alpha is required with --notion lex-alpha\n"),
    (["enumerate", "--notion", "alpha", "-i", "P_B"], 2, "",
     "error: --alpha is required with --notion alpha\n"),
    # a misplaced --alpha names the notion given, not the one it applies to
    (["solve", "--notion", "male", "--alpha", "2", "-i", "P_B"], 2, "",
     "error: --alpha does not apply to --notion male\n"),
    (["check", "--notion", "classical", "--alpha", "2", "--marriage", "1,0", "-i", "P_B"], 2, "",
     "error: --alpha does not apply to --notion classical\n"),
    (["enumerate", "--notion", "link-add", "--alpha", "2", "-i", "P_B"], 2, "",
     "error: --alpha does not apply to --notion link-add\n"),
])
def test_pretty_tables_and_the_alpha_refusal_keep_their_bytes(files, capsys, argv, code,
                                                              out, err):
    assert run(capsys, *[files.get(arg, arg) for arg in argv]) == (code, out, err)


def test_check_malformed_marriage_exits_four(files, capsys):
    base = ("check", "--notion", "classical", "-i", files["P_B"])
    # a value that opens with "-" and a digit is a value, with or without "="
    for bad in ("0,0", "0", "0,1,2", "a,b", "-1,0"):
        code, out, err = run(capsys, *base, "--marriage", bad)
        assert code == 4, bad
        assert "--marriage" in err
        assert run(capsys, *base, f"--marriage={bad}") == (code, out, err)


def test_invalid_instance_exits_one(files, capsys):
    bad = files["dir"] / "bad.json"
    bad.write_text('{"n":2,"men":[[4,4],[1,2]],"women":[[1,2],[3,1]]}')
    code, _, err = run(capsys, "check", "--notion", "classical",
                       "--marriage", "0,1", "-i", str(bad))
    assert code == 1 and "invalid instance" in err
    code, _, _ = run(capsys, "solve", "--notion", "male", "-i",
                     str(files["dir"] / "nope.json"))
    assert code == 1


def test_non_utf8_instance_exits_one(files, capsys):
    bad = files["dir"] / "latin.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, "solve", "--notion", "male", "-i", str(bad))
    assert code == 1 and out == ""
    assert "cannot read instance file" in err


def test_deeply_nested_instance_exits_one(files, capsys):
    deep = files["dir"] / "deep.json"
    deep.write_text("[" * 200_000)
    code, out, err = run(capsys, "solve", "--notion", "male", "-i", str(deep))
    assert code == 1 and out == ""
    assert "invalid instance" in err


def test_huge_integer_literal_exits_one(files, capsys):
    # json.loads refuses integer literals over sys.get_int_max_str_digits()
    huge = files["dir"] / "huge.json"
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    huge.write_text(f'{{"n":1,"men":[[{digits}]],"women":[[1]]}}')
    code, out, err = run(capsys, "solve", "--notion", "link-add", "-i", str(huge))
    assert code == 1 and out == ""
    assert err.startswith("error: invalid instance: ")
    assert "set_int_max_str_digits" not in err


def test_usage_errors_exit_two(files, capsys):
    assert run(capsys, "solve", "--notion", "bogus", "-i", files["P_A"])[0] == 2
    assert run(capsys, "solve", "-i", files["P_A"])[0] == 2
    assert run(capsys)[0] == 2
    code, _, err = run(capsys, "check", "--notion", "classical", "--marriage", "--pretty",
                       "-i", files["P_B"])
    assert code == 2 and "--marriage: expected one argument" in err
    # the voting rule is a library parameter only
    assert run(capsys, "solve", "--notion", "lex-alpha", "--alpha", "2", "--rule", "score-sum",
               "-i", files["P_B"])[0] == 2
    # a bound below 1 is a bad flag, not an instance too large for it
    code, _, err = run(capsys, "enumerate", "--notion", "classical", "--size-bound", "0",
                       "-i", files["P_A"])
    assert code == 2 and "--size-bound must be >= 1" in err


def test_enumerate_lists_both_marriages(files, capsys):
    code, out, _ = run(capsys, "enumerate", "--notion", "alpha", "--alpha", "2",
                       "-i", files["P_B"])
    assert code == 0
    doc = json.loads(out)
    assert [m["match"] for m in doc["marriages"]] == [[0, 1], [1, 0]]
    assert all(m["undominated"] for m in doc["marriages"])


def test_enumerate_jobs_output_is_identical(files, capsys):
    _, sequential, _ = run(capsys, "enumerate", "--notion", "classical",
                           "-i", files["P_B"])
    _, parallel, _ = run(capsys, "enumerate", "--notion", "classical",
                         "-i", files["P_B"], "--jobs", "2")
    assert sequential == parallel


def test_enumerate_size_bound(files, capsys):
    big = files["dir"] / "big.json"
    big.write_text(smq.serialize_instance(smq.random_instance(9, seed=0)))
    code, _, err = run(capsys, "enumerate", "--notion", "classical", "-i", str(big))
    assert code == 1 and "bound" in err
    code, out, _ = run(capsys, "enumerate", "--notion", "classical", "-i", str(big),
                       "--size-bound", "9")
    assert code == 0 and json.loads(out)["marriages"]


def test_transform_alpha_marks_incomparable_pair(files, capsys):
    code, out, _ = run(capsys, "transform", "--alpha", "2", "-i", files["P_B"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m1: w1 ⋈ w2"
    assert lines[1] == "m2: w1 > w2"
    assert lines[2] == "w1: m1 > m2"
    assert lines[3] == "w2: m1 > m2"


def test_transform_link_shows_values_and_ties(files, capsys):
    code, out, _ = run(capsys, "transform", "--link-add", "-i", files["P_C"])
    assert code == 0
    assert out.splitlines()[0] == "m1: w1[35] > w2[13]"
    tied = files["dir"] / "tied.json"
    tied.write_text('{"n":2,"men":[[1,2],[2,1]],"women":[[2,1],[1,2]]}')
    code, out, _ = run(capsys, "transform", "--link-add", "-i", str(tied))
    assert code == 0
    assert out.splitlines()[0] == "m1: w1[3] = w2[3]"


def test_transform_requires_exactly_one_view(files, capsys):
    assert run(capsys, "transform", "-i", files["P_B"])[0] == 2
    assert run(capsys, "transform", "--alpha", "2", "--link-add",
               "-i", files["P_B"])[0] == 2


@given(inst=st.one_of(tie_heavy_instances(max_n=6), instances(max_n=6)),
       view=st.sampled_from([["--alpha", "1"], ["--alpha", "2"], ["--alpha", "3"],
                             ["--link-add"], ["--link-max"]]))
def test_transform_prints_each_view_as_the_library_ranks_it(tmp_path_factory, inst, view):
    # every row names each candidate once, in the library's order, and each
    # mark is the library's answer for the two neighbours it separates
    path = tmp_path_factory.getbasetemp() / "view.json"
    path.write_text(smq.serialize_instance(inst))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["transform", *view, "-i", str(path)]) == 0
    if view[0] == "--alpha":
        semiorder = smq.alpha_transform(inst, int(view[1]))
        classical = smq.derive_classical(inst)
        ranked = {"men": classical.men_prefs, "women": classical.women_prefs}
    else:
        profile = smq.link_transform(inst, view[0].removeprefix("--link-"))
        ranked = {"men": profile.men_values, "women": profile.women_values}
    lines = out.getvalue().splitlines()
    assert len(lines) == 2 * inst.n
    for k, line in enumerate(lines):
        side, person = ("men", k) if k < inst.n else ("women", k - inst.n)
        name, other = ((smq.man_name, smq.woman_name) if side == "men"
                       else (smq.woman_name, smq.man_name))
        head, _, rest = line.partition(": ")
        tokens, row = rest.split(" "), ranked[side][person]
        assert head == name(person), line
        if view[0] == "--alpha":
            assert tokens[0::2] == [other(cand) for cand in row], line
            marks = [">" if semiorder.strictly_prefers(side, person, a, b) else "⋈"
                     for a, b in zip(row, row[1:])]
        else:
            assert tokens[0::2] == [f"{other(cand)}[{value}]" for cand, value in row], line
            marks = ["=" if a[1] == b[1] else ">" for a, b in zip(row, row[1:])]
        assert tokens[1::2] == marks, line


def test_gen_is_deterministic_per_seed(capsys):
    code, first, _ = run(capsys, "gen", "--n", "3", "--seed", "7")
    assert code == 0
    _, second, _ = run(capsys, "gen", "--n", "3", "--seed", "7")
    assert first == second
    _, other, _ = run(capsys, "gen", "--n", "3", "--seed", "8")
    assert first != other


def test_gen_output_is_a_valid_instance(capsys):
    _, out, _ = run(capsys, "gen", "--n", "4", "--seed", "5")
    inst = smq.parse_instance(out)
    assert inst.n == 4


def test_gen_rejects_small_score_range(capsys):
    code, _, err = run(capsys, "gen", "--n", "5", "--seed", "1", "--max-score", "4")
    assert code == 2 and "max-score" in err
    assert run(capsys, "gen", "--n", "0", "--seed", "1")[0] == 2


def test_gen_refuses_sizes_above_its_ceiling(capsys):
    # refused before any score is drawn, so this allocates nothing
    code, out, err = run(capsys, "gen", "--n", "1000000000", "--seed", "1",
                         "--max-score", "2000000000")
    assert code == 2 and out == ""
    assert err == f"error: --n 1000000000 exceeds the gen ceiling of {GEN_MAX_N}\n"


def test_gen_refuses_score_ranges_above_its_ceiling(capsys):
    big = 10**20
    code, out, err = run(capsys, "gen", "--n", "2", "--seed", "1", "--max-score", str(big))
    assert code == 2 and out == ""
    assert err == f"error: --max-score {big} exceeds the gen ceiling of {sys.maxsize}\n"
    # the ceiling itself is still drawn from
    code, out, _ = run(capsys, "gen", "--n", "2", "--seed", "1", "--max-score", str(sys.maxsize))
    assert code == 0 and smq.parse_instance(out).n == 2


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solve_output_always_passes_check(tmp_path, capsys, seed):
    path = tmp_path / "inst.json"
    path.write_text(smq.serialize_instance(smq.random_instance(4, seed=seed, max_score=6)))
    cases = [
        (["--notion", "male"], ["--notion", "classical"]),
        (["--notion", "female"], ["--notion", "classical"]),
        (["--notion", "lex-alpha", "--alpha", "2"], ["--notion", "alpha", "--alpha", "2"]),
        (["--notion", "link-add"], ["--notion", "link-add"]),
        (["--notion", "link-max"], ["--notion", "link-max"]),
    ]
    for solve_flags, check_flags in cases:
        code, out, _ = run(capsys, "solve", *solve_flags, "-i", str(path))
        assert code == 0
        match = json.loads(out)["match"]
        marriage = ",".join(str(w) for w in match)
        code, _, _ = run(capsys, "check", *check_flags, "--marriage", marriage,
                         "-i", str(path))
        assert code == 0, (solve_flags, match)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=6,
)


@st.composite
def mutated_instance_files(draw):
    """A valid instance (n <= 6) with one edit: a key dropped, a value, row or
    cell replaced by any JSON value, or the text cut, spliced with bytes or
    with a long digit run."""
    inst = draw(instances(max_n=6, max_score=9))
    doc = json.loads(smq.serialize_instance(inst))
    edit = draw(st.sampled_from(["drop key", "value", "row", "cell", "cut", "splice", "digits"]))
    key = draw(st.sampled_from(["n", "men", "women"]))
    r, c = draw(st.integers(0, inst.n - 1)), draw(st.integers(0, inst.n - 1))
    if edit == "drop key":
        del doc[key]
    elif edit == "value":
        doc[key] = draw(JSON_VALUES)
    elif edit == "row" and key != "n":
        doc[key][r] = draw(JSON_VALUES)
    elif edit == "cell" and key != "n":
        doc[key][r][c] = draw(JSON_VALUES)
    data = json.dumps(doc).encode()
    at = draw(st.integers(0, len(data)))
    if edit == "cut":
        return data[:at]
    if edit == "splice":
        return data[:at] + draw(st.binary(max_size=8)) + data[at:]
    if edit == "digits":
        return data.replace(b"]]", b"," + b"9" * draw(st.integers(4000, 5000)) + b"]]", 1)
    return data


def _main_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@given(data=st.binary(max_size=200) | mutated_instance_files(),
       marriage=st.lists(st.integers(-1, 6), max_size=7).map(lambda ws: ",".join(map(str, ws))),
       check=st.sampled_from([["classical"], ["alpha", "--alpha", "2"], ["link-add"],
                              ["link-max"]]),
       enum=st.sampled_from([["classical"], ["link-add"], ["alpha", "--alpha", "2"]]),
       view=st.sampled_from([["--alpha", "2"], ["--link-add"], ["--link-max"]]))
def test_hostile_instance_files_keep_the_exit_code_contract(tmp_path_factory, data, marriage,
                                                           check, enum, view):
    path = tmp_path_factory.getbasetemp() / "hostile.json"
    path.write_bytes(data)
    for notion in ("link-add", "link-max", "male"):
        assert _main_quietly(["solve", "--notion", notion, "-i", str(path)]) in range(5)
    argv = ["check", "--notion", *check, "--marriage", marriage, "-i", str(path)]
    assert _main_quietly(argv) in range(5)
    assert _main_quietly(["enumerate", "--notion", *enum, "-i", str(path)]) in range(5)
    assert _main_quietly(["transform", *view, "-i", str(path)]) in range(5)


# Mostly usable values, so that the draws reach past argument parsing.
NUMBERS = (st.integers(1, 4) | st.integers(-3, 6)).map(str) | st.sampled_from(
    ["1.5", "x", "", str(10**20)])
REQUIRED = {"--notion", "--marriage", "-i", "--n", "--seed"}
INSTANCE_PATHS = st.sampled_from(["<instance>", "<missing>"])
# Per subcommand, each flag with the values drawn for it (None: takes no value).
# --jobs stays within {-1, 0, 1} so that no worker process is started, and no
# `gen --n` that is accepted exceeds 50.
ARGV_FLAGS = {
    "solve": {
        "--notion": st.sampled_from(["male", "female", "lex-alpha", "link-add", "link-max",
                                     "alpha"]),
        "--alpha": NUMBERS, "-i": INSTANCE_PATHS, "--pretty": None,
    },
    "check": {
        "--notion": st.sampled_from(["classical", "alpha", "link-add", "link-max", "male"]),
        "--alpha": NUMBERS, "-i": INSTANCE_PATHS, "--pretty": None,
        "--marriage": st.lists(st.integers(-1, 4), max_size=5).map(
            lambda ws: ",".join(map(str, ws))) | st.sampled_from(["x", "1,,0"]),
    },
    "enumerate": {
        "--notion": st.sampled_from(["classical", "alpha", "link-add", "link-max", "male"]),
        "--alpha": NUMBERS, "--size-bound": NUMBERS, "-i": INSTANCE_PATHS, "--pretty": None,
        "--jobs": st.sampled_from(["-1", "0", "1"]),
    },
    "transform": {"--alpha": NUMBERS, "--link-add": None, "--link-max": None,
                  "-i": INSTANCE_PATHS},
    "gen": {
        "--n": st.integers(-2, 50).map(str) | st.sampled_from(["2001", str(10**9), "x"]),
        "--seed": NUMBERS,
        "--max-score": st.integers(-2, 60).map(str) | st.sampled_from(
            [str(10**20), str(sys.maxsize), "x"]),
    },
}


@st.composite
def cli_argvs(draw):
    """A subcommand and a shuffled pick of its flags with drawn values, at
    times with a stray token among them."""
    command = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    flags = ARGV_FLAGS[command]
    chosen = [f for f in sorted(flags)
              if draw(st.integers(0, 9)) < (9 if f in REQUIRED else 4)]
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    if draw(st.integers(0, 4)) == 0:
        stray = draw(st.sampled_from(["--bogus", "7", "-i", "--help", "--alpha"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@given(inst=instances(max_n=4), argv=cli_argvs())
def test_any_argv_keeps_the_exit_code_contract(tmp_path_factory, inst, argv):
    base = tmp_path_factory.getbasetemp()
    instance = base / "argv-instance.json"
    instance.write_text(smq.serialize_instance(inst))
    paths = {"<instance>": str(instance), "<missing>": str(base / "argv-missing.json")}
    argv = [paths.get(token, token) for token in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5), argv
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("command", ["gen", "enumerate", "transform"])
@pytest.mark.parametrize("read_first", [0, 100])
def test_a_closed_stdout_keeps_the_exit_code_contract(tmp_path, command, read_first):
    # as in `smq ... | head -c 100`: the reader closes the pipe at once or
    # after the first 100 bytes; enumerate and transform write far more
    dense = tmp_path / "dense.json"
    dense.write_text(smq.serialize_instance(smq.random_instance(8, 5, 8)))
    wide = tmp_path / "wide.json"
    wide.write_text(smq.serialize_instance(smq.random_instance(120, 1, 1200)))
    argv = {
        "gen": ["gen", "--n", "3", "--seed", "1"],
        "enumerate": ["enumerate", "--notion", "alpha", "--alpha", "3", "-i", str(dense),
                      "--pretty"],
        "transform": ["transform", "--link-add", "-i", str(wide)],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    with subprocess.Popen([sys.executable, "-m", "smq.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.read(read_first)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code in range(5), err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
