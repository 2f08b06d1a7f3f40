"""The README's examples run: the library quick start executes, and every
line of the command-line block parses with the CLI's own parser."""

import pathlib
import re
import shlex

from smq import cli

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()


def block(heading):
    """The first fenced block under a `## heading` of the README."""
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)


def test_the_library_quick_start_runs():
    namespace = {}
    exec(compile(block("Library quick start"), "README.md", "exec"), namespace)
    assert namespace["report"].stable is True


def test_every_command_line_example_parses():
    lines = [line.split("#", 1)[0] for line in block("Command line").splitlines()]
    commands = [shlex.split(re.split(r"[>|]", line, 1)[0]) for line in lines if line.strip()]
    assert len(commands) == 8
    for words in commands:
        assert words[0] == "smq", words
        try:
            args = cli._build_parser().parse_args(words[1:])
        except SystemExit as exc:
            raise AssertionError(f"{shlex.join(words)} exits {exc.code}") from None
        assert args.func is not None
