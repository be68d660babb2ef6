"""README drift guard: its library example runs and its command lines parse."""

import shlex
from pathlib import Path

import pytest

from zonobalance.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
REDIRECTS = {"<", ">", ">>"}


def fenced_block(after: str) -> str:
    """The body of the first fenced code block that follows `after`."""
    text = README.read_text(encoding="utf-8")
    start = text.index("\n", text.index("```", text.index(after))) + 1
    return text[start:text.index("```", start)]


def command_lines(block: str) -> list[list[str]]:
    """Each `zonobalance ...` command of a shell block, as argv after the
    program name: continuations joined, pipes split, redirections dropped."""
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        lexer = shlex.shlex(line, posix=True, punctuation_chars="|<>")
        lexer.commenters, lexer.whitespace_split = "#", True
        tokens, segment = list(lexer), []
        for token in tokens + ["|"]:
            if token != "|":
                segment.append(token)
                continue
            words = [w for i, w in enumerate(segment)
                     if w not in REDIRECTS and (i == 0 or segment[i - 1] not in REDIRECTS)]
            if words and words[0] == "zonobalance":
                commands.append(words[1:])
            segment = []
    return commands


def test_library_example_runs(capsys):
    exec(compile(fenced_block("A typical library call:"), str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_command_lines_parse():
    commands = command_lines(fenced_block("## Command line"))
    assert len(commands) >= 8
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: zonobalance {shlex.join(argv)}")


def test_guard_catches_a_removed_flag():
    block = "zonobalance gen --kind cube --d 4 --n 4 > x.txt\n" \
            "cat x.txt | zonobalance balance - \\\n    --retries 16 --seed 7"
    assert command_lines(block) == [["gen", "--kind", "cube", "--d", "4", "--n", "4"],
                                    ["balance", "-", "--retries", "16", "--seed", "7"]]
    with pytest.raises(SystemExit):
        build_parser().parse_args(command_lines(block)[1])
