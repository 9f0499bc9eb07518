"""The README's examples, run as written, so its text cannot drift."""

import shlex
from pathlib import Path

import pytest

from ordagg.cli import run

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[list[str]]:
    """The lines of every fenced block opened with ```lang."""
    blocks, current = [], None
    for line in README.splitlines():
        if current is None:
            if line == "```" + lang:
                current = []
        elif line == "```":
            blocks.append(current)
            current = None
        else:
            current.append(line)
    return blocks


def _shell_examples() -> list[tuple[str, str]]:
    """(command, expected output) for every `$ ordagg ...` line."""
    examples = []
    for block in _blocks("sh"):
        for line in block:
            if line.startswith("$ "):
                examples.append([line[2:], ""])
            elif examples and examples[-1][0].startswith("ordagg "):
                examples[-1][1] += line + "\n"
    return [(cmd, out) for cmd, out in examples if cmd.startswith("ordagg ")]


SHELL_EXAMPLES = _shell_examples()


def test_readme_has_shell_examples():
    assert len(SHELL_EXAMPLES) >= 8


@pytest.mark.parametrize("command, expected", SHELL_EXAMPLES)
def test_readme_shell_example(command, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    command, _, pipe = command.partition(" | ")
    assert pipe in ("", "tail -1")
    assert run(shlex.split(command)[1:]) == 0
    out = capsys.readouterr().out
    if pipe:
        out = out.splitlines(keepends=True)[-1]
    assert out == expected


def test_readme_library_example():
    from ordagg import format_interval

    (block,) = _blocks("python")
    namespace: dict = {}
    checked = 0
    for line in block:
        code, _, comment = line.partition("#")
        if not comment:
            exec(line, namespace)
            continue
        got = eval(code, namespace)
        comment = comment.strip()
        if comment.startswith("the interval "):
            assert format_interval(got) == comment.removeprefix("the interval ")
        else:
            assert str(got) == comment
        checked += 1
    assert checked == 3
