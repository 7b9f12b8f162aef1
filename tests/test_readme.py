"""The CLI examples in README.md, run through cli.main against the text shown.

Each ```$ xdyn ...``` block is one example.  Output shown in full must
match stdout exactly; `| head -n N` keeps the first N lines; a line holding
"..." elides the rest, so only the lines above it are compared.
"""
import re
import shlex
from pathlib import Path

import pytest

from xdyn import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[list[str], int | None, list[str], bool]]:
    """(argv, head count, shown lines, whether the output is shown whole) per example."""
    examples = []
    for block in re.findall(r"```\n(\$ xdyn .*?)```", README.read_text(encoding="utf-8"), flags=re.S):
        command, *shown = block.replace("\\\n", " ").splitlines()
        command, _, pipe = command.partition("|")
        head = int(pipe.split()[-1]) if pipe else None
        cut = next((i for i, line in enumerate(shown) if "..." in line), None)
        examples.append((shlex.split(command)[2:], head, shown[:cut], cut is None))
    return examples


EXAMPLES = _examples()


def _ids() -> list[str]:
    # the subcommand, numbered from its second example on
    ids, seen = [], {}
    for argv, *_ in EXAMPLES:
        n = seen[argv[0]] = seen.get(argv[0], 0) + 1
        ids.append(argv[0] if n == 1 else f"{argv[0]}-{n}")
    return ids


def test_readme_shows_the_examples():
    assert {argv[0] for argv, *_ in EXAMPLES} >= {"classify", "period", "scan", "validate"}


@pytest.mark.parametrize("argv, head, shown, whole", EXAMPLES, ids=_ids())
def test_readme_example_output(capsys, monkeypatch, argv, head, shown, whole):
    monkeypatch.chdir(README.parent)  # state files are named relative to the repository root
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.splitlines()[:head]
    if whole:
        assert out == shown
    else:
        assert out[: len(shown)] == shown
