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


def test_readme_shows_the_examples():
    assert {argv[0] for argv, *_ in EXAMPLES} >= {"classify", "period", "scan", "validate"}


@pytest.mark.parametrize("argv, head, shown, whole", EXAMPLES, ids=[e[0][0] for e in EXAMPLES])
def test_readme_example_output(capsys, argv, head, shown, whole):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.splitlines()[:head]
    if whole:
        assert out == shown
    else:
        assert out[: len(shown)] == shown
