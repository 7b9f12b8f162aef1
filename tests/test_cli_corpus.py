"""The CLI surface, replayed from tests/data/cli_corpus/.

Each case is one argv with its exact exit code, stdout and stderr, run
through ``xdyn.cli.main`` in the repository root with COLUMNS pinned, by
the same ``run_case`` that records it, so a case recorded as an uncaught
exception replays as one.
Help and usage text comes from argparse, whose wording can change between
Python versions, so a case whose output holds a usage line is compared
only on the Python version the corpus was recorded with.  A change that
alters output on purpose regenerates the corpus with
``PYTHONPATH=src python3 tests/make_cli_corpus.py`` and names every case
whose files changed.
"""
import json
import sys
from pathlib import Path

import pytest

from make_cli_corpus import run_case
from xdyn.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus"
MANIFEST = json.loads((CORPUS / "cases.json").read_text(encoding="utf-8"))
RECORDED_ON = MANIFEST["python"]
RUNNING = f"{sys.version_info[0]}.{sys.version_info[1]}"


def _expected(name: str, suffix: str) -> str:
    path = CORPUS / f"{name}{suffix}"
    return path.read_text(encoding="utf-8") if path.exists() else ""


def test_corpus_covers_every_command():
    commands = {case["argv"][0] for case in MANIFEST["cases"] if case["argv"]}
    assert commands >= {"spectrum", "evolve", "scan", "classify", "period", "validate"}


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=[case["name"] for case in MANIFEST["cases"]])
def test_cli_corpus_case(case, monkeypatch):
    out, err = _expected(case["name"], ".out"), _expected(case["name"], ".err")
    if "usage:" in out + err and RUNNING != RECORDED_ON:
        pytest.skip(f"argparse text recorded on Python {RECORDED_ON}, running {RUNNING}")
    monkeypatch.setenv("COLUMNS", str(MANIFEST["columns"]))
    monkeypatch.chdir(CORPUS.parents[2])  # state files are named relative to the repository root
    assert run_case(main, case["argv"]) == (case["exit"], out, err)
