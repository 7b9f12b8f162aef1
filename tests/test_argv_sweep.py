"""The standing argv sweep of tests/argv_sweep.py, on a few hundred seeded argv.

CI runs the same generator on some 20000 argv under ``python -W error``.
"""
import itertools
import random

from argv_sweep import COMMANDS, SPECIAL, STATE_KINDS, STATE_SOURCES, draw, sweep

COUNT, SEED = 300, 0


def test_argv_sweep_holds_every_invariant(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the sweep runs from the repository root; this restores the old directory
    assert sweep(COUNT, SEED, str(tmp_path)) == []


def test_argv_sweep_draws_every_special_value_and_state_source():
    r = random.Random(SEED)
    sources = itertools.cycle(STATE_SOURCES)
    argvs = [draw(r, sources, "out.txt")[0] for _ in range(COUNT)]
    tokens = {token.partition("=")[2] if token.startswith("--") else token for argv in argvs for token in argv}
    assert set(COMMANDS) <= tokens
    assert set(SPECIAL) <= tokens
    assert set(STATE_KINDS) <= {token.partition(":")[0] for token in tokens}
    assert {"file:" + source for source in STATE_SOURCES} <= tokens
    outs = sum(any(token.startswith("--out") for token in argv) for argv in argvs)
    assert 0.15 < outs / COUNT < 0.25
