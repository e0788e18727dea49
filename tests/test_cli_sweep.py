"""The command-line sweep (`tests/cli_sweep.py`) as a test: every call
exits with a code in 0-3 and no exception escapes `main`. Warnings are
errors here, through pytest's filterwarnings."""
import argparse

from cli_sweep import _calls, sweep
from pregma import cli


def test_every_sweep_call_keeps_the_exit_code_contract(monkeypatch, capsys):
    monkeypatch.delenv("COLUMNS", raising=False)  # restores what sweep sets
    assert sweep() == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.endswith(" calls, 0 bad"), last


def test_the_sweep_passes_every_option():
    """Each option of each subcommand, and the top-level --version, appears
    in some sweep call of that subcommand."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    calls = _calls()
    missed = []
    commands = [([], parser), *(([name], p) for name, p in sub.choices.items())]
    for prefix, command in commands:
        passed = {arg for call in calls if call[:len(prefix)] == prefix for arg in call}
        missed += [(prefix, a.option_strings) for a in command._actions
                   if a.option_strings and "-h" not in a.option_strings
                   and not passed & set(a.option_strings)]
    assert missed == []
