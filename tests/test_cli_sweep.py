"""The command-line sweep (`tests/cli_sweep.py`) as a test: every call
exits with a code in 0-3 and no exception escapes `main`. Warnings are
errors here, through pytest's filterwarnings."""
from cli_sweep import sweep


def test_every_sweep_call_keeps_the_exit_code_contract(monkeypatch, capsys):
    monkeypatch.delenv("COLUMNS", raising=False)  # restores what sweep sets
    assert sweep() == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.endswith(" calls, 0 bad"), last
