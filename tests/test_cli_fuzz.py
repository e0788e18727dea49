"""The exit-code contract on random bytes and on mutated inputs
(`tests/cli_fuzz.py`) as a test: no exception escapes `main` and every
exit code lies in 0-3. Warnings are errors here, through pytest's
filterwarnings. CI runs ten times these seeds."""
from cli_fuzz import faults


def test_random_and_mutated_inputs_keep_the_exit_code_contract():
    assert faults(range(1200)) == []
