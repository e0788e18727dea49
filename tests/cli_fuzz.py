"""The exit-code contract on random bytes and on mutated inputs.

Each seed makes one input file and runs it in-process, through
`pregma.cli.main`, under all six subcommands: `validate`, `expand`, `prob`
(by enclosure and by truncation), `check`, `from-pds` and `gen-pcp`. The
input is one of three kinds, chosen by the seed:
- random bytes;
- a prefix of a corpus file with random bytes appended;
- a corpus `.gg` file with one to three line-level mutations: a token
  replaced, a line duplicated or deleted, or one argument of a line
  dropped.
The queries start from the first name of a `vertex` line and aim at the
first name of a `colour` line, so a mutated grammar that still parses is
solved, truncated and checked. A fault is an exception escaping `main` or
an exit code outside 0-3; `faults(seeds)` gives one line per fault, with
the seed that makes its input.

    python3 -W error tests/cli_fuzz.py 3000   # seeds 0-2999, exit 1 on a fault

`pregma` is imported from the `src/` next to this directory. pytest does
not collect this file; `test_cli_fuzz.py` runs `faults` as a test.
"""
from __future__ import annotations

import io
import random
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pregma.cli import main  # noqa: E402

CORPUS = sorted(p for p in (ROOT / "corpus").iterdir() if p.suffix in (".gg", ".pds", ".pcp"))
GRAMMARS = [p for p in CORPUS if p.suffix == ".gg"]


def _mutated(rng: random.Random, text: str) -> str:
    """text with one to three line-level mutations."""
    lines = text.splitlines()
    words = text.split()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        tokens = lines[i].split()
        how = rng.randrange(4)
        if how == 0 and tokens:  # a token replaced
            tokens[rng.randrange(len(tokens))] = rng.choice(
                [rng.choice(words), str(rng.randint(-2, 9)), "1/0", "x"])
            lines[i] = "  " * lines[i].startswith(" ") + " ".join(tokens)
        elif how == 1:  # a line duplicated
            lines.insert(i, lines[i])
        elif how == 2:  # a line deleted
            del lines[i]
        elif len(tokens) > 1:  # an argument dropped
            del tokens[rng.randrange(1, len(tokens))]
            lines[i] = "  " * lines[i].startswith(" ") + " ".join(tokens)
    return "\n".join(lines) + "\n"


def _input(seed: int) -> bytes:
    """The input file that `seed` makes."""
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        return rng.randbytes(rng.randrange(200))
    if kind == 1:
        data = rng.choice(CORPUS).read_bytes()
        return data[:rng.randrange(len(data) + 1)] + rng.randbytes(rng.randrange(40))
    return _mutated(rng, rng.choice(GRAMMARS).read_text()).encode()


def _declared(text: str, keyword: str) -> list[str]:
    """The first name on each line of text that opens with keyword, or,
    when there is none, every token of text."""
    names = [name for line in text.splitlines() if line.split()[:1] == [keyword]
             for name in line.split()[1:2]]
    return names or text.split() or ["x"]


def _calls(path: str, data: bytes, rng: random.Random) -> list[list[str]]:
    text = data.decode("utf-8", "replace")
    start = rng.choice(_declared(text, "vertex"))
    colour = rng.choice(_declared(text, "colour"))
    prob = ["prob", path, "--phi2", colour, "--from", start]
    return [["validate", path],
            ["expand", path, "--depth", "3"],
            prob,
            [*prob, "--method", "truncate", "--horizon", "4", "--depth", "3"],
            ["check", path, "--formula", f"F[>=1/2] {colour}", "--at", start],
            ["from-pds", path],
            ["gen-pcp", path]]


def _fault(argv: list[str]) -> str | None:
    """Why the call breaks the contract, or None when it keeps it."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:
            return "".join(traceback.format_exception_only(exc)).strip()
    return None if code in (0, 1, 2, 3) else f"exit={code}"


def faults(seeds: Iterable[int]) -> list[str]:
    """One line per call that breaks the exit-code contract."""
    lines = []
    with tempfile.TemporaryDirectory() as work:
        path = str(Path(work, "input"))
        for seed in seeds:
            data = _input(seed)
            Path(path).write_bytes(data)
            for argv in _calls(path, data, random.Random(-1 - seed)):
                fault = _fault(argv)
                if fault is not None:
                    shown = " ".join(argv).replace(path, "INPUT")
                    lines.append(f"seed {seed}: {shown}: {fault}")
    return lines


if __name__ == "__main__":
    found = faults(range(int(sys.argv[1])))
    print("\n".join([*found, f"{sys.argv[1]} seeds, {len(found)} faults"]))
    raise SystemExit(1 if found else 0)
