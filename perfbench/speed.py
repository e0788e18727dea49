"""Host speed, read off fixed reference loops timed next to the work.

The benchmark runs on virtual machines whose shared host runs the same code
up to twice as slow in stretches of seconds to minutes, so raw times from
two runs of the same code can differ by more than any useful bound. Every
query time the benchmark reports is therefore given at a reference speed:

    scaled = seconds * REF_S / ref

where `ref` is the time of the reference loops below, measured right
around the timed work in the same process. A slow stretch of the host
slows the loops and `pregma` alike and cancels out, while a change to
`pregma` moves only `seconds`. The loops were chosen by recording, over
ten minutes of a noisy host, every workload's query times together with
the times of several candidate loops run between the queries: scaling by
these two (the geometric mean of their times) left the smallest spread of
pass times on the worst workload, a half to a fifth of the raw spread.
REF_S is a constant, `ref`'s typical value on the machine the baseline was
taken on, so that scaled times read about as raw times did there.

Set-up is almost all imports (reading and unmarshalling modules, loading
numpy's extension modules), which on the same host moved by 30% between
stretches while the loops did not. So a set-up is scaled instead by the
time the same fresh interpreter then takes to import a fixed set of
standard-library modules that the set-up did not import.
"""
from __future__ import annotations

import importlib
import math
import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.0008  # seconds: `ref`'s median on the baseline's machine
# standard-library modules that neither pregma nor numpy imports, a C
# extension among them; importing them is the set-up's reference
IMPORT_MODULES = ("asyncio", "email.mime.multipart", "xml.dom.minidom", "http.client",
                  "unittest", "logging.handlers", "sqlite3", "difflib", "configparser",
                  "uuid", "mailbox", "plistlib", "pdb")
IMPORT_REF_S = 0.068  # seconds: their import time on the baseline's machine


def _fractions() -> int:
    """Fractions whose denominators square each step, as in Kleene rounds
    and the oracle's exact sweeps."""
    bits = 0
    for s in range(6):
        x = Fraction(1, 3 + s)
        for _ in range(9):
            x = x * x / 2 + Fraction(1, 5)
        bits += x.denominator.bit_length()
    return bits


def _ints() -> int:
    """Interpreted integer arithmetic."""
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total


LOOPS = (_fractions, _ints)


def reference_s(reps: int = 3) -> float:
    """Geometric mean over the loops of the median of `reps` timings of
    each, in seconds."""
    logs = []
    for loop in LOOPS:
        times = []
        for _ in range(reps):
            start = perf_counter()
            loop()
            times.append(perf_counter() - start)
        logs.append(math.log(statistics.median(times)))
    return math.exp(sum(logs) / len(logs))


def scaled(seconds: float, ref: float) -> float:
    """`seconds` measured next to reference loops of `ref` seconds, at the
    reference speed."""
    return seconds * REF_S / ref


def import_reference_s() -> float:
    """Seconds to import IMPORT_MODULES; once per interpreter, since a
    module is imported only once."""
    start = perf_counter()
    for name in IMPORT_MODULES:
        importlib.import_module(name)
    return perf_counter() - start


def setup_scaled(seconds: float, import_ref: float) -> float:
    """A set-up's `seconds`, measured in the interpreter that then took
    `import_ref` seconds for import_reference_s, at the reference speed."""
    return seconds * IMPORT_REF_S / import_ref
