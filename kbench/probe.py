"""A fixed work unit that measures how fast the host runs Python right now.

`probe()` times a fixed mix of the interpreter work the program spends its
time on: dicts keyed by tuples, exact rational arithmetic on Python ints
(the Euclidean reduction `Fraction` performs), and string building.  It
never calls the program, so a change to the program cannot change it.  It
imports nothing but built-in modules, so a fresh interpreter can load it
before `import kregular.cli` without doing any of that import's work.
"""

import gc
import time

# Probe time on a fast state of a 2-vCPU cloud host, Python 3.11; it sets the
# scale of every time the benchmark reports, so it must never change.
REFERENCE_S = 100e-6


def _work() -> int:
    table: dict = {}
    for i in range(240):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) ^ (i * i)
    num, den = 0, 1
    for i in range(1, 24):
        num, den = num * (i + 7) + i * den, den * (i + 7)
        a, b = num, den
        while b:
            a, b = b, a % b
        num, den = num // a, den // a
    text = ",".join(str(value) for value in table.values())
    return num % 97 + len(text)


def probe() -> float:
    """Wall seconds of one fixed work unit, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
