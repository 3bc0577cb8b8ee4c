"""A fixed unit of pure-Python work that tracks the speed of a shared machine.

On a shared machine the interpreter's speed changes by up to ~1.8x for
minutes at a time, far longer than one run.  Timing this fixed unit between
the measured chunks of a run, and scaling each chunk by how long the unit
took next to it, cancels most of that drift: every time the benchmark
reports is expressed at the reference speed, at which the unit takes exactly
``REFERENCE_S`` seconds.  The unit is interpreter work of the same kind as
critex's (regex scanning, string methods, dict updates, short-lived objects)
and never calls the program under test, so no change to the program can
change it.
"""

from __future__ import annotations

import gc
import re
import time

REFERENCE_S = 0.010

_TEXT = (
    "Patients aged 18-65 years with a body mass index below 30 kg/m^2 and a "
    "systolic blood pressure of less than 140/90 mmHg are eligible. Exclusion: "
    "any use of antidepressants or sedative hypnotics within three days, "
    "hemoglobin A1c above 7.5 %, or a history of seizures (two or more per "
    "year). Participants take 20 mg twice daily for at least 12 weeks prior to "
    "screening; an electrocardiogram (ECG) is recorded at every visit."
)
_WORD = re.compile(r"\d+(?:\.\d+)?(?:/\d+)?|[A-Za-z][A-Za-z0-9^/-]*|\S")
_ROUNDS = 100


def unit_of_work() -> int:
    counts: dict[str, int] = {}
    total = 0
    for _ in range(_ROUNDS):
        spans = []
        for m in _WORD.finditer(_TEXT):
            word = m.group(0).lower()
            counts[word] = counts.get(word, 0) + 1
            spans.append((m.start(), m.end(), word))
        spans.sort(key=lambda s: (len(s[2]), s[0]))
        total += sum(end - start for start, end, word in spans if word.isalpha())
    return total + len(counts)


def measure() -> float:
    """Seconds one unit takes now (with the cyclic collector paused, so the
    program's heap does not change the unit's cost)."""

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        unit_of_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
