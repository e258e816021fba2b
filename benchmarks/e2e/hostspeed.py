"""A reference computation timed beside every measurement.

The reference host is a shared 2-core VM whose speed moves by 10-70% for
seconds to minutes at a time (CPU time moves with wall time, so it is the
core that runs slower, not the process that waits).  A 10-second timed
region cannot average that out, and the swings are wider than any bound
worth having.  So every timed call is bracketed by :func:`spin`, a fixed
loop of random reads over a working set larger than the L2 cache — which
slows with the same cache and memory contention the engine's pointer
chasing does — and the call's wall seconds are divided by the slowdown that
loop saw, damped by :data:`ENGINE_SENSITIVITY`: the loop is all cache misses,
the engine about half, and over 340 recorded repetitions of three workloads
an engine repetition slowed by close to the square root of what the loop
did.  On those series the spread (interquartile range over median) of an
8-repetition median fell from 3.7-6.7% uncorrected to 1.5-3.9%; in a bad
phase, where ten uncorrected runs spread by 30%, full correction had already
brought it to 11%.

The loop allocates nothing the garbage collector tracks: a loop that does
pays for a collection of whatever the repetition before it left behind, and
measures that instead of the host.

Times corrected this way are *seconds at nominal host speed*: where the loop
takes :data:`SPIN_NOMINAL_S` they equal wall seconds.  The raw wall seconds
and the measured slowdown are reported beside them.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from time import perf_counter

#: What :func:`spin` takes on the reference host in a calm phase.  Only a
#: scale: it cancels out of every comparison between two runs.
SPIN_NOMINAL_S = 0.030
SPIN_STEPS = 80_000
#: Exponent relating the engine's slowdown to the loop's (fitted: 0.5 gave
#: the smallest spread on all three series; 0 is no correction, 1 is full).
ENGINE_SENSITIVITY = 0.5
_TABLE_BITS = 20
_KEYS = 32_768


@lru_cache(maxsize=None)
def _tables() -> tuple[array, dict]:
    return (
        array("i", range(1 << _TABLE_BITS)),
        {key * 13: key for key in range(_KEYS)},
    )


def spin() -> float:
    """Run the reference loop; return its wall seconds."""
    table, lookup = _tables()
    mask = (1 << _TABLE_BITS) - 1
    position = 12345
    total = 0
    started = perf_counter()
    for _ in range(SPIN_STEPS):
        position = (position * 1103515245 + 12345) & mask
        total += table[position]
        total += lookup.get((position % _KEYS) * 13, 0)
    return perf_counter() - started


def slowdown(before: float, after: float) -> float:
    """What a call bracketed by two spins was slowed by (1.0 = nominal speed)."""
    return ((before + after) / 2 / SPIN_NOMINAL_S) ** ENGINE_SENSITIVITY
