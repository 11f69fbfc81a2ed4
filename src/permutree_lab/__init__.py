"""Exact-arithmetic combinatorics of permutree lattices, the s-weak order,
and their realizations through framed-graph triangulations.

All core computations use integers, tuples, frozensets and `fractions.Fraction`;
there are no floating-point tolerances anywhere.  Every value object is
immutable after construction, so results can be shared freely across threads.
Some caches (a `Hasse` diagram's down-set masks) are filled on first use;
filling one is idempotent, so a race between threads only repeats the work.
"""

__version__ = "0.1.0"
