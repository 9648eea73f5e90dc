"""Search budget shared by the combinatorial kernels.

SPHSYS_MAX_STATES bounds state explosion in the search walk, the Hilbert
basis completion, the extreme-ray enumeration (behind feasibility and the
kernel rays that start Hilbert bases and the smooth test) and the
automorphism list; each faults loudly instead of degrading.  Unset or empty
it means 1 000 000; any other value must be a decimal count.
"""

import os

_DEFAULT = 1_000_000


def max_states() -> int:
    raw = os.environ.get("SPHSYS_MAX_STATES", "")
    if not raw:
        return _DEFAULT
    if not raw.isdecimal():
        raise ValueError(f"SPHSYS_MAX_STATES={raw!r} is not a decimal count "
                         "of states")
    return int(raw)


class BudgetExceeded(RuntimeError):
    """A kernel ran past max_states().  layer names the kernel ("search",
    "hilbert" for the completion, "feasible" for any extreme-ray
    enumeration, or "automorphisms"), count how far it got or had
    to go, cap the budget, and input what it worked on, as a JSON value."""

    def __init__(self, message, layer=None, count=None, cap=None,
                 input=None):
        super().__init__(message)
        self.layer = layer
        self.count = count
        self.cap = cap
        self.input = input
