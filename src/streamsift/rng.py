"""Deterministic seed derivation helpers.

Every stochastic component takes a plain integer seed; composite contexts
(run seed + purpose tag + step ...) are folded into one integer through a
SeedSequence so that independent purposes get independent streams.
"""

import numpy as np
# numpy 2 imports numpy.random on first use; import it with the package instead
from numpy.random import SeedSequence, default_rng


def derive_seed(*parts):
    """Fold integer parts into a single derived seed, deterministically."""
    ss = SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def rng_from(*parts):
    """A Generator seeded from the given parts."""
    return default_rng(SeedSequence([int(p) for p in parts]))
