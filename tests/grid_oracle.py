"""Reference position order for the tests: the grid ``ActionSpace`` built before the legs did.

``grid`` is every position ascending; ``ordered_grid`` sorts it by absolute
size, ties short before long, which is the optimizer's enumeration order.
"""
import numpy as np


def grid(actions):
    """All positions, ascending; includes the negative side when shorts are allowed."""
    lo = -actions.n_steps if actions.allow_short else 0
    return np.arange(lo, actions.n_steps + 1) * actions.step


def ordered_grid(actions):
    g = grid(actions)
    return g[np.lexsort((g, np.abs(g)))]
