"""Reference canonical form for the tests: the one-row code ``DiscretePriceDistribution`` ran
before it canonicalized through ``dists.canonical_rows``.

Zero-mass atoms drop first, so they cannot shift a merge; the rest are
sorted stably by value, and values within ``MERGE_TOL`` of their left
neighbour merge into it with their masses summed by ``np.bincount``.
"""
import numpy as np

from imbtrader.dists import MERGE_TOL


def canonical_atoms(values, masses):
    """(values, masses) of one distribution in canonical form."""
    v = np.asarray(values, dtype=float).ravel()
    m = np.asarray(masses, dtype=float).ravel()
    keep = m > 0.0
    if not np.any(keep):
        raise ValueError("all atoms have zero mass")
    v, m = v[keep], m[keep]
    order = np.argsort(v, kind="stable")
    v, m = v[order], m[order]
    if v.size > 1 and np.any(np.diff(v) <= MERGE_TOL):
        group = np.concatenate(([0], np.cumsum(np.diff(v) > MERGE_TOL)))
        first = np.searchsorted(group, np.arange(group[-1] + 1), side="left")
        v = v[first]
        m = np.bincount(group, weights=m)
    return v, m
