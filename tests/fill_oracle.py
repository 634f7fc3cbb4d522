"""Reference fills for the tests: the per-position loop ``fill_cost`` ran before fills became one pass over the levels.

A book is its two ladders as ``(price, volume)`` tuples, best level first.
``fill_cost`` walks one side's levels until the position is filled and
stops there; ``fill_prices`` calls it once per position.
"""
import numpy as np

from imbtrader.strategy import InsufficientDepthError


def fill_cost(asks, bids, u):
    """Cost and average price of filling ``u`` MW, as ``strategy.fill_cost`` documents."""
    if u == 0.0:
        return 0.0, (asks or bids)[0][0]
    levels = asks if u > 0.0 else bids
    side = "ask" if u > 0.0 else "bid"
    remaining = abs(u)
    cost = 0.0
    for price, volume in levels:
        take = min(volume, remaining)
        cost += price * take
        remaining -= take
        if remaining <= 0.0:
            break
    if remaining > 1e-12:
        raise InsufficientDepthError(f"{side} depth {depth(levels):g} MW cannot fill {abs(u):g} MW")
    return cost * (1.0 if u > 0.0 else -1.0), cost / abs(u)


def depth(levels):
    """Total volume of a side, added left to right (the builtin ``sum`` compensates from Python 3.12 on)."""
    total = 0.0
    for _, volume in levels:
        total += volume
    return total


def fill_prices(asks, bids, us):
    return np.array([fill_cost(asks, bids, float(u))[1] for u in us])
