"""Regulation-price sensitivity estimation and the linear market-impact model.

A trade of size ``u`` MW shifts the system imbalance by ``beta * u`` and
moves each regulation price down by its sensitivity times that shift. The
reactivity ``beta`` is a tuning parameter in [0, 1]; the sensitivities are
estimated from history as regression slopes.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Regime",
    "ImpactParams",
    "SensitivityError",
    "is_surplus",
    "estimate_sensitivities",
    "adjust_price",
    "realized_settlement_price",
]


class Regime(enum.Enum):
    """Balancing state: surplus prices at the downregulation (MDP) price,
    shortage at the upregulation (MIP) price."""

    MDP = "mdp"
    MIP = "mip"


class SensitivityError(ValueError):
    """Raised when a regime has too little data to fit a slope."""


def is_surplus(s):
    """Whether imbalance ``s`` (scalar or array) is a surplus; zero counts as one."""
    return s >= 0.0


@dataclass(frozen=True)
class ImpactParams:
    """Market reactivity and per-regime price sensitivities (EUR/MW)."""

    beta: float
    k_mdp: float
    k_mip: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta {self.beta} outside [0, 1]")
        for name in ("k_mdp", "k_mip"):
            k = getattr(self, name)
            if not np.isfinite(k) or k < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative, got {k}")

    def sensitivity(self, regime: Regime) -> float:
        return self.k_mdp if regime is Regime.MDP else self.k_mip


def _slope(x: np.ndarray, y: np.ndarray, regime: str) -> float:
    if x.size < 2:
        raise SensitivityError(f"{regime}: need at least 2 points, got {x.size}")
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom <= 0.0:
        raise SensitivityError(f"{regime}: imbalance volume has zero variance")
    return float(xc @ (y - y.mean())) / denom


def estimate_sensitivities(
    imbalance, regulation_price
) -> tuple[float, float]:
    """Fit per-regime slopes of regulation price against imbalance volume.

    ``regulation_price[i]`` must be the price of the regime row ``i``
    belongs to (downregulation when ``imbalance[i] >= 0``, upregulation
    otherwise). Returns ``(k_mdp, k_mip)`` as the negated least-squares
    slopes, so that a positive sensitivity plugs into ``p - K * beta * u``.
    """
    s = np.asarray(imbalance, dtype=float).ravel()
    p = np.asarray(regulation_price, dtype=float).ravel()
    if s.shape != p.shape:
        raise ValueError("imbalance and price sequences must be equal length")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(p))):
        raise ValueError("non-finite inputs")
    pos = is_surplus(s)
    k_mdp = -_slope(s[pos], p[pos], "MDP regime")
    k_mip = -_slope(s[~pos], p[~pos], "MIP regime")
    return k_mdp, k_mip


def adjust_price(price: float, regime: Regime, u: float, params: ImpactParams) -> float:
    """Regulation price after absorbing an own trade of ``u`` MW; prices and positions may be arrays that broadcast."""
    return price - params.sensitivity(regime) * params.beta * u


def realized_settlement_price(
    s: float, u: float, params: ImpactParams, p_mdp: float, p_mip: float
) -> float:
    """Settlement price given the realized imbalance and the own position.

    The own trade shifts the imbalance to ``s + beta * u``; the sign of the
    shifted volume selects the regime and the matching adjusted price.
    """
    if is_surplus(s + params.beta * u):
        return adjust_price(p_mdp, Regime.MDP, u, params)
    return adjust_price(p_mip, Regime.MIP, u, params)
