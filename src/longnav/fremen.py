"""Frequency-enhanced temporal model of a feature's match-score signal.

Each model keeps a running mean (the DC term) and, for every candidate period,
a running complex average of v * exp(-i omega t). Prediction reconstructs the
signal from the DC term plus the strongest components and clamps it to the
observation range [-1, 1].
"""

from __future__ import annotations

import math

import numpy as np

# Diurnal harmonics (24h/j for j = 1..12) plus one week.
DEFAULT_PERIODS = tuple(86400.0 / j for j in range(1, 13)) + (604800.0,)

DEFAULT_ORDER = 2


class FremenModel:
    __slots__ = ("periods", "_omega", "n_obs", "mu", "_re", "_im")

    def __init__(self, periods=DEFAULT_PERIODS):
        self.periods = tuple(float(p) for p in periods)
        if any(p <= 0 for p in self.periods):
            raise ValueError("candidate periods must be positive")
        self._omega = 2.0 * np.pi / np.asarray(self.periods, dtype=np.float64)
        self.n_obs = 0
        self.mu = 0.0
        self._re = np.zeros(len(self.periods))
        self._im = np.zeros(len(self.periods))

    def add_observation(self, v: float, t: float) -> "FremenModel":
        """Fold one observation v in [-1, 1] taken at time t (seconds) into
        the running means."""
        v = float(v)
        if not (-1.0 <= v <= 1.0):
            raise ValueError(f"observation {v} outside [-1, 1]")
        if not math.isfinite(t):
            raise ValueError("observation time must be finite")
        self.n_obs += 1
        k = 1.0 / self.n_obs
        self.mu += (v - self.mu) * k
        wt = self._omega * t
        self._re += (v * np.cos(wt) - self._re) * k
        self._im += (-v * np.sin(wt) - self._im) * k
        return self

    def predict(self, t: float, order: int = DEFAULT_ORDER) -> float:
        """Reconstructed score at time t from the DC term plus the `order`
        strongest spectral components, clamped to [-1, 1]."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if self.n_obs == 0:
            return 0.0
        val = self.mu
        if order > 0:
            amp2 = self._re * self._re + self._im * self._im
            k = min(order, amp2.shape[0])
            # stable sort so amplitude ties resolve identically in predict_many
            top = np.argsort(-amp2, kind="stable")[:k]
            wt = self._omega[top] * t
            val += 2.0 * float(np.dot(self._re[top], np.cos(wt))
                               - np.dot(self._im[top], np.sin(wt)))
        return min(1.0, max(-1.0, val))

    def mean_score(self) -> float:
        """Mean observed value over the model's whole history (0 when empty)."""
        return self.mu

    def dominant_components(self, k: int = DEFAULT_ORDER):
        """Top-k components as (period_s, amplitude, phase), strongest first;
        equal amplitudes order longer periods first."""
        if k > len(self.periods):
            raise ValueError(f"k={k} exceeds {len(self.periods)} candidate periods")
        if self.n_obs == 0:
            return []
        amp = 2.0 * np.hypot(self._re, self._im)
        order = sorted(range(len(self.periods)),
                       key=lambda j: (-amp[j], -self.periods[j]))
        return [(self.periods[j], float(amp[j]),
                 float(math.atan2(self._im[j], self._re[j]))) for j in order[:k]]

    def to_dict(self) -> dict:
        return {
            "n_obs": self.n_obs,
            "mu": self.mu,
            "components": [[self.periods[j], float(self._re[j]), float(self._im[j])]
                           for j in range(len(self.periods))],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FremenModel":
        comps = d["components"]
        m = cls(periods=[c[0] for c in comps])
        m.n_obs = int(d["n_obs"])
        m.mu = float(d["mu"])
        m._re = np.array([c[1] for c in comps], dtype=np.float64)
        m._im = np.array([c[2] for c in comps], dtype=np.float64)
        return m

    def __repr__(self) -> str:
        return f"FremenModel(n_obs={self.n_obs}, mu={self.mu:.4f})"


def predict_many(models, t: float, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Vectorized predict() over a list of models sharing one period set."""
    n = len(models)
    if n == 0:
        return np.zeros(0)
    first = models[0]
    p = first._omega.shape[0]
    mu = np.empty(n)
    nobs = np.empty(n, dtype=np.int64)
    re = np.empty((n, p))
    im = np.empty((n, p))
    for i, m in enumerate(models):
        mu[i] = m.mu
        nobs[i] = m.n_obs
        re[i] = m._re
        im[i] = m._im
    val = mu.copy()
    if order > 0:
        k = min(order, p)
        amp2 = re * re + im * im
        top = np.argsort(-amp2, axis=1, kind="stable")[:, :k]
        wt = first._omega[top] * t
        val += 2.0 * (np.take_along_axis(re, top, axis=1) * np.cos(wt)
                      - np.take_along_axis(im, top, axis=1) * np.sin(wt)).sum(axis=1)
    np.clip(val, -1.0, 1.0, out=val)
    val[nobs == 0] = 0.0
    return val
