"""Frequency-enhanced temporal model of a feature's match-score signal.

Each model row keeps a running mean (the DC term) and, for every candidate
period, a running complex average of v * exp(-i omega t). Prediction
reconstructs the signal from the DC term plus the strongest components and
clamps it to the observation range [-1, 1].

One FremenModel holds the rows of a whole map as arrays: ``mu`` and ``n_obs``
of shape ``(n,)`` and the real and imaginary component averages ``re`` and
``im`` of shape ``(n, P)``, P being ``len(periods)``. A single model is a
block of one row. The candidate periods and the prediction order have their
defaults in ``strategies.StrategyConfig``.
"""

from __future__ import annotations

import math

import numpy as np


class FremenModel:
    __slots__ = ("periods", "_omega", "n_obs", "mu", "re", "im")

    def __init__(self, periods, n: int):
        self.periods = tuple(float(p) for p in periods)
        if any(not p > 0 for p in self.periods):
            raise ValueError("candidate periods must be positive")
        self._omega = 2.0 * np.pi / np.asarray(self.periods, dtype=np.float64)
        self.n_obs = np.zeros(n, dtype=np.int64)
        self.mu = np.zeros(n)
        self.re = np.zeros((n, len(self.periods)))
        self.im = np.zeros((n, len(self.periods)))

    def add_observation(self, v, t: float) -> "FremenModel":
        """Fold one observation per row, v in [-1, 1] taken at time t
        (seconds), into the running means."""
        v = np.asarray(v, dtype=np.float64)
        if not np.all((v >= -1.0) & (v <= 1.0)):
            raise ValueError(f"observation {v} outside [-1, 1]")
        if not math.isfinite(t):
            raise ValueError("observation time must be finite")
        self.n_obs += 1
        k = 1.0 / self.n_obs
        self.mu += (v - self.mu) * k
        wt = self._omega * t
        v, k = v[..., None], k[:, None]
        self.re += (v * np.cos(wt) - self.re) * k
        self.im += (-v * np.sin(wt) - self.im) * k
        return self

    def dominant_components(self, k: int) -> list:
        """Each row's top-k components as (period_s, amplitude, phase),
        strongest first, equal amplitudes ordering longer periods first; []
        for a row without observations."""
        if k > len(self.periods):
            raise ValueError(f"k={k} exceeds {len(self.periods)} candidate periods")
        amp = 2.0 * np.hypot(self.re, self.im)
        longer = np.broadcast_to(-np.asarray(self.periods), amp.shape)
        top = np.lexsort((longer, -amp))[:, :k].tolist()
        return [[(self.periods[j], float(amp[i, j]),
                  math.atan2(self.im[i, j], self.re[i, j])) for j in top[i]]
                if self.n_obs[i] else [] for i in range(len(top))]

    def take(self, idx) -> "FremenModel":
        """A copy of rows idx (index array, boolean mask or slice)."""
        m = FremenModel.__new__(FremenModel)
        m.periods, m._omega = self.periods, self._omega
        m.n_obs = np.array(self.n_obs[idx])
        m.mu = np.array(self.mu[idx])
        m.re = np.array(self.re[idx])
        m.im = np.array(self.im[idx])
        return m

    def copy(self) -> "FremenModel":
        return self.take(...)

    @classmethod
    def concat(cls, models) -> "FremenModel":
        """Stack row blocks, in order, into one block; ValueError unless all
        share one period set."""
        m = cls.__new__(cls)
        m.periods, m._omega = models[0].periods, models[0]._omega
        if any(p.periods != m.periods for p in models):
            raise ValueError("cannot stack fremen models with different periods")
        m.n_obs = np.concatenate([p.n_obs for p in models])
        m.mu = np.concatenate([p.mu for p in models])
        m.re = np.concatenate([p.re for p in models])
        m.im = np.concatenate([p.im for p in models])
        return m

    def __repr__(self) -> str:
        return f"FremenModel(rows={self.mu.shape[0]})"


def predict_many(model: FremenModel, t: float, order: int) -> np.ndarray:
    """Predicted score of every row of the model at time t: the DC term plus
    the `order` strongest components, clamped to [-1, 1]; rows without
    observations predict 0."""
    if order < 0:
        raise ValueError("order must be >= 0")
    val = np.array(model.mu, dtype=np.float64)
    if order > 0:
        re, im = model.re, model.im
        k = min(order, re.shape[-1])
        amp2 = re * re + im * im
        top = np.argsort(-amp2, axis=-1, kind="stable")[..., :k]
        wt = model._omega[top] * t
        val += 2.0 * (np.take_along_axis(re, top, axis=-1) * np.cos(wt)
                      - np.take_along_axis(im, top, axis=-1) * np.sin(wt)).sum(axis=-1)
    np.clip(val, -1.0, 1.0, out=val)
    val[model.n_obs == 0] = 0.0
    return val
