"""Uniformly sampled control signals with discrete H1(0,T) machinery."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import TdksError


class SignalError(TdksError, ValueError):
    pass


@dataclass(frozen=True, eq=False)
class ControlSignal:
    """S+1 uniform samples of u on [0, T]; values between samples are linear.

    The H1 norm squared is trapezoid(u^2) plus the forward-difference
    quadrature of (u')^2, recomputed deterministically from the samples.
    """

    samples: np.ndarray
    horizon: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size < 2:
            raise SignalError("control needs at least two samples (endpoints of [0, T])")
        if not np.all(np.isfinite(samples)):
            raise SignalError("control samples must be finite")
        if not (self.horizon > 0):
            raise SignalError("control horizon must be positive")
        object.__setattr__(self, "samples", samples)

    @property
    def step(self):
        return self.horizon / (self.samples.size - 1)

    @cached_property
    def times(self):
        return np.linspace(0.0, self.horizon, self.samples.size)

    def value(self, t):
        """u at t, held at its end samples outside [0, T]; an array of times gives an array."""
        u = np.interp(t, self.times, self.samples)
        return float(u) if np.ndim(t) == 0 else u

    @property
    def sup(self):
        return float(np.max(np.abs(self.samples)))

    @property
    def l2_norm_sq(self):
        return float(np.trapezoid(self.samples**2, dx=self.step))

    @property
    def derivative_norm_sq(self):
        du = np.diff(self.samples) / self.step
        return float(np.sum(du**2) * self.step)

    @property
    def h1_norm_sq(self):
        return self.l2_norm_sq + self.derivative_norm_sq

    @property
    def h1_norm(self):
        return float(np.sqrt(self.h1_norm_sq))


def zero_control(horizon, steps):
    return ControlSignal(samples=np.zeros(steps + 1), horizon=horizon)
