"""Discrete-time leaky integrate-and-fire dynamics and the spike surrogate.

One step of the simplified membrane recurrence:

    u_new = beta * (u_reset if fired_last_step else u_prev) + input_current
    fire  = u_new >= u_threshold

i.e. the hard reset is folded into the next step's decay term: whenever the
neuron fired, the decay restarts from the reset potential. A step reads the
previous state and its input and can write the new state into rows of the
caller's trace, so ``model.lif_scan`` allocates nothing per step.

Spikes are non-differentiable, so training substitutes a rectangular
window for d(spike)/du: constant 1/a inside the open interval
(u_threshold - a/2, u_threshold + a/2), zero outside. ``relaxed_spike`` is
the piecewise-linear ramp whose exact derivative is that window almost
everywhere; it exists so the backward pass can be validated against finite
differences on a fully differentiable stand-in network.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class LifConfig:
    beta: float = 0.2
    u_threshold: float = 0.5
    u_reset: float = 0.0
    surrogate_width: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if not self.u_reset < self.u_threshold:
            raise ValueError("u_reset must be below u_threshold")
        if not self.surrogate_width > 0:
            raise ValueError("surrogate_width must be positive")
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")


def membrane_update(u_prev: np.ndarray, fired_prev: np.ndarray, current: np.ndarray,
                    cfg: LifConfig, u_out=None, fired_out=None):
    """One timestep of the recurrence; ``model.lif_scan`` runs it over a window.

    Returns (u_new, fired_new), fired_new as a bool mask; they are written
    into ``u_out`` and ``fired_out`` when given. Where the neuron fired, the
    decay term is exactly beta * u_reset (no compensated arithmetic), so
    traces are bit-reproducible against a scalar reference simulation.
    """
    u_new = np.multiply(cfg.beta, u_prev, out=u_out)
    np.copyto(u_new, cfg.beta * cfg.u_reset, where=np.asarray(fired_prev, dtype=bool))
    u_new += current
    return u_new, np.greater_equal(u_new, cfg.u_threshold, out=fired_out)


def surrogate_grad(u: np.ndarray, cfg: LifConfig, out=None) -> np.ndarray:
    """Rectangular stand-in for d(spike)/du, with strict window edges, written into ``out``
    when given; ``u`` is not modified."""
    grad = np.subtract(np.asarray(u, dtype=np.float64), cfg.u_threshold, out=out)
    np.abs(grad, out=grad)
    np.less(grad, cfg.surrogate_width / 2.0, out=grad)   # 1.0 inside the window, else 0.0
    grad /= cfg.surrogate_width
    return grad


def relaxed_spike(u: np.ndarray, cfg: LifConfig) -> np.ndarray:
    """Ramp from 0 to 1 across the surrogate window, centered on threshold."""
    u = np.asarray(u, dtype=np.float64)
    ramp = (u - cfg.u_threshold) / cfg.surrogate_width + 0.5
    return np.clip(ramp, 0.0, 1.0)
