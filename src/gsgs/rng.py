"""Seeded randomness and the scalar/vector draws the samplers consume.

One RngState owns one stream. Streams are PCG64 behind numpy's Generator, so
a fixed seed pins the exact sample sequence for a given numpy generation.
Independent chains take distinct seeds (``gsgs run --chains`` seeds chain i
with seed + i).
"""

import math

import numpy as np


class RngState:
    """Single-owner random stream. Pass it along; never share it across chains."""

    def __init__(self, seed=0):
        self.seed = seed
        self.generator = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(int(seed))))

    def __repr__(self):
        return f"RngState(seed={self.seed!r})"


def standard_normal_vector(rng, n):
    """Draw ``n`` iid standard normal values, advancing the stream."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return rng.generator.standard_normal(n)


def gamma_draw(rng, shape, scale):
    """One Gamma(shape, scale) draw with mean shape * scale.

    This is the parameterization used throughout the hyperparameter
    conditionals: a conditional written as G(a; b) is drawn with shape=a and
    scale=b, so its mean is a*b.
    """
    if not (shape > 0 and math.isfinite(shape)):
        raise ValueError(f"gamma shape must be positive and finite, got {shape}")
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError(f"gamma scale must be positive and finite, got {scale}")
    return float(rng.generator.gamma(shape, scale))
