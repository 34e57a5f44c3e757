"""Periodic grid and its real-transform spectral layer on [-L, L).

Conventions: n uniform points x_i = -L + i*dx with dx = 2L/n, wavenumbers
k_j = pi*j/L for the real-transform modes 0 <= j <= n/2, forward transform
unnormalized (the inverse carries the 1/n factor).  A band spectrum holds
the modes j < n/4 only; products of up to three band fields are alias-free
on the n points, so truncating them back to the band is their exact
projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "derivative",
    "l2_norm",
]


class Grid:
    """Uniform periodic grid with its wavenumbers and band transforms."""

    def __init__(self, n: int, half_length: float = 1.0):
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 4, got {n}")
        if half_length <= 0:
            raise ValueError(f"half_length must be positive, got {half_length}")
        self.n = n
        self.band = n // 4
        self.half_length = float(half_length)
        self.dx = 2.0 * self.half_length / n
        self.x = -self.half_length + self.dx * np.arange(n)
        # k_j = pi*j/L, j = 0..n/2; rfftfreq(n, d=dx) returns j/(n*dx).
        self.k = 2.0 * np.pi * np.fft.rfftfreq(n, d=self.dx)

    def spectral(self, values: np.ndarray) -> np.ndarray:
        """Band spectrum: the real-transform modes j < n/4, along the last axis."""
        return np.fft.rfft(values, axis=-1)[..., : self.band]

    def physical(self, hat: np.ndarray) -> np.ndarray:
        """Grid values of a (band or half) spectrum, zero-padded to n points."""
        return np.fft.irfft(hat, n=self.n, axis=-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and other.n == self.n
            and other.half_length == self.half_length
        )

    def __hash__(self):
        return hash((self.n, self.half_length))

    def __repr__(self):
        return f"Grid(n={self.n}, half_length={self.half_length})"


@dataclass
class Field:
    """Real scalar field sampled on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(
                f"field shape {self.values.shape} does not match grid n={self.grid.n}"
            )

    def mean(self) -> float:
        return float(self.values.mean())


def derivative(f: Field) -> Field:
    """Spectral first derivative over the full half spectrum, so fields that
    are not band-limited are differentiated too."""
    grid = f.grid
    mult = 1j * grid.k
    # The Nyquist coefficient of a real field is real; ik would make it
    # imaginary, so it is dropped.
    mult[-1] = 0.0
    return Field(grid, grid.physical(np.fft.rfft(f.values) * mult))


def l2_norm(f: Field) -> float:
    return float(np.sqrt(f.grid.dx * np.sum(f.values**2)))

