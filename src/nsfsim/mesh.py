"""Uniform 1D cell-centered mesh."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Mesh1D:
    """Uniform cells on [x_left, x_right].

    ``centers`` is computed once, at construction (copies and pickles are
    rebuilt by it), and is read-only; not part of equality, hashing or repr.
    """

    x_left: float
    x_right: float
    n_cells: int
    centers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be positive, got {self.n_cells}")
        if not self.x_right > self.x_left:
            raise ValueError(f"need x_right > x_left, got [{self.x_left}, {self.x_right}]")
        centers = self.x_left + (np.arange(self.n_cells) + 0.5) * self.h
        centers.flags.writeable = False
        object.__setattr__(self, "centers", centers)

    def __reduce__(self):
        return type(self), (self.x_left, self.x_right, self.n_cells)

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @property
    def measure(self) -> float:
        return self.x_right - self.x_left

    def integrate(self, cell_values: np.ndarray) -> float:
        """Midpoint (cell-average) quadrature."""
        return float(np.sum(np.asarray(cell_values, dtype=float)) * self.h)
