"""Uniform 1D cell-centered mesh."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Mesh1D:
    x_left: float
    x_right: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be positive, got {self.n_cells}")
        if not self.x_right > self.x_left:
            raise ValueError(f"need x_right > x_left, got [{self.x_left}, {self.x_right}]")

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.h

    @property
    def measure(self) -> float:
        return self.x_right - self.x_left

    def integrate(self, cell_values: np.ndarray) -> float:
        """Midpoint (cell-average) quadrature."""
        return float(np.sum(np.asarray(cell_values, dtype=float)) * self.h)
