"""Containers for eigenpair results."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EigenSolution:
    """A batch of eigenpairs of a matrix pencil.

    ``vectors[:, i]`` pairs with ``values[i]`` and carries the 1-based mode
    label ``modes[i]`` assigned by whichever closed form or solver produced
    it; both share one dtype, float64 when neither is complex, else
    complex128.  Their residuals on a pencil come from
    :func:`specmat.oracle.pencil_residuals` or :func:`specmat.oracle.verify`.
    """

    modes: np.ndarray
    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=int)
        dtype = complex if np.iscomplexobj(self.values) or np.iscomplexobj(self.vectors) else float
        self.values, self.vectors = np.asarray(self.values, dtype), np.asarray(self.vectors, dtype)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array with one column per mode")
        if not (len(self.modes) == len(self.values) == self.vectors.shape[1]):
            raise ValueError("modes, values and vector columns must line up")
        if len(np.unique(self.modes)) != len(self.modes):
            raise ValueError("mode labels must be unique")
        if not self.vectors.any(axis=0).all():
            raise ValueError("eigenvectors must be nonzero")

    @property
    def n_modes(self) -> int:
        return len(self.values)

    def value_for_mode(self, mode: int) -> complex:
        idx = np.flatnonzero(self.modes == mode)
        if idx.size != 1:
            raise KeyError(f"mode {mode} not present")
        return complex(self.values[idx[0]])

    def vector_for_mode(self, mode: int) -> np.ndarray:
        idx = np.flatnonzero(self.modes == mode)
        if idx.size != 1:
            raise KeyError(f"mode {mode} not present")
        return self.vectors[:, idx[0]]


@dataclass
class PolynomialEigenSolution:
    """Per-mode roots of a polynomial matrix pencil.

    Each mode contributes one shared eigenvector (a column of ``vectors``)
    and up to ``q`` eigenvalues, the roots of that mode's scalar polynomial.
    Modes where the leading coefficient vanished carry fewer roots and are
    listed in ``degree_drops``.
    """

    modes: np.ndarray
    mode_roots: list
    vectors: np.ndarray
    degree_drops: tuple[int, ...] = ()

    def __post_init__(self):
        self.modes = np.asarray(self.modes, dtype=int)
        self.mode_roots = [np.asarray(r, dtype=complex) for r in self.mode_roots]
        self.vectors = np.asarray(self.vectors)
        if len(self.modes) != len(self.mode_roots) or self.vectors.shape[1] != len(self.modes):
            raise ValueError("modes, roots and vector columns must line up")

    def all_values(self) -> np.ndarray:
        """Every eigenvalue, concatenated across modes."""
        if not self.mode_roots:
            return np.empty(0, dtype=complex)
        return np.concatenate(self.mode_roots)
