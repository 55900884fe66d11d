"""Geometry, parameters, and the weighted function space L2(bulk) + c*L2(boundary).

The boundary is a genuine degree of freedom: a field configuration is a pair
(bulk samples, boundary values), and all inner products carry the boundary
measure c * (Dirac at each boundary component).  The sampled-function layer
is the strip's: its boundary has two components, at -S and +S, and every
``BulkBoundaryFunction`` holds exactly those two values.  ``HalfSpace`` and
``Grid1D.for_halfspace`` serve the half-space formulas of ``modes``, ``qft``
and ``holo``, which work on plain arrays.  Everything here is a pure
function over immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridMismatchError(ValueError):
    """Two sampled functions do not live on the same grid."""


class GeometryError(ValueError):
    """Grid or evaluation point is incompatible with the geometry."""


class ZeroModeError(ValueError):
    """An operation is undefined in the presence of a zero-frequency mode."""


@dataclass(frozen=True)
class Strip:
    """Transverse interval [-S, S] with a boundary component at each end."""

    S: float

    def __post_init__(self):
        if not (np.isfinite(self.S) and self.S > 0):
            raise ValueError(f"strip half-width must be positive and finite, got S={self.S}")


@dataclass(frozen=True)
class HalfSpace:
    """Transverse half-line [0, inf) with a single boundary component at z=0."""


Geometry = Strip | HalfSpace


@dataclass(frozen=True)
class PhysicalParams:
    """Boundary coupling c (a length, > 0), mass mu >= 0, geometry, and the
    boundary spacetime dimension d."""

    c: float
    mu: float = 0.0
    geometry: Geometry = field(default_factory=lambda: Strip(1.0))
    d: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0):
            raise ValueError(
                f"boundary coupling must be positive and finite, got c={self.c}; "
                "negative c is rejected (no well-posed classical theory)"
            )
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"mass must be non-negative and finite, got mu={self.mu}")
        if self.d < 1 or int(self.d) != self.d:
            raise ValueError(f"boundary dimension must be an integer >= 1, got d={self.d}")


# Second-order one-sided endpoint-derivative stencil, used to correct the
# h^2/12*[f'(b)-f'(a)] Euler-Maclaurin term of the composite trapezoid rule.
# The resulting Gregory-type weights stay positive, so the quadrature form is
# positive definite on sampled data.
_END_CORRECTION = np.array([25.0, -48.0, 36.0, -16.0, 3.0]) / 144.0


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with n intervals on [z_min, z_max], both endpoints included."""

    z_min: float
    z_max: float
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 intervals, got n={self.n}")
        if not self.z_max > self.z_min:
            raise ValueError("grid endpoints must be increasing")

    @property
    def h(self) -> float:
        return (self.z_max - self.z_min) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.n + 1)

    @property
    def n_nodes(self) -> int:
        return self.n + 1

    def quad_weights(self) -> np.ndarray:
        """Endpoint-corrected trapezoid weights (plain trapezoid below 10 nodes)."""
        h = self.h
        w = np.full(self.n + 1, h)
        w[0] = w[-1] = h / 2.0
        if self.n + 1 >= 10:
            w[:5] -= _END_CORRECTION * h
            w[-5:] -= _END_CORRECTION[::-1] * h
        return w

    @classmethod
    def for_strip(cls, S: float, n: int) -> "Grid1D":
        return cls(-S, S, n)

    @classmethod
    def for_halfspace(cls, z_max: float, n: int) -> "Grid1D":
        return cls(0.0, z_max, n)


def _check_halfspace(p: PhysicalParams, what: str):
    """GeometryError unless ``p`` is a half-space; ``what`` names the formula."""
    if not isinstance(p.geometry, HalfSpace):
        raise GeometryError(f"{what} needs half-space parameters, got geometry {p.geometry!r}")


def _check_grid_geometry(grid: Grid1D, p: PhysicalParams):
    """GeometryError unless ``p`` is a strip and ``grid`` spans [-S, S]."""
    if not isinstance(p.geometry, Strip):
        raise GeometryError("sampled functions live on the strip, "
                            f"got geometry {p.geometry!r}")
    S = p.geometry.S
    if not (np.isclose(grid.z_min, -S) and np.isclose(grid.z_max, S)):
        raise GeometryError(
            f"strip grid must span [-S, S] = [{-S}, {S}], got [{grid.z_min}, {grid.z_max}]"
        )


@dataclass
class BulkBoundaryFunction:
    """A sampled element of L2(bulk) + L2(boundary) on the strip.

    ``boundary`` holds the values on the strip's two boundary components:
    index 0 is the component at -S and index 1 the one at +S.  The boundary
    values are independent data, which need not agree with the bulk trace.
    """

    grid: Grid1D
    bulk: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        self.bulk = np.asarray(self.bulk)
        self.boundary = np.atleast_1d(np.asarray(self.boundary))
        if self.bulk.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"bulk samples have shape {self.bulk.shape}, expected ({self.grid.n_nodes},)"
            )
        if self.boundary.shape != (2,):
            raise ValueError(f"boundary values have shape {self.boundary.shape}, expected "
                             "(2,): one per strip boundary component")


@dataclass
class CauchyData:
    """Position and velocity pair on a common grid."""

    position: BulkBoundaryFunction
    velocity: BulkBoundaryFunction

    def __post_init__(self):
        if self.position.grid != self.velocity.grid:
            raise GridMismatchError("Cauchy data components live on different grids")

    @classmethod
    def from_samples(cls, grid: Grid1D, position, velocity) -> CauchyData:
        """Compatible strip data from node samples: the boundary values are
        the endpoint samples (index 0 at -S)."""
        pos, vel = np.asarray(position), np.asarray(velocity)
        return cls(
            position=BulkBoundaryFunction(grid=grid, bulk=pos, boundary=pos[[0, -1]]),
            velocity=BulkBoundaryFunction(grid=grid, bulk=vel, boundary=vel[[0, -1]]))


def _check_same_grid(F: BulkBoundaryFunction, G: BulkBoundaryFunction):
    if F.grid != G.grid:
        raise GridMismatchError("operands live on different grids")


def weighted_inner_product(F: BulkBoundaryFunction, G: BulkBoundaryFunction,
                           p: PhysicalParams):
    """<F, G> = integral conj(F)*G over the bulk + c * sum over boundary components.

    The bulk integral uses the endpoint-corrected trapezoid rule of the grid;
    the boundary measure is an exact point evaluation weighted by c.
    """
    _check_same_grid(F, G)
    _check_grid_geometry(F.grid, p)
    w = F.grid.quad_weights()
    bulk = np.dot(w, np.conj(F.bulk) * G.bulk)
    bdy = p.c * np.sum(np.conj(F.boundary) * G.boundary)
    return bulk + bdy


def weighted_norm(F: BulkBoundaryFunction, p: PhysicalParams) -> float:
    return float(np.sqrt(np.real(weighted_inner_product(F, F, p))))


def spectral_sobolev_norm(coeffs: np.ndarray, table, r: float) -> float:
    """Sobolev-scale norm ( sum_m (omega_m^2)^r |a_m|^2 )^(1/2) in the mode basis.

    ``table`` is a ModeTable (anything exposing ``omegas()``).  For r < 0 the
    zero mode must be absent (coefficient exactly zero), otherwise the norm is
    not defined.
    """
    coeffs = np.asarray(coeffs)
    omegas = np.asarray(table.omegas())
    if coeffs.shape != omegas.shape:
        raise ValueError(f"got {coeffs.shape[0]} coefficients for {omegas.shape[0]} modes")
    zero = omegas == 0.0
    if r < 0 and np.any(zero & (coeffs != 0)):
        raise ZeroModeError("norm with r < 0 is undefined on the zero mode")
    w2 = omegas**2
    if r == 0:
        scale = np.ones_like(w2)
    else:
        scale = np.zeros_like(w2)
        nz = ~zero
        scale[nz] = w2[nz] ** r
    return float(np.sqrt(np.sum(scale * np.abs(coeffs) ** 2)))

