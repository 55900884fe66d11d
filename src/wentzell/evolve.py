"""Time evolution: exact spectral propagator, FDTD with dynamical boundary
nodes, energy and causality diagnostics, and the exact reflection solution.

The FDTD scheme is leapfrog throughout.  Interior nodes integrate the bulk
wave equation; each endpoint node is the boundary degree of freedom itself
(the bulk trace and the boundary field are a single unknown) and integrates

    d2/dt2 phi| = -mu^2 phi| + c^-1 dperp phi,

with the inward normal derivative from the second-order one-sided 3-point
stencil.  A first-order stencil degrades global convergence and is not used.

The scheme writes both once, as the leapfrog operator
S(phi) = 2 phi + dt^2 acc(phi).  With r2 = (dt/h)^2, b0 = 2 - dt^2 mu^2 and
g = dt^2 / (2 h c), S is the three-point stencil [r2, b0 - 2 r2, r2] at
interior nodes and

    S_0 = b0 phi_0 + g (-3 phi_0 + 4 phi_1 - phi_2),
    S_N = b0 phi_N - g (3 phi_N - 4 phi_(N-1) + phi_(N-2))

at the endpoints.  A step is phi_next = S(phi) - phi_prev, and the Taylor
back-step of the initial data is phi_prev = S(phi_0)/2 - dt v_0.

``fdtd_run`` is the only stepping loop.  It records the boundary trace (both
endpoint values after every step) in the state it returns, so callers that
follow the boundary take one call instead of stepping from Python.

The FDTD energy is the leapfrog's own energy of the two stored levels
a = phi_prev and b = phi, at time t - dt/2.  With v = (b - a)/dt and lumped
weights w (h inside, h/2 at the ends), node j carries

    (w_j/2) (v_j^2 + mu^2 a_j b_j)
    + half of (b_(k+1) - b_k)(a_(k+1) - a_k) / (2h) from each adjacent cell k
    + c/2 (v_j^2 + mu^2 a_j b_j) at the two end nodes only.

The interior leapfrog conserves the sum exactly, so it is constant to
rounding until the field reaches an endpoint; after that its drift measures
the one-sided closure.  The regional diagnostics sum slices of this one
per-node array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import CauchyData, GeometryError, Grid1D, PhysicalParams, Strip
from .modes import ModeTable, synthesize


class CflError(ValueError):
    """Time step is not positive and finite, or violates the bound dt <= h."""


# ---------------------------------------------------------------------------
# spectral propagator

@dataclass
class SpectralState:
    """Mode coefficients of position (a) and velocity (b) at time t."""

    a: np.ndarray
    b: np.ndarray
    table: ModeTable
    t: float = 0.0
    k: float = 0.0  # transverse momentum, enters through omega^2

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.shape != (len(self.table),) or self.b.shape != (len(self.table),):
            raise ValueError("coefficient lengths must equal the table length")

    def omegas(self) -> np.ndarray:
        return self.table.omegas(self.k)


def spectral_evolve(s: SpectralState, t: float) -> SpectralState:
    """Advance by duration t: per mode a -> a cos wt + b sin(wt)/w,
    b -> -a w sin wt + b cos wt; the zero mode drifts linearly."""
    w = s.omegas()
    zero = w == 0.0
    wt = w * t
    cos = np.cos(wt)
    sin = np.sin(wt)
    wsafe = np.where(zero, 1.0, w)
    sinc = np.where(zero, t, sin / wsafe)
    return SpectralState(a=s.a * cos + s.b * sinc,
                         b=-s.a * np.where(zero, 0.0, w * sin) + s.b * cos,
                         table=s.table, t=s.t + t, k=s.k)


def spectral_symplectic(A: SpectralState, B: SpectralState) -> float:
    """Symplectic form in the mode representation, sum_m (a^A b^B - b^A a^B);
    equals the quadrature form on the synthesized states up to quadrature
    error, and is conserved to rounding under spectral evolution."""
    if (A.table.params, len(A.table)) != (B.table.params, len(B.table)):
        raise ValueError("states live on different mode tables")
    return float(np.sum(A.a * B.b - A.b * B.a))


def synthesize_state(s: SpectralState, grid: Grid1D) -> CauchyData:
    return CauchyData(position=synthesize(s.a, s.table, grid),
                      velocity=synthesize(s.b, s.table, grid))


# ---------------------------------------------------------------------------
# FDTD

@dataclass
class FdtdState:
    """Leapfrog levels (phi_prev, phi) at times (t - dt, t); endpoint samples
    are the boundary degrees of freedom.  ``bdy_trace`` holds the endpoint
    values after each step of the ``fdtd_run`` call that made the state, shape
    (steps, 2) with column 0 at -S."""

    grid: Grid1D
    p: PhysicalParams
    phi: np.ndarray
    phi_prev: np.ndarray
    t: float
    dt: float
    bdy_trace: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    @property
    def bdy(self) -> np.ndarray:
        return np.array([self.phi[0], self.phi[-1]])


def _leapfrog_stencil(h: float, dt: float, p: PhysicalParams
                      ) -> tuple[np.ndarray, float, float]:
    """Interior weights w, endpoint diagonal b0 and closure gain g of the
    leapfrog operator S(phi) = 2 phi + dt^2 acc(phi)."""
    r2 = (dt / h) ** 2
    m2 = dt**2 * p.mu**2
    return np.array([r2, 2.0 - 2.0 * r2 - m2, r2]), 2.0 - m2, dt**2 / (2.0 * h * p.c)


def _leapfrog_into(cur: np.ndarray, out: np.ndarray, w: np.ndarray, b0: float,
                   g: float) -> tuple[float, float]:
    """Overwrite ``out`` with S(cur) - out and return its two endpoint values:
    one convolution for the interior, scalar arithmetic for the closure."""
    f0, f1, f2 = cur[:3].tolist()
    l2, l1, l0 = cur[-3:].tolist()
    lo = b0 * f0 + g * (-3.0 * f0 + 4.0 * f1 - f2) - out[0]
    hi = b0 * l0 - g * (3.0 * l0 - 4.0 * l1 + l2) - out[-1]
    inner = out[1:-1]
    np.subtract(np.convolve(cur, w, "valid"), inner, out=inner)
    out[0] = lo
    out[-1] = hi
    return lo, hi


def make_fdtd_state(data: CauchyData, p: PhysicalParams, cfl: float = 0.5,
                    dt: float | None = None) -> FdtdState:
    """Initialize leapfrog levels from Cauchy data with the second-order Taylor
    back-step phi_prev = phi0 - dt v0 + dt^2 acc(phi0) / 2 = S(phi0)/2 - dt v0,
    with the leapfrog operator S(phi) = 2 phi + dt^2 acc(phi) of ``fdtd_run``.
    The bulk endpoint samples are overwritten by the boundary values (they are
    one unknown).  The time step is ``dt`` if given, else ``cfl * h``; it must
    be positive, finite and at most h."""
    if not isinstance(p.geometry, Strip):
        raise GeometryError("the FDTD engine integrates the strip geometry")
    grid = data.position.grid
    h = grid.h
    if dt is None:
        dt = cfl * h
    if not (np.isfinite(dt) and dt > 0):
        raise CflError(f"time step dt={dt} must be positive and finite")
    if dt > h * (1 + 1e-12):
        raise CflError(f"dt={dt} exceeds the stability bound h={h}")
    phi0 = np.array(data.position.bulk, dtype=float)
    v0 = np.array(data.velocity.bulk, dtype=float)
    phi0[0], phi0[-1] = data.position.boundary
    v0[0], v0[-1] = data.velocity.boundary
    s_phi0 = np.zeros_like(phi0)
    _leapfrog_into(phi0, s_phi0, *_leapfrog_stencil(h, dt, p))
    phi_prev = 0.5 * s_phi0 - dt * v0
    return FdtdState(grid=grid, p=p, phi=phi0, phi_prev=phi_prev, t=0.0, dt=dt)


def fdtd_run(s: FdtdState, n_steps: int) -> FdtdState:
    """Advance n_steps leapfrog steps phi_next = S(phi) - phi_prev and record
    the boundary trace of every step.

    S(phi) = 2 phi + dt^2 acc(phi) is one ``np.convolve`` with the weights
    [r2, 2 - 2 r2 - dt^2 mu^2, r2], r2 = (dt/h)^2, over the interior and the
    one-sided closure b0 phi_0 + g (-3 phi_0 + 4 phi_1 - phi_2) (mirrored at
    +S), b0 = 2 - dt^2 mu^2, g = dt^2 / (2 h c), at the endpoints.  Each step
    is written into the older level's buffer."""
    if n_steps < 0:
        raise ValueError(f"step count must be >= 0, got n_steps={n_steps}")
    w, b0, g = _leapfrog_stencil(s.grid.h, s.dt, s.p)
    prev = s.phi_prev.copy()
    cur = s.phi.copy()
    trace = np.empty((n_steps, 2))
    for k in range(n_steps):
        trace[k] = _leapfrog_into(cur, prev, w, b0, g)
        prev, cur = cur, prev
    return FdtdState(grid=s.grid, p=s.p, phi=cur, phi_prev=prev,
                     t=s.t + n_steps * s.dt, dt=s.dt, bdy_trace=trace)


# ---------------------------------------------------------------------------
# energy

@dataclass
class EnergyReport:
    bulk: float
    boundary: float
    total: float
    node_energy: np.ndarray | None = None  # FDTD: per node, sums to total


def energy(state: SpectralState | FdtdState) -> EnergyReport:
    """Field energy split into bulk and boundary parts.

    Spectral states use the exact closed form sum (b^2 + w^2 a^2) / 2, with
    the boundary part c (v^2 + (mu^2 + k^2) phi^2) / 2 summed over both
    components.
    FDTD states use the scheme's conserved energy of the stored levels
    a = phi_prev, b = phi, which refers to t - dt/2 (see the module
    docstring): ``node_energy`` holds it node by node, ``boundary`` is the
    sum of the two end-node terms c/2 (v^2 + mu^2 a b), and ``bulk`` is the
    rest.
    """
    if isinstance(state, SpectralState):
        w = state.omegas()
        total = 0.5 * float(np.sum(state.b**2 + w**2 * state.a**2))
        bvals = state.table.boundary_values()
        p = state.table.params
        phi_b, v_b = state.a @ bvals, state.b @ bvals
        bdy = 0.5 * p.c * float(np.sum(v_b**2 + (p.mu**2 + state.k**2) * phi_b**2))
        return EnergyReport(bulk=total - bdy, boundary=bdy, total=total)
    p = state.p
    a, b, h = state.phi_prev, state.phi, state.grid.h
    dens = 0.5 * (((b - a) / state.dt) ** 2 + p.mu**2 * a * b)
    half_cell = np.diff(b) * np.diff(a) / (4.0 * h)
    node = h * dens
    node[[0, -1]] *= 0.5
    node[:-1] += half_cell
    node[1:] += half_cell
    ends = p.c * dens[[0, -1]]
    node[[0, -1]] += ends
    total = float(node.sum())
    bdy = float(ends.sum())
    return EnergyReport(bulk=total - bdy, boundary=bdy, total=total, node_energy=node)


def energy_in_region(state: FdtdState, z_lo: float, z_hi: float) -> float:
    """Sum of the node energies over the nodes in [z_lo, z_hi]; an end node
    inside the region brings its boundary term with it."""
    z = state.grid.nodes
    mask = (z >= z_lo - 1e-12) & (z <= z_hi + 1e-12)
    return float(energy(state).node_energy[mask].sum())


# ---------------------------------------------------------------------------
# causality diagnostics

@dataclass
class CausalityReport:
    t: float
    support: tuple[float, float]        # initial data support [z0-r, z0+r]
    cone: tuple[float, float]           # discrete light cone incl. halo
    max_outside: float
    energy_outside_fraction: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_outside < self.tol


def data_support(data: CauchyData) -> tuple[float, float]:
    """First and last node where the position or velocity is nonzero."""
    z = data.position.grid.nodes
    amp = np.maximum(np.abs(data.position.bulk), np.abs(data.velocity.bulk))
    live = amp > 0
    if not np.any(live):
        return (z[0], z[0])
    idx = np.nonzero(live)[0]
    return (float(z[idx[0]]), float(z[idx[-1]]))


_PROBE_TOL = 1e-8  # the probe passes while the amplitude outside the cone is below it
_HALO_CELLS = 2


def causality_probe(data: CauchyData, p: PhysicalParams, t: float) -> CausalityReport:
    """Evolve compactly supported data at CFL 0.5 and measure leakage outside
    the discrete light cone (N steps widen the support by at most N cells; a
    halo of 2 cells covers the stencil reach of the Taylor back-step).  The
    probe passes below an amplitude of 1e-8 outside the cone."""
    if not t >= 0:
        raise ValueError(f"probe time must be >= 0, got t={t}")
    state = make_fdtd_state(data, p)
    n_steps = int(np.ceil(t / state.dt))
    state = fdtd_run(state, n_steps)
    z_lo, z_hi = data_support(data)
    h = state.grid.h
    width = (n_steps + _HALO_CELLS) * h
    cone = (z_lo - width, z_hi + width)
    z = state.grid.nodes
    outside = (z < cone[0]) | (z > cone[1])
    max_out = float(np.max(np.abs(state.phi[outside]))) if np.any(outside) else 0.0
    rep = energy(state)
    e_out = float(rep.node_energy[outside].sum())
    frac = e_out / rep.total if rep.total > 0 else 0.0
    return CausalityReport(t=state.t, support=(z_lo, z_hi), cone=cone,
                           max_outside=max_out, energy_outside_fraction=frac,
                           tol=_PROBE_TOL)


# ---------------------------------------------------------------------------
# exact reflection solution (half-space, mu = 0), delta pulse mollified by a
# unit-mass Gaussian of width eps

def _gauss(u, eps):
    return np.exp(-u**2 / (2 * eps**2)) / (eps * np.sqrt(2 * np.pi))


def _exp_tail(u, eps, c):
    """(E * G_eps)(u) with E(u) = exp(-u/c) theta(u), in log space to avoid
    overflow of exp(-u/c) at large negative u."""
    from scipy.special import log_ndtr  # loaded on first use: scipy is slow to import

    u = np.asarray(u, dtype=float)
    return np.exp(eps**2 / (2 * c**2) - u / c + log_ndtr(u / eps - eps / c))


def explicit_solution(t, z, eps: float, c: float):
    """Mollified reflection solution: incoming Gaussian pulse G(t+z), the
    sign-flipped reflection -G(t-z), and the boundary re-emission tail
    (2/c) exp(-(t-z)/c) theta(t-z) mollified in time.

    Returns (phi(z), phi_bdy); the trace phi(t, 0) equals phi_bdy exactly.
    A scalar t gives a float phi_bdy; an array of times gives phi_bdy over t
    (and phi over t broadcast against z).
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    phi = _gauss(t + z, eps) - _gauss(t - z, eps) + (2.0 / c) * _exp_tail(t - z, eps, c)
    phi_bdy = (2.0 / c) * _exp_tail(t, eps, c)
    return phi, float(phi_bdy) if phi_bdy.ndim == 0 else phi_bdy


def explicit_solution_dt(t, z, eps: float, c: float):
    """Time derivative of explicit_solution (for building Cauchy data)."""
    z = np.asarray(z, dtype=float)

    def dg(u):
        return -u / eps**2 * _gauss(u, eps)

    tail = _exp_tail(t - z, eps, c)
    dphi = dg(t + z) - dg(t - z) + (2.0 / c) * (_gauss(t - z, eps) - tail / c)
    dbdy = float((2.0 / c) * (_gauss(np.asarray(t), eps) - _exp_tail(np.asarray(t), eps, c) / c))
    return dphi, dbdy


def reflection_cauchy_data(grid: Grid1D, t0: float, eps: float, c: float) -> CauchyData:
    """Cauchy data of the exact solution at time t0, mapped onto a strip grid
    whose left endpoint is the physical boundary (z' = z - z_min)."""
    zp = grid.nodes - grid.z_min
    pos, _ = explicit_solution(t0, zp, eps, c)
    vel, _ = explicit_solution_dt(t0, zp, eps, c)
    return CauchyData.from_samples(grid, pos, vel)
