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
``_leapfrog_op`` is the one place that applies S, to a field or to a batch
of fields.

``fdtd_run`` advances a state by a given number of steps and returns it
with the boundary trace (both endpoint values after every step).
``fdtd_samples`` samples one run: a generator that yields the state after
every given number of steps and after the last, each interval one
``fdtd_run`` call that continues the run's buffers (``_Stepper``, the one
stepping loop), so callers that follow the boundary or sample a run do not
step from Python.

Blocked stepping.  The scheme propagates at a finite speed, one cell per
step, so K steps form one fixed linear map in which each node reaches
exactly K cells.  At nodes at least K cells from both ends only the bulk
stencil acts, and the map is Toeplitz there; only the K nodes next to each
boundary carry the closure.  Every interval between two samples therefore
advances in blocks of 1 <= K <= 32 steps (K <= (N - 1)/2 on a grid of N
nodes), each block one precomputed map applied with BLAS: two block-Toeplitz
GEMMs for the interior, and one small dense product that gives the K nodes
at both ends (the closure is mirror-symmetric) and the boundary value after
every step.

The blocks work in difference form, x = phi and d = phi - phi_prev, one step
being d += (S - 2) x, x += d.  The padded (x, d) buffer is made once per
run and persists across samples; a sample only materializes phi = x and
phi_prev = x - d, so a sampled run does not round-trip (x, d) through
(phi, phi_prev) at every sample.  In level form, (phi, phi_prev) ->
(phi_(n+K), phi_(n+K-1)), the map's entries grow to about K and cancel, and
their rounding grows with them.  The d-from-x sums nearly vanish (they are the mass term), so
the rounding of those sums, the same in every block, would add up; each
row's sums are therefore reset to the response to the constant fields,
stepped in extended precision (``_block_operators``).  Distance from a
long-double run of the same scheme, relative to max|phi| (Gaussian of width
0.1 at z = -0.6, c = mu = 1, CFL 0.5):

    run                         level    difference blocks
                                blocks   raw      sums reset
    1 025 nodes, 3 000 steps,   1.4e-11  3.6e-13  1.1e-13
      one call
    8 193 nodes, 5 000 steps,   1.2e-10  1.3e-10  1.5e-12
      40-step calls
    the same, one run sampled                     1.5e-12
      every 40 steps
    1 025 nodes, 2 048 steps,                     9.5e-15
      one run sampled every step
    the same, sampled every                       2.6e-13
      5 steps

The GEMM operands are zero outside the band, and a zero input gives an
exact zero, so nodes outside the discrete light cone stay exactly 0.0.
Each run builds the operators of its block lengths once and keeps them with
its buffers: 0.36 MB at K = 32, built in about 3 ms (0.1 ms at K = 1).

The FDTD energy is the leapfrog's own energy of the two stored levels
a = phi_prev and b = phi, at time t - dt/2.  With v = (b - a)/dt and lumped
weights w (h inside, h/2 at the ends), node j carries

    (w_j/2) (v_j^2 + mu^2 a_j b_j)
    + half of (b_(k+1) - b_k)(a_(k+1) - a_k) / (2h) from each adjacent cell k
    + c/2 (v_j^2 + mu^2 a_j b_j) at the two end nodes only.

The interior leapfrog conserves the sum exactly, so it is constant to
rounding until the field reaches an endpoint; after that its drift measures
the one-sided closure.  ``_span_energy`` is the one place that writes this
sum: over any span of consecutive nodes, from products over the slice and
without a per-node array, a cell cut by the span bringing half its term.
``energy`` takes it over the whole grid, ``energy_in_region`` over the nodes
of an interval, and ``causality_probe`` over the nodes outside its cone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import CauchyData, GeometryError, Grid1D, PhysicalParams, Strip
from .modes import ModeTable, synthesize


class CflError(ValueError):
    """CFL factor outside (0, 1] or above 1 / sqrt(1 + (mu h / 2)^2): the
    time step dt = cfl * h is not positive or violates the stability bound
    dt^2 (4/h^2 + mu^2) <= 4 of the interior leapfrog."""


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
    values after each step since the previous sample of the run that made
    the state (the whole run for ``fdtd_run``), shape (steps, 2) with column
    0 at -S."""

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
                      ) -> tuple[float, float, float, float]:
    """Coefficients (r2, s0, b0, g) of the leapfrog operator S(phi) = 2 phi +
    dt^2 acc(phi): interior taps [r2, s0, r2], endpoint diagonal b0 and
    closure gain g."""
    r2 = (dt / h) ** 2
    m2 = dt**2 * p.mu**2
    return r2, 2.0 - 2.0 * r2 - m2, 2.0 - m2, dt**2 / (2.0 * h * p.c)


def _leapfrog_op(x: np.ndarray, shift: float, r2: float, s0: float, b0: float,
                 g: float) -> np.ndarray:
    """(S - shift) x along axis 0, for one field (1-D) or a batch of fields in
    the columns of a 2-D array: one correlation with the symmetric interior
    stencil over the fields laid end to end (it mixes neighbouring fields
    only at their end nodes), then the closure at both ends."""
    xt = x.T
    taps = np.array((r2, s0 - shift, r2))
    out = np.correlate(xt.ravel(), taps, "same").reshape(xt.shape).T
    b = b0 - shift
    out[0] = b * x[0] + g * (-3.0 * x[0] + 4.0 * x[1] - x[2])
    out[-1] = b * x[-1] - g * (3.0 * x[-1] - 4.0 * x[-2] + x[-3])
    return out


def _step(x: np.ndarray, d: np.ndarray, coeffs: tuple) -> None:
    """One leapfrog step in difference form, in place along axis 0:
    d += (S - 2) x, then x += d."""
    d += _leapfrog_op(x, 2.0, *coeffs)
    x += d


_MAX_BLOCK = 32   # steps per blocked update


def _block_operators(coeffs: tuple, K: int, width: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The K-step map of the difference-form leapfrog as block-Toeplitz GEMM
    operands (t0, t1) for blocks of ``width`` nodes, and the dense edge
    operator of the K nodes at the -S end.

    The map comes from the scheme itself: ``_step`` advances the unit vectors
    of (x, d) on a grid of 2K + 1 nodes K times.  Row K of the result is the
    (2K+1)-tap kernel of every row at least K cells from both ends, for x
    from x, x from d, d from x and d from d; t0 and t1 apply it to the (x, d)
    blocks j and j + 1 of a field padded by width/2 nodes on the left, giving
    output block j.  The edge operator maps x and d on the first 2K + 1 nodes
    to the boundary value after steps 1 .. K-1, then x and d on the first K
    nodes after K steps (3K - 1 rows); the +S end is its mirror image.

    A smooth field sees mostly each row's sum, and the d-from-x sums are
    nearly zero (the mass term), so their rounding would add up block after
    block.  Each row's sums over the x and the d inputs are therefore set,
    through its largest entry, to the response to the constant fields
    (x, d) = (1, 0) and (0, 1), stepped alongside in extended precision."""
    M = 2 * K + 1
    x = np.eye(M, 2 * M)
    d = np.eye(M, 2 * M, M)
    cx = np.zeros((M, 2), dtype=np.longdouble)
    cd = cx.copy()
    cx[:, 0] = cd[:, 1] = 1.0
    bdy, bdy_c = [], []
    for k in range(K):
        if k:
            bdy.append(x[0].copy())
            bdy_c.append(cx[0].copy())
        _step(x, d, coeffs)
        _step(cx, cd, coeffs)
    op = np.vstack(bdy + [x[:K + 1], d[:K + 1]])  # 3K + 1 rows
    const = np.vstack(bdy_c + [cx[:K + 1], cd[:K + 1]])
    r = np.arange(len(op))
    for half, target in ((op[:, :M], const[:, 0]), (op[:, M:], const[:, 1])):
        j = np.argmax(np.abs(half), axis=1)
        half[r, j] += (target - half.sum(axis=1, dtype=np.longdouble)).astype(float)
    interior = [2 * K - 1, 3 * K]  # row K of x and of d
    kern = np.zeros((2, 2, 4 * width))  # [out level, in level, lag + K + 2 width]
    kern[:, :, 2 * width:2 * width + M] = op[interior].reshape(2, 2, M)
    s = np.arange(width)[:, None]
    lag = s - s.T - width // 2 + K + 2 * width  # input slot s, output slot s.T
    t0, t1 = (kern[:, :, lag + off].transpose(1, 2, 0, 3).reshape(2 * width, 2 * width)
              for off in (0, width))
    return t0, t1, np.delete(op, interior, axis=0)


def _block_plan(n_steps: int, n_nodes: int, k_max: int = _MAX_BLOCK
                ) -> list[tuple[int, int]]:
    """(steps per block, number of blocks) pairs of an interval of n_steps >= 1
    steps, the longer blocks first: as few blocks as the cap min(k_max,
    (n_nodes - 1) // 2) allows, their lengths differing by at most one."""
    count = -(-n_steps // min(k_max, (n_nodes - 1) // 2))
    q, r = divmod(n_steps, count)
    return [(K, c) for K, c in ((q + 1, r), (q, count - r)) if c]


def make_fdtd_state(data: CauchyData, p: PhysicalParams, cfl: float = 0.5) -> FdtdState:
    """Initialize leapfrog levels from Cauchy data with the second-order Taylor
    back-step phi_prev = phi0 - dt v0 + dt^2 acc(phi0) / 2 = S(phi0)/2 - dt v0,
    with the leapfrog operator S(phi) = 2 phi + dt^2 acc(phi) of ``fdtd_run``.
    The bulk endpoint samples are overwritten by the boundary values (they are
    one unknown).  The time step is dt = cfl * h.  This is the one place that
    holds the stability bound of the interior leapfrog, dt^2 (4/h^2 + mu^2) <= 4,
    which is dt <= h at mu = 0: CflError (a ValueError) unless 0 < cfl <= 1
    and cfl <= 1 / sqrt(1 + (mu h / 2)^2)."""
    if not isinstance(p.geometry, Strip):
        raise GeometryError("the FDTD engine integrates the strip geometry")
    if not 0 < cfl <= 1:
        raise CflError(f"CFL factor must be in (0, 1] (dt <= h), got cfl={cfl}")
    grid = data.position.grid
    h = grid.h
    cfl_max = 1.0 / math.hypot(1.0, p.mu * h / 2.0)
    if cfl > cfl_max:
        raise CflError(f"cfl={cfl} breaks the leapfrog bound dt^2 (4/h^2 + mu^2) <= 4 "
                       f"at mu = {p.mu:g}, h = {h:g}; the largest stable --cfl is "
                       f"{cfl_max!r}")
    dt = cfl * h
    phi0 = np.array(data.position.bulk, dtype=float)
    v0 = np.array(data.velocity.bulk, dtype=float)
    phi0[0], phi0[-1] = data.position.boundary
    v0[0], v0[-1] = data.velocity.boundary
    phi_prev = 0.5 * _leapfrog_op(phi0, 0.0, *_leapfrog_stencil(h, dt, p)) - dt * v0
    return FdtdState(grid=grid, p=p, phi=phi0, phi_prev=phi_prev, t=0.0, dt=dt)


def fdtd_samples(s: FdtdState, n_steps: int, every: int) -> Iterator[FdtdState]:
    """Advance n_steps leapfrog steps phi_next = S(phi) - phi_prev and yield
    the state after every ``every`` steps and after the last step, each with
    the boundary trace of the steps since the previous sample.  Lazy: a
    consumer that stops at a sample takes no step beyond it.  Nothing is
    yielded, and nothing is built, when n_steps = 0; ValueError unless
    n_steps >= 0 and every >= 1.

    Each interval between samples is one ``fdtd_run`` call, and all of them
    continue one ``_Stepper``: the padded (x, d) buffer, the work arrays and
    the operators are made once per run, and (x, d) persists from one sample
    to the next; a sample only materializes phi = x and phi_prev = x - d.
    An interval of ``every`` steps takes the blocks of a call of its own
    length, and a shorter last interval takes blocks no longer than those.
    So a sampled run agrees with the same intervals taken one ``fdtd_run``
    call at a time to rounding (about 1e-14 relative).  The arrays of a
    yielded state are never written afterwards, and consecutive samples may
    share one."""
    if n_steps < 0:
        raise ValueError(f"step count must be >= 0, got n_steps={n_steps}")
    if every < 1:
        raise ValueError(f"sample interval must be >= 1 step, got every={every}")
    return _samples(s, n_steps, every)


def _samples(s: FdtdState, n_steps: int, every: int) -> Iterator[FdtdState]:
    """The generator of ``fdtd_samples``."""
    if n_steps == 0:
        return
    stepper = _Stepper(s, min(every, n_steps))
    for k0 in range(0, n_steps, every):
        s = fdtd_run(s, min(every, n_steps - k0), stepper=stepper)
        yield s


class _Stepper:
    """The stepping state of one run: the scheme's coefficients, the longest
    block k_max, the padded (x, d) buffer, its work arrays and the operators
    of each block length.

    k_max is the longest block of the plan of ``every`` steps, and every
    interval is planned with blocks of at most k_max steps.  So an interval
    of ``every`` steps keeps the plan of a call of its own length, and a
    shorter last interval does not widen the blocks of all the others.

    The state is xd = (x, d) = (phi, phi - phi_prev), padded with width/2 =
    k_max zero nodes on the left and zero nodes on the right up to whole
    blocks of ``width`` nodes.  ``_block_operators`` builds the operators of
    each block length at that width on its first use in the run, and ``ops``
    keeps them for the run's later blocks.  Each update copies xd into rows z[j] = (x, d) of block j, applies the interior
    map, writes it back, and then overwrites the K nodes at each end with the
    edge operator's result.  xd holds the state ``held`` that the last
    interval returned, and an interval from that state continues from xd."""

    def __init__(self, s: FdtdState, every: int):
        self.coeffs = _leapfrog_stencil(s.grid.h, s.dt, s.p)
        self.n = n = s.phi.size
        self.k_max = pad = _block_plan(every, n)[0][0]
        width = 2 * pad
        rows = -(-n // width)
        xd = np.zeros((2, (rows + 1) * width))
        acc = np.empty((rows, 2 * width))
        self.bufs = (xd, xd.reshape(-1),
                     xd.reshape(2, rows + 1, width).transpose(1, 0, 2),
                     xd[:, pad:pad + rows * width].reshape(2, rows, width),
                     np.empty((rows + 1, 2 * width)), acc, np.empty_like(acc),
                     acc.reshape(rows, 2, width).transpose(1, 0, 2))
        self.held = None
        self.ops = {}

    def _operators(self, K: int) -> tuple:
        if K not in self.ops:
            n, pad, W = self.n, self.k_max, 2 * K + 1
            at = pad + np.abs(np.array([0, n - 1]) - np.arange(W)[:, None])  # node m from each end
            gather = np.concatenate([at, at + self.bufs[0].shape[1]])  # x then d
            self.ops[K] = (*_block_operators(self.coeffs, K, 2 * pad), gather,
                           gather[np.r_[0:K, W:W + K]])
        return self.ops[K]

    def advance(self, s: FdtdState, k: int) -> FdtdState:
        """The state k >= 1 steps after s, with the boundary trace of those
        steps."""
        trace = np.empty((k, 2))
        xd, flat, blocks, interior, z, acc, tmp, new = self.bufs
        n, pad = self.n, self.k_max
        rows, width = len(acc), 2 * pad
        x, d = xd[:, pad:pad + n]
        if self.held is not s:
            x[:] = s.phi
            np.subtract(s.phi, s.phi_prev, out=d)
        j = 0
        for K, count in _block_plan(k, n, pad):
            t0, t1, edge, gather, scatter = self._operators(K)
            for _ in range(count):
                e = edge @ flat[gather]
                np.copyto(z.reshape(rows + 1, 2, width), blocks)
                np.matmul(z[:-1], t0, out=acc)
                acc += np.matmul(z[1:], t1, out=tmp)
                np.copyto(interior, new)
                xd[:, pad + n:] = 0.0
                flat[scatter] = e[K - 1:]
                trace[j:j + K] = e[:K]
                j += K
        cur = x.copy()
        self.held = FdtdState(grid=s.grid, p=s.p, phi=cur, phi_prev=cur - d,
                              t=s.t + k * s.dt, dt=s.dt, bdy_trace=trace)
        return self.held


def fdtd_run(s: FdtdState, n_steps: int, *, stepper: _Stepper | None = None
             ) -> FdtdState:
    """Advance n_steps leapfrog steps and return the state with the boundary
    trace of every step.  The interval takes the fewest blocks of at most
    min(32, (N - 1) // 2) steps on N nodes, of lengths differing by at most
    one, each block one precomputed linear map in difference form (see the
    module docstring).  The last trace row is the endpoint values themselves,
    so ``bdy_trace[-1]`` equals ``bdy`` exactly.  n_steps = 0 returns a copy
    of the levels with an empty trace; ValueError for n_steps < 0.

    ``stepper`` is the run in progress of ``fdtd_samples``, whose buffers,
    operators and block lengths the interval continues; without it the call
    is a run of one interval."""
    if n_steps < 0:
        raise ValueError(f"step count must be >= 0, got n_steps={n_steps}")
    if n_steps == 0:
        return FdtdState(grid=s.grid, p=s.p, phi=s.phi.copy(),
                         phi_prev=s.phi_prev.copy(), t=s.t, dt=s.dt)
    if stepper is None:
        stepper = _Stepper(s, n_steps)
    return stepper.advance(s, n_steps)


# ---------------------------------------------------------------------------
# energy

@dataclass
class EnergyReport:
    """Energy totals: ``total``, its ``boundary`` part and the ``bulk`` rest."""

    bulk: float
    boundary: float
    total: float


def energy(state: SpectralState | FdtdState) -> EnergyReport:
    """Field energy split into bulk and boundary parts.

    Spectral states use the exact closed form sum (b^2 + w^2 a^2) / 2, with
    the boundary part c (v^2 + (mu^2 + k^2) phi^2) / 2 summed over both
    components.
    FDTD states use the scheme's conserved energy of the stored levels
    a = phi_prev, b = phi, which refers to t - dt/2 (see the module
    docstring): ``_span_energy`` over the whole grid.  ``boundary`` is the
    sum of the two end-node terms c e_0 + c e_N, and ``bulk`` is the rest.
    """
    if isinstance(state, SpectralState):
        w = state.omegas()
        total = 0.5 * float(np.sum(state.b**2 + w**2 * state.a**2))
        bvals = state.table.boundary_values()
        p = state.table.params
        phi_b, v_b = state.a @ bvals, state.b @ bvals
        bdy = 0.5 * p.c * float(np.sum(v_b**2 + (p.mu**2 + state.k**2) * phi_b**2))
        return EnergyReport(bulk=total - bdy, boundary=bdy, total=total)
    total, bdy = _span_energy(state, 0, state.phi.size)
    return EnergyReport(bulk=total - bdy, boundary=bdy, total=total)


def _density(a: float, b: float, dt: float, mu: float) -> float:
    """(v^2 + mu^2 a b) / 2 of one node, v = (b - a) / dt."""
    v = (b - a) / dt
    return 0.5 * (v * v + mu**2 * a * b)


def _span_energy(state: FdtdState, lo: int, hi: int) -> tuple[float, float]:
    """The FDTD energy of nodes lo .. hi-1 under the node split of the module
    docstring, and its boundary part; (0.0, 0.0) for an empty span.  It is
    taken from products over the slice: an end node of the strip inside the
    span brings its boundary term, and a cell the span cuts half its term.
    Over the whole grid the arithmetic is the conserved energy's total."""
    if lo >= hi:
        return 0.0, 0.0
    p, h, dt = state.p, state.grid.h, state.dt
    a, b = state.phi_prev, state.phi
    n = b.size
    e0 = _density(float(a[0]), float(b[0]), dt, p.mu) if lo == 0 else 0.0
    e1 = _density(float(a[-1]), float(b[-1]), dt, p.mu) if hi == n else 0.0
    cut = sum(float((b[k + 1] - b[k]) * (a[k + 1] - a[k]))  # cells below lo, above hi - 1
              for k in (lo - 1, hi - 1) if 0 <= k < n - 1)
    a, b = a[lo:hi], b[lo:hi]
    v = b - a
    total = float(0.5 * h * ((v @ v) / dt**2 + p.mu**2 * (a @ b))
                  + (p.c - 0.5 * h) * (e0 + e1)
                  + ((b[1:] - b[:-1]) @ (a[1:] - a[:-1]) + 0.5 * cut) / (2.0 * h))
    return total, p.c * e0 + p.c * e1


def energy_in_region(state: FdtdState, z_lo: float, z_hi: float) -> float:
    """The FDTD energy of the nodes in [z_lo, z_hi] (``_span_energy``): an
    end node inside the region brings its boundary term with it, and a cell
    with one node inside brings half its term."""
    z = state.grid.nodes
    lo = int(np.searchsorted(z, z_lo - 1e-12, "left"))
    hi = int(np.searchsorted(z, z_hi + 1e-12, "right"))
    return _span_energy(state, lo, hi)[0]


# ---------------------------------------------------------------------------
# causality diagnostics

_PROBE_TOL = 1e-8  # the probe passes while the amplitude outside the cone is below it


@dataclass
class CausalityReport:
    max_outside: float                  # largest |phi| outside the cone
    energy_outside_fraction: float

    @property
    def passed(self) -> bool:
        return self.max_outside < _PROBE_TOL


_HALO_CELLS = 2


def causality_probe(data: CauchyData, p: PhysicalParams, t: float) -> CausalityReport:
    """Evolve compactly supported data at CFL 0.5 and measure leakage outside
    the discrete light cone: the nodes where the data is nonzero (node 0 if
    none) widened by N + 2 nodes (N steps widen the support by at most N
    cells; a halo of 2 covers the stencil reach of the Taylor back-step).
    The probe passes below an amplitude of 1e-8 outside the cone."""
    if not t >= 0:
        raise ValueError(f"probe time must be >= 0, got t={t}")
    state = make_fdtd_state(data, p)
    n_steps = int(np.ceil(t / state.dt))
    state = fdtd_run(state, n_steps)
    live = np.flatnonzero((data.position.bulk != 0) | (data.velocity.bulk != 0))
    first, last = (live[0], live[-1]) if live.size else (0, 0)
    n, width = state.phi.size, n_steps + _HALO_CELLS
    lo, hi = max(first - width, 0), min(last + width + 1, n)
    outside = np.concatenate((state.phi[:lo], state.phi[hi:]))
    max_out = float(np.max(np.abs(outside), initial=0.0))
    e_out = _span_energy(state, 0, lo)[0] + _span_energy(state, hi, n)[0]
    total = _span_energy(state, 0, n)[0]
    frac = e_out / total if total > 0 else 0.0
    return CausalityReport(max_outside=max_out, energy_outside_fraction=frac)


# ---------------------------------------------------------------------------
# exact reflection solution (half-space, mu = 0), delta pulse mollified by a
# unit-mass Gaussian of width eps

def _gauss(u, eps):
    return np.exp(-u**2 / (2 * eps**2)) / (eps * np.sqrt(2 * np.pi))


def _exp_tail(u, eps, c):
    """(E * G_eps)(u) with E(u) = exp(-u/c) theta(u), in log space to avoid
    overflow of exp(-u/c) at large negative u.  The closed forms go through
    it before any other term, so it holds their one check of eps: ValueError
    unless eps is positive and finite."""
    if not (eps > 0 and np.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    from scipy.special import log_ndtr  # loaded on first use: scipy is slow to import

    u = np.asarray(u, dtype=float)
    return np.exp(eps**2 / (2 * c**2) - u / c + log_ndtr(u / eps - eps / c))


def explicit_solution(t, z, eps: float, c: float):
    """Mollified reflection solution: incoming Gaussian pulse G(t+z), the
    sign-flipped reflection -G(t-z), and the boundary re-emission tail
    (2/c) exp(-(t-z)/c) theta(t-z) mollified in time.

    Returns phi over t broadcast against z.  The boundary trace is
    ``explicit_solution(t, 0.0, eps, c)``: at z = 0 the two Gaussians cancel
    exactly and phi is the re-emission tail.  ValueError unless eps is
    positive and finite.
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    tail = (2.0 / c) * _exp_tail(t - z, eps, c)  # checks eps before any other term
    return _gauss(t + z, eps) - _gauss(t - z, eps) + tail


def explicit_solution_dt(t, z, eps: float, c: float):
    """Time derivative of explicit_solution (for building Cauchy data);
    ValueError unless eps is positive and finite."""
    z = np.asarray(z, dtype=float)

    def dg(u):
        return -u / eps**2 * _gauss(u, eps)

    tail = _exp_tail(t - z, eps, c)
    return dg(t + z) - dg(t - z) + (2.0 / c) * (_gauss(t - z, eps) - tail / c)


def reflection_cauchy_data(grid: Grid1D, t0: float, eps: float, c: float) -> CauchyData:
    """Cauchy data of the exact solution at time t0, mapped onto a strip grid
    whose left endpoint is the physical boundary (z' = z - z_min)."""
    zp = grid.nodes - grid.z_min
    return CauchyData.from_samples(grid, explicit_solution(t0, zp, eps, c),
                                   explicit_solution_dt(t0, zp, eps, c))
