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
with ``bdy_trace``, node 0 of each end after every step, and, if asked,
``inner_trace``, nodes 1 and 2, which ``energy_steps`` reads.
``fdtd_samples`` yields the state of one run after every given number of
steps and after the last, each interval one ``fdtd_run`` call that
continues the run's buffers (``_Stepper``, the one stepping loop), so no
caller steps from Python.

Blocked stepping.  Every interval between two samples advances in blocks of
1 <= K <= 32 steps (K <= (N - 1)/2 on a grid of N nodes).  The leapfrog is
time-reversible, phi_(n+1) + phi_(n-1) = S phi_n, so the Chebyshev product
identity 2 T_m T_n = T_(m+n) + T_|m-n| gives the K-stride leapfrog

    phi_(n+K) + phi_(n-K) = C phi_n,    C = 2 T_K(S/2),

for the whole operator S, closure rows included.  The scheme propagates one
cell per step, so at nodes at least K cells from both ends only the bulk
stencil reaches, and C is one (2K + 1)-tap kernel there; its taps come from
the Chebyshev recurrence of the 3-tap stencil in long double
(``_stride_operators``).  The identity is linear, so it holds for the
difference d = phi - phi_prev as for x = phi.  A run keeps two padded
(x, d) buffers, level n and level n - K, and a block writes level n + K =
C level_n - level_(n-K) over the buffer behind, then the buffers swap.
Cut into blocks Z_j of w = max(k_max, 4) nodes, k_max the run's longest K,
output block j + 1 is the window [Z_j Z_(j+1) Z_(j+2)] of 3w input slots
times one stacked (3w x w) block-Toeplitz operand [T_-; T_0; T_+], T_0 full
and T_-, T_+ its triangular neighbours at K = w: 3w multiply-adds a node.
The windows of the output blocks of one residue class mod 3 tile the flat
buffer, so a block is three GEMMs over views of it, one per class, and one
subtraction of level n - K.  The K nodes next to each boundary, where the
closure acts, and node 0 after every step inside the block come from one
small dense edge operator, the K-step map of the 2K + 1 nodes at that end,
all that K steps of the closure reach (``_block_operators``; the closure is
mirror-symmetric); so do nodes 1 and 2 for a run that keeps
``inner_trace``.  A sample only materializes phi = x and phi_prev = x - d.

The level behind comes from the scheme's own single step ``_step``, forward
or back: the difference form inverts exactly (x -= d, then d -= (S - 2) x).
A run that starts, or a call from a state that its stepper did not produce,
takes K steps back from the loaded level, about K single steps of work on
top of the blocks.  A change of block length from K' to K moves the level
behind K' - K steps: one step inside a plan, whose lengths differ by at most
one, and at most 31 steps before a short last interval.

Rounding.  In a K-step map (x, d) -> (x, d), the d-from-x sums are the mass
term and nearly vanish, so their rounding, the same in every block, adds up
across blocks.  The stride has no such sum in the interior: each of x and d
advances from its own two levels by the same kernel, and no interior row
forms d from x.  Only the edge operator maps (x, d) to (x, d), and its row
sums are reset to the response to the constant fields in extended precision,
a scalar long-double recurrence (the constant field is an eigenvector of S).
Distance from a long-double run of the same scheme, the larger of phi and
phi_prev, relative to max|phi| (Gaussian of width 0.1 at z = -0.6,
c = mu = 1, CFL 0.5), for blocks that apply the K-step map (x, d) -> (x, d)
with its row sums reset, and for the stride, the blocks in use:

    run                                      (x, d) map   stride
    1 025 nodes, 3 000 steps, one call       1.1e-13      6.1e-14
    8 193 nodes, 5 000 steps, 40-step calls  1.5e-12      1.8e-13
    the same, one run sampled every 40       1.5e-12      5.0e-13
    1 025 nodes, 2 048 steps, sampled        2.6e-13      3.8e-14
      every 5 steps
    the same, sampled every step             9.5e-15      5.7e-14

A block of K = 1 is the leapfrog in level form, which rounds at every step,
where the (x, d) map's is the difference-form step itself.

The GEMM operands are zero outside the band, and a zero input gives an
exact zero, so nodes outside the discrete light cone stay exactly 0.0; the
padding that the GEMMs write beyond the nodes is reset to zero after each
block.  Each run builds the operators of all its block lengths in one go,
at its first block, and keeps them with its buffers: 0.19 MB at K = 32,
built in about 2 ms (0.25 ms at K = 1).

The FDTD energy is the leapfrog's own energy of the two stored levels
a = phi_prev and b = phi, at time t - dt/2.  With v = (b - a)/dt and lumped
weights w (h inside, h/2 at the ends), node j carries

    (w_j/2) (v_j^2 + mu^2 a_j b_j)
    + half of (b_(k+1) - b_k)(a_(k+1) - a_k) / (2h) from each adjacent cell k
    + c/2 (v_j^2 + mu^2 a_j b_j) at the two end nodes only.

This is the exact conserved energy of the lumped equation (c + h/2) phi_0''
= -(phi_0 - phi_1)/h - mu^2 (c + h/2) phi_0 at the ends.  The interior rows
are that scheme's, so the sum is constant to rounding until the field
reaches an endpoint; after that its drift is the one-sided closure's flux:
each step changes it by half the sum over both ends of (phi^(n+1) -
phi^(n-1)) rho(phi^n), rho the defect of the closure row in the lumped
equation, which reads nodes 0, 1 and 2 only.  ``_span_energy`` is the one
place that writes the sum: over any span of consecutive nodes, from
products over the slice and without a per-node array, a cell cut by the
span bringing half its term.  ``energy`` takes it over the whole grid,
``energy_in_region`` over the nodes of an interval, and ``causality_probe``
over the nodes outside its cone.  ``energy_steps``, next to it, is the one
place that writes the flux: from the end-node trace of a run it gives the
energy after every step, as its change from the run's first level.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .core import CauchyData, GeometryError, Grid1D, PhysicalParams, Strip
from .modes import ModeTable, _mode_sum, mode_matrix


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
    """Position and velocity of s sampled on ``grid``: ``synthesize`` of a
    and of b, through one mode matrix."""
    V = mode_matrix(s.table, grid)
    return CauchyData(position=_mode_sum(V, s.a, grid), velocity=_mode_sum(V, s.b, grid))


# ---------------------------------------------------------------------------
# FDTD

@dataclass
class FdtdState:
    """Leapfrog levels (phi_prev, phi) at times (t - dt, t); endpoint samples
    are the boundary degrees of freedom.  ``bdy_trace`` holds the endpoint
    values after each step since the previous sample of the run that made
    the state (the whole run for ``fdtd_run``), shape (steps, 2) with column
    0 at -S.  ``inner_trace`` holds nodes 1 and 2 from each end after the
    same steps, shape (steps, 2, 2), entry [k, m - 1, e] at node m from the
    end of column e, for a run that asked for it, and is empty otherwise."""

    grid: Grid1D
    p: PhysicalParams
    phi: np.ndarray
    phi_prev: np.ndarray
    t: float
    dt: float
    bdy_trace: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    inner_trace: np.ndarray = field(default_factory=lambda: np.empty((0, 2, 2)))

    @property
    def bdy(self) -> np.ndarray:
        return np.array([self.phi[0], self.phi[-1]])


def _leapfrog_stencil(h: float, dt: float, p: PhysicalParams
                      ) -> tuple[float, float, float, float]:
    """Coefficients (r2, s0, b0, g) of the leapfrog operator S(phi) = 2 phi +
    dt^2 acc(phi): interior taps [r2, s0, r2], endpoint diagonal b0 and
    closure gain g."""
    r2 = (dt / h) ** 2
    m2 = dt * dt * p.mu**2
    return r2, 2.0 - 2.0 * r2 - m2, 2.0 - m2, dt * dt / (2.0 * h * p.c)


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


def _step(x: np.ndarray, d: np.ndarray, coeffs: tuple, back: bool = False) -> None:
    """One leapfrog step in difference form, in place along axis 0:
    d += (S - 2) x, then x += d; with ``back``, the exact inverse, a step
    back in time: x -= d, then d -= (S - 2) x."""
    if back:
        x -= d
        d -= _leapfrog_op(x, 2.0, *coeffs)
    else:
        d += _leapfrog_op(x, 2.0, *coeffs)
        x += d


_MAX_BLOCK = 32   # steps per blocked update
_MIN_WIDTH = 4    # nodes per stride block at least: width 1 is 4x slower


def _stride_operators(coeffs: tuple, Ks, width: int) -> dict[int, np.ndarray]:
    """The interior kernel C = 2 T_K(S/2) of the K-stride leapfrog as one
    stacked (3 width x width) GEMM operand [T_-; T_0; T_+] for blocks of
    ``width`` >= K nodes, for each block length K in Ks.

    The 2K + 1 taps of every length come from one Chebyshev recurrence
    T_(k+1) = S T_k - T_(k-1) of the 3-tap interior stencil, in long double.
    The operand's rows are the input slots of blocks j, j + 1 and j + 2 of a
    row, its columns the output slots of block j + 1, and its entry is the
    tap of lag (input - output) where |lag| <= K, 0 elsewhere: output block
    j + 1 is the window of input blocks j .. j + 2 times the operand, since
    the kernel reaches K <= width nodes."""
    k_max = max(Ks)
    S = np.array([coeffs[0], coeffs[1], coeffs[0]], dtype=np.longdouble)
    prev = (np.arange(2 * k_max + 1) == k_max).astype(np.longdouble)  # T_0, then T_1
    cur = np.convolve(prev, S / 2, "same")
    lag = np.arange(3 * width)[:, None] - np.arange(width) + width  # input - output, + 2 width
    ops = {}
    for K in range(1, k_max + 1):
        if K > 1:
            prev, cur = cur, np.convolve(cur, S, "same") - prev
        if K in Ks:
            kern = np.zeros(4 * width)  # the tap of lag l at index l + 2 width
            kern[2 * width - K:2 * width + K + 1] = 2 * cur[k_max - K:k_max + K + 1]
            ops[K] = kern[lag]
    return ops


_SERIAL_MACS = 1 << 18  # OpenBLAS threads a GEMM of more multiply-adds


def _serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in blocks of rows of at most 2^18 multiply-adds each, which
    OpenBLAS runs on the calling thread.  The edge operators' products are
    small (130 x 130 at K = 32).  Threaded, they ran no faster, and the peak
    RSS of the ``fdtd`` benchmark workload rose by 0.2-0.4 MB, a rise that
    one BLAS thread or a single malloc arena avoided."""
    out = np.empty((len(a), b.shape[1]))
    step = max(1, _SERIAL_MACS // b.size)
    for i in range(0, len(a), step):
        np.matmul(a[i:i + step], b, out=out[i:i + step])
    return out


def _step_matrix(coeffs: tuple, M: int) -> np.ndarray:
    """The scheme's difference-form step (x, d) -> (x + d + (S - 2) x,
    d + (S - 2) x) on a window of M nodes as a 2M x 2M matrix, its S - 2
    block ``_leapfrog_op`` of the identity: the closure rows at both window
    ends are those ``_step`` applies."""
    A = np.zeros((2 * M, 2 * M))
    A[M:, :M] = _leapfrog_op(np.eye(M), 2.0, *coeffs)  # S - 2
    A[:M, :M] = A[M:, :M] + np.eye(M)
    A[:M, M:] = A[M:, M:] = np.eye(M)
    return A


def _block_operators(coeffs: tuple, Ks) -> dict[int, np.ndarray]:
    """The dense edge operator of K steps at the -S end, for each block
    length K in Ks.

    Each maps x and d on the first 2K + 1 nodes to the boundary value after
    steps 1 .. K-1, then x and d on the first K nodes after K steps (3K - 1
    rows), then x on nodes 1 and 2 after each of steps 1 .. K-1 (2K - 2 rows,
    node 1 first); the +S end is its mirror image.  All come from one
    matrix A, the one-step map of a window of M = 2k + 1 nodes, k the longest
    length (``_step_matrix``).  The scheme propagates one cell per step, so
    the first K nodes after K steps read no node beyond 2K - 1, node 2 after
    K - 1 steps none beyond K + 1, and the closure at the window's far end
    reaches neither: the one window serves every K <= k.  The K-step rows are
    rows of A^K by binary powering, the rows e_0^T A^j and those of nodes 1
    and 2 by doubling (the rows up to 2^i times A^(2^i) give those up to
    2^(i+1)), all float64 GEMMs; the boundary rows take GEMMs of their own,
    since a GEMM's rounding of a row depends on the rows beside it.

    A smooth field sees mostly each row's sum, and the d-from-x sums are
    nearly zero (the mass term), so their rounding would add up block after
    block.  Each row's sums over the x and the d inputs are therefore set,
    through its largest entry, to the response to the constant fields
    (x, d) = (1, 0) and (0, 1) in extended precision.  The constant field is
    an eigenvector of S - 2, of eigenvalue b0 - 2 on the closure rows, and
    where 2 r2 + (s0 - 2) equals b0 - 2 exactly on the interior rows too (it
    does at CFL 0.5 while dt^2 mu^2 <= 1/2).  Then the response is the
    scalar recurrence d += (b0 - 2) x, x += d, run in long double.
    Otherwise the interior rows add their excess (2 r2 + s0 - b0) x at every
    step, and the response to that forcing, O(k eps), is stepped in float64
    and added."""
    r2, s0, b0, _ = coeffs
    k_max = max(Ks)
    M = 2 * k_max + 1
    beta = b0 - 2.0
    P = _step_matrix(coeffs, M)  # A, then A^(2^j)
    # (x, d) of the constant fields (1, 0) and (0, 1) after j = 0 .. k steps
    b = np.longdouble(beta)
    x, d, y, e = (np.longdouble(v) for v in (1.0, 0.0, 0.0, 1.0))
    const = [(x, d, y, e)]
    for _ in range(k_max):
        d += b * x
        x += d
        e += b * y
        y += e
        const.append((x, d, y, e))
    const = np.array(const)
    excess = math.fsum((r2, r2, s0 - 2.0, -beta))  # exact zero iff the sums agree
    if excess:
        force = np.zeros(2 * M)
        force[1:M - 1] = force[M + 1:-1] = excess
        resp, after = np.zeros((2 * M, 2)), []
        for j in range(k_max):
            resp = P @ resp + np.outer(force, const[j, 0::2].astype(float))
            after.append(resp)
    # right to left over the bits j of k, with P = A^(2^j): rows of
    # A^(K mod 2^(j+1)), and e_0^T A^i for i <= 2^(j+1)
    rows = {K: np.r_[0:K, M:M + K] for K in Ks}
    out = dict.fromkeys(Ks)
    bdy, win = P[:1], P[1:3]  # x on node 0, and on nodes 1 and 2, after each step
    for j in range(k_max.bit_length()):
        if j:
            P = _serial_matmul(P, P)
        for K in out:
            if K >> j & 1:
                out[K] = P[rows[K]] if out[K] is None else _serial_matmul(out[K], P)
        if len(bdy) < k_max - 1:
            bdy = np.vstack((bdy, _serial_matmul(bdy, P)))
            win = np.vstack((win, _serial_matmul(win, P)))
    del P  # freed before the long-double sums, which set the peak memory
    ops = {}
    for K in out:
        W = 2 * K + 1
        cols = np.r_[0:W, M:M + W]
        op = np.empty((5 * K - 3, 2 * W))
        op[:K - 1] = bdy[:K - 1, cols]
        op[K - 1:3 * K - 1] = out[K][:, cols]
        op[3 * K - 1:] = win[:2 * K - 2, cols]
        target = np.concatenate((const[1:K, 0::2], np.repeat(const[K:K + 1, 0::2], K, 0),
                                 np.repeat(const[K:K + 1, 1::2], K, 0),
                                 np.repeat(const[1:K, 0::2], 2, 0)))
        if excess:
            target += np.vstack([a[:1] for a in after[:K - 1]] + [after[K - 1][rows[K]]]
                                + [a[1:3] for a in after[:K - 1]])
        r = np.arange(len(op))
        for half, t in ((op[:, :W], target[:, 0]), (op[:, W:], target[:, 1])):
            j = np.argmax(np.abs(half), axis=1)
            half[r, j] += (t - half.sum(axis=1, dtype=np.longdouble)).astype(float)
        ops[K] = op
    return ops


def _block_plan(n_steps: int, n_nodes: int, k_max: int = _MAX_BLOCK
                ) -> list[tuple[int, int]]:
    """(steps per block, number of blocks) pairs of an interval of n_steps >= 1
    steps, the longer blocks first: as few blocks as the cap min(k_max,
    (n_nodes - 1) // 2) allows, their lengths differing by at most one."""
    count = -(-n_steps // min(k_max, (n_nodes - 1) // 2))
    q, r = divmod(n_steps, count)
    return [(K, c) for K, c in ((q + 1, r), (q, count - r)) if c]


def _start_values(data: CauchyData) -> tuple[np.ndarray, np.ndarray]:
    """The position and velocity a run starts from: the bulk samples with the
    boundary values on the end nodes."""
    phi0, v0 = (np.array(f.bulk, dtype=float) for f in (data.position, data.velocity))
    phi0[0], phi0[-1] = data.position.boundary
    v0[0], v0[-1] = data.velocity.boundary
    return phi0, v0


def make_fdtd_state(data: CauchyData, p: PhysicalParams, cfl: float = 0.5) -> FdtdState:
    """Initialize leapfrog levels from Cauchy data with the second-order Taylor
    back-step phi_prev = phi0 - dt v0 + dt^2 acc(phi0) / 2 = S(phi0)/2 - dt v0,
    with the leapfrog operator S(phi) = 2 phi + dt^2 acc(phi) of ``fdtd_run``.
    The bulk endpoint samples are overwritten by the boundary values (they are
    one unknown).  The time step is dt = cfl * h.  This is the one place that
    holds the stability bound of the interior leapfrog, dt^2 (4/h^2 + mu^2) <= 4,
    which is dt <= h at mu = 0: CflError (a ValueError) unless 0 < cfl <= 1
    and cfl <= 1 / sqrt(1 + (mu h / 2)^2).  ValueError, naming S, where dt^2
    overflows, and naming S and c where the closure gain's 2 h c underflows
    to 0."""
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
    if not math.isfinite(dt * dt):
        raise ValueError(f"the time step dt = cfl h = {dt:g} squares beyond the double "
                         f"range: the strip half-width S = {p.geometry.S:g} is too large "
                         f"for a grid of {grid.n} cells")
    if 2.0 * h * p.c == 0.0:
        raise ValueError(f"the closure gain dt^2 / (2 h c) divides by 2 h c, which underflows "
                         f"to 0 at S = {p.geometry.S:g}, c = {p.c:g}: S and c are too small")
    phi0, v0 = _start_values(data)
    phi_prev = 0.5 * _leapfrog_op(phi0, 0.0, *_leapfrog_stencil(h, dt, p)) - dt * v0
    return FdtdState(grid=grid, p=p, phi=phi0, phi_prev=phi_prev, t=0.0, dt=dt)


def fdtd_samples(s: FdtdState, n_steps: int, every: int, *, inner_trace: bool = False
                 ) -> Iterator[FdtdState]:
    """Advance n_steps leapfrog steps phi_next = S(phi) - phi_prev and yield
    the state after every ``every`` steps and after the last step, each with
    the boundary trace of the steps since the previous sample, and with
    ``inner_trace`` their trace of nodes 1 and 2 too (``fdtd_run``).  Lazy: a
    consumer that stops at a sample takes no step beyond it.  Nothing is
    yielded, and nothing is built, when n_steps = 0; ValueError unless
    n_steps >= 0 and every >= 1.

    Each interval between samples is one ``fdtd_run`` call, and all of them
    continue one ``_Stepper``, whose buffers, operators and both levels
    persist from one sample to the next, so the run takes the K steps back
    to its first level behind once.  An interval of ``every`` steps takes
    the blocks of a call of its own length, and a shorter last interval
    blocks no longer than those.  So a sampled run agrees with the same
    intervals taken one ``fdtd_run`` call at a time to rounding (about 1e-14
    relative).  The arrays of a yielded state are never written afterwards,
    and consecutive samples may share one."""
    if n_steps < 0:
        raise ValueError(f"step count must be >= 0, got n_steps={n_steps}")
    if every < 1:
        raise ValueError(f"sample interval must be >= 1 step, got every={every}")
    return _samples(s, n_steps, every, inner_trace)


def _samples(s: FdtdState, n_steps: int, every: int, inner_trace: bool
             ) -> Iterator[FdtdState]:
    """The generator of ``fdtd_samples``."""
    if n_steps == 0:
        return
    stepper = _Stepper(s, min(every, n_steps), n_steps % every)
    for k0 in range(0, n_steps, every):
        s = fdtd_run(s, min(every, n_steps - k0), inner_trace=inner_trace, stepper=stepper)
        yield s


class _Stepper:
    """The stepping state of one run: the scheme's coefficients, the longest
    block k_max of the plan of ``every`` steps, which caps every interval's
    blocks, the two padded (x, d) buffers, the product buffer and the
    operators of each block length.

    Each buffer holds (x, d) = (phi, phi - phi_prev) of one level in a (2, L)
    array of whole blocks of ``width`` = max(k_max, 4) nodes, one block of
    zeros left of the nodes and at least one right of them.  ``bufs[0]`` holds
    the current level n, the state ``held`` that the last interval returned,
    and ``bufs[1]`` the level n - ``lag``.  The output blocks are all blocks
    of both rows, laid end to end, but the first and last; ``prod`` holds one
    row for each.  Every buffer keeps three window views of itself, each a
    (rows, 3 width) array whose row i holds the input blocks r + 3i ..
    r + 3i + 2 that output block r + 3i + 1 reads, r = 0, 1, 2; ``prods``
    holds the matching strided rows r, r + 3, ... of ``prod``.  A block of K
    steps, with lag = K, takes the three GEMMs of the current buffer's windows
    with the stacked operand into ``prods``, then writes prod - level_(n-K)
    over the output blocks of the buffer behind, resets the padding,
    overwrites the K nodes at each end with the edge operator's result, and
    swaps the buffers.  Single steps of ``_step`` move the level behind to
    lag K first, from lag 0 for a state not ``held``.

    ``lengths`` holds the block lengths of the plans of ``every`` steps and
    of a shorter ``last`` interval (0 for none); the first block builds the
    operators of all of them, and ``ops`` keeps them for the run.  Another
    length builds its own on first use."""

    def __init__(self, s: FdtdState, every: int, last: int = 0):
        self.coeffs = _leapfrog_stencil(s.grid.h, s.dt, s.p)
        self.n = n = s.phi.size
        self.k_max = k_max = _block_plan(every, n)[0][0]
        self.lengths = {K for m in (every, last) if m for K, _ in _block_plan(m, n, k_max)}
        self.width = width = max(k_max, _MIN_WIDTH)
        blocks = -(-n // width) + 2  # per row: the left pad, the nodes, >= width zeros
        nb = 2 * blocks - 2  # output blocks: all of both rows but the first and last
        # rows j = r, r + 3, ... of prod (output blocks j + 1) read the windows
        # of input blocks j .. j + 2, which tile the flat buffer from block r on
        wins = [(r * width, len(range(r, nb, 3))) for r in range(3)]
        levels = np.zeros((2, 2, blocks * width))
        # per level: the buffer, flat, its three window views, its nodes (x, d),
        # and the blocks the GEMMs write
        self.bufs = [(xd, flat, [flat[a:a + 3 * m * width].reshape(m, 3 * width) for a, m in wins],
                      xd[:, width:width + n], flat.reshape(-1, width)[1:-1])
                     for xd, flat in zip(levels, levels.reshape(2, -1))]
        self.prod = np.empty((nb, width))
        self.prods = [self.prod[r::3] for r in range(3)]
        self.held = None
        self.lag = 0
        self.ops = {}

    def _operators(self, K: int) -> tuple:
        if K not in self.ops:
            n, pad, L = self.n, self.width, self.bufs[0][0].shape[1]
            Ks = sorted({K, *self.lengths} - self.ops.keys())
            strides = _stride_operators(self.coeffs, Ks, pad)
            edges = _block_operators(self.coeffs, Ks)
            for k in Ks:
                W = 2 * k + 1
                at = pad + np.abs(np.array([0, n - 1]) - np.arange(W)[:, None])  # node m from each end
                gather = np.concatenate([at, at + L])  # x then d
                # the boundary and (x, d) rows take a product of their own:
                # a GEMM's rounding of a row depends on the rows beside it
                self.ops[k] = (strides[k], edges[k][:3 * k - 1], edges[k][3 * k - 1:],
                               gather, gather[np.r_[0:k, W:W + k]], gather[1:3])
        return self.ops[K]

    def advance(self, s: FdtdState, k: int, inner_trace: bool = False) -> FdtdState:
        """The state k >= 1 steps after s, with the boundary trace of those
        steps, and with ``inner_trace`` their trace of nodes 1 and 2 too."""
        trace = np.empty((k, 2))
        inner = np.empty((k if inner_trace else 0, 2, 2))
        inner_rows = inner.reshape(-1, 2)
        n, pad, prod, prods = self.n, self.width, self.prod, self.prods
        if self.held is not s:
            x, d = self.bufs[0][3]
            x[:] = s.phi
            np.subtract(s.phi, s.phi_prev, out=d)
            self.bufs[1][0][:] = self.bufs[0][0]
            self.lag = 0
        j = 0
        for K, count in _block_plan(k, n, self.k_max):
            for _ in range(abs(self.lag - K)):  # single steps to the level K behind
                _step(*self.bufs[1][3], self.coeffs, back=self.lag < K)
            self.lag = K
            stride, edge, edge12, gather, scatter, at12 = self._operators(K)
            for _ in range(count):
                (_, flat, wins, _, _), (new, new_flat, _, _, out) = self.bufs
                g = flat[gather]
                e = edge @ g
                for win, part in zip(wins, prods):
                    np.matmul(win, stride, out=part)
                np.subtract(prod, out, out=out)
                new[:, pad + n:] = 0.0  # the padding the products wrote
                new[1, :pad] = 0.0
                new_flat[scatter] = e[K - 1:]
                trace[j:j + K] = e[:K]
                if inner_trace:
                    np.matmul(edge12, g, out=inner_rows[2 * j:2 * (j + K - 1)])
                    inner[j + K - 1] = new_flat[at12]  # after the block's last step
                j += K
                self.bufs.reverse()
        x, d = self.bufs[0][3]
        cur = x.copy()
        self.held = FdtdState(grid=s.grid, p=s.p, phi=cur, phi_prev=cur - d,
                              t=s.t + k * s.dt, dt=s.dt, bdy_trace=trace, inner_trace=inner)
        return self.held


def fdtd_run(s: FdtdState, n_steps: int, *, inner_trace: bool = False,
             stepper: _Stepper | None = None) -> FdtdState:
    """Advance n_steps leapfrog steps and return the state with the boundary
    trace of every step, and with ``inner_trace`` that of nodes 1 and 2,
    which ``energy_steps`` reads (else empty).  The interval takes the
    fewest blocks of at most min(32, (N - 1) // 2) steps on N nodes, of
    lengths differing by at most one, each block of K steps one K-stride
    leapfrog update of the difference-form levels (see the module
    docstring).  A call from a state that its stepper did not make, as every
    call without ``stepper`` is, first takes K single steps back from s to
    make its level behind.  The
    last trace row is the end nodes of ``phi`` themselves, so
    ``bdy_trace[-1]`` equals ``bdy`` exactly.  n_steps = 0 returns a copy of
    the levels with an empty trace; ValueError for n_steps < 0.

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
    return stepper.advance(s, n_steps, inner_trace)


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


def _density(a, b, dt: float, mu: float):
    """(v^2 + mu^2 a b) / 2 of a node, v = (b - a) / dt, elementwise."""
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
    total = float(0.5 * h * ((v @ v) / (dt * dt) + p.mu**2 * (a @ b))
                  + (p.c - 0.5 * h) * (e0 + e1)
                  + ((b[1:] - b[:-1]) @ (a[1:] - a[:-1]) + 0.5 * cut) / (2.0 * h))
    return total, p.c * e0 + p.c * e1


def energy_steps(s: FdtdState, run: FdtdState) -> tuple[np.ndarray, np.ndarray]:
    """The FDTD energy after each step of the run from s to ``run``, as its
    change from ``energy(s).total``, and its boundary part, from the levels
    of s and the end-node trace of ``run`` alone.

    In exact arithmetic the interior rows conserve the energy, and each
    closure row leaves the defect rho of the lumped equation (c + h/2)
    phi_0'' = -(phi_0 - phi_1)/h - mu^2 (c + h/2) phi_0 that it conserves:

        2 (E^(n+1) - E^n) = sum over the ends (phi^(n+1) - phi^(n-1)) rho(phi^n),
        rho = (h/2 + c) (-3 phi_0 + 4 phi_1 - phi_2) / (2 h c) + (phi_0 - phi_1) / h
            = (-3 phi_0 + 4 phi_1 - phi_2) / (4 c) - (phi_0 - 2 phi_1 + phi_2) / (2 h)

    at the nodes 0, 1, 2 from each end; the mu^2 terms cancel.  The second
    form is the one summed: its two O(phi / h) parts cancel in closed form.
    The boundary part c (e_0 + e_N) is ``_span_energy``'s, node 0 of each
    end at the two levels of each step.  ValueError unless ``run`` holds the
    trace of nodes 1 and 2 (``fdtd_run`` with ``inner_trace``)."""
    if len(run.inner_trace) != len(run.bdy_trace):
        raise ValueError("energy_steps reads nodes 1 and 2 after every step: "
                         "step the run with inner_trace=True")
    p, h, dt = s.p, s.grid.h, s.dt
    # node 0 at levels n - 1 .. n + k, nodes 1 and 2 at levels n .. n + k - 1
    b = np.concatenate(([s.phi_prev[[0, -1]], s.phi[[0, -1]]], run.bdy_trace))
    x1, x2 = np.concatenate(([s.phi[[[1, -2], [2, -3]]]], run.inner_trace[:-1])).transpose(1, 0, 2)
    x0 = b[1:-1]
    rho = (-3.0 * x0 + 4.0 * x1 - x2) / (4.0 * p.c) - (x0 - 2.0 * x1 + x2) / (2.0 * h)
    flux = (b[2:] - b[:-2]) * rho
    e = _density(x0, b[2:], dt, p.mu)
    return 0.5 * np.cumsum(flux[:, 0] + flux[:, 1]), p.c * e[:, 0] + p.c * e[:, 1]


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
    the discrete light cone: the nodes where the run's starting values are
    nonzero, the bulk samples with the boundary values on the end nodes
    (node 0 if none), widened by N + 2 nodes (N steps widen the support by
    at most N cells; a halo of 2 covers the stencil reach of the Taylor
    back-step).  The probe passes below an amplitude of 1e-8 outside the
    cone."""
    if not t >= 0:
        raise ValueError(f"probe time must be >= 0, got t={t}")
    state = make_fdtd_state(data, p)
    n_steps = int(np.ceil(t / state.dt))
    state = fdtd_run(state, n_steps)
    phi0, v0 = _start_values(data)
    live = np.flatnonzero((phi0 != 0) | (v0 != 0))
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

_SQRT1_2 = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2 * math.pi)
_ERFC_BAND = 4.0     # math.erfc per element below it, the J-fraction from it on
_MILLS_NEAR = 8.0    # the J-fraction takes 20 levels below it and 7 from it on,
_MILLS_FAR = 20.0    # and 4 from here on


def _phi(v):
    """The standard normal density, elementwise; 0.0 where v^2 overflows."""
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * v * v) * _INV_SQRT_2PI


def _mills_rest(y):
    """t = 1/R(y) - y for y >= 0, elementwise, R(y) = Q(y) / phi(y) the Mills
    ratio of the normal tail Q = 1 - Phi, so that R = 1 / (y + t).  Below
    y = 4, 1/R = phi(y) / Q(y) with Q = erfc(y / sqrt 2) / 2 by ``math.erfc``,
    one call per element.  From 4 on, t = (1 - 2 / d_1) / y, formed without
    subtracting, from the J-fraction (DLMF 7.9.2 at z = y / sqrt 2)

        R(y) = y / (y^2 + 1 - 1*2 / (y^2 + 5 - 3*4 / (y^2 + 9 - ...))),

    d_1 its first denominator, cut 20 levels below it below y = 8, 7 from
    there and 4 from y = 20 on: within 3.2e-19, 8.3e-18 and 2.7e-20 of R at
    the low end of each range (exact arithmetic), closer above it; t is
    within 3 eps, where the subtraction lost up to 3.6e-13 near y = 7.7.
    Past y = 1.3e154 every d is inf and t = 1/y (the caller
    ignores the overflow).  Each element gives the same bits alone as in an
    array."""
    y = np.asarray(y, dtype=float)
    t = np.empty_like(y)
    band = y < _ERFC_BAND
    near = y < _MILLS_NEAR
    far = y >= _MILLS_FAR
    yb = y[band]
    q = np.fromiter(map(math.erfc, (yb * _SQRT1_2).tolist()), float, yb.size)
    t[band] = _phi(yb) / (0.5 * q) - yb
    for levels, part in ((20, near & ~band), (7, ~(near | far)), (4, far)):
        yp = y[part]
        s = yp * yp
        d = s + (4 * levels + 1)  # the last denominator
        for k in range(levels - 1, 0, -1):
            np.divide((2 * k + 1) * (2 * k + 2), d, out=d)
            np.subtract(s, d, out=d)
            d += 4 * k + 1
        t[part] = (1.0 - 2.0 / d) / yp
    return t


def _exp_tail(u, eps, c, slope: bool = False):
    """T = (E * G_eps)(u), with E(u) = exp(-u/c) theta(u) and G_eps the
    unit-mass Gaussian of width eps; with ``slope``, dT/du = G_eps - T/c
    instead.

    With v = u/eps, a = eps/c and x = v - a, T = exp(a^2/2 - a v) Phi(x).
    Since exp(a^2/2 - a v) phi(x) = phi(v) exactly, the Mills ratio R and
    f = 1/R(|x|) = |x| + t, t = ``_mills_rest(|x|)``, write it as products
    in which no term of size a^2 is formed:

    - x < 0: T = phi(v) R(-x) = phi(v) / f, and dT/du = phi(v) (t - v) /
      (eps f), free of the terms of size G_eps that cancel in G_eps - T/c;
    - x >= 0: T = exp(a (a/2 - v)) Phi(x) = exp(a (a/2 - v)) - phi(v) / f,
      an exponent of at most -a^2/2 and a second term at most half the first.

    t is taken only where phi(v) > 0; elsewhere both products are signed
    zeros, or exp(a (a/2 - v)) alone, whatever t is.

    The closed forms go through it before any other term, so it holds their
    checks: ValueError unless eps is positive and finite, and, naming c,
    unless c > 0 and eps/c and 2/c are finite (c above about 1e-308)."""
    eps, c = float(eps), float(c)
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not (c > 0 and math.isfinite(eps / c) and math.isfinite(2.0 / c)):
        raise ValueError(f"the reflection closed form needs c > 0 with eps/c and 2/c "
                         f"inside the double range, got c = {c:g} (eps = {eps:g})")
    a = eps / c
    with np.errstate(over="ignore"):  # exp(a (a/2 - v)) where x < 0 is not taken
        v = np.asarray(u, dtype=float) / eps
        x = v - a
        y = np.abs(x)
        phi_v = _phi(v)
        # where phi(v) is 0 (|v| > 38), t only sets the signs of the zeros
        # phi(v) (t - v) and phi(v) / (y + t): any t in (0, |v|) keeps them,
        # and t = 1 keeps y + t > 0 at x = 0
        live = phi_v > 0
        t = np.ones_like(y)
        t[live] = _mills_rest(y[live])
        T = phi_v / (y + t)
        T = np.where(x < 0, T, np.exp(a * (0.5 * a - v)) - T)
        if slope:
            return np.where(x < 0, phi_v * (t - v) / (eps * (y + t)), phi_v / eps - T / c)
    return T


def explicit_solution(t, z, eps: float, c: float):
    """Mollified reflection solution: incoming Gaussian pulse G(t+z), the
    sign-flipped reflection -G(t-z), and the boundary re-emission tail
    (2/c) exp(-(t-z)/c) theta(t-z) mollified in time, G(u) = phi(u/eps)/eps.

    Returns phi over t broadcast against z.  The boundary trace is
    ``explicit_solution(t, 0.0, eps, c)``: at z = 0 the two Gaussians cancel
    exactly and phi is the re-emission tail.  As c -> 0 the tail (2/c) T
    tends to 2 G(t - z), the Neumann reflection.  Numpy and ``math`` only.
    ValueError unless eps is positive and finite, and, naming c, unless
    c > 0 with eps/c and 2/c finite (``_exp_tail``).
    """
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    tail = _exp_tail(t - z, eps, c) * (2.0 / c)  # checks eps and c before any other term
    return _phi((t + z) / eps) / eps - _phi((t - z) / eps) / eps + tail


def explicit_solution_dt(t, z, eps: float, c: float):
    """Time derivative of explicit_solution (for building Cauchy data);
    ValueError where explicit_solution raises it."""
    z = np.asarray(z, dtype=float)
    tail = _exp_tail(t - z, eps, c, slope=True) * (2.0 / c)

    def dg(u):  # G'(u) = -v phi(v) / eps^2 at v = u/eps
        v = u / eps
        return -(v * _phi(v)) / eps / eps

    return dg(t + z) - dg(t - z) + tail


def reflection_cauchy_data(grid: Grid1D, t0: float, eps: float, c: float) -> CauchyData:
    """Cauchy data of the exact solution at time t0, mapped onto a strip grid
    whose left endpoint is the physical boundary (z' = z - z_min).  Finite
    at every c that the closed form takes, unless eps is so small that the
    pulse or its slope overflows at a node."""
    zp = grid.nodes - grid.z_min
    return CauchyData.from_samples(grid, explicit_solution(t0, zp, eps, c),
                                   explicit_solution_dt(t0, zp, eps, c))
