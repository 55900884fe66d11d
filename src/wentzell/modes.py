"""Transverse mode spectrum on the strip and half-space.

On the strip [-S, S] the even/odd profiles cos(q z), sin(q z) satisfy the
transcendental conditions

    even:  c^-1 tan(q S) = -q        odd:   q tan(q S) = c^-1

with exactly one root q_m in each window (pi (m-1) / 2S, pi m / 2S), m >= 1,
plus the constant mode q_0 = 0.  Writing q_m = pi (m-1) / 2S + delta_m turns
both parities into one equation for the offset delta_m in (0, pi / 2S],

    S delta = arctan(1 / (c q)),

whose left side minus right side is increasing and concave in delta.  Newton
from any start right of the root therefore climbs monotonically to it after
its first step, with no bracketing and no parity branch.  The start is the
window top delta = pi / 2S, except for m = 1 at large c S, whose root
delta ~ (c S)^-1/2 sits far below it: there Newton would gain only a factor
of two per step, so m = 1 starts at (c S)^-1/2, also right of the root.  The
phase is evaluated as arctan2(1, c q), which needs no division.  Five Newton
steps on the pole-free trig forms

    even:  c^-1 sin(q S) + q cos(q S) = 0
    odd:   q sin(q S) - c^-1 cos(q S) = 0

then polish q.  The table stores delta_m next to q_m, and the normalization
c_m and boundary coupling d_m are computed from sin(delta_m S), free of the
cancellation in sin/cos(q_m S) at large m.  Residuals are reported in
normalized (dimensionless) form: the raw tan-form residual is ill-conditioned
by a factor ~ q^2 and cannot reach 1e-12 in double precision at large m.  The
normalized trig form has a rounding floor of about the rounding of q S plus
S ulp(q), which reaches 1e-12 a little past q S = 2^12 wherever q S is not
exact in binary.  From q S = 2^12 on the residual is therefore
|S delta - arctan(1 / (c q))| instead.  (S = 0.5, 1 and 2 make q S exact in
binary and keep the trig floor near 4e-13 up to q S = 2^14, which is why a
switch at 2^14 held there and failed at most other S from about 3 000 modes.)

One check, with fixed bounds and no settings, covers every mode of a table
(``check_solution``): each root meets a normalized residual of 1e-12, and
theta = delta_m S, c_m and d_m hold their exact relations to 8 ulps.  None of
them is a large-m law, so the check holds at any m, S and c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (BulkBoundaryFunction, GeometryError, Grid1D, PhysicalParams, Strip,
                   _check_grid_geometry, _check_halfspace)

_NEWTON_STEPS = 5
_DELTA_MAX_ITER = 100
_DELTA_RTOL = 4 * np.finfo(float).eps
_TRIG_RESIDUAL_QS = 2.0**12  # q S from which the residual is taken in delta form
_Q_DELTA_ULPS = 8  # ulps to which check_solution holds each exact relation
_RESIDUAL_TOL = 1e-12  # normalized eigenvalue residual a root must meet
_C_RANGE = 2.0**1020  # bound on c q_m, c pi m, S / c and 1 / c


def bracket(m, p: PhysicalParams) -> tuple:
    """Window (pi (m-1) / 2S, pi m / 2S) guaranteed to contain q_m, m >= 1;
    ``m`` may be an index array."""
    S = _strip_S(p)
    return (np.pi * (m - 1) / (2 * S), np.pi * m / (2 * S))


def _strip_S(p: PhysicalParams) -> float:
    if not isinstance(p.geometry, Strip):
        raise GeometryError("discrete mode spectrum exists only on the strip")
    return p.geometry.S


def _residual_fn(q, S, c, even):
    """Trig-form residual; ``even`` (a bool or a bool array broadcasting
    against q) selects the parity."""
    q = np.asarray(q, dtype=float)
    sin, cos = np.sin(q * S), np.cos(q * S)
    return np.where(even, sin / c + q * cos, q * sin - cos / c)


def _residual_deriv(q, S, c, even):
    """d/dq of ``_residual_fn``."""
    q = np.asarray(q, dtype=float)
    sin, cos = np.sin(q * S), np.cos(q * S)
    return np.where(even, (S / c + 1.0) * cos - q * S * sin,
                    (1.0 + S / c) * sin + q * S * cos)


def residual_normalized(q, p: PhysicalParams, even) -> np.ndarray:
    """Dimensionless residual of the eigenvalue condition, ~ phase error in qS;
    ``even`` is a bool or a bool array (m % 2 == 0) broadcasting against q."""
    S = _strip_S(p)
    r = _residual_fn(q, S, p.c, even)
    return np.abs(r) / np.hypot(1.0 / p.c, np.asarray(q, dtype=float))


def _solve_batch(ms: np.ndarray, p: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """(q_m, delta_m) for indices ms >= 1: Newton on the delta form, then the
    trig-form polish of q.  Each root stops on its own, so it does not depend
    on the other indices in the batch."""
    S, c = _strip_S(p), p.c
    lo, hi = bracket(ms, p)
    top = np.pi / (2 * S)
    delta = np.full(ms.shape, top)
    # m = 1 has q = delta and, for large c S, its root delta ~ (c S)^-1/2 far
    # below the window top, where each Newton step only doubles c delta.  It
    # starts at (c S)^-1/2, where S delta - arctan(1 / (c delta)) = x - arctan x
    # > 0 with x = S delta: right of the root, like the window top.  The two
    # square roots keep c S from overflowing.
    delta[ms == 1] = min(top, 1.0 / np.sqrt(c) / np.sqrt(S))
    done = np.zeros(ms.shape, dtype=bool)
    for _ in range(_DELTA_MAX_ITER):
        q = lo + delta
        f = S * delta - np.arctan2(1.0, c * q)
        # c / ((c q)^2 + 1) as 1 / (c q q + 1 / c): (c q)^2 overflows from
        # c q = 1.3e154, c q q only where the term is below 1e-308
        with np.errstate(over="ignore"):
            step = np.where(done, 0.0, f / (S + 1.0 / (c * q * q + 1.0 / c)))
        delta = delta - step
        done |= np.abs(step) <= _DELTA_RTOL * delta
        if done.all():
            break
    else:
        raise RuntimeError(f"delta-form Newton did not converge in {_DELTA_MAX_ITER} "
                           f"steps for m={ms[~done]}; solver bug")
    delta = np.minimum(delta, top)  # the root is below the window top; keep rounding there

    even = ms % 2 == 0
    q = lo + delta
    for _ in range(_NEWTON_STEPS):
        f = _residual_fn(q, S, c, even)
        df = _residual_deriv(q, S, c, even)
        step = np.where(df != 0, f / np.where(df != 0, df, 1.0), 0.0)
        q = np.clip(q - step, lo, hi)
    return q, delta


_COLUMNS = ("qs", "deltas", "c_norms", "d_bdys")


@dataclass(eq=False)
class ModeTable:
    """Normalized strip modes m = 0 .. M_max with boundary couplings, as columns
    indexed by m.

    The profile of mode m is  c_m S^(-1/2) * cos(q_m z)  (m even) or
    sin(q_m z) (m odd); its boundary value at the component at +-S is
    (+-1)^m d_m.  ``deltas`` holds delta_m = q_m - pi (m-1) / 2S from the
    delta-form solve (pi / 2S for the constant mode).  Construction raises
    ValueError on non-finite columns, a q that does not increase, a d_m of 0,
    and a top frequency sqrt(q_M^2 + mu^2) of ``omegas`` that overflows a
    double, so ``build_table`` and the cache loader share these checks.
    """

    params: PhysicalParams
    qs: np.ndarray
    deltas: np.ndarray
    c_norms: np.ndarray
    d_bdys: np.ndarray

    def __post_init__(self):
        cols = [np.array(getattr(self, k), dtype=float) for k in _COLUMNS]
        for name, col in zip(_COLUMNS, cols):
            col.setflags(write=False)
            setattr(self, name, col)
        if self.qs.ndim != 1 or self.qs.size == 0 \
                or any(col.shape != self.qs.shape for col in cols):
            raise ValueError("mode table columns must be non-empty 1-d arrays "
                             "of one length")
        if not all(np.isfinite(col).all() for col in cols):
            raise ValueError("mode table holds non-finite values")
        if np.any(np.diff(self.qs) <= 0):
            raise ValueError("mode wavenumbers must be strictly increasing")
        q, mu = float(self.qs[-1]), float(self.params.mu)
        if not np.isfinite(q * q + mu * mu):  # Python floats overflow to inf, silently
            raise ValueError(f"the top frequency sqrt(q_M^2 + mu^2) overflows a double at "
                             f"S = {self.params.geometry.S:g}, mu = {mu:g}, q_M = {q:.4g}")
        if np.any(self.d_bdys == 0):
            m = int(np.argmax(self.d_bdys == 0))
            raise ValueError(f"boundary coupling of mode {m} vanishes")

    def __len__(self) -> int:
        return self.qs.size

    @cached_property
    def parity_signs(self) -> np.ndarray:
        """(-1)^m, the sign relating the two boundary components."""
        return np.where(np.arange(len(self)) % 2 == 0, 1.0, -1.0)

    @cached_property
    def residuals(self) -> np.ndarray:
        """Normalized eigenvalue residual of modes m = 1 .. M_max (see the
        module docstring for the two forms), read-only and computed once per
        table."""
        res = _residuals(np.arange(1, len(self)), self.qs[1:], self.deltas[1:],
                         self.params)
        res.setflags(write=False)
        return res

    def omegas(self, k: float = 0.0) -> np.ndarray:
        return np.sqrt(k * k + self.qs**2 + self.params.mu * self.params.mu)

    def boundary_values(self) -> np.ndarray:
        """(M+1, 2) array of mode boundary values [at -S, at +S]."""
        return np.column_stack([self.parity_signs * self.d_bdys, self.d_bdys])


def _residuals(ms, qs, deltas, p: PhysicalParams) -> np.ndarray:
    """Normalized residual of modes ms >= 1: the trig form while q S < 2^12,
    |S delta - arctan(1 / (c q))| from there on."""
    S, c = _strip_S(p), p.c
    trig = residual_normalized(qs, p, ms % 2 == 0)
    return np.where(qs * S < _TRIG_RESIDUAL_QS, trig,
                    np.abs(S * deltas - np.arctan2(1.0, c * qs)))


def check_solution(table: ModeTable) -> float:
    """Raise ValueError, naming the first modes that fail, unless the table
    holds its exact relations at every m.  With theta = delta_m S and
    sigma_m = +1 for m mod 4 < 2, else -1:

        q_0 = 0,  c_0^2 (2S + 2c) = S,  d_0 sqrt(S) = c_0,
        c_m^2 (S + c sin^2 theta) = S,  d_m sqrt(S) = sigma_m c_m sin theta,
        arctan(2S / (c pi m)) <= theta <= arctan(2S / (c pi (m-1)))  (pi/2 at m = 1),
        q_m = pi (m-1) / 2S + delta_m,

    each to _Q_DELTA_ULPS ulps, and ``table.residuals`` at most the fixed
    tolerance 1e-12 (``_RESIDUAL_TOL``).  The window is the image of q_m's
    bracket under theta = arctan(1 / (c q)), and the c_m relation holds only
    at a root: ``_normalize`` takes c_m from S - sin(2 theta) / 2q +
    2c sin^2 theta.  Returns the largest residual (0 for the constant mode
    alone).  ``build_table`` holds its own output to this check, and the
    cache loader holds a file to it."""
    S, c = _strip_S(table.params), table.params.c
    if table.qs[0] != 0.0:
        raise ValueError(f"constant mode has q_0 = {table.qs[0]!r}, not 0")
    ms = np.arange(len(table))
    theta = table.deltas * S
    sin_t = np.r_[1.0, np.sin(theta[1:])]
    weight = np.r_[2 * S + 2 * c, S + c * sin_t[1:]**2]
    sign = np.where(ms % 4 < 2, 1.0, -1.0)
    lo, hi = np.arctan2(2 * S, c * np.pi * ms), np.arctan2(2 * S, c * np.pi * (ms - 1))
    q_of_delta = np.r_[0.0, bracket(ms[1:], table.params)[0] + table.deltas[1:]]
    for what, bad in (
            ("theta = delta S outside its window",
             (ms > 0) & ((theta < lo - _ulps(lo)) | (theta > hi + _ulps(hi)))),
            ("q and delta disagree", _apart(table.qs, q_of_delta)),
            ("c_m^2 (S + c sin^2 theta) is not S", _apart(table.c_norms**2 * weight, S)),
            ("d_m sqrt(S) is not +-c_m sin theta",
             _apart(table.d_bdys * np.sqrt(S), sign * table.c_norms * sin_t))):
        if np.any(bad):
            raise ValueError(f"{what} at m={ms[bad][:5]}")
    res = table.residuals
    if np.any(res > _RESIDUAL_TOL):
        worst = int(np.argmax(res)) + 1
        raise ValueError(f"residual {np.max(res):.3e} above {_RESIDUAL_TOL:g} "
                         f"at m={worst}")
    return float(np.max(res, initial=0.0))


# perfbench/tracer.py times the table check under its former name
verify_table = check_solution


def _ulps(x):
    """_Q_DELTA_ULPS ulps of ``x``."""
    return _Q_DELTA_ULPS * np.spacing(np.abs(x))


def _apart(x, exact):
    """Where ``x`` is more than _Q_DELTA_ULPS ulps from ``exact``."""
    return np.abs(x - exact) > _ulps(exact)


def _normalize(ms, qs, deltas, S: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """c_m and d_m of modes ms >= 1 from theta = delta_m S.  With
    q S = pi (m-1) / 2 + theta the weighted norm^2 of either raw profile is
    S - sin(2 theta) / 2q + 2c sin^2 theta, and its trace at +S is
    +-sin theta, with + for m = 0, 1 mod 4."""
    theta = deltas * S
    sin_t = np.sin(theta)
    c_norms = np.sqrt(S / (S - np.sin(2 * theta) / (2 * qs) + 2 * c * sin_t**2))
    sign = np.where(ms % 4 < 2, 1.0, -1.0)
    return c_norms, sign * c_norms / np.sqrt(S) * sin_t


def build_table(M_max: int, p: PhysicalParams) -> ModeTable:
    """Solve and normalize modes m = 0 .. M_max on the strip.  ValueError
    unless max(1, S) 2^-1020 <= c <= 2^1020 / (pi max(1, M_max) max(1, 1/S))
    (``_C_RANGE``): below, 1 / c and S / c in the trig forms overflow; above,
    c q_m and c pi m do, and the phase arctan(1 / (c q_m)) of the highest
    root leaves the normal doubles."""
    if M_max < 0:
        raise ValueError(f"M_max must be >= 0, got {M_max}")
    S = _strip_S(p)
    c_lo = max(1.0, S) / _C_RANGE
    c_hi = _C_RANGE / (np.pi * max(1, M_max) * max(1.0, 1.0 / S))
    if not c_lo <= p.c <= c_hi:
        raise ValueError(f"boundary coupling c={p.c:g} is outside [{c_lo:.3g}, "
                         f"{c_hi:.3g}], the range in which modes up to m={M_max} "
                         f"at S={S:g} stay within double precision")
    ms = np.arange(1, M_max + 1)
    q, delta = _solve_batch(ms, p)
    c_norm, d_bdy = _normalize(ms, q, delta, S, p.c)
    # constant mode: weighted norm^2 of 1 is 2S + 2c (limit of the even formula)
    c_0 = float(np.sqrt(S / (2 * S + 2 * p.c)))
    table = ModeTable(params=p, qs=np.r_[0.0, q], deltas=np.r_[np.pi / (2 * S), delta],
                      c_norms=np.r_[c_0, c_norm], d_bdys=np.r_[c_0 / np.sqrt(S), d_bdy])
    try:
        check_solution(table)
    except ValueError as exc:
        raise RuntimeError(f"root solver failed: {exc}") from exc
    return table


def eval_mode(m, z, table: ModeTable) -> np.ndarray:
    """Normalized strip profile c_m S^(-1/2) cos/sin(q_m z) of mode index ``m``
    (an index array broadcasts against ``z``).  Indices of one parity take
    only the trig function they need."""
    S = _strip_S(table.params)
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(z) > S * (1 + 1e-12)):
        raise GeometryError("evaluation point outside the strip")
    m = np.asarray(m)
    q, amp = table.qs[m], table.c_norms[m] / np.sqrt(S)
    odd = m % 2 == 1
    if not np.any(odd):
        return amp * np.cos(q * z)
    if np.all(odd):
        return amp * np.sin(q * z)
    return amp * np.where(odd, np.sin(q * z), np.cos(q * z))


def eval_mode_deriv(m, z, table: ModeTable) -> np.ndarray:
    """d/dz of the normalized strip profile of mode index ``m`` (an index array
    broadcasts against ``z``)."""
    S = _strip_S(table.params)
    z = np.asarray(z, dtype=float)
    m = np.asarray(m)
    q, amp = table.qs[m], table.c_norms[m] / np.sqrt(S)
    return amp * q * np.where(m % 2 == 0, -np.sin(q * z), np.cos(q * z))


def eval_halfspace_mode(q, z, p: PhysicalParams) -> np.ndarray:
    """Half-space profile (pi/2 (c^2 q^2 + 1))^(-1/2) (cos qz - c q sin qz).

    The boundary value (z=0 sample) is the prefactor itself; dimension-
    dependent 2 pi factors are carried by callers.  q and z broadcast.
    GeometryError unless ``p`` is a half-space and every z >= 0.
    """
    _check_halfspace(p, "the half-space profile")
    z = np.asarray(z, dtype=float)
    if np.any(z < -1e-12):
        raise GeometryError("half-space profile evaluated at z < 0")
    pref = (np.pi / 2 * (p.c**2 * q**2 + 1.0)) ** -0.5
    return pref * (np.cos(q * z) - p.c * q * np.sin(q * z))


def mode_matrix(table: ModeTable, grid: Grid1D) -> np.ndarray:
    """(n_nodes, M+1) samples of all modes, the even columns from cos and the
    odd ones from sin only; endpoint rows are the exact boundary values so
    traces match the table bitwise.  GeometryError unless ``grid`` spans the
    table's strip: every operation on sampled modes comes through here."""
    _check_grid_geometry(grid, table.params)
    m, z = np.arange(len(table)), grid.nodes[:, None]
    V = np.empty((z.size, m.size))
    V[:, 0::2] = eval_mode(m[0::2], z, table)
    V[:, 1::2] = eval_mode(m[1::2], z, table)
    bvals = table.boundary_values()
    V[0, :] = bvals[:, 0]
    V[-1, :] = bvals[:, 1]
    return V


def project(F: BulkBoundaryFunction, table: ModeTable) -> np.ndarray:
    """Coefficients a_m = <mode_m, F> in the weighted inner product;
    GeometryError unless F's grid spans the table's strip (``mode_matrix``)."""
    V = mode_matrix(table, F.grid)
    w = F.grid.quad_weights()
    bvals = table.boundary_values()
    return V.T @ (w * F.bulk) + table.params.c * (bvals @ F.boundary)


def gram_matrix(table: ModeTable, grid: Grid1D) -> np.ndarray:
    """Weighted inner products <mode_m, mode_m'> of all sampled modes,
    V^T W V + c B B^T with V the mode matrix, W the quadrature weights and B
    the boundary values: ``project`` applied to the samples of every mode,
    ``synthesize`` of each unit vector.
    GeometryError unless ``grid`` spans the table's strip (``mode_matrix``)."""
    V = mode_matrix(table, grid)
    B = table.boundary_values()
    return V.T @ (grid.quad_weights()[:, None] * V) + table.params.c * (B @ B.T)


def synthesize(coeffs: np.ndarray, table: ModeTable, grid: Grid1D) -> BulkBoundaryFunction:
    """Sum a_m * mode_m; the boundary component is set to the bulk trace, so
    compatibility holds at tolerance zero."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (len(table),):
        raise ValueError(f"got {coeffs.shape[0]} coefficients for {len(table)} modes")
    return _mode_sum(mode_matrix(table, grid), coeffs, grid)


def _mode_sum(V: np.ndarray, coeffs: np.ndarray, grid: Grid1D) -> BulkBoundaryFunction:
    """V @ coeffs on ``grid``, V its mode matrix, with the bulk trace as the
    boundary component: the sum of ``synthesize``, for callers that sample
    several coefficient vectors through one mode matrix."""
    bulk = V @ coeffs
    return BulkBoundaryFunction(grid=grid, bulk=bulk,
                                boundary=np.array([bulk[0], bulk[-1]]))
