"""Transverse mode spectrum on the strip and half-space.

On the strip [-S, S] the even/odd profiles cos(q z), sin(q z) satisfy the
transcendental conditions

    even:  c^-1 tan(q S) = -q        odd:   q tan(q S) = c^-1

with exactly one root q_m in each window (pi (m-1) / 2S, pi m / 2S), m >= 1,
plus the constant mode q_0 = 0.  Root finding works on the pole-free trig
forms

    even:  c^-1 sin(q S) + q cos(q S) = 0
    odd:   q sin(q S) - c^-1 cos(q S) = 0

which change sign at the exact window endpoints.  Residuals are reported in
normalized (dimensionless) form: the raw tan-form residual is ill-conditioned
by a factor ~ q^2 and cannot reach 1e-12 in double precision at large m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import BulkBoundaryFunction, GeometryError, Grid1D, PhysicalParams, Strip

_BISECT_WIDTH = 1e-10  # times pi/S
_NEWTON_STEPS = 5


def bracket(m: int, p: PhysicalParams) -> tuple[float, float]:
    """Window (pi (m-1) / 2S, pi m / 2S) guaranteed to contain q_m, m >= 1."""
    S = _strip_S(p)
    return (np.pi * (m - 1) / (2 * S), np.pi * m / (2 * S))


def _strip_S(p: PhysicalParams) -> float:
    if not isinstance(p.geometry, Strip):
        raise GeometryError("discrete mode spectrum exists only on the strip")
    return p.geometry.S


def _residual_fn(q, S, c, even):
    q = np.asarray(q, dtype=float)
    if even:
        return np.sin(q * S) / c + q * np.cos(q * S)
    return q * np.sin(q * S) - np.cos(q * S) / c


def _residual_deriv(q, S, c, even):
    q = np.asarray(q, dtype=float)
    if even:
        return (S / c + 1.0) * np.cos(q * S) - q * S * np.sin(q * S)
    return (1.0 + S / c) * np.sin(q * S) + q * S * np.cos(q * S)


def residual_normalized(q, p: PhysicalParams, even) -> np.ndarray:
    """Dimensionless residual of the eigenvalue condition, ~ phase error in qS."""
    S = _strip_S(p)
    r = _residual_fn(q, S, p.c, even)
    return np.abs(r) / np.hypot(1.0 / p.c, np.asarray(q, dtype=float))


def _solve_batch(ms: np.ndarray, p: PhysicalParams) -> np.ndarray:
    """Vectorized bisection + Newton polish over independent windows."""
    S, c = _strip_S(p), p.c
    even = ms % 2 == 0
    lo = np.pi * (ms - 1) / (2 * S)
    hi = np.pi * ms / (2 * S)
    flo = np.where(even, _residual_fn(lo, S, c, True), _residual_fn(lo, S, c, False))
    fhi = np.where(even, _residual_fn(hi, S, c, True), _residual_fn(hi, S, c, False))
    if np.any(flo * fhi >= 0):
        bad = ms[flo * fhi >= 0]
        raise RuntimeError(f"no sign change in eigenvalue window for m={bad}; solver bug")

    width = _BISECT_WIDTH * np.pi / S
    n_iter = int(np.ceil(np.log2((hi[0] - lo[0]) / width))) + 1
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        fmid = np.where(even, _residual_fn(mid, S, c, True), _residual_fn(mid, S, c, False))
        take_lo = flo * fmid <= 0
        hi = np.where(take_lo, mid, hi)
        fhi = np.where(take_lo, fmid, fhi)
        lo = np.where(take_lo, lo, mid)
        flo = np.where(take_lo, flo, fmid)

    q = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        f = np.where(even, _residual_fn(q, S, c, True), _residual_fn(q, S, c, False))
        df = np.where(even, _residual_deriv(q, S, c, True), _residual_deriv(q, S, c, False))
        step = np.where(df != 0, f / np.where(df != 0, df, 1.0), 0.0)
        q = np.clip(q - step, lo, hi)
    return q


def solve_q(m: int, p: PhysicalParams, residual_tol: float = 1e-12) -> float:
    """Eigenvalue q_m on the strip; q_0 = 0 exactly."""
    if m < 0:
        raise ValueError(f"mode index must be >= 0, got {m}")
    _strip_S(p)
    if m == 0:
        return 0.0
    q = float(_solve_batch(np.array([m]), p)[0])
    res = float(residual_normalized(q, p, m % 2 == 0))
    if res > residual_tol:
        raise RuntimeError(f"residual {res:.3e} above tolerance for m={m}")
    return q


@dataclass(frozen=True)
class ModeEntry:
    """One strip mode: index, wavenumber, parity, normalization, boundary coupling."""

    m: int
    q: float
    parity: str  # 'even' or 'odd'
    c_norm: float
    d_bdy: float

    def omega(self, mu: float, k: float = 0.0) -> float:
        return float(np.sqrt(k**2 + self.q**2 + mu**2))


@dataclass
class ModeTable:
    """Normalized strip modes m = 0 .. M_max with boundary couplings.

    The profile of mode m is  c_m S^(-1/2) * cos(q_m z)  (m even) or
    sin(q_m z) (m odd); its boundary value at the component at +-S is
    (+-1)^m d_m.
    """

    params: PhysicalParams
    entries: tuple[ModeEntry, ...]
    residual_tol: float = 1e-12

    def __post_init__(self):
        qs = np.array([e.q for e in self.entries])
        if np.any(np.diff(qs) <= 0):
            raise ValueError("mode wavenumbers must be strictly increasing")
        for e in self.entries:
            if e.parity != ("even" if e.m % 2 == 0 else "odd"):
                raise ValueError(f"parity of mode {e.m} breaks the even/odd alternation")
            if e.d_bdy == 0:
                raise ValueError(f"boundary coupling of mode {e.m} vanishes")

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def qs(self) -> np.ndarray:
        return np.array([e.q for e in self.entries])

    @cached_property
    def c_norms(self) -> np.ndarray:
        return np.array([e.c_norm for e in self.entries])

    @cached_property
    def d_bdys(self) -> np.ndarray:
        return np.array([e.d_bdy for e in self.entries])

    @cached_property
    def parity_signs(self) -> np.ndarray:
        """(-1)^m, the sign relating the two boundary components."""
        return np.array([(-1.0) ** e.m for e in self.entries])

    def omegas(self, k: float = 0.0) -> np.ndarray:
        return np.sqrt(k**2 + self.qs**2 + self.params.mu**2)

    def boundary_values(self) -> np.ndarray:
        """(M+1, 2) array of mode boundary values [at -S, at +S]."""
        return np.column_stack([self.parity_signs * self.d_bdys, self.d_bdys])


def _normalization(q: float, S: float, c: float, even: bool) -> float:
    """c_m from the closed-form weighted norm of the raw cos/sin profile."""
    if q == 0.0:
        # constant mode: weighted norm^2 of 1 is 2S + 2c (limit of the even formula)
        return float(np.sqrt(S / (2 * S + 2 * c)))
    s2 = np.sin(2 * q * S) / (2 * q)
    if even:
        return float(np.sqrt(S / (S + s2 + 2 * c * np.cos(q * S) ** 2)))
    return float(np.sqrt(S / (S - s2 + 2 * c * np.sin(q * S) ** 2)))


def build_table(M_max: int, p: PhysicalParams, residual_tol: float = 1e-12) -> ModeTable:
    """Solve and normalize modes m = 0 .. M_max on the strip."""
    if M_max < 0:
        raise ValueError(f"M_max must be >= 0, got {M_max}")
    S = _strip_S(p)
    qs = np.zeros(M_max + 1)
    if M_max >= 1:
        ms = np.arange(1, M_max + 1)
        qs[1:] = _solve_batch(ms, p)
        even = ms % 2 == 0
        res = residual_normalized(qs[1:], p, False)
        res_e = residual_normalized(qs[1:], p, True)
        res = np.where(even, res_e, res)
        if np.any(res > residual_tol):
            worst = int(ms[np.argmax(res)])
            raise RuntimeError(f"residual above {residual_tol:g} at m={worst}")
    entries = []
    for m in range(M_max + 1):
        even = m % 2 == 0
        q = float(qs[m])
        cn = _normalization(q, S, p.c, even)
        d = cn / np.sqrt(S) * (np.cos(q * S) if even else np.sin(q * S))
        entries.append(ModeEntry(m=m, q=q, parity="even" if even else "odd",
                                 c_norm=cn, d_bdy=float(d)))
    return ModeTable(params=p, entries=tuple(entries), residual_tol=residual_tol)


def d_asymptote(m, S: float, c: float) -> np.ndarray:
    """Large-m law |d_m| ~ 2 sqrt(S) / (c pi (m-1))."""
    return 2.0 * np.sqrt(S) / (c * np.pi * (np.asarray(m) - 1.0))


@dataclass
class TableReport:
    """Asymptotics check of a mode table for m >= m_start."""

    m_start: int
    delta: float
    ms: np.ndarray            # checked indices
    q_in_bound: np.ndarray    # bool per checked m
    d_in_bound: np.ndarray    # bool per checked m
    c_dev_scaled: np.ndarray  # |c_m - 1| m^2 per checked m
    c_bound: float            # fitted constant the deviations must stay under
    skipped: np.ndarray       # indices excluded from the asymptotic checks

    @property
    def c_bounded(self) -> bool:
        return bool(np.all(self.c_dev_scaled <= self.c_bound))

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.q_in_bound) and np.all(self.d_in_bound) and self.c_bounded)


def verify_table(table: ModeTable, delta: float = 0.1, m_start: int = 50) -> TableReport:
    """Check q_m against the two-sided asymptotic window

        pi (m-1) / 2S + (1 - delta) * 2 / (c pi (m-1)) <= q_m
                     <= pi (m-1) / 2S + 2 / (c pi (m-1)),

    |d_m| against its 1/(m-1) law within delta, and |c_m - 1| m^2 against a
    constant fitted at m_start."""
    p = table.params
    S = _strip_S(p)
    m_start = max(m_start, 2)
    all_m = np.arange(len(table))
    checked = all_m[all_m >= m_start]
    skipped = all_m[all_m < m_start]
    if checked.size == 0:
        raise ValueError(f"table has no modes at or beyond m_start={m_start}")
    q = table.qs[checked]
    base = np.pi * (checked - 1) / (2 * S)
    corr = 2.0 / (p.c * np.pi * (checked - 1))
    q_in = (q >= base + (1 - delta) * corr) & (q <= base + corr)
    ratio = np.abs(table.d_bdys[checked]) / d_asymptote(checked, S, p.c)
    d_in = (ratio >= 1 - delta) & (ratio <= 1 + delta)
    c_dev = np.abs(table.c_norms[checked] - 1.0) * checked.astype(float) ** 2
    return TableReport(m_start=m_start, delta=delta, ms=checked, q_in_bound=q_in,
                       d_in_bound=d_in, c_dev_scaled=c_dev, c_bound=10.0 * c_dev[0],
                       skipped=skipped)


def eval_mode(entry: ModeEntry, z, p: PhysicalParams) -> np.ndarray:
    """Normalized strip profile c_m S^(-1/2) cos/sin(q_m z)."""
    S = _strip_S(p)
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(z) > S * (1 + 1e-12)):
        raise GeometryError("evaluation point outside the strip")
    amp = entry.c_norm / np.sqrt(S)
    if entry.parity == "even":
        return amp * np.cos(entry.q * z)
    return amp * np.sin(entry.q * z)


def eval_mode_deriv(entry: ModeEntry, z, p: PhysicalParams) -> np.ndarray:
    """d/dz of the normalized strip profile."""
    S = _strip_S(p)
    z = np.asarray(z, dtype=float)
    amp = entry.c_norm / np.sqrt(S)
    if entry.parity == "even":
        return -amp * entry.q * np.sin(entry.q * z)
    return amp * entry.q * np.cos(entry.q * z)


def eval_halfspace_mode(q, z, p: PhysicalParams) -> np.ndarray:
    """Half-space profile (pi/2 (c^2 q^2 + 1))^(-1/2) (cos qz - c q sin qz).

    The boundary value (z=0 sample) is the prefactor itself; dimension-
    dependent 2 pi factors are carried by callers.  q and z broadcast.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < -1e-12):
        raise GeometryError("half-space profile evaluated at z < 0")
    pref = (np.pi / 2 * (p.c**2 * q**2 + 1.0)) ** -0.5
    return pref * (np.cos(q * z) - p.c * q * np.sin(q * z))


def mode_matrix(table: ModeTable, grid: Grid1D) -> np.ndarray:
    """(n_nodes, M+1) samples of all modes; endpoint rows are the exact
    boundary values so traces match the table bitwise."""
    p = table.params
    z = grid.nodes
    S = _strip_S(p)
    amp = table.c_norms / np.sqrt(S)
    phase = np.outer(z, table.qs)
    V = np.where(np.arange(len(table)) % 2 == 0, np.cos(phase), np.sin(phase)) * amp
    bvals = table.boundary_values()
    V[0, :] = bvals[:, 0]
    V[-1, :] = bvals[:, 1]
    return V


def mode_function(entry: ModeEntry, table: ModeTable, grid: Grid1D) -> BulkBoundaryFunction:
    """One mode as a sampled bulk/boundary pair (compatible by construction)."""
    V = mode_matrix(table, grid)
    bvals = table.boundary_values()
    return BulkBoundaryFunction(grid=grid, bulk=V[:, entry.m].copy(),
                                boundary=bvals[entry.m].copy())


def project(F: BulkBoundaryFunction, table: ModeTable) -> np.ndarray:
    """Coefficients a_m = <mode_m, F> in the weighted inner product."""
    p = table.params
    S = _strip_S(p)
    if not (np.isclose(F.grid.z_min, -S) and np.isclose(F.grid.z_max, S)):
        raise GeometryError("function grid does not span the strip")
    V = mode_matrix(table, F.grid)
    w = F.grid.quad_weights()
    bvals = table.boundary_values()
    return V.T @ (w * F.bulk) + p.c * (bvals @ F.boundary)


def synthesize(coeffs: np.ndarray, table: ModeTable, grid: Grid1D) -> BulkBoundaryFunction:
    """Sum a_m * mode_m; the boundary component is set to the bulk trace, so
    compatibility holds at tolerance zero."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (len(table),):
        raise ValueError(f"got {coeffs.shape[0]} coefficients for {len(table)} modes")
    V = mode_matrix(table, grid)
    bulk = V @ coeffs
    return BulkBoundaryFunction(grid=grid, bulk=bulk,
                                boundary=np.array([bulk[0], bulk[-1]]))
