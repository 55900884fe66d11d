"""Boundary two-point functions, commutator/causality data, convergence
diagnostics, and smeared mode coefficients.

The boundary field is a generalized free field: its two-point function is a
positive superposition of massive free-field two-point functions, with masses
mu_m = sqrt(q_m^2 + mu^2) and weights d_m^2 (strip) or the continuous weight
2 / (pi (c^2 q^2 + 1)) (half-space).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import j0, kv, zeta

from .core import Strip, ZeroModeError
from .modes import ModeTable, build_table, eval_mode_deriv, mode_matrix

_SQRT2PI = np.sqrt(2.0 * np.pi)


@dataclass
class TwoPointSpec:
    """Which boundary two-point function to evaluate and how far to sum."""

    params: object  # PhysicalParams
    side: str = "plus"  # 'plus' | 'minus' | 'halfspace'
    M: int = 100        # strip mode cutoff
    q_max: float = 200.0  # half-space quadrature cutoff
    d: int | None = None  # boundary spacetime dimension, defaults to params.d

    def __post_init__(self):
        if self.d is None:
            self.d = self.params.d
        if self.M < 1:
            raise ValueError(f"mode cutoff must be >= 1, got M={self.M}")
        if self.params.mu <= 0 and self.d <= 2:
            raise ValueError("mu > 0 is required for d <= 2 (infrared condition)")
        if self.side not in ("plus", "minus", "halfspace"):
            raise ValueError(f"unknown side {self.side!r}")


@dataclass
class TwoPointResult:
    value: complex | np.ndarray
    tail_bound: float
    M: int
    quad_error: float | None = None


def _strip_table(spec: TwoPointSpec, table: ModeTable | None) -> ModeTable:
    if table is None:
        table = build_table(spec.M, spec.params)
    if len(table) < spec.M + 1:
        raise ValueError(f"table has {len(table)} modes, spec needs {spec.M + 1}")
    return table


def strip_tail_bound(M: int, S: float, c: float) -> float:
    """Asymptotic bound on sum_{m > M} d_m^2 / (2 mu_m) from the d_m law."""
    return 4.0 * S**2 / (c**2 * np.pi**3) * float(zeta(3, M))


def boundary_2pt_strip(x0, x, spec: TwoPointSpec, table: ModeTable | None = None
                       ) -> TwoPointResult:
    """Partial mode sum of the boundary two-point function on the strip.

    d = 1 uses the kernel exp(-i mu_m x0) / (2 mu_m); d >= 2 is evaluated at
    spacelike separation through the Bessel-K sum.
    """
    table = _strip_table(spec, table)
    p = spec.params
    S = p.geometry.S
    mu_m = table.omegas()[: spec.M + 1]
    d2 = table.d_bdys[: spec.M + 1] ** 2
    if np.any(mu_m == 0.0):
        raise ZeroModeError("massless zero mode makes the kernel divergent; "
                            "it must be treated separately")
    if spec.d == 1:
        x0 = np.asarray(x0, dtype=float)
        val = np.tensordot(d2 / (2.0 * mu_m),
                           np.exp(-1j * np.outer(mu_m, x0)), axes=(0, 0))
        val = val if val.shape else complex(val)
        return TwoPointResult(value=val, tail_bound=strip_tail_bound(spec.M, S, p.c),
                              M=spec.M)
    x2 = np.asarray(x, dtype=float) ** 2 - np.asarray(x0, dtype=float) ** 2
    res = spacelike_2pt_bessel(x2, spec, table=table)
    return res


@dataclass
class BesselSumResult:
    value: float | np.ndarray
    tail_bound: float
    M: int
    last_term: float


def spacelike_2pt_bessel(x2, spec: TwoPointSpec, table: ModeTable | None = None
                         ) -> BesselSumResult:
    """Boundary two-point function at spacelike separation x^2 > 0 for d >= 2:

        sum_m d_m^2 (2 pi)^(-d/2) mu_m^(d/2-1) |x^2|^(1/2-d/4)
              K_(d/2-1)(mu_m sqrt(x^2)),

    exponentially convergent in m."""
    if spec.d < 2:
        raise ValueError("the Bessel mode sum requires d >= 2")
    x2 = np.asarray(x2, dtype=float)
    scalar = x2.ndim == 0
    x2 = np.atleast_1d(x2)
    if np.any(x2 <= 0):
        raise ValueError("spacelike separation x^2 > 0 required")
    table = _strip_table(spec, table)
    mu_m = table.omegas()[: spec.M + 1]
    if np.any(mu_m == 0.0):
        raise ZeroModeError("massless zero mode not allowed in the Bessel sum")
    d2 = table.d_bdys[: spec.M + 1] ** 2
    nu = spec.d / 2.0 - 1.0
    r = np.sqrt(x2)
    terms = (d2 * (2 * np.pi) ** (-spec.d / 2.0) * mu_m**nu)[:, None] \
        * (r ** (1.0 - spec.d / 2.0))[None, :] * kv(nu, np.outer(mu_m, r))
    val = np.sum(terms, axis=0)
    last = float(np.max(np.abs(terms[-1])))
    value = float(val[0]) if scalar else val
    return BesselSumResult(value=value, tail_bound=2.0 * last, M=spec.M, last_term=last)


def halfspace_weight(q, c: float) -> np.ndarray:
    """Spectral weight 2 / (pi (c^2 q^2 + 1)) of the half-space boundary field."""
    q = np.asarray(q, dtype=float)
    return 2.0 / (np.pi * (c**2 * q**2 + 1.0))


def halfspace_weight_normalization(c: float) -> float:
    """Quadrature of the weight over q in [0, inf); analytically 1/c."""
    val, _ = quad(lambda q: halfspace_weight(q, c), 0.0, np.inf)
    return val


def boundary_2pt_halfspace(x0, x, spec: TwoPointSpec) -> TwoPointResult:
    """Adaptive quadrature of the half-space boundary two-point function
    (d = 1 kernel) with a quoted quadrature error and q_max tail bound."""
    p = spec.params
    if p.mu <= 0:
        raise ValueError("mu > 0 required for the half-space two-point function")
    if spec.d != 1:
        raise ValueError("only the d = 1 kernel is implemented for the half-space")
    x0 = float(np.asarray(x0))

    def integrand_re(q):
        w = np.sqrt(p.mu**2 + q**2)
        return halfspace_weight(q, p.c) * np.cos(w * x0) / (2.0 * w)

    def integrand_im(q):
        w = np.sqrt(p.mu**2 + q**2)
        return -halfspace_weight(q, p.c) * np.sin(w * x0) / (2.0 * w)

    re, err_re = quad(integrand_re, 0.0, spec.q_max, limit=400)
    im, err_im = quad(integrand_im, 0.0, spec.q_max, limit=400)
    tail = 1.0 / (np.pi * p.c**2 * p.mu * spec.q_max)
    return TwoPointResult(value=re + 1j * im, tail_bound=tail, M=0,
                          quad_error=err_re + err_im)


def pauli_jordan_d2(x0, x, mass) -> np.ndarray:
    """Massive Pauli-Jordan (commutator) function in d = 2:

        -(i/2) sgn(x0) theta(x0^2 - x^2) J0(mass sqrt(x0^2 - x^2)),

    identically zero at spacelike separation; ``mass`` broadcasts against x0, x."""
    x0 = np.asarray(x0, dtype=float)
    x = np.asarray(x, dtype=float)
    tau2 = x0**2 - x**2
    inside = tau2 > 0
    tau = np.sqrt(np.where(inside, tau2, 0.0))
    return np.where(inside, -0.5j * np.sign(x0) * j0(mass * tau), 0.0)


def commutator_boundary(x0, x, spec: TwoPointSpec, table: ModeTable | None = None):
    """Boundary-field commutator function 2i Im Delta_+ as a mode sum of
    massive Pauli-Jordan functions (d = 2), broadcast over (modes x points)."""
    if spec.d != 2:
        raise ValueError("the closed-form commutator is implemented for d = 2 only")
    table = _strip_table(spec, table)
    mu_m = table.omegas()[: spec.M + 1]
    d2 = table.d_bdys[: spec.M + 1] ** 2
    ndim = np.broadcast(np.asarray(x0), np.asarray(x)).ndim
    out = np.tensordot(d2, pauli_jordan_d2(x0, x, mu_m.reshape((-1,) + (1,) * ndim)),
                       axes=(0, 0))
    return out if out.shape else complex(out)


def causality_check(points, spec: TwoPointSpec, tol: float = 1e-10,
                    table: ModeTable | None = None) -> bool:
    """True if the commutator vanishes (below tol) at every given
    (x0, x) point; points must be spacelike for a pass."""
    x0, x = np.asarray(points, dtype=float).T
    return bool(np.max(np.abs(commutator_boundary(x0, x, spec, table=table))) < tol)


@dataclass
class TailReport:
    """Square-summability diagnostics of the boundary couplings."""

    M: int
    M_top: int
    partial_sum: float            # sum_{m <= M} of the weights
    observed_window: float        # sum_{M < m <= M_top}
    analytic_window: float        # asymptotic law over the same window
    ratio: float
    tail_bound: float             # full asymptotic tail beyond M
    window_sums: tuple[float, float]  # sums over (M, 2M] and (2M, 4M]

    @property
    def passed(self) -> bool:
        return 0.8 <= self.ratio <= 1.2

    @property
    def is_summable(self) -> bool:
        w1, w2 = self.window_sums
        return w2 < w1


def tail_convergence(table: ModeTable, M: int, weights: np.ndarray | None = None
                     ) -> TailReport:
    """Compare the observed tail of sum d_m^2 beyond M with the analytic
    asymptotic tail (2/(c pi))^2 S sum_{m > M} (m-1)^(-2).

    ``weights`` overrides d_m^2 (e.g. constant Neumann-style weights, whose
    windows grow instead of shrinking and are flagged non-summable)."""
    p = table.params
    if not isinstance(p.geometry, Strip):
        raise ValueError("tail diagnostics apply to the strip spectrum")
    S = p.geometry.S
    M_top = len(table) - 1
    if M_top < 2 * M:
        raise ValueError(f"table must extend well beyond M={M}, has M_top={M_top}")
    w = table.d_bdys**2 if weights is None else np.asarray(weights, dtype=float)
    partial = float(np.sum(w[: M + 1]))
    observed = float(np.sum(w[M + 1: M_top + 1]))
    amp = (2.0 / (p.c * np.pi)) ** 2 * S
    analytic = amp * float(zeta(2, M) - zeta(2, M_top))
    tail_bound = amp * float(zeta(2, M))
    w1 = float(np.sum(w[M + 1: min(2 * M, M_top) + 1]))
    w2 = float(np.sum(w[2 * M + 1: min(4 * M, M_top) + 1]))
    return TailReport(M=M, M_top=M_top, partial_sum=partial, observed_window=observed,
                      analytic_window=analytic, ratio=observed / analytic,
                      tail_bound=tail_bound, window_sums=(w1, w2))


# ---------------------------------------------------------------------------
# smeared mode coefficients (d = 1)

def fourier_trapezoid(values, x, k) -> np.ndarray:
    """(2 pi)^(-1/2) int dx values(x) e^(i k x) by the trapezoid rule along axis 0
    over the grid ``x``, which may be non-uniform.  ``values`` is (n_x, n_k),
    column j paired with k_j, or (n_x, 1), one function against every k."""
    return np.trapezoid(values * np.exp(1j * np.outer(x, k)), x, axis=0) / _SQRT2PI


@dataclass
class SmearedCoefficients:
    """Frequency components fhat^+/-_m of a smeared space-time test pair."""

    f_plus: np.ndarray
    f_minus: np.ndarray

    def __len__(self):
        return len(self.f_plus)

    @property
    def energy(self) -> np.ndarray:
        return np.abs(self.f_plus) ** 2 + np.abs(self.f_minus) ** 2


def _check_time_support(values: np.ndarray, what: str):
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return
    edge = max(float(np.max(np.abs(values[0]))), float(np.max(np.abs(values[-1]))))
    if edge > 1e-10 * peak:
        raise ValueError(f"time grid does not cover the support of {what}")


def smeared_coeffs(f_bulk: np.ndarray | None, f_bdy: np.ndarray | None,
                   table: ModeTable, time_grid: np.ndarray, grid=None
                   ) -> SmearedCoefficients:
    """fhat^+-_m = (2 pi)^(-1/2) int dt <Phi_m, (f(t), f|(t))> e^(+-i w_m t).

    ``f_bulk`` is (n_t, n_nodes) on ``grid``; ``f_bdy`` is (n_t, 2) with the
    component at -S first.  The time integral is a trapezoid over the support.
    """
    p = table.params
    time_grid = np.asarray(time_grid, dtype=float)
    n_t = time_grid.shape[0]
    A = np.zeros((n_t, len(table)), dtype=complex)
    if f_bulk is not None:
        f_bulk = np.asarray(f_bulk)
        if grid is None:
            raise ValueError("bulk smearing requires the spatial grid")
        if f_bulk.shape != (n_t, grid.n_nodes):
            raise ValueError(f"bulk samples have shape {f_bulk.shape}, "
                             f"expected ({n_t}, {grid.n_nodes})")
        _check_time_support(f_bulk, "the bulk test function")
        V = mode_matrix(table, grid)
        A += (f_bulk * grid.quad_weights()) @ V
    if f_bdy is not None:
        f_bdy = np.asarray(f_bdy)
        if f_bdy.shape != (n_t, 2):
            raise ValueError(f"boundary samples have shape {f_bdy.shape}, "
                             f"expected ({n_t}, 2)")
        _check_time_support(f_bdy, "the boundary test function")
        A += p.c * (f_bdy @ table.boundary_values().T)
    omegas = table.omegas()
    return SmearedCoefficients(f_plus=fourier_trapezoid(A, time_grid, omegas),
                               f_minus=fourier_trapezoid(A, time_grid, -omegas))


def boundary_smearing(g: np.ndarray, table: ModeTable, side: str = "plus") -> np.ndarray:
    """(n_t, 2) boundary pair representing the smearing of phi|_side with g,
    i.e. (0, c^-1 g) concentrated on one component."""
    g = np.asarray(g, dtype=float)
    out = np.zeros((g.shape[0], 2))
    col = 1 if side == "plus" else 0
    out[:, col] = g / table.params.c
    return out


def source_relation_check(g: np.ndarray, table: ModeTable, time_grid: np.ndarray,
                          side: str = "plus", weights: np.ndarray | None = None
                          ) -> float:
    """Mode-coefficient residual of the boundary source relation: for each m,

        (mu^2 - w_m^2) * (boundary value of mode m) * ghat^+-_m
            = c^-1 * (inward normal derivative of mode m) * ghat^+-_m,

    which is the boundary wave equation with the bulk normal derivative as
    source.  Returns the max residual normalized by the largest term;
    ``weights`` overrides the mode boundary values (negative control)."""
    p = table.params
    S = p.geometry.S
    g = np.asarray(g, dtype=float)
    omegas = table.omegas()
    ghat_p = fourier_trapezoid(g[:, None], time_grid, omegas)
    ghat_m = fourier_trapezoid(g[:, None], time_grid, -omegas)
    col = 1 if side == "plus" else 0
    bvals = table.boundary_values()[:, col] if weights is None else np.asarray(weights)
    z_b = S if side == "plus" else -S
    sign_perp = -1.0 if side == "plus" else 1.0
    dperp = np.array([sign_perp * eval_mode_deriv(e, z_b, p) for e in table.entries])
    resid = 0.0
    scale = 0.0
    for ghat in (ghat_p, ghat_m):
        lhs = (p.mu**2 - omegas**2) * bvals * ghat
        rhs = (1.0 / p.c) * dperp * ghat
        resid = max(resid, float(np.max(np.abs(lhs - rhs))))
        scale = max(scale, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    if scale == 0.0:
        return 0.0
    return resid / scale
