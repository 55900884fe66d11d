"""Boundary two-point functions, commutator/causality data, convergence
diagnostics, and smeared mode coefficients.

The boundary field is a generalized free field: its two-point function is a
positive superposition of massive free-field two-point functions, with masses
mu_m = sqrt(q_m^2 + mu^2) and weights d_m^2 (strip) or the continuous weight
2 / (pi (c^2 q^2 + 1)) (half-space).  In d = 1 it depends only on the times
x0, the spectrum and a cutoff: ``boundary_2pt_strip`` sums the modes
0 .. M of a mode table, whose parameters it reads, and
``boundary_2pt_halfspace`` integrates the weight up to q_max.  The d >= 2
sums take a ``TwoPointSpec``, whose table must match it.

At spacelike separation r (d >= 2) the strip sum is sum_m d_m^2 (2 pi)^(-d/2)
mu_m^nu r^(1-d/2) K_nu(mu_m r), nu = d/2 - 1, whose terms fall like
e^(-mu_m r).  Each r sums only the modes with mu_m < mu_0 + 45 / r, in
ascending m; the terms are positive, and a bound on every dropped term from
the monotone z^nu K_nu(z) (DLMF 10.29.4) certifies that each would round away
against the partial sum.  The values are therefore bitwise those of the sum
over all M + 1 modes, which is taken instead wherever the bound fails.
K_nu is ``_bessel_k``, in numpy and within 4 eps of 40 digits: a closed form
at odd d, and at even d a power series or a fixed trapezoid rule for K_0 and
K_1 with the upward recurrence in nu.  The d = 2 commutator's J_0 terms do
not decay, so it sums every mode; only its timelike points load
scipy.special.

The half-space integrals over q are one composite Gauss-Legendre rule in
numpy, on given panel edges: the two-point function after the substitution
q = mu sinh s, on panels graded toward the weight's pole near s = 0 and
capped in phase, evaluated for all times as products of cos and sin of one
real phase matrix with a two-resolution error estimate, and the weight
normalization after q = sinh(s) / c on unit panels.  No adaptive quadrature
is used.

Every time-Fourier integral is ``fourier_trapezoid``: trapezoid weights of the
(possibly non-uniform) time grid against cos(t k) and sin(t k) of one phase
matrix, in real arithmetic; complex values are split into their real and
imaginary parts.  The smeared coefficients sum only over the support span of
the test function: the contiguous time rows holding every non-zero sample,
padded by one zero row on each side where the grid has one, over which the
trapezoid sum equals the full-grid sum up to summation order.  The samples
are taken and projected on the modes in blocks of time rows of at most 2^18
entries, each block keeping its row peaks, from which the span and the check
that the grid covers the support (the end rows are at most 1e-10 of the
peak) are read, and its row sums of |samples|, which bound the rounding of
the coefficients; a bulk test function given as a callable is never sampled on
the whole space-time grid.  The mode projection of real test functions is a
real (n_t, M+1) array, and for real input fhat^-_m = conj(fhat^+_m) exactly,
so only fhat^+ is transformed and stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Strip, ZeroModeError, _check_halfspace
from .modes import ModeTable, eval_mode_deriv, mode_matrix

_SQRT2PI = np.sqrt(2.0 * np.pi)
_FLOOR_ULPS = 32.0  # rounding floor of smeared coefficients, in eps of their size bound


@dataclass
class TwoPointSpec:
    """The parameters, cutoff and dimension of a d >= 2 strip sum
    (``spacelike_2pt_bessel``, ``commutator_boundary``)."""

    params: object  # PhysicalParams
    M: int = 100        # mode cutoff
    d: int | None = None  # boundary spacetime dimension, defaults to params.d

    def __post_init__(self):
        if self.d is None:
            self.d = self.params.d
        if self.M < 1:
            raise ValueError(f"mode cutoff must be >= 1, got M={self.M}")
        if self.params.mu <= 0 and self.d <= 2:
            raise ValueError("mu > 0 is required for d <= 2 (infrared condition)")


@dataclass
class TwoPointResult:
    """Two-point values and an estimate of what the cutoff leaves out: a
    proved bound on the mode tail beyond M (``boundary_2pt_strip``; see
    ``strip_tail_bound``), the heuristic twice the largest term of mode M
    (``spacelike_2pt_bessel``, d >= 2; it bounds neither the modes beyond M
    nor the terms m <= M the sum skips, which change no bit) or a bound on the
    tail beyond q_max (``boundary_2pt_halfspace``)."""

    value: complex | float | np.ndarray
    tail_bound: float
    quad_error: float | None = None
    panels: int | None = None  # half-space quadrature panels


def _check_strip_table(spec: TwoPointSpec, table: ModeTable):
    """Raise ValueError unless the table was built for the spec's geometry, c
    and mu and reaches M (its d may differ: the mode spectrum does not depend
    on it)."""
    want, have = spec.params, table.params
    if (have.geometry, have.c, have.mu) != (want.geometry, want.c, want.mu):
        raise ValueError(f"table was built for {have.geometry}, c={have.c}, mu={have.mu}; "
                         f"spec needs {want.geometry}, c={want.c}, mu={want.mu}")
    if len(table) < spec.M + 1:
        raise ValueError(f"table has {len(table)} modes, spec needs {spec.M + 1}")


# B_2, B_4, ..., B_14: the Euler-Maclaurin corrections of _hurwitz_zeta
_BERNOULLI_EVEN = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
_ZETA_DIRECT_TERMS = 9


def _hurwitz_zeta(s: int, q: float) -> float:
    """Hurwitz zeta sum_{k >= 0} (q + k)^-s for s in {2, 3} and q >= 1.

    Nine terms are summed directly; the rest is the Euler-Maclaurin remainder
    at a = q + 9,

        a^(1-s) / (s-1) + a^-s / 2
            + sum_{j=1..7} B_2j / (2j)! s (s+1) ... (s+2j-2) a^(-s-2j+1),

    whose first omitted term is below 1e-16 of the sum; the corrections are
    added smallest first.  Over every integer q up to 2000 and q up to 10^6
    it is within 3.4e-16 relative of mpmath's 40-digit value and within
    6.4e-16 of ``scipy.special.zeta``."""
    q = float(q)
    a = q + _ZETA_DIRECT_TERMS
    term = s / (2.0 * a ** (s + 1))  # s a^(-s-1) / 2!, the j = 1 factor
    corr = []
    for j, b in enumerate(_BERNOULLI_EVEN, start=1):
        corr.append(b * term)
        term *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2) * a * a)
    tail = sum(reversed(corr)) + 0.5 * a ** -s + a ** (1 - s) / (s - 1)
    return sum((q + k) ** -s for k in reversed(range(_ZETA_DIRECT_TERMS))) + tail


def strip_tail_bound(M: int, S: float, c: float) -> float:
    """Bound on the d = 1 tail sum_{m > M} d_m^2 / (2 mu_m), M >= 1:
    4 S^2 / (c^2 pi^3) zeta(3, M) with the numpy ``_hurwitz_zeta``.

    Proof.  For m > M >= 1 let theta = delta_m S = arctan(1 / (c q_m)), so
    that cos theta = c q_m sin theta and sin(2 theta) / (2 q_m) = c sin^2 theta.
    1. ``modes._normalize``'s norm is c_m^2 = S / (S - sin(2 theta) / (2 q_m)
       + 2 c sin^2 theta) = S / (S + c sin^2 theta) < 1.
    2. |d_m| = c_m S^(-1/2) sin theta < S^(-1/2) tan theta = S^(-1/2) / (c q_m)
       < 2 sqrt(S) / (c pi (m-1)), since q_m S = pi (m-1) / 2 + theta with
       theta > 0.
    3. mu_m = sqrt(q_m^2 + mu^2) >= q_m > pi (m-1) / (2 S).
    Each term is therefore below 4 S^2 / (c^2 pi^3 (m-1)^3), and their sum
    over m > M is 4 S^2 / (c^2 pi^3) zeta(3, M).  The bound holds in exact
    arithmetic; the computed value carries ``_hurwitz_zeta``'s 3.4e-16
    relative error.  It is taken from the ratio S / c, whose square
    underflows to a bound of 0 (a tail below the smallest double) and never
    raises; ValueError, naming S and c, where it overflows to inf."""
    r = S / c
    bound = 4.0 * (r * r) / np.pi**3 * _hurwitz_zeta(3, M)
    if not math.isfinite(bound):
        raise ValueError(f"the tail bound 4 (S/c)^2 zeta(3, M) / pi^3 overflows a double "
                         f"at S = {S:g}, c = {c:g}: S is too large against c")
    return bound


def _finite_x0(x0) -> np.ndarray:
    """x0 as a float array; ValueError unless every entry is finite."""
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    return x0


def boundary_2pt_strip(x0, table: ModeTable, M: int) -> TwoPointResult:
    """The d = 1 boundary two-point function on the strip, summed over the
    modes m = 0 .. M of ``table``:

        sum_{m <= M} d_m^2 exp(-i mu_m x0) / (2 mu_m),

    at every ``x0`` of an array (a scalar gives a complex value), with S, c
    and mu read from ``table.params``.  ``tail_bound`` is
    ``strip_tail_bound(M, S, c)``.  ValueError unless 1 <= M <= len(table) - 1
    and every x0 is finite; ZeroModeError (a ValueError) at mu = 0, where
    mu_0 = 0.  The sum takes the modes in blocks of max(1, 2^18 // len(x0)),
    so its memory stays bounded at any cutoff.
    """
    if not 1 <= M <= len(table) - 1:
        raise ValueError(f"mode cutoff must be in 1 .. {len(table) - 1}, got M={M}")
    x0 = _finite_x0(x0)
    mu_m = table.omegas()[: M + 1]
    d2 = table.d_bdys[: M + 1] ** 2
    if np.any(mu_m == 0.0):
        raise ZeroModeError("mu > 0 is required: at mu = 0 the zero mode is massless "
                            "and its term d_0^2 / (2 mu_0) diverges")
    # real cos and sin matrices, one block of modes at a time; the first
    # block's sums start the totals, so a one-block sum keeps its bytes
    w = d2 / (2.0 * mu_m)
    rows = max(1, _BLOCK_ENTRIES // max(x0.size, 1))
    re = im = None
    for i in range(0, w.size, rows):
        phase = np.multiply.outer(mu_m[i:i + rows], x0)
        cos = np.tensordot(w[i:i + rows], np.cos(phase), axes=(0, 0))
        sin = np.tensordot(w[i:i + rows], np.sin(phase), axes=(0, 0))
        re, im = (cos, sin) if re is None else (re + cos, im + sin)
    val = re - 1j * im
    val = val if val.shape else complex(val)
    p = table.params
    return TwoPointResult(value=val, tail_bound=strip_tail_bound(M, p.geometry.S, p.c))


# At separation r the Bessel sum keeps the modes with mu_m < mu_0 + Z / r; each
# dropped term is about e^-Z of the first or less.  _bessel_prefix_sums
# certifies every cut and widens it to all modes where the bound fails.
_BESSEL_CUT_Z = 45.0


def _bessel_k(nu: float, x: np.ndarray) -> np.ndarray:
    """K_nu(x) elementwise for x > 0 and nu = d/2 - 1 with d >= 2 an integer:
    within 4 eps relative of 40 digits wherever K_nu(x) is a normal double
    (nu up to 6, x in [1e-300, 700]), inf where it overflows, 0 where it
    underflows.

    - Half-integer nu = n + 1/2: the closed form sqrt(pi / 2x) e^-x
      sum_{k <= n} (n+k)! / (k! (n-k)!) (2x)^-k (DLMF 10.49.12).
    - K_0 and K_1 for x <= 1.25: the power series (DLMF 10.31.1), 12 terms.
    - K_0 and K_1 above: K_nu(x) = int_0^inf e^(-x cosh t) cosh(nu t) dt
      (DLMF 10.32.9) with u = sqrt(2x) sinh(t/2), that is e^-x sqrt(2/x)
      int_0^inf e^(-u^2) T_nu(1 + u^2/x) / sqrt(1 + u^2/2x) du, by the
      trapezoid rule of step 1/4 on u < 6.5, smallest terms first.
    - Integer nu >= 2: K_(n+1) = K_(n-1) + (2n/x) K_n upward (DLMF 10.29.1).

    The path of an element is chosen from its own x alone, and the rules loop
    over their terms and nodes elementwise, so an element has the same bits
    alone as in any array and the memory is O(x.size)."""
    x = np.asarray(x, dtype=float)
    n = int(nu)
    f = math.factorial
    with np.errstate(over="ignore"):  # inf where K_nu(x) overflows
        if nu != n:
            y = 0.5 / x
            poly = np.full(x.shape, float(f(2 * n) // f(n)))  # Horner from k = n
            for k in range(n - 1, -1, -1):
                poly = poly * y + f(n + k) // (f(k) * f(n - k))
            return math.sqrt(0.5 * math.pi) / np.sqrt(x) * np.exp(-x) * poly
        k0, k1 = np.empty(x.shape), np.empty(x.shape)
        small = x <= 1.25
        z = x[small]
        t = 0.25 * z * z
        log = np.log(z) + (np.euler_gamma - math.log(2.0))  # gamma + log(z/2)
        p0, p1 = np.ones(z.shape), np.ones(z.shape)
        s0, s1 = -log, log - 0.5
        h = 0.0  # the harmonic number H_k
        for k in range(1, 12):
            h += 1.0 / k
            p0 = p0 * t / (k * k)          # (z^2/4)^k / k!^2
            p1 = p1 * t / (k * (k + 1))    # (z^2/4)^k / (k! (k+1)!)
            s0 = s0 + (h - log) * p0
            s1 = s1 + (log - (h + 0.5 / (k + 1))) * p1
        k0[small] = s0
        k1[small] = 1.0 / z + 0.5 * z * s1
        z = x[~small]
        half = 0.5 / z
        a0, a1 = np.zeros(z.shape), np.zeros(z.shape)
        for j in range(25, -1, -1):
            u2 = (0.25 * j) ** 2
            g = (0.25 if j else 0.125) * math.exp(-u2) / np.sqrt(1.0 + u2 * half)
            a0 += g
            if n:  # K_1 is needed from nu = 1 on
                a1 += g * (1.0 + 2.0 * u2 * half)
        scale = np.exp(-z) * np.sqrt(2.0 / z)
        k0[~small] = scale * a0
        k1[~small] = scale * a1
        for m in range(1, n):
            k0, k1 = k1, k0 + (2.0 * m) * k1 / x
    return k1 if n else k0


def _bessel_terms(m, j, d: int, mu_m: np.ndarray, d2: np.ndarray, r: np.ndarray
                  ) -> np.ndarray:
    """Terms d_m^2 (2 pi)^(-d/2) mu_m^nu r_j^(1-d/2) K_nu(mu_m r_j), nu = d/2 - 1,
    at the index pairs (m, j), with the factors multiplied in one fixed order
    so that a term has the same bits whichever pairs are evaluated."""
    nu = d / 2.0 - 1.0
    coef = d2 * (2 * np.pi) ** (-d / 2.0) * mu_m**nu
    return coef[m] * (r ** (1.0 - d / 2.0))[j] * _bessel_k(nu, mu_m[m] * r[j])


def _bessel_dropped_bound(cut: np.ndarray, r: np.ndarray, d: int, mu_m: np.ndarray,
                          d2: np.ndarray) -> np.ndarray:
    """Upper bound, at each r_j, on every term m >= cut_j of the Bessel sum
    (0 where cut_j = M + 1 drops nothing).  z^nu K_nu(z) decreases in z for
    z > 0 (DLMF 10.29.4: its derivative is -z^nu K_(nu-1)(z)), so with
    mu = min(mu_m[cut_j:]) every dropped term is at most

        max(d2[cut_j:]) (2 pi)^(-d/2) mu^nu r_j^(1-d/2) K_nu(mu r_j),

    the term formula at the tail's largest weight and smallest mass: one
    ``_bessel_k`` value per separation."""
    last = mu_m.size - 1
    bound = _bessel_terms(np.minimum(cut, last), np.arange(r.size), d,
                          np.minimum.accumulate(mu_m[::-1])[::-1],
                          np.maximum.accumulate(d2[::-1])[::-1], r)
    return np.where(cut > last, 0.0, bound)


def _bessel_prefix_sums(cut: np.ndarray, r: np.ndarray, d: int, mu_m: np.ndarray,
                        d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of the Bessel terms m < cut_j at each r_j, and the cuts it used.
    The kept (m, j) pairs are built in O(kept) and added per j by
    ``np.bincount`` in ascending m, the order in which ``np.sum(axis=0)`` adds
    the dense (M+1, n_r) grid of two or more columns.

    Certificate: the terms are positive, so the running sum only grows, and a
    term below half of ``np.spacing`` of the running sum rounds away.  Where
    ``_bessel_dropped_bound`` is below a quarter of ``np.spacing`` of the
    partial sum (the factor 2 covers the rounding of the bound and of
    ``_bessel_k``),
    no dropped term changes a bit of the full sum.  Where it is not, that
    separation is summed again over all M + 1 modes."""
    def sums(j, n):
        cols = np.repeat(j, n)
        rows = np.arange(cols.size) - np.repeat(np.cumsum(n) - n, n)
        return np.bincount(cols, _bessel_terms(rows, cols, d, mu_m, d2, r),
                           minlength=r.size)

    val = sums(np.arange(r.size), cut)
    wide = ~(_bessel_dropped_bound(cut, r, d, mu_m, d2) < 0.25 * np.spacing(val))
    if np.any(wide):
        j = np.flatnonzero(wide)
        cut = np.where(wide, mu_m.size, cut)
        val[j] = sums(j, cut[j])[j]
    return val, cut


def spacelike_2pt_bessel(x2, spec: TwoPointSpec, table: ModeTable) -> TwoPointResult:
    """Boundary two-point function at spacelike separation x^2 > 0 for d >= 2:

        sum_{m <= M} d_m^2 (2 pi)^(-d/2) mu_m^(d/2-1) |x^2|^(1/2-d/4)
              K_(d/2-1)(mu_m sqrt(x^2)),

    exponentially convergent in m, with K_nu from ``_bessel_k`` (numpy only).
    The values are bitwise those of the dense (M+1, n_r) grid of terms summed
    by ``np.sum(axis=0)``, but K_nu is evaluated only where a term can change
    a bit.  At each r = sqrt(x^2) the
    sum runs over the modes with mu_m < mu_0 + 45 / r (a prefix: mu_m
    increases with m), in ascending m.  The dropped terms are bounded through
    the monotone z^nu K_nu(z) (DLMF 10.29.4); where the bound is below a
    quarter ulp of the partial sum, every dropped term rounds away and changes
    no bit, and elsewhere every mode is summed (``_bessel_prefix_sums``).  A
    single separation is summed over every mode with ``np.sum``, which adds one
    column pairwise.  ``tail_bound`` is twice the largest term of mode M."""
    if spec.d < 2:
        raise ValueError("the Bessel mode sum requires d >= 2")
    x2 = np.asarray(x2, dtype=float)
    scalar = x2.ndim == 0
    x2 = np.atleast_1d(x2)
    if not np.all(np.isfinite(x2)):
        raise ValueError("x^2 must be finite")
    if np.any(x2 <= 0):
        raise ValueError("spacelike separation x^2 > 0 required")
    _check_strip_table(spec, table)
    M = spec.M
    mu_m = table.omegas()[: M + 1]
    if np.any(mu_m == 0.0):
        raise ZeroModeError("massless zero mode not allowed in the Bessel sum")
    d2 = table.d_bdys[: M + 1] ** 2
    r = np.sqrt(x2).ravel()
    cols = np.arange(r.size)
    if r.size == 1:
        val = np.sum(_bessel_terms(np.arange(M + 1), cols, spec.d, mu_m, d2, r),
                     keepdims=True)
    else:
        cut = np.searchsorted(mu_m, mu_m[0] + _BESSEL_CUT_Z / r)
        val, _ = _bessel_prefix_sums(cut, r, spec.d, mu_m, d2)
    last = _bessel_terms(M, cols, spec.d, mu_m, d2, r)
    value = float(val[0]) if scalar else val.reshape(x2.shape)
    return TwoPointResult(value=value, tail_bound=2.0 * float(np.max(np.abs(last))))


def halfspace_weight(q, c: float) -> np.ndarray:
    """Spectral weight 2 / (pi ((c q)^2 + 1)) of the half-space boundary field.
    The product c q is squared, not c and q apart, so a large c raises no
    OverflowError: (c q)^2 overflows only where the weight is below 4e-309,
    and the weight is 0 there."""
    with np.errstate(over="ignore"):
        cq = c * np.asarray(q, dtype=float)
        return 2.0 / (np.pi * (cq * cq + 1.0))


# Composite Gauss-Legendre rules for the half-space integrals over q in [0, inf).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# unit panels of s in [0, 40]; the sech tail beyond: 4 e^-40 / (pi c) < 2e-17 / c
_NORM_EDGES = np.linspace(0.0, 40.0, 41)
# |c * normalization - 1| bound of the half-space weight check; measured at
# most 2.2e-16 for c from 1e-3 to 1e4
_HALFSPACE_NORM_TOL = 1e-13
_HALFSPACE_RTOL = 1e-10  # two-resolution estimate, relative to W(0)
# Largest phase of e^(-i omega x0), in radians, that one panel of the
# two-point rule spans.  The 16-point rule integrates e^(i k x) over a span of
# 16 rad to rounding and of 24 rad to 1.6e-11 of the span; the rule with
# every panel halved then spans at most 12 rad.
_HALFSPACE_PHASE = 24.0
_HALFSPACE_MAX_PANELS = 2**14
_BLOCK_ENTRIES = 2**18   # matrix entries per block of modes (strip) or x0 rows


def _composite_gauss_legendre(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-point Gauss-Legendre rule on each panel
    [edges[i], edges[i + 1]] of increasing ``edges``."""
    half = 0.5 * np.diff(edges)
    mids = edges[:-1] + half
    return ((mids[:, None] + half[:, None] * _GL_NODES).ravel(),
            (half[:, None] * _GL_WEIGHTS).ravel())


def halfspace_weight_normalization(c: float) -> float:
    """Quadrature of the weight over q in [0, inf); analytically 1/c.

    With q = sinh(s) / c the integrand becomes (2 / (pi c)) sech s, which the
    composite Gauss-Legendre rule integrates over s in [0, 40].  q itself is
    never formed: it overflows for c below about 6e-292.  ValueError when
    1 / c overflows."""
    s, ws = _composite_gauss_legendre(_NORM_EDGES)
    norm = float(np.sum(ws * (2.0 / np.pi) / np.cosh(s))) / c
    if not np.isfinite(norm):
        raise ValueError(f"the half-space weight normalization 1/c overflows at "
                         f"c={c:g}; c must be at least 1 / {np.finfo(float).max:.3g}")
    return norm


def _halfspace_edges(mu: float, c: float, q_max: float, x0_max: float) -> np.ndarray:
    """Panel edges in s of the two-point rule on [0, asinh(q_max / mu)].

    The union of three layouts, so that every panel keeps all three limits:
    - widths doubling from the distance asin(min(1, 1 / (c mu))) of the
      weight's nearest pole, s = i asin(1 / (c mu)) when c mu > 1, to the
      real axis, up to s = 1: each panel near s = 0 is as far from the pole
      as it is wide;
    - widths of at most 1;
    - equal steps of at most 24 / x0_max in q = mu sinh s.  Since
      d omega / dq = q / omega < 1, each panel spans a phase
      mu (cosh b - cosh a) x0_max of at most 24 rad.  Equal steps of the
      phase itself would leave the panels near s = 0, where the phase is
      quadratic in s, with twice the mean rate at their right ends.
    Raises RuntimeError when the rule with every panel halved would need more
    than 2^14 panels, before the phase layout is built."""
    panels = x0_max * q_max / _HALFSPACE_PHASE  # of the phase layout alone
    if panels <= _HALFSPACE_MAX_PANELS / 2:
        s_max = math.asinh(q_max / mu)
        pole = math.asin(min(1.0, 1.0 / (c * mu)))
        graded = pole * 2.0 ** np.arange(math.ceil(-math.log2(pole)))
        n = math.ceil(panels)
        steps = np.arcsinh(q_max / mu * np.arange(1, n) / n)
        edges = np.unique(np.concatenate(
            ([0.0, s_max], graded[graded < s_max], np.arange(1.0, s_max), steps)))
        panels = edges.size - 1
        if 2 * panels <= _HALFSPACE_MAX_PANELS:
            return edges
    raise RuntimeError(
        f"half-space quadrature did not converge: the layout's {panels:.4g} panels of "
        f"at most {_HALFSPACE_PHASE:g} rad, halved, would exceed {_HALFSPACE_MAX_PANELS} "
        f"(max|x0| = {x0_max:g}, q_max = {q_max:g})")


def _halfspace_sum(x0: np.ndarray, mu: float, c: float, edges: np.ndarray
                   ) -> tuple[np.ndarray, float]:
    """int ds w(mu sinh s) e^(-i mu cosh(s) x0) / 2 over the panels ``edges``
    at every x0 by the composite rule, and the same integral at x0 = 0, which
    bounds |W(x0)|."""
    s, ws = _composite_gauss_legendre(edges)
    amp = ws * halfspace_weight(mu * np.sinh(s), c) / 2.0
    omega = mu * np.cosh(s)
    out = np.empty(x0.size, dtype=complex)
    rows = max(1, _BLOCK_ENTRIES // s.size)
    for i in range(0, x0.size, rows):
        phase = np.outer(x0[i:i + rows], omega)
        out.real[i:i + rows] = np.cos(phase) @ amp
        out.imag[i:i + rows] = -(np.sin(phase) @ amp)
    return out, float(np.sum(amp))


def boundary_2pt_halfspace(x0, p, q_max: float) -> TwoPointResult:
    """Half-space boundary two-point function (d = 1 kernel)

        W(x0) = int_0^q_max dq w(q) e^(-i omega x0) / (2 omega),
        omega = sqrt(mu^2 + q^2),

    at every ``x0`` of an array (a scalar gives a complex value), for
    half-space parameters ``p`` with mu > 0 and a finite q_max > 0.  With
    q = mu sinh s the integrand is w(mu sinh s) e^(-i mu cosh(s) x0) / 2, with
    no edge singularity, and a composite 16-point Gauss-Legendre rule in s is
    applied to all x0 at once.  Its panels are graded toward s = 0 from the
    distance of the weight's pole to the real axis, at most 1 wide, and span
    at most 24 radians of phase at max|x0| (``_halfspace_edges``).  The rule
    and the rule with every panel halved must agree to 1e-10 of
    W(0) >= |W(x0)|; on a miss the panels are halved again and the finer sum
    becomes the next coarse one.  The finer rule is returned with their
    largest difference as ``quad_error``.  ``tail_bound`` is
    arctan(1 / (c q_max)) / (pi c mu), the integral of w(q) / (2 mu) over
    q > q_max, which bounds the dropped part since omega >= mu.  Raises
    RuntimeError when 2^14 panels do not meet that tolerance, checked first
    against the panels the layout needs, ValueError when the tail bound
    overflows (c mu below about 1e-308), and GeometryError unless ``p`` is a
    half-space."""
    _check_halfspace(p, "the half-space two-point function")
    if p.mu <= 0:
        raise ValueError("mu > 0 required for the half-space two-point function")
    if not (np.isfinite(q_max) and q_max > 0):
        raise ValueError(f"q_max must be positive and finite, got {q_max}")
    x0 = _finite_x0(x0)
    # int_q_max^inf w(q) / (2 mu) dq, a bound since omega >= mu
    with np.errstate(over="ignore", divide="ignore"):
        tail = float(np.arctan2(1.0, p.c * q_max) / (np.pi * p.c * p.mu))
    if not np.isfinite(tail):
        raise ValueError(f"the half-space tail bound arctan(1 / (c q_max)) / (pi c mu) "
                         f"overflows at c mu = {p.c * p.mu:.3g}; raise --c or --mu")
    flat = x0.ravel()
    x0_max = float(np.max(np.abs(flat), initial=0.0))
    edges = _halfspace_edges(p.mu, p.c, float(q_max), x0_max)
    fine, _ = _halfspace_sum(flat, p.mu, p.c, edges)
    while True:
        coarse = fine
        edges = np.insert(edges, range(1, edges.size), 0.5 * (edges[:-1] + edges[1:]))
        fine, scale = _halfspace_sum(flat, p.mu, p.c, edges)
        err = float(np.max(np.abs(fine - coarse), initial=0.0))
        panels = edges.size - 1
        if err <= _HALFSPACE_RTOL * scale or 2 * panels > _HALFSPACE_MAX_PANELS:
            break
    if not err <= _HALFSPACE_RTOL * scale:
        raise RuntimeError(
            f"half-space quadrature did not converge: two-resolution error estimate "
            f"{err:.3e} > {_HALFSPACE_RTOL:g} * W(0) = {_HALFSPACE_RTOL * scale:.3e} "
            f"at {panels} panels (max|x0| = {x0_max:g}, q_max = {q_max:g})")
    val = fine.reshape(x0.shape)
    return TwoPointResult(value=val if val.shape else complex(val), tail_bound=tail,
                          quad_error=err, panels=panels)


def pauli_jordan_d2(x0, x, mass) -> np.ndarray:
    """Massive Pauli-Jordan (commutator) function in d = 2:

        -(i/2) sgn(x0) theta(x0^2 - x^2) J0(mass sqrt(x0^2 - x^2)),

    ``mass`` broadcasts against x0, x.  J0 is evaluated, and scipy.special
    imported, only at the timelike entries (x0^2 > x^2); every other entry is
    an exact 0, so a call at spacelike points alone loads no scipy module."""
    x0 = np.asarray(x0, dtype=float)
    x = np.asarray(x, dtype=float)
    x0, tau2, mass = np.broadcast_arrays(x0, x0**2 - x**2, np.asarray(mass, dtype=float))
    out = np.zeros(tau2.shape, dtype=complex)
    inside = tau2 > 0
    if inside.any():
        from scipy.special import j0  # loaded on first use: scipy is slow to import

        out[inside] = -0.5j * np.sign(x0[inside]) * j0(mass[inside] * np.sqrt(tau2[inside]))
    return out


def commutator_boundary(x0, x, spec: TwoPointSpec, table: ModeTable):
    """Boundary-field commutator function 2i Im Delta_+ as a mode sum of
    massive Pauli-Jordan functions (d = 2), broadcast over (modes x points).
    Every mode up to M is summed: the J_0(mu_m tau) terms oscillate and decay
    only like (mu_m tau)^(-1/2), so no cutoff in m like the Bessel sum's
    applies.  At spacelike points each term is an exact 0 from
    ``pauli_jordan_d2``, so the sum there is 0 exactly and no J_0 is
    evaluated."""
    if spec.d != 2:
        raise ValueError("the closed-form commutator is implemented for d = 2 only")
    _check_strip_table(spec, table)
    mu_m = table.omegas()[: spec.M + 1]
    d2 = table.d_bdys[: spec.M + 1] ** 2
    ndim = np.broadcast(np.asarray(x0), np.asarray(x)).ndim
    out = np.tensordot(d2, pauli_jordan_d2(x0, x, mu_m.reshape((-1,) + (1,) * ndim)),
                       axes=(0, 0))
    return out if out.shape else complex(out)


def causality_check(points, spec: TwoPointSpec, table: ModeTable,
                    tol: float = 1e-10) -> bool:
    """True if the commutator vanishes (below tol) at every given
    (x0, x) point; points must be spacelike for a pass."""
    x0, x = np.asarray(points, dtype=float).T
    return bool(np.max(np.abs(commutator_boundary(x0, x, spec, table=table))) < tol)


@dataclass
class TailReport:
    """Square-summability diagnostics of the boundary couplings."""

    ratio: float                  # observed over asymptotic sum, M < m <= last mode
    tail_bound: float             # bound on sum_{m > M} of d_m^2

    @property
    def passed(self) -> bool:
        return 0.8 <= self.ratio <= 1.2


def tail_convergence(table: ModeTable, M: int) -> TailReport:
    """Compare the observed tail of sum d_m^2 beyond M with the analytic
    asymptotic tail (2/(c pi))^2 S sum_{m > M} (m-1)^(-2), summed as Hurwitz
    zeta values zeta(2, .) by ``_hurwitz_zeta`` (3.4e-16 relative).  The law
    diverges at m = 1, so M >= 1 (ValueError otherwise).

    ``tail_bound`` = (2/(c pi))^2 S zeta(2, M) bounds sum_{m > M} d_m^2 in
    exact arithmetic: step 2 of the proof in ``strip_tail_bound`` gives
    d_m^2 < 4 S / (c pi (m-1))^2 for every m > M.  The ratio tests the law
    itself, that d_m^2 approaches this term."""
    p = table.params
    if not isinstance(p.geometry, Strip):
        raise ValueError("tail diagnostics apply to the strip spectrum")
    if M < 1:
        raise ValueError(f"the tail law needs M >= 1, got M={M}")
    S = p.geometry.S
    M_top = len(table) - 1
    if M_top < 2 * M:
        raise ValueError(f"table must extend well beyond M={M}, has M_top={M_top}")
    observed = float(np.sum(table.d_bdys[M + 1: M_top + 1] ** 2))
    amp = (2.0 / (p.c * np.pi)) ** 2 * S
    analytic = amp * (_hurwitz_zeta(2, M) - _hurwitz_zeta(2, M_top))
    tail_bound = amp * _hurwitz_zeta(2, M)
    return TailReport(ratio=observed / analytic, tail_bound=tail_bound)


# ---------------------------------------------------------------------------
# smeared mode coefficients (d = 1)

def fourier_trapezoid(values, x, k) -> np.ndarray:
    """(2 pi)^(-1/2) int dx values(x) e^(i k x) by the trapezoid rule along axis 0
    over the grid ``x``, which may be non-uniform.  ``values`` is (n_x, n_k),
    column j paired with k_j, or (n_x, 1), one function against every k.

    The sum is sum_i w_i v_i cos(x_i k) + i sum_i w_i v_i sin(x_i k) with the
    trapezoid weights w_i = (x_(i+1) - x_(i-1)) / 2 (half steps at the ends),
    cos and sin taken from one phase matrix; a complex ``values`` enters as its
    real and imaginary parts."""
    x = np.asarray(x, dtype=float)
    values = np.asarray(values)
    half = np.diff(x) / 2.0
    w = np.zeros(x.size)
    w[1:] += half
    w[:-1] += half
    phase = np.outer(x, k)
    cos, sin = np.cos(phase), np.sin(phase)
    v = w[:, None] * values.real
    out = np.sum(v * cos, axis=0) + 1j * np.sum(v * sin, axis=0)
    if np.iscomplexobj(values):
        v = w[:, None] * values.imag
        out += -np.sum(v * sin, axis=0) + 1j * np.sum(v * cos, axis=0)
    return out / _SQRT2PI


@dataclass
class SmearedCoefficients:
    """Frequency components fhat^+/-_m of a smeared real space-time test pair:
    only fhat^+ is stored, and fhat^- = conj(fhat^+) is computed on demand.
    ``floor`` is the rounding floor of fhat^+ that ``smeared_coeffs``
    bounds."""

    f_plus: np.ndarray
    floor: float

    def __len__(self):
        return len(self.f_plus)

    @property
    def f_minus(self) -> np.ndarray:
        return np.conj(self.f_plus)

    @property
    def energy(self) -> np.ndarray:
        """|fhat^+_m|^2 + |fhat^-_m|^2 = 2 |fhat^+_m|^2."""
        return 2.0 * np.abs(self.f_plus) ** 2


def _project_rows(rows, n_t: int, matrix: np.ndarray, what: str
                  ) -> tuple[np.ndarray, slice, np.ndarray]:
    """Projection ``samples @ matrix`` of the real samples (n_t, n_cols) that
    ``rows(i, j)`` returns for the rows i .. j - 1, the span of rows a
    trapezoid in time must sum, and for each row the bound
    sum_j |samples_ij| max|matrix| on every sum_j |samples_ij matrix_jk|,
    which sets the rounding of the projection.

    The samples come in the absolute row blocks [i, i + b), b =
    _BLOCK_ENTRIES // n_cols, so at most 2^18 of them exist at once.  Each
    block keeps its per-row peaks and multiplies only its rows from the first
    to the last non-zero one; every other row of the projection stays zero.
    The span is the contiguous run holding every non-zero row, padded by one
    zero row on each side where the grid has one, so that the sum over the
    span equals the sum over the grid; all-zero samples give the empty span
    slice(n_t, 0).  Raises ValueError for complex samples, for a block of the
    wrong shape, and when the first or last row exceeds 1e-10 of the peak:
    the grid then does not cover the support."""
    n_cols = matrix.shape[0]
    step = max(1, _BLOCK_ENTRIES // n_cols)
    peaks, sizes = np.zeros(n_t), np.zeros(n_t)
    out = np.zeros((n_t, matrix.shape[1]))
    for i in range(0, n_t, step):
        j = min(i + step, n_t)
        block = np.asarray(rows(i, j))
        if np.iscomplexobj(block):
            raise ValueError(f"{what} must be real")
        if block.shape != (j - i, n_cols):
            raise ValueError(f"{what} gave samples of shape {block.shape} for "
                             f"{j - i} times, expected ({j - i}, {n_cols})")
        peaks[i:j] = np.maximum(block.max(axis=1), -block.min(axis=1))
        nonzero = np.flatnonzero(peaks[i:j])
        if nonzero.size:
            a, b = nonzero[0], nonzero[-1] + 1
            out[i + a:i + b] = block[a:b] @ matrix
            sizes[i + a:i + b] = np.abs(block[a:b]).sum(axis=1)
        # freed before the next block is made, so that the allocator reuses
        # its memory: two live blocks grow the heap past glibc's trim
        # threshold and each block then faults in fresh pages
        del block
    sizes *= np.max(np.abs(matrix), initial=0.0)
    nonzero = np.flatnonzero(peaks)
    if nonzero.size == 0:
        return out, slice(n_t, 0), sizes
    if max(peaks[0], peaks[-1]) > 1e-10 * peaks.max():
        raise ValueError(f"time grid does not cover the support of {what}")
    return out, slice(max(nonzero[0] - 1, 0), min(nonzero[-1] + 2, n_t)), sizes


def smeared_coeffs(f_bulk, f_bdy: np.ndarray | None, table: ModeTable,
                   time_grid: np.ndarray, grid=None) -> SmearedCoefficients:
    """fhat^+-_m = (2 pi)^(-1/2) int dt <Phi_m, (f(t), f|(t))> e^(+-i w_m t).

    ``f_bulk`` is (n_t, n_nodes) samples on ``grid``, or a vectorized
    callable f(t, z) that is sampled there one block of time rows at a time;
    ``f_bdy`` is (n_t, 2) with the component at -S first.  Both are real
    (ValueError otherwise) and must vanish at the ends of ``time_grid``.  The
    samples are projected on the modes in blocks of at most 2^18 samples
    (``_project_rows``), the same absolute blocks for an array and a callable,
    so the two give the same bits and a callable never builds the
    n_t x n_nodes array: the memory is O(2^18 + n_t (M + 1)).  The time
    integral is ``fourier_trapezoid`` over the union of the support spans.
    Only fhat^+ is stored; fhat^- is its complex conjugate
    (``SmearedCoefficients.f_minus``).  All-zero samples give zero
    coefficients.  The rounding floor is 32 eps (2 pi)^(-1/2) sum_t w_t B_t,
    with B_t the bound of ``_project_rows`` on the terms of row t (c times it
    for the boundary pair): a bound on the terms both sums add up, times 32
    ulps for their accumulated rounding.
    """
    p = table.params
    time_grid = np.asarray(time_grid, dtype=float)
    n_t = time_grid.shape[0]
    projections = []
    if f_bulk is not None:
        if grid is None:
            raise ValueError("bulk smearing requires the spatial grid")
        if callable(f_bulk):
            z = grid.nodes
            rows = lambda i, j: f_bulk(time_grid[i:j, None], z[None, :])
        else:
            f_bulk = np.asarray(f_bulk)
            if f_bulk.shape != (n_t, grid.n_nodes):
                raise ValueError(f"bulk samples have shape {f_bulk.shape}, "
                                 f"expected ({n_t}, {grid.n_nodes})")
            rows = lambda i, j: f_bulk[i:j]
        matrix = grid.quad_weights()[:, None] * mode_matrix(table, grid)
        projections.append(_project_rows(rows, n_t, matrix, "the bulk test function"))
    if f_bdy is not None:
        f_bdy = np.asarray(f_bdy)
        if f_bdy.shape != (n_t, 2):
            raise ValueError(f"boundary samples have shape {f_bdy.shape}, "
                             f"expected ({n_t}, 2)")
        A, span, sizes = _project_rows(lambda i, j: f_bdy[i:j], n_t,
                                       table.boundary_values().T,
                                       "the boundary test function")
        projections.append((p.c * A, span, p.c * sizes))
    lo = min((span.start for _, span, _ in projections), default=n_t)
    hi = max((span.stop for _, span, _ in projections), default=0)
    t = time_grid[lo:hi]
    A, sizes = np.zeros((t.size, len(table))), np.zeros(t.size)
    for part, _, size in projections:
        A += part[lo:hi]
        sizes += size[lo:hi]
    floor = _FLOOR_ULPS * np.finfo(float).eps * float(np.trapezoid(sizes, t) / _SQRT2PI)
    return SmearedCoefficients(f_plus=fourier_trapezoid(A, t, table.omegas()),
                               floor=floor)


def source_relation_check(g: np.ndarray, table: ModeTable, time_grid: np.ndarray,
                          side: str = "plus", weights: np.ndarray | None = None
                          ) -> float:
    """Mode-coefficient residual of the boundary source relation: for each m,

        (mu^2 - w_m^2) * (boundary value of mode m) * ghat^+-_m
            = c^-1 * (inward normal derivative of mode m) * ghat^+-_m,

    which is the boundary wave equation with the bulk normal derivative as
    source.  Returns the max residual normalized by the largest term;
    ``weights`` overrides the mode boundary values (negative control).  For
    the real g, ghat^- = conj(ghat^+) gives a residual of the same modulus, so
    only ghat^+ is evaluated."""
    p = table.params
    S = p.geometry.S
    g = np.asarray(g, dtype=float)
    omegas = table.omegas()
    ghat = fourier_trapezoid(g[:, None], time_grid, omegas)
    col = 1 if side == "plus" else 0
    bvals = table.boundary_values()[:, col] if weights is None else np.asarray(weights)
    z_b = S if side == "plus" else -S
    sign_perp = -1.0 if side == "plus" else 1.0
    dperp = sign_perp * eval_mode_deriv(np.arange(len(table)), z_b, table)
    lhs = (p.mu**2 - omegas**2) * bvals * ghat
    rhs = (1.0 / p.c) * dperp * ghat
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs))) / scale
