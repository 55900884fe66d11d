"""Constructive bulk-to-boundary map.

A bulk smearing f determines frequency components fhat^+-_m at the mode
frequencies.  Dividing by the boundary couplings d_m and interpolating with
smooth bumps of disjoint support in omega^2 yields a Schwartz function fhat'
on the boundary frequency axis; its inverse Fourier transform f' smears the
boundary field to the same operator as the bulk smearing.  The bump profile
chi is a convention (the construction does not fix it) and is recorded in the
image metadata.

The last step, fhat' -> f', is the trapezoid sum over a uniform omega grid
evaluated on a uniform time grid.  It is computed as a chirp-z transform by
Bluestein's convolution (Bluestein 1968; Rabiner, Schafer & Rader 1969): the
product t_j omega_k is split into chirps so that the sum becomes one FFT
convolution, in O((N_omega + N_t) log(N_omega + N_t)) time and O(N_omega + N_t)
memory.  Both grids must therefore be uniform; a non-uniform output time grid
raises ValueError.

No attempt is made to compactify the support of f'.  A Paley-Wiener argument
bounds any single-mode boundary representative away from intervals shorter
than 8S/pi, and the images produced here have long tails set by the inverse
bump widths; f' is Schwartz-quality, not compactly supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.fft import fft, ifft, next_fast_len
from scipy.signal import find_peaks, hilbert

from .core import Grid1D, PhysicalParams, Strip
from .modes import ModeTable, build_table, eval_halfspace_mode
from .qft import SmearedCoefficients, fourier_trapezoid, smeared_coeffs

_SQRT2PI = np.sqrt(2.0 * np.pi)


class BumpOverlapError(ValueError):
    """Bump supports of two modes intersect (a is too small)."""


def default_chi(u) -> np.ndarray:
    """Smooth bump exp(1 - 1/(1 - (2u)^2)) supported in [-1/2, 1/2], chi(0)=1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 0.5
    v = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - (2.0 * v) ** 2))
    return out


def included_modes(table: ModeTable, M: int) -> np.ndarray:
    """Mode indices usable by the map: m <= M with omega_m > 0 (a massless
    zero mode cannot be separated from the negative-frequency sector)."""
    omegas = table.omegas()[: M + 1]
    return np.nonzero(omegas > 0.0)[0]


def choose_a(table: ModeTable, mu: float, M: int, safety: float = 0.9) -> float:
    """Bump scale a with disjoint supports: the window |omega^2 - omega_m^2| <=
    1/(2a) must not bridge consecutive included modes, and the lowest window
    must stay clear of omega = 0.  Hence

        a = max( 1 / (2 omega_min^2), 1 / min_m gap_m ) / safety,

    with gap_m the consecutive differences of omega_m^2.  Gaps grow with m, so
    a is set by the smallest included gap and never increases with M."""
    if M < 1:
        raise ValueError(f"need at least two modes, got M={M}")
    qs = table.qs[: M + 1]
    if np.any(np.diff(qs) <= 0):
        raise RuntimeError("mode wavenumbers are not increasing; table is corrupt")
    idx = included_modes(table, M)
    w2 = table.omegas()[idx] ** 2
    if idx.size < 2:
        raise ValueError("fewer than two usable modes")
    min_gap = float(np.min(np.diff(w2)))
    return max(1.0 / (2.0 * w2[0]), 1.0 / min_gap) / safety


@dataclass
class FreqExtension:
    """Evaluator for fhat'(omega) = sum_m sum_s theta(s omega)
    chi(a (omega^2 - omega_m^2)) coeff^s_m, with pairwise disjoint bumps."""

    a: float
    chi: object  # callable u -> chi(u)
    modes: np.ndarray       # included mode indices
    omegas: np.ndarray      # their frequencies
    coeff_plus: np.ndarray
    coeff_minus: np.ndarray

    def __post_init__(self):
        w2 = self.omegas**2
        half = 1.0 / (2.0 * self.a)
        if w2[0] - half <= 0.0:
            raise BumpOverlapError(
                f"bump of mode {self.modes[0]} reaches omega = 0; increase a")
        gaps = np.diff(w2)
        bad = np.nonzero(gaps <= 2.0 * half)[0]
        if bad.size:
            i = int(bad[0])
            raise BumpOverlapError(
                f"bumps of modes {self.modes[i]} and {self.modes[i + 1]} overlap; "
                f"gap {gaps[i]:.4g} <= 1/a = {2 * half:.4g}")

    def __call__(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        scalar = omega.ndim == 0
        omega = np.atleast_1d(omega)
        out = np.zeros(omega.shape, dtype=complex)
        w2 = omega**2
        for wm, cp, cm in zip(self.omegas, self.coeff_plus, self.coeff_minus):
            u = self.a * (w2 - wm**2)
            mask = np.abs(u) < 0.5
            if not np.any(mask):
                continue
            val = self.chi(u[mask])
            pos = omega[mask] > 0.0
            out[mask] += np.where(pos, val * cp, val * cm)
        return out[0] if scalar else out

    def bump_width(self, omega_m: float) -> float:
        """Support width of the bump at omega_m along the omega axis."""
        half = 1.0 / (2.0 * self.a)
        return float(np.sqrt(omega_m**2 + half) - np.sqrt(max(omega_m**2 - half, 0.0)))


def extend_to_schwartz(coeffs: SmearedCoefficients, table: ModeTable, a: float,
                       chi=None, modes: np.ndarray | None = None) -> FreqExtension:
    """Interpolating extension with fhat'(+-omega_m) = coeffs^+-_m exactly."""
    if chi is None:
        chi = default_chi
    if modes is None:
        modes = included_modes(table, len(table) - 1)
    omegas = table.omegas()[modes]
    return FreqExtension(a=a, chi=chi, modes=np.asarray(modes), omegas=omegas,
                         coeff_plus=np.asarray(coeffs.f_plus)[modes],
                         coeff_minus=np.asarray(coeffs.f_minus)[modes])


@dataclass
class HoloGrids:
    """Discretization used to compute and sample a holographic image.

    ``t_out`` (the output times of f'; ``time_grid`` when None) must be
    uniform: the inverse transform is a chirp-z transform."""

    time_grid: np.ndarray
    grid: Grid1D
    samples_per_bump: int = 16
    t_out: np.ndarray | None = None

    @classmethod
    def default(cls, S: float, n_z: int = 1024, n_t: int = 2049,
                t_span: float | None = None, n_out: int = 4096) -> "HoloGrids":
        if t_span is None:
            t_span = 8.0 * S
        return cls(time_grid=np.linspace(-t_span, t_span, n_t),
                   grid=Grid1D.for_strip(S, n_z),
                   t_out=np.linspace(-t_span, t_span, n_out))


@dataclass
class HoloImage:
    """Sampled fhat'(omega) and its time-space dual f'(t), plus the exact
    evaluator and the coefficients it interpolates."""

    omega_grid: np.ndarray
    fhat: np.ndarray
    t_grid: np.ndarray
    fprime: np.ndarray
    extension: FreqExtension
    coeffs: SmearedCoefficients
    metadata: dict
    warnings: list = field(default_factory=list)


def _uniform_step(g: np.ndarray, name: str) -> float:
    """Step of a uniform grid, taken from its endpoints (the difference of two
    neighbouring values loses digits away from zero); ValueError if g is not
    uniform."""
    if g.size < 2:
        return 0.0
    step = float(g[-1] - g[0]) / (g.size - 1)
    if not np.allclose(np.diff(g), step, rtol=1e-9, atol=0.0):
        raise ValueError(f"{name} must be uniform")
    return step


def _inverse_transform(ext: FreqExtension, omega_grid: np.ndarray,
                       t_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid inverse Fourier transform

        f'(t_j) = d_omega / sqrt(2 pi) sum_k fhat'(omega_k) exp(-i t_j omega_k),

    over the span of the nonzero samples, by Bluestein's chirp convolution.
    With t_j = t_0 + j dt, omega_k = omega_0 + k d_omega and beta = dt d_omega,
    j k = (j^2 + k^2 - (j - k)^2) / 2 turns the sum into a chirp pre-multiply,
    one FFT convolution with exp(i beta r^2 / 2) and a chirp post-multiply:
    O((N_omega + N_t) log(N_omega + N_t)) time, O(N_omega + N_t) memory.
    Both grids must be uniform (ValueError otherwise)."""
    t_grid = np.asarray(t_grid, dtype=float)
    fhat = ext(omega_grid)
    d_omega = _uniform_step(omega_grid, "omega grid")
    dt = _uniform_step(t_grid, "t grid")
    nz = np.nonzero(fhat)[0]
    if nz.size == 0:
        return fhat, np.zeros(t_grid.shape)
    seg = fhat[nz[0]: nz[-1] + 1]
    m, n = seg.size, t_grid.size
    beta = dt * d_omega
    k = np.arange(m, dtype=float)
    j = np.arange(n, dtype=float)
    r = np.arange(-(m - 1), n, dtype=float)
    size = next_fast_len(n + m - 1)
    pre = seg * np.exp(-1j * (t_grid[0] * d_omega * k + 0.5 * beta * k * k))
    conv = ifft(fft(pre, size) * fft(np.exp(0.5j * beta * r * r), size))[m - 1: m - 1 + n]
    post = np.exp(-1j * (omega_grid[nz[0]] * t_grid + 0.5 * beta * j * j))
    fprime = conv * post * d_omega / _SQRT2PI
    if np.max(np.abs(fprime.imag)) < 1e-10 * max(np.max(np.abs(fprime.real)), 1e-300):
        fprime = fprime.real
    return fhat, fprime


def holographic_dual(f, p: PhysicalParams, table: ModeTable, M: int | None = None,
                     grids: HoloGrids | None = None, energy_fraction: float = 0.999,
                     chi=None) -> HoloImage:
    """Holographic image of a bulk test function f(t, z) (callable, vectorized).

    Computes the smeared coefficients, divides by the boundary couplings,
    extends to a Schwartz function on the frequency axis, and inverse
    transforms to f'(t).  The cutoff M defaults to the smallest value
    retaining ``energy_fraction`` of the coefficient energy; a warning is
    attached if the requested M falls short of that."""
    if not isinstance(p.geometry, Strip):
        raise ValueError("the strip map needs a mode table; see halfspace_dual")
    if grids is None:
        grids = HoloGrids.default(p.geometry.S)
    t = grids.time_grid
    z = grids.grid.nodes
    samples = np.asarray(f(t[:, None], z[None, :]), dtype=float)
    coeffs = smeared_coeffs(samples, None, table, t, grids.grid)

    usable = included_modes(table, len(table) - 1)
    energy = coeffs.energy[usable]
    cum = np.cumsum(energy) / np.sum(energy)
    M_auto = int(usable[np.searchsorted(cum, energy_fraction)])
    warnings = []
    if M is None:
        M = M_auto
    elif M < M_auto:
        warnings.append(
            f"cutoff M={M} retains less than {energy_fraction:.1%} of the "
            f"coefficient energy (needs M={M_auto})")

    modes = included_modes(table, M)
    d = table.d_bdys[modes]
    hcoeffs = SmearedCoefficients(
        f_plus=np.zeros(len(table), dtype=complex),
        f_minus=np.zeros(len(table), dtype=complex))
    hcoeffs.f_plus[modes] = coeffs.f_plus[modes] / d
    hcoeffs.f_minus[modes] = coeffs.f_minus[modes] / d

    a = choose_a(table, p.mu, M)
    ext = extend_to_schwartz(hcoeffs, table, a, chi=chi, modes=modes)

    widths = np.array([ext.bump_width(w) for w in ext.omegas])
    d_omega = float(np.min(widths)) / grids.samples_per_bump
    omega_max = float(np.sqrt(ext.omegas[-1] ** 2 + 1.0 / (2 * a))) + 2 * d_omega
    n_half = int(np.ceil(omega_max / d_omega))
    omega_grid = np.arange(-n_half, n_half + 1) * d_omega
    t_out = grids.t_out if grids.t_out is not None else t
    fhat, fprime = _inverse_transform(ext, omega_grid, t_out)

    meta = {"S": p.geometry.S, "c": p.c, "mu": p.mu, "M": M, "a": a,
            "chi": getattr(chi or default_chi, "__name__", "custom"),
            "energy_fraction": float(cum[np.searchsorted(usable, M)] if M in usable
                                     else cum[-1]),
            "samples_per_bump": grids.samples_per_bump}
    return HoloImage(omega_grid=omega_grid, fhat=fhat, t_grid=t_out, fprime=fprime,
                     extension=ext, coeffs=coeffs, metadata=meta, warnings=warnings)


@dataclass
class DualReport:
    max_residual: float
    pairing_bulk: complex
    pairing_boundary: complex

    @property
    def pairing_rel_error(self) -> float:
        scale = max(abs(self.pairing_bulk), abs(self.pairing_boundary), 1e-300)
        return abs(self.pairing_bulk - self.pairing_boundary) / scale


def pairing_bulk_route(cf: SmearedCoefficients, cg: SmearedCoefficients,
                       table: ModeTable, modes: np.ndarray) -> complex:
    """<phi(f) phi(g)> = sum_m (2 pi / 2 w_m) fhat^-_m ghat^+_m."""
    w = table.omegas()[modes]
    return complex(np.sum(2 * np.pi / (2 * w)
                          * np.asarray(cf.f_minus)[modes]
                          * np.asarray(cg.f_plus)[modes]))


def pairing_boundary_route(extF: FreqExtension, extG: FreqExtension,
                           table: ModeTable) -> complex:
    """Same pairing through the boundary images: sum_m (2 pi / 2 w_m) d_m^2
    fhat'(-w_m) ghat'(+w_m), exercising the bump evaluators."""
    modes = extF.modes
    w = extF.omegas
    d = table.d_bdys[modes]
    return complex(np.sum(2 * np.pi / (2 * w) * d**2
                          * extF(-w) * extG(w)))


def verify_dual(image: HoloImage, coeffs: SmearedCoefficients, table: ModeTable
                ) -> DualReport:
    """Max interpolation residual |fhat'(+-w_m) d_m - fhat^+-_m| (normalized)
    and the two-point pairing of the image with itself along both routes."""
    ext = image.extension
    modes = ext.modes
    d = table.d_bdys[modes]
    w = ext.omegas
    fp = np.asarray(coeffs.f_plus)[modes]
    fm = np.asarray(coeffs.f_minus)[modes]
    scale = max(float(np.max(np.abs(fp))), float(np.max(np.abs(fm))), 1e-300)
    res = max(float(np.max(np.abs(ext(w) * d - fp))),
              float(np.max(np.abs(ext(-w) * d - fm)))) / scale
    return DualReport(max_residual=res,
                      pairing_bulk=pairing_bulk_route(coeffs, coeffs, table, modes),
                      pairing_boundary=pairing_boundary_route(ext, ext, table))


# ---------------------------------------------------------------------------
# reference bulk observable and burst detection

def fig2_test_function(t, x) -> np.ndarray:
    """Smooth bump exp(-1/(t+1/2)) exp(-1/(1/2-t)) exp(-1/(x+1/2))
    exp(-1/(1/2-x)) on (-1/2, 1/2)^2, zero outside; value e^-8 at the origin."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    tb, xb = np.broadcast_arrays(t, x)
    out = np.zeros(tb.shape)
    inside = (np.abs(tb) < 0.5) & (np.abs(xb) < 0.5)
    ti, xi = tb[inside], xb[inside]
    out[inside] = np.exp(-1.0 / (ti + 0.5) - 1.0 / (0.5 - ti)
                         - 1.0 / (xi + 0.5) - 1.0 / (0.5 - xi))
    return out


@dataclass
class BurstReport:
    """Envelope bursts of a holographic image.

    ``centers`` are burst arrival times: the constant-fraction crossing at 90%
    of each burst's envelope peak, taken on the side of the peak facing t = 0.
    The envelope maxima themselves (``peak_times``) lag the arrivals by the
    boundary re-emission group delay 2c / (1 + c^2 w^2) per reflection, which
    is why they are not compared against the geometric arrival times directly.
    """

    centers: np.ndarray
    peak_times: np.ndarray
    heights: np.ndarray
    threshold: float

    def matches(self, expected, tol: float = 0.2) -> bool:
        """Every expected time has a detected burst within tol."""
        return all(np.any(np.abs(self.centers - e) <= tol) for e in expected)


_CF_FRACTION = 0.9


def detect_bursts(t: np.ndarray, y: np.ndarray, rel_threshold: float = 0.1,
                  cluster_gap: float = 0.8) -> BurstReport:
    """Local maxima of the analytic-signal envelope above rel_threshold of the
    global maximum, grouped into bursts separated by more than cluster_gap."""
    env = np.abs(hilbert(y))
    peaks, _ = find_peaks(env)
    level = rel_threshold * float(np.max(env))
    peaks = peaks[env[peaks] >= level]
    if peaks.size == 0:
        empty = np.array([])
        return BurstReport(centers=empty, peak_times=empty.copy(),
                           heights=empty.copy(), threshold=level)
    centers, peak_times, heights = [], [], []
    start = 0
    for i in range(1, peaks.size + 1):
        if i == peaks.size or t[peaks[i]] - t[peaks[i - 1]] > cluster_gap:
            group = peaks[start:i]
            best = int(group[np.argmax(env[group])])
            cf = _CF_FRACTION * env[best]
            step = -1 if t[best] > 0 else 1  # scan toward t = 0
            j = best
            while 0 < j < env.size - 1 and env[j + step] > cf:
                j += step
            centers.append(t[j])
            peak_times.append(t[best])
            heights.append(env[best])
            start = i
    return BurstReport(centers=np.array(centers), peak_times=np.array(peak_times),
                       heights=np.array(heights), threshold=level)


@dataclass
class Fig2Config:
    S: float = 1.0
    c: float = 1.0
    mu: float = 0.0
    M: int | None = None
    n_z: int = 1024
    n_t: int = 3073
    t_span: float = 12.0  # wide enough that edge wrap-around cannot inflate bursts
    n_out: int = 12288
    burst_threshold: float = 0.1
    mu_reg: float | None = None  # optional regulator mass replacing mu = 0


def fig2_reproduce(config: Fig2Config | None = None) -> tuple[HoloImage, BurstReport]:
    """Holographic image of the reference bump observable (S=1, c=1, mu=0;
    zero mode excluded) and its burst report.  Only the burst locations and
    their ordering are quantitative; the curve shape depends on chi and a."""
    cfg = config or Fig2Config()
    mu = cfg.mu if cfg.mu_reg is None else cfg.mu_reg
    p = PhysicalParams(c=cfg.c, mu=mu, geometry=Strip(cfg.S), d=1)
    table = build_table(64, p)
    grids = HoloGrids.default(cfg.S, n_z=cfg.n_z, n_t=cfg.n_t,
                              t_span=cfg.t_span, n_out=cfg.n_out)
    image = holographic_dual(fig2_test_function, p, table, M=cfg.M, grids=grids)
    report = detect_bursts(image.t_grid, np.real(image.fprime),
                           rel_threshold=cfg.burst_threshold)
    return image, report


def regulator_sensitivity(cfg: Fig2Config, mu_reg: float) -> float:
    """Relative change of f' between regulator masses mu_reg and mu_reg / 2."""
    img1, _ = fig2_reproduce(replace(cfg, mu_reg=mu_reg))
    img2, _ = fig2_reproduce(replace(cfg, mu_reg=mu_reg / 2))
    scale = max(float(np.max(np.abs(img1.fprime))), 1e-300)
    return float(np.max(np.abs(np.asarray(img1.fprime) - np.asarray(img2.fprime)))) / scale


# ---------------------------------------------------------------------------
# half-space variant

@dataclass
class HalfSpaceDual:
    """Sampled half-space image: fhat'(omega) on the two mass-shell branches
    (zero in the gap |omega| < mu) and an L2-quality f'."""

    q_grid: np.ndarray
    omega_grid: np.ndarray      # omega(q) = sqrt(q^2 + mu^2)
    fhat_pos: np.ndarray        # fhat'(+omega(q))
    fhat_neg: np.ndarray        # fhat'(-omega(q))
    edge_value: complex         # one-sided limit at omega -> mu+
    t_grid: np.ndarray | None
    fprime: np.ndarray | None
    note: str = ("fhat' is generally non-smooth at the mass-shell edge "
                 "|omega| = mu; f' is square-integrable quality only")


def halfspace_dual(f, p: PhysicalParams, q_grid: np.ndarray,
                   time_grid: np.ndarray, grid: Grid1D,
                   t_out: np.ndarray | None = None) -> HalfSpaceDual:
    """Half-space holographic map (d = 1):

        fhat'(omega) = sqrt(pi (c^2 q^2 + 1) / 2) * fhat^(sgn omega)(q),
        q = sqrt(omega^2 - mu^2),  |omega| > mu,  zero inside the gap.

    f' on ``t_out`` integrates fhat'(omega) e^(-i omega t) over omega on each
    branch, a trapezoid over the non-uniform samples omega(q)."""
    if p.mu <= 0:
        raise ValueError("the half-space map requires mu > 0")
    q_grid = np.asarray(q_grid, dtype=float)
    time_grid = np.asarray(time_grid, dtype=float)
    z = grid.nodes
    samples = np.asarray(f(time_grid[:, None], z[None, :]), dtype=float)
    V = eval_halfspace_mode(q_grid[None, :], z[:, None], p)
    A = (samples * grid.quad_weights()) @ V
    omegas = np.sqrt(q_grid**2 + p.mu**2)
    fhat_p = fourier_trapezoid(A, time_grid, omegas)
    fhat_m = fourier_trapezoid(A, time_grid, -omegas)
    pref = np.sqrt(np.pi * (p.c**2 * q_grid**2 + 1.0) / 2.0)
    fhat_pos = pref * fhat_p
    fhat_neg = pref * fhat_m
    edge = complex(np.sqrt(np.pi / 2.0) * fhat_p[0]) if q_grid[0] == 0.0 else complex(fhat_pos[0])

    fprime = None
    if t_out is not None:
        t_out = np.asarray(t_out, dtype=float)
        fprime = (fourier_trapezoid(fhat_pos[:, None], omegas, -t_out)
                  + fourier_trapezoid(fhat_neg[:, None], omegas, t_out))
    return HalfSpaceDual(q_grid=q_grid, omega_grid=omegas, fhat_pos=fhat_pos,
                         fhat_neg=fhat_neg, edge_value=edge, t_grid=t_out,
                         fprime=fprime)
