"""Constructive bulk-to-boundary map.

A bulk smearing f determines frequency components fhat^+-_m at the mode
frequencies.  Dividing by the boundary couplings d_m and interpolating with
smooth bumps of disjoint support in omega^2 yields a Schwartz function fhat'
on the boundary frequency axis; its inverse Fourier transform f' smears the
boundary field to the same operator as the bulk smearing.  The bump profile
chi is a convention (the construction does not fix it) and is recorded in the
image metadata.

The mode table is the one source of the strip, c and mu: ``holographic_dual``
builds its grids from it, and the image keeps it for ``verify_dual``.

``holographic_dual`` chooses its smearing grid: it doubles the space
intervals from 64, with a time step of at most the space step, until two
successive levels agree to 1e-11 of the largest coefficient, and records the
grid and that estimate in the image metadata.  The trapezoid sums of a smooth
f that vanishes towards the ends of both axes converge exponentially
(Trefethen & Weideman, SIAM Rev. 56, 2014), so the test functions here stop
at 128 to 256 intervals.  On each level f is never sampled on the whole
space-time grid: ``smeared_coeffs`` evaluates it on blocks of time rows of at
most 2^18 samples and projects each block on the modes as it is made, keeping
the row peaks that locate its support in time.  The smearing therefore takes
O(2^18 + n_t (M + 1)) memory, not O(n_t x n_nodes); ``halfspace_dual``
samples the same way.

The field is real, so for a real bulk smearing fhat^-_m = conj fhat^+_m, and
the boundary image is Hermitian: fhat'(-omega) = conj fhat'(omega).  The image
is therefore its M + 1 coefficients fhat'(+omega_m), the bump scale a and chi:
the map keeps no frequency samples.  The negative frequencies are conjugates
computed on demand, and f' = 2 Re of the transform over omega > 0 is returned
as a real array.

The last step, fhat' -> f', is the trapezoid sum over a uniform grid of
positive frequencies evaluated on a uniform time grid.  It is computed as a
chirp-z transform by Bluestein's convolution (Bluestein 1968; Rabiner, Schafer
& Rader 1969): the product t_j omega_k is split into chirps so that the sum
becomes one FFT convolution, in O((N_omega + N_t) log(N_omega + N_t)) time and
O(N_omega + N_t) memory.  The time grid must therefore be uniform
(``_inverse_transform`` raises ValueError otherwise), and a frequency grid of
more than _MAX_OMEGA_SAMPLES samples is refused before it is built.

No attempt is made to compactify the support of f'.  A Paley-Wiener argument
bounds any single-mode boundary representative away from intervals shorter
than 8S/pi, and the images produced here have long tails set by the inverse
bump widths; f' is Schwartz-quality, not compactly supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Grid1D, PhysicalParams, Strip, _check_halfspace
from .modes import ModeTable, build_table, eval_halfspace_mode
from .qft import (_SQRT2PI, SmearedCoefficients, _project_rows, fourier_trapezoid,
                  smeared_coeffs)

_ENERGY_FRACTION = 0.999  # coefficient energy the automatic cutoff M retains
_SAMPLES_PER_BUMP = 16    # omega samples across the narrowest bump
_MAX_OMEGA_SAMPLES = 1 << 21  # largest positive-frequency grid of the transform
_SMEAR_START = 64               # space intervals of the coarsest smearing level
_SMEAR_MAX_INTERVALS = 1 << 12  # finest smearing level
_SMEAR_RTOL = 1e-11             # two-resolution estimate, relative to max|fhat^+|


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


def choose_a(table: ModeTable, M: int) -> float:
    """Bump scale a with disjoint supports: the window |omega^2 - omega_m^2| <=
    1/(2a) must not bridge consecutive included modes, and the lowest window
    must stay clear of omega = 0.  Hence

        a = max( 1 / (2 omega_min^2), 1 / min_m gap_m ) / 0.9,

    with gap_m the consecutive differences of omega_m^2.  Gaps grow with m, so
    a is set by the smallest included gap and never increases with M.
    ValueError when two included omega_m^2 are equal in double precision: no
    bump scale separates them.  A large c S does that to modes 0 and 1 at
    mu > 0, since q_1^2 ~ 1 / (c S) is then lost in mu^2."""
    if M < 1:
        raise ValueError(f"need at least two modes, got M={M}")
    idx = included_modes(table, M)
    w2 = table.omegas()[idx] ** 2
    if idx.size < 2:
        raise ValueError("fewer than two usable modes")
    gaps = np.diff(w2)
    if not np.all(gaps > 0.0):
        i = int(np.argmin(gaps))
        raise ValueError(f"modes {idx[i]} and {idx[i + 1]} have the same frequency "
                         f"in double precision, so no bump separates them; at mu > 0 "
                         f"a large c S does this, as q_1^2 ~ 1 / (c S) falls below "
                         f"the rounding of mu^2 (c S mu^2 above about 1e16); lower "
                         f"--c or --mu")
    min_gap = float(np.min(gaps))
    return max(1.0 / (2.0 * w2[0]), 1.0 / min_gap) / 0.9


@dataclass
class FreqExtension:
    """Evaluator for the Hermitian extension

        fhat'(omega) = sum_m chi(a (omega^2 - omega_m^2)) coeffs_m,  omega > 0,
        fhat'(omega) = conj fhat'(-omega),                          omega <= 0,

    with pairwise disjoint bumps and chi = ``default_chi``; ``coeffs`` holds
    fhat'(+omega_m) only."""

    a: float
    modes: np.ndarray       # included mode indices
    omegas: np.ndarray      # their frequencies
    coeffs: np.ndarray      # fhat'(+omega_m)

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
        """fhat' at every omega of a scalar or an array.  The bumps are
        disjoint, so the only one that can hold omega^2 is the nearest centre
        omega_m^2, found by bisection on the midpoints between centres."""
        omega = np.asarray(omega, dtype=float)
        scalar = omega.ndim == 0
        omega = np.atleast_1d(omega)
        out = np.zeros(omega.shape, dtype=complex)
        w2 = omega**2
        centres = self.omegas**2
        near = np.searchsorted((centres[:-1] + centres[1:]) / 2.0, w2)
        u = self.a * (w2 - centres[near])
        mask = np.abs(u) < 0.5
        coeff = self.coeffs[near[mask]]
        out[mask] += default_chi(u[mask]) * np.where(omega[mask] > 0.0, coeff,
                                                     np.conj(coeff))
        return out[0] if scalar else out

    def bump_width(self, omega_m) -> np.ndarray:
        """Support width of the bump at each omega_m along the omega axis."""
        half = 1.0 / (2.0 * self.a)
        w2 = np.asarray(omega_m, dtype=float) ** 2
        return np.sqrt(w2 + half) - np.sqrt(np.maximum(w2 - half, 0.0))


@dataclass
class HoloImage:
    """Boundary image f'(t) on a uniform time grid, the extension fhat' that
    defines it (its coefficients fhat'(+omega_m), a and chi), the smeared
    coefficients it interpolates and their mode table."""

    t_grid: np.ndarray
    fprime: np.ndarray
    extension: FreqExtension
    coeffs: SmearedCoefficients
    table: ModeTable
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


def _inverse_transform(ext: FreqExtension, d_omega: float,
                       t_grid: np.ndarray) -> np.ndarray:
    """Trapezoid inverse Fourier transform over omega > 0 of the Hermitian
    ``ext``,

        f'(t_j) = 2 Re[ d_omega / sqrt(2 pi) sum_k fhat'(omega_k) exp(-i t_j omega_k) ],

    on the multiples of d_omega from the lowest bump edge to the highest
    (omega = 0 lies in no bump), by Bluestein's chirp convolution.  With
    t_j = t_0 + j dt, omega_k = (k_0 + k) d_omega and beta = dt d_omega,
    j k = (j^2 + k^2 - (j - k)^2) / 2 turns the sum into a chirp pre-multiply,
    one FFT convolution with exp(i beta r^2 / 2) and a chirp post-multiply:
    O((N_omega + N_t) log(N_omega + N_t)) time, O(N_omega + N_t) memory.  The
    convolution runs on ``numpy.fft`` at the power of two at or above
    N_omega + N_t - 1.  ValueError if ``t_grid`` is not uniform, or, before
    any grid is built, if the highest bump edge lies more than
    _MAX_OMEGA_SAMPLES steps d_omega above zero (d_omega = 0 included)."""
    half = 1.0 / (2.0 * ext.a)
    lo = float(np.sqrt(ext.omegas[0] ** 2 - half))
    hi = float(np.sqrt(ext.omegas[-1] ** 2 + half))
    if not hi <= _MAX_OMEGA_SAMPLES * d_omega:
        n = hi / d_omega if d_omega > 0 else float("inf")
        raise ValueError(f"the holographic image needs {n:.3g} frequency samples, "
                         f"more than {_MAX_OMEGA_SAMPLES}: its bumps are too narrow; "
                         f"raise --mu or --S, or lower --max")
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _uniform_step(t_grid, "t grid")
    k0 = int(lo / d_omega)
    seg = ext(np.arange(k0, int(np.ceil(hi / d_omega)) + 1) * d_omega)
    m, n = seg.size, t_grid.size
    beta = dt * d_omega
    size = 1 << (n + m - 2).bit_length()
    # one length-size spectrum, transformed in place: the chirped samples and
    # the kernel exist only while their FFT is taken
    k = np.arange(m, dtype=float)
    spec = np.fft.fft(seg * np.exp(-1j * (t_grid[0] * d_omega * k + 0.5 * beta * k * k)),
                      size)
    del seg, k
    r = np.arange(-(m - 1), n, dtype=float)
    spec *= np.fft.fft(np.exp(0.5j * beta * r * r), size)
    del r
    conv = np.fft.ifft(spec, out=spec)[m - 1: m - 1 + n]
    j = np.arange(n, dtype=float)
    post = np.exp(-1j * (k0 * d_omega * t_grid + 0.5 * beta * j * j))
    return (conv * post).real * (2.0 * d_omega / _SQRT2PI)


def _smear(f, table: ModeTable, t_span: float
           ) -> tuple[SmearedCoefficients, int, int, float]:
    """Smeared coefficients of f on the coarsest of the doubling grids that
    meets the two-resolution estimate, with that grid's number of space
    intervals and of times and the estimate.

    Level n is the strip's grid of n intervals, step h = 2S/n, and the
    2 ceil(t_span / h) + 1 uniform times in [-t_span, t_span], a time step of
    at most h: omega_m ~ q_m, so one resolution serves both axes.  From
    n = 64 the grid is doubled until two successive levels agree,
    max|delta fhat^+| <= 1e-11 max|fhat^+| of the finer one, which is
    returned with that ratio as its estimate.  Where the sums converge
    exponentially the estimate is far above the finer level's own error.
    ValueError when two successive levels are all zero, RuntimeError when
    2^12 intervals do not meet the tolerance."""
    S = table.params.geometry.S
    n, coarse = _SMEAR_START, None
    while True:
        grid = Grid1D.for_strip(S, n)
        n_t = 2 * math.ceil(t_span * n / (2.0 * S)) + 1
        fine = smeared_coeffs(f, None, table, np.linspace(-t_span, t_span, n_t), grid)
        if coarse is not None:
            scale = float(np.max(np.abs(fine.f_plus)))
            err = float(np.max(np.abs(fine.f_plus - coarse.f_plus)))
            if scale == 0.0 and err == 0.0:
                raise ValueError(f"the bulk test function vanishes on the {n}-interval "
                                 f"grid and the one before it")
            if err <= _SMEAR_RTOL * scale:
                return fine, n, n_t, err / scale
            if 2 * n > _SMEAR_MAX_INTERVALS:
                raise RuntimeError(
                    f"smearing did not converge: two-resolution error estimate "
                    f"{err:.3e} > {_SMEAR_RTOL:g} * max|fhat+| = {_SMEAR_RTOL * scale:.3e} "
                    f"at {n} intervals x {n_t} times, the cap of "
                    f"{_SMEAR_MAX_INTERVALS} intervals")
        coarse, n = fine, 2 * n


def holographic_dual(f, table: ModeTable, t_span: float, n_out: int = 4096,
                     M: int | None = None) -> HoloImage:
    """Holographic image of a bulk test function f(t, z) (callable, vectorized)
    on the strip of ``table``, smeared on the coarsest space-time grid that
    meets a two-resolution estimate of 1e-11 (``_smear``); f' is sampled at
    ``n_out`` uniform times in [-t_span, t_span].  ``smeared_coeffs``
    evaluates f on blocks of time rows of at most 2^18 samples and projects
    each block on the modes as it is made, so the smearing takes
    O(2^18 + n_t (M + 1)) memory, not O(n_t x n_nodes).

    Computes the smeared coefficients, divides by the boundary couplings,
    extends to a Schwartz function on the frequency axis with the bump
    ``default_chi``, and inverse transforms to f'(t), sampling the frequency
    axis 16 times across the narrowest bump.  The cutoff M defaults to the
    smallest value retaining 99.9% of the coefficient energy; a warning is
    attached if the requested M falls short of that.  The metadata records
    the smearing grid (``smear_intervals`` x ``smear_times``) and its
    estimate relative to max|fhat^+| (``smear_estimate``).  An M beyond the
    table's last mode raises ValueError, and so do a complex f, an f that does
    not vanish at +-t_span, an f that is zero on the grids, and bumps too
    narrow for a frequency grid of _MAX_OMEGA_SAMPLES
    (``_inverse_transform``); RuntimeError when 2^12 intervals do not resolve
    the smearing."""
    if M is not None and M > len(table) - 1:
        raise ValueError(f"cutoff M={M} exceeds the table's last mode "
                         f"m={len(table) - 1}")
    p = table.params
    coeffs, n_z, n_t, estimate = _smear(f, table, t_span)

    usable = included_modes(table, len(table) - 1)
    energy = coeffs.energy[usable]
    cum = np.cumsum(energy) / np.sum(energy)
    M_auto = int(usable[np.searchsorted(cum, _ENERGY_FRACTION)])
    warnings = []
    if M is None:
        M = M_auto
    elif M < M_auto:
        warnings.append(
            f"cutoff M={M} retains less than {_ENERGY_FRACTION:.1%} of the "
            f"coefficient energy (needs M={M_auto})")

    modes = included_modes(table, M)
    a = choose_a(table, M)
    ext = FreqExtension(a, modes, table.omegas()[modes],
                        coeffs.f_plus[modes] / table.d_bdys[modes])

    d_omega = float(np.min(ext.bump_width(ext.omegas))) / _SAMPLES_PER_BUMP
    t_out = np.linspace(-t_span, t_span, n_out)
    fprime = _inverse_transform(ext, d_omega, t_out)

    meta = {"S": p.geometry.S, "c": p.c, "mu": p.mu, "M": M, "a": a,
            "chi": default_chi.__name__,
            "energy_fraction": float(cum[np.searchsorted(usable, M)]),
            "samples_per_bump": _SAMPLES_PER_BUMP, "smear_intervals": n_z,
            "smear_times": n_t, "smear_estimate": estimate}
    return HoloImage(t_grid=t_out, fprime=fprime, extension=ext, coeffs=coeffs,
                     table=table, metadata=meta, warnings=warnings)


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


def verify_dual(image: HoloImage) -> DualReport:
    """Max interpolation residual |fhat'(+w_m) d_m - fhat^+_m| (normalized,
    d_m from the image's table) against the image's smeared coefficients, and
    the two-point pairing of the image with itself along both routes.  The
    residual at -w_m is the conjugate of the one at +w_m, so only +w_m is
    evaluated."""
    table = image.table
    coeffs = image.coeffs
    ext = image.extension
    modes = ext.modes
    fp = coeffs.f_plus[modes]
    scale = max(float(np.max(np.abs(fp))), 1e-300)
    res = float(np.max(np.abs(ext(ext.omegas) * table.d_bdys[modes] - fp))) / scale
    return DualReport(max_residual=res,
                      pairing_bulk=pairing_bulk_route(coeffs, coeffs, table, modes),
                      pairing_boundary=pairing_boundary_route(ext, ext, table))


# ---------------------------------------------------------------------------
# reference bulk observable and burst detection

def _support_box(mask: np.ndarray, shape: tuple) -> list[slice] | None:
    """Per-axis index ranges, in the broadcast ``shape``, of the True entries
    of ``mask`` broadcast to it; None when no entry is True."""
    mask = mask.reshape((1,) * (len(shape) - mask.ndim) + mask.shape)
    box = []
    for axis, n in enumerate(shape):
        others = tuple(a for a in range(mask.ndim) if a != axis)
        hit = np.flatnonzero(mask.any(axis=others))
        if hit.size == 0:
            return None
        box.append(slice(0, n) if mask.shape[axis] == 1 else slice(hit[0], hit[-1] + 1))
    return box


def fig2_test_function(t, x) -> np.ndarray:
    """Smooth bump exp(-1/(t+1/2)) exp(-1/(1/2-t)) exp(-1/(x+1/2))
    exp(-1/(1/2-x)) on (-1/2, 1/2)^2, zero outside; value e^-8 at the origin.

    ``t`` and ``x`` broadcast against each other.  The support test and the
    exponent are evaluated elementwise only inside the box of broadcast
    indices where both |t| < 1/2 and |x| < 1/2 can hold, so a space-time grid
    t[:, None], x[None, :] costs the size of the support's box, not of the
    grid; the values equal the elementwise formula bit for bit.
    ``holographic_dual`` calls it on blocks of at most 2^18 samples, so fig2's
    space-time grids (3073 x 257 at the finest level it needs) are never held
    whole: the smearing takes O(2^18 + n_t (M + 1)) memory."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(t.shape, x.shape)
    out = np.zeros(shape)
    box_t = _support_box(np.abs(t) < 0.5, shape)
    box_x = _support_box(np.abs(x) < 0.5, shape)
    if box_t is None or box_x is None:
        return out
    box = tuple(slice(max(a.start, b.start), min(a.stop, b.stop))
                for a, b in zip(box_t, box_x)) + (Ellipsis,)
    tb, xb = (arr[box] for arr in np.broadcast_arrays(t, x))
    inside = (np.abs(tb) < 0.5) & (np.abs(xb) < 0.5)
    ti, xi = tb[inside], xb[inside]
    out[box][inside] = np.exp(-1.0 / (ti + 0.5) - 1.0 / (0.5 - ti)
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

    def matches(self, expected, tol: float = 0.2) -> bool:
        """Every expected time has a detected burst within tol."""
        return all(np.any(np.abs(self.centers - e) <= tol) for e in expected)


_CF_FRACTION = 0.9


def analytic_envelope(y: np.ndarray) -> np.ndarray:
    """|y + i H[y]|, the modulus of the analytic signal of a real sequence:
    the DFT with the positive frequencies doubled and the negative ones zeroed
    (the Nyquist bin of an even length is kept once), transformed back
    (Marple, IEEE Trans. Signal Process. 47, 1999).  The non-negative bins
    come from ``numpy.fft.rfft``, the real-input path ``scipy.fft`` takes,
    so the result equals ``abs(scipy.signal.hilbert(y))`` bit for bit."""
    y = np.asarray(y, dtype=float)
    n = y.size
    Y = np.zeros(n, dtype=complex)
    Y[: n // 2 + 1] = np.fft.rfft(y)
    Y[1:(n + 1) // 2] *= 2.0
    return np.abs(np.fft.ifft(Y))


def local_maxima(y: np.ndarray) -> np.ndarray:
    """Indices of the strict local maxima of y: runs of equal values that are
    higher than the runs on both sides, at the midpoint (left + right) // 2 of
    a plateau.  A run touching either end of y is not a maximum."""
    y = np.asarray(y)
    if y.size < 3:
        return np.zeros(0, dtype=np.intp)
    starts = np.concatenate(([0], np.flatnonzero(y[1:] != y[:-1]) + 1))
    ends = np.append(starts[1:] - 1, y.size - 1)
    v = y[starts]
    peak = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    return (starts[peak] + ends[peak]) // 2


def detect_bursts(t: np.ndarray, y: np.ndarray, rel_threshold: float = 0.1,
                  cluster_gap: float = 0.8) -> BurstReport:
    """Local maxima of the analytic-signal envelope above rel_threshold of the
    global maximum, grouped into bursts separated by more than cluster_gap.
    The envelope is ``analytic_envelope`` and the maxima are ``local_maxima``,
    both O(n log n) or better in the length of y."""
    env = analytic_envelope(y)
    peaks = local_maxima(env)
    level = rel_threshold * float(np.max(env))
    peaks = peaks[env[peaks] >= level]
    if peaks.size == 0:
        empty = np.array([])
        return BurstReport(centers=empty, peak_times=empty.copy(), heights=empty.copy())
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
                       heights=np.array(heights))


def fig2_reproduce(*, S: float = 1.0, c: float = 1.0, M: int | None = None
                   ) -> tuple[HoloImage, BurstReport]:
    """Holographic image of the reference bump observable (mu = 0, zero mode
    excluded; S = 1 and c = 1 by default) and its burst report at 10% of the
    envelope maximum.  M is the cutoff of ``holographic_dual`` (automatic by
    default) on a table of modes 0 .. 64, which sets the strip; the map
    chooses its smearing grid (256 intervals x 3073 times at the defaults)
    and samples f' at 12288 times, both on [-12, 12].
    Only the burst locations and their ordering are quantitative; the curve
    shape depends on chi and a."""
    table = build_table(64, PhysicalParams(c=c, mu=0.0, geometry=Strip(S), d=1))
    # t_span 12: wide enough that edge wrap-around cannot inflate bursts
    image = holographic_dual(fig2_test_function, table, t_span=12.0, n_out=12288, M=M)
    report = detect_bursts(image.t_grid, image.fprime, rel_threshold=0.1)
    return image, report


# ---------------------------------------------------------------------------
# half-space variant

@dataclass
class HalfSpaceDual:
    """Sampled half-space image: fhat'(omega) on the mass shell (zero in the
    gap |omega| < mu) and a real, L2-quality f'.  Only the branch omega > mu
    is stored; the other is its conjugate, fhat'(-omega) = conj fhat'(omega).
    fhat' is generally non-smooth at the mass-shell edge |omega| = mu, so f'
    is square-integrable quality only."""

    q_grid: np.ndarray
    omega_grid: np.ndarray      # omega(q) = sqrt(q^2 + mu^2)
    fhat_pos: np.ndarray        # fhat'(+omega(q))
    edge_value: complex         # one-sided limit at omega -> mu+
    t_grid: np.ndarray | None
    fprime: np.ndarray | None


def halfspace_dual(f, p: PhysicalParams, q_grid: np.ndarray,
                   time_grid: np.ndarray, grid: Grid1D,
                   t_out: np.ndarray | None = None) -> HalfSpaceDual:
    """Half-space holographic map (d = 1):

        fhat'(omega) = sqrt(pi (c^2 q^2 + 1) / 2) * fhat^(sgn omega)(q),
        q = sqrt(omega^2 - mu^2),  |omega| > mu,  zero inside the gap.

    The coefficients are smeared as in ``smeared_coeffs``: f sampled and
    projected on the modes in blocks of at most 2^18 samples
    (``_project_rows``), one ``fourier_trapezoid`` over the support span of f
    in time, and fhat^- = conj(fhat^+).  f' on ``t_out`` integrates fhat'(omega)
    e^(-i omega t) over omega on both branches, a trapezoid over the
    non-uniform samples omega(q); the branch omega < -mu is the conjugate of
    the other, so f' = 2 Re of the integral over omega > mu, a real array.
    ``time_grid`` must cover the support of f in time (ValueError
    otherwise); GeometryError unless ``p`` is a half-space."""
    _check_halfspace(p, "the half-space map")
    if p.mu <= 0:
        raise ValueError("the half-space map requires mu > 0")
    q_grid = np.asarray(q_grid, dtype=float)
    time_grid = np.asarray(time_grid, dtype=float)
    z = grid.nodes
    V = eval_halfspace_mode(q_grid[None, :], z[:, None], p)
    A, rows = _project_rows(lambda i, j: f(time_grid[i:j, None], z[None, :]),
                            time_grid.size, grid.quad_weights()[:, None] * V,
                            "the bulk test function")
    omegas = np.sqrt(q_grid**2 + p.mu**2)
    fhat_p = fourier_trapezoid(A[rows], time_grid[rows], omegas)
    pref = np.sqrt(np.pi * (p.c**2 * q_grid**2 + 1.0) / 2.0)
    fhat_pos = pref * fhat_p
    edge = complex(np.sqrt(np.pi / 2.0) * fhat_p[0]) if q_grid[0] == 0.0 else complex(fhat_pos[0])

    fprime = None
    if t_out is not None:
        t_out = np.asarray(t_out, dtype=float)
        fprime = 2.0 * fourier_trapezoid(fhat_pos[:, None], omegas, -t_out).real
    return HalfSpaceDual(q_grid=q_grid, omega_grid=omegas, fhat_pos=fhat_pos,
                         edge_value=edge, t_grid=t_out, fprime=fprime)
