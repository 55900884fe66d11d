"""Constructive bulk-to-boundary map.

A bulk smearing f determines frequency components fhat^+-_m at the mode
frequencies.  The boundary field sees a boundary smearing f' only through
fhat'(+-omega_m), so any Schwartz f' with fhat'(omega_m) d_m = fhat^+_m
smears it to the same operator as f.  The map takes the Gaussian sum over
the included modes

    f'(t) = exp(-t^2 / 2 tau^2) sum_m 2 Re[beta_m exp(-i omega_m t)],
    fhat'(omega) = tau sum_m [beta_m G(omega - omega_m)
                              + conj(beta_m) G(omega + omega_m)],
    G(x) = exp(-tau^2 x^2 / 2),

with the beta_m from the conditions at the +omega_m: two real n x n
systems, one for Re beta and one for Im beta.  The width is tau = 3 / g, g
the smallest gap between the included omega_m with 2 omega_0 (the gap from
omega_0 to -omega_0) counted, so that each Gaussian is at most e^-4.5 at the
other centres and both systems are near the identity (condition numbers
about 1.02 for ``holo`` and fig2).

f' is a closed form, exact at any t.  ``holographic_dual`` writes it on
|t| <= tau sqrt(2 ln 10^16), where its Gaussian window has fallen to 1e-16,
so the window holds f' to rounding, with a step of
pi / (4 (omega_max + 6 / tau)).  On that grid the trapezoid rule gives back
fhat'(omega_m) to rounding: the first alias of omega_m lies at least
48 / tau from every centre.  The round trip alone would take a step four
times coarser, pi / (omega_max + 9 / tau) (at most 3.5e-14 of the largest
coefficient for ``holo``, ``holo --max 48``, fig2 and criterion 10), but
fig2's burst arrivals are read at grid times: there that step is 0.21, more
than criterion 11's tolerance of 0.2, and moves the arrivals by up to 0.19.
A grid of more than 2^21 times is refused before it is built.  f' is
summed by ``qft._wave_sum``, by angle addition on these uniform times.

The mode table is the one source of the strip, c and mu: ``holographic_dual``
builds its grids from it, and the image keeps it for ``verify_dual``.

``holographic_dual`` chooses its smearing grid: it doubles the space
intervals from 64, with a time step of at most the space step and at most
pi / (2 omega_max) of the table, until two successive levels agree to 1e-11
of the largest coefficient or to the smearing's rounding floor, and records
the grid, that estimate and the floor in the image metadata.  The trapezoid
sums of a smooth f that vanishes towards the ends of both axes converge
exponentially (Trefethen & Weideman, SIAM Rev. 56, 2014), so the test
functions here stop at 128 to 256 intervals.  On each level f is never
sampled on the whole space-time grid: ``smeared_coeffs`` evaluates it on
blocks of time rows of at most 2^18 samples and projects each block on the
modes as it is made, keeping the row peaks that locate its support in time.
The smearing therefore takes O(2^18 + n_t (M + 1)) memory, not
O(n_t x n_nodes); ``halfspace_dual`` samples the same way.

The field is real, so for a real bulk smearing fhat^-_m = conj fhat^+_m, and
the boundary image is Hermitian: fhat'(-omega) = conj fhat'(omega), exactly
in floating point, and f' is real.  The image is therefore its n
coefficients fhat'(+omega_m) and tau, from which ``FreqExtension`` rebuilds
beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Grid1D, PhysicalParams, Strip, _check_halfspace
from .modes import ModeTable, build_table, eval_halfspace_mode
from .qft import (SmearedCoefficients, _project_rows, _wave_sum, fourier_trapezoid,
                  smeared_coeffs)

_ENERGY_FRACTION = 0.999  # coefficient energy the automatic cutoff M retains
_GAP_WIDTHS = 3.0         # tau times the smallest gap between included +-omega_m
_WINDOW = math.sqrt(2.0 * math.log(1e16))  # |t| / tau where f' is written
_MAX_TIMES = 1 << 21      # largest time grid of f'
_SMEAR_START = 64               # space intervals of the coarsest smearing level
_SMEAR_MAX_INTERVALS = 1 << 12  # finest smearing level
_SMEAR_RTOL = 1e-11             # two-resolution estimate, relative to max|fhat^+|


def included_modes(table: ModeTable, M: int) -> np.ndarray:
    """Mode indices usable by the map: m <= M with omega_m > 0 (a massless
    zero mode cannot be separated from the negative-frequency sector)."""
    omegas = table.omegas()[: M + 1]
    return np.nonzero(omegas > 0.0)[0]


def _width(modes: np.ndarray, omegas: np.ndarray) -> float:
    """tau = 3 / g for the included modes and their ascending omega_m, g the
    smallest gap between them with 2 omega_0 counted.  ValueError when there
    is no included mode, or when two omega_m are equal in double precision:
    no width separates them.  A large c S does that to modes 0 and 1 at
    mu > 0, since q_1^2 ~ 1 / (c S) is then lost in mu^2."""
    if modes.size == 0:
        raise ValueError("no mode with omega_m > 0 at or below the cutoff")
    gaps = np.diff(omegas)
    if not np.all(gaps > 0.0):
        i = int(np.argmin(gaps))
        raise ValueError(f"modes {modes[i]} and {modes[i + 1]} have the same frequency "
                         f"in double precision, so no image separates them; at mu > 0 "
                         f"a large c S does this, as q_1^2 ~ 1 / (c S) falls below "
                         f"the rounding of mu^2 (c S mu^2 above about 1e16); lower "
                         f"--c or --mu")
    return _GAP_WIDTHS / float(np.min(gaps, initial=2.0 * omegas[0]))


def _image_times(tau: float, omega_max: float) -> np.ndarray:
    """The uniform times |t| <= tau sqrt(2 ln 10^16), an odd number of them
    with a step of at most pi / (4 (omega_max + 6 / tau)); ValueError, before
    any array is built, when that takes more than _MAX_TIMES."""
    half = tau * _WINDOW
    steps = half / (math.pi / (4.0 * (omega_max + 6.0 / tau)))
    if not steps <= (_MAX_TIMES - 1) // 2:
        raise ValueError(f"the holographic image needs {2.0 * steps + 1.0:.3g} time "
                         f"samples, more than {_MAX_TIMES}: its closest frequencies, "
                         f"{_GAP_WIDTHS / tau:.3g} apart, need a window of "
                         f"|t| <= {half:.3g}; raise --mu")
    return np.linspace(-half, half, 2 * math.ceil(steps) + 1)


@dataclass
class FreqExtension:
    """The Hermitian Gaussian sum

        fhat'(omega) = tau sum_m [beta_m G(omega - omega_m)
                                  + conj(beta_m) G(omega + omega_m)],
        G(x) = exp(-tau^2 x^2 / 2),

    over the included modes, with the beta_m that make fhat'(+omega_m) =
    coeffs_m: the real and imaginary parts of those conditions are two real
    n x n systems in Re beta and Im beta, solved on construction.  Its inverse
    transform is ``fprime``."""

    tau: float
    modes: np.ndarray       # included mode indices
    omegas: np.ndarray      # their frequencies
    coeffs: np.ndarray      # fhat'(+omega_m)
    beta: np.ndarray = field(init=False)

    def _kernels(self, omega) -> tuple[np.ndarray, np.ndarray]:
        """tau (G(omega - omega_m) + G(omega + omega_m)) and
        tau (G(omega - omega_m) - G(omega + omega_m)), a row per omega: the
        maps from Re beta to Re fhat' and from Im beta to Im fhat'."""
        x = np.asarray(omega, dtype=float)[..., None]
        minus = np.exp(-0.5 * (self.tau * (x - self.omegas)) ** 2)
        plus = np.exp(-0.5 * (self.tau * (x + self.omegas)) ** 2)
        return self.tau * (minus + plus), self.tau * (minus - plus)

    def __post_init__(self):
        even, odd = self._kernels(self.omegas)
        self.beta = (np.linalg.solve(even, self.coeffs.real)
                     + 1j * np.linalg.solve(odd, self.coeffs.imag))

    def __call__(self, omega) -> np.ndarray:
        """fhat' at every omega of a scalar or an array."""
        even, odd = self._kernels(omega)
        return even @ self.beta.real + 1j * (odd @ self.beta.imag)

    def fprime(self, t: np.ndarray) -> np.ndarray:
        """f'(t) = exp(-t^2 / 2 tau^2) sum_m 2 Re[beta_m exp(-i omega_m t)] at
        the times of a 1-d array, by ``_wave_sum``."""
        t = np.asarray(t, dtype=float)
        out = 2.0 * _wave_sum(self.beta, self.omegas, t).real
        out *= np.exp(-0.5 * (t / self.tau) ** 2)
        return out


@dataclass
class HoloImage:
    """Boundary image f'(t) on the uniform times of its window, the extension
    fhat' that defines it (tau and the coefficients fhat'(+omega_m)), the
    smeared coefficients it interpolates and their mode table."""

    t_grid: np.ndarray
    fprime: np.ndarray
    extension: FreqExtension
    coeffs: SmearedCoefficients
    table: ModeTable
    metadata: dict
    warnings: list = field(default_factory=list)


def _smear(f, table: ModeTable, t_span: float
           ) -> tuple[SmearedCoefficients, int, int, float]:
    """Smeared coefficients of f on the coarsest of the doubling grids that
    meets the two-resolution estimate, with that grid's number of space
    intervals and of times and the estimate.

    Level n is the strip's grid of n intervals, step h = 2S/n, and the
    uniform times in [-t_span, t_span], 2 ceil(t_span / dt) + 1 of them for
    dt = min(h, pi / (2 omega_max)): the step resolves both the space scale
    and the largest frequency of the table.  From n = 64 the grid is doubled
    until two successive levels agree, max|delta fhat^+| <= max(1e-11
    max|fhat^+|, floor) of the finer one, which is returned with the ratio
    max|delta fhat^+| / max|fhat^+| as its estimate; the floor is the
    rounding floor ``smeared_coeffs`` bounds.  Where the sums converge
    exponentially the estimate is far above the finer level's own error.
    ValueError when pi / (2 omega_max) is below the space step of the finest
    level, before any level is built, and when max|fhat^+| is at or below the
    floor, where the image is zero to rounding; RuntimeError when 2^12
    intervals do not meet the tolerance."""
    S = table.params.geometry.S
    omega_max = float(np.max(table.omegas()))
    if 4.0 * S * omega_max > math.pi * _SMEAR_MAX_INTERVALS:
        raise ValueError(f"the smearing needs a time step of pi / (2 omega_max) = "
                         f"{math.pi / (2.0 * omega_max):.3g}, below the space step "
                         f"{2.0 * S / _SMEAR_MAX_INTERVALS:.3g} of its finest grid; "
                         f"lower --mu or --S")
    n, coarse = _SMEAR_START, None
    while True:
        grid = Grid1D.for_strip(S, n)
        n_t = 2 * math.ceil(max(t_span * n / (2.0 * S),
                                2.0 * t_span * omega_max / math.pi)) + 1
        fine = smeared_coeffs(f, None, table, np.linspace(-t_span, t_span, n_t), grid)
        if coarse is not None:
            scale = float(np.max(np.abs(fine.f_plus)))
            err = float(np.max(np.abs(fine.f_plus - coarse.f_plus)))
            if scale <= fine.floor:
                raise ValueError(f"the image vanishes on the {n}-interval grid and the "
                                 f"one before it, to rounding: max|fhat+| = {scale:.3e} "
                                 f"<= its rounding floor {fine.floor:.3e}; lower --mu "
                                 f"or --S")
            if err <= max(_SMEAR_RTOL * scale, fine.floor):
                return fine, n, n_t, err / scale
            if 2 * n > _SMEAR_MAX_INTERVALS:
                raise RuntimeError(
                    f"smearing did not converge: two-resolution error estimate "
                    f"{err:.3e} > {_SMEAR_RTOL:g} * max|fhat+| = {_SMEAR_RTOL * scale:.3e} "
                    f"at {n} intervals x {n_t} times, the cap of "
                    f"{_SMEAR_MAX_INTERVALS} intervals")
        coarse, n = fine, 2 * n


def holographic_dual(f, table: ModeTable, t_span: float,
                     M: int | None = None) -> HoloImage:
    """Holographic image of a bulk test function f(t, z) (callable,
    vectorized, vanishing outside |t| <= t_span) on the strip of ``table``,
    smeared on the coarsest space-time grid that meets a two-resolution
    estimate of 1e-11 or the rounding floor (``_smear``).  ``smeared_coeffs``
    evaluates f on blocks of time rows of at most 2^18 samples and projects
    each block on the modes as it is made, so the smearing takes
    O(2^18 + n_t (M + 1)) memory, not O(n_t x n_nodes).

    Computes the smeared coefficients, divides by the boundary couplings,
    interpolates them with the Gaussian sum ``FreqExtension`` of width
    tau = 3 / g, and writes f' on the window |t| <= tau sqrt(2 ln 10^16),
    which holds it to rounding (``_image_times``).  The cutoff M defaults to
    the smallest value retaining 99.9% of the coefficient energy; a warning
    is attached if the requested M falls short of that.  The metadata
    records tau, the smearing grid (``smear_intervals`` x ``smear_times``),
    its estimate relative to max|fhat^+| (``smear_estimate``) and its
    rounding floor (``smear_floor``).  An M beyond the table's last mode
    raises ValueError, and so do a complex f, an f that does not vanish at
    +-t_span, an image below the rounding floor, two equal included
    frequencies, and a window of more than 2^21 times; RuntimeError when 2^12
    intervals do not resolve the smearing."""
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
    omegas = table.omegas()[modes]
    tau = _width(modes, omegas)
    t_out = _image_times(tau, float(omegas[-1]))
    ext = FreqExtension(tau, modes, omegas, coeffs.f_plus[modes] / table.d_bdys[modes])

    meta = {"S": p.geometry.S, "c": p.c, "mu": p.mu, "M": M, "tau": tau,
            "energy_fraction": float(cum[np.searchsorted(usable, M)]),
            "smear_intervals": n_z, "smear_times": n_t, "smear_estimate": estimate,
            "smear_floor": coeffs.floor}
    return HoloImage(t_grid=t_out, fprime=ext.fprime(t_out), extension=ext,
                     coeffs=coeffs, table=table, metadata=meta, warnings=warnings)


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
    fhat'(-w_m) ghat'(+w_m), exercising the Gaussian-sum evaluators."""
    modes = extF.modes
    w = extF.omegas
    d = table.d_bdys[modes]
    return complex(np.sum(2 * np.pi / (2 * w) * d**2
                          * extF(-w) * extG(w)))


def verify_dual(image: HoloImage) -> DualReport:
    """Max interpolation residual |fhat'(+w_m) d_m - fhat^+_m| (normalized,
    d_m from the image's table) against the image's smeared coefficients, and
    the two-point pairing of the image with itself along both routes.
    fhat' is evaluated as its Gaussian sum, so the residual measures the
    solve for beta.  The residual at -w_m is the conjugate of the one at
    +w_m, so only +w_m is evaluated."""
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
    chooses its smearing grid on [-12, 12] (256 intervals x 3073 times at the
    defaults) and writes f' on its own window (|t| <= 22.0 in 755 times at
    the defaults).  Only the burst locations and their ordering are
    quantitative; the curve shape depends on the interpolation (tau).  The
    window exp(-t^2 / 2 tau^2) of f' sets most of the fall of the burst
    heights, 1, 0.52 and 0.14 at the defaults (1, 0.986 and 0.937 with the
    window divided out at the peak times), and keeps bursts beyond |t| = 5
    below the 10% threshold."""
    table = build_table(64, PhysicalParams(c=c, mu=0.0, geometry=Strip(S)))
    image = holographic_dual(fig2_test_function, table, t_span=12.0, M=M)
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
    A, rows, _ = _project_rows(lambda i, j: f(time_grid[i:j, None], z[None, :]),
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
