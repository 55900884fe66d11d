import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import find_peaks, hilbert

from wentzell.acceptance import criterion_10_holographic_identity
from wentzell.core import GeometryError, Grid1D, HalfSpace, PhysicalParams, Strip
from wentzell import holo
from wentzell.holo import (FreqExtension, HalfSpaceDual, analytic_envelope, detect_bursts,
                           fig2_reproduce, fig2_test_function, halfspace_dual,
                           holographic_dual, included_modes, local_maxima,
                           verify_dual)
from wentzell.modes import build_table
from wentzell.qft import fourier_trapezoid, smeared_coeffs

P1 = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))


@pytest.fixture(scope="module")
def table():
    return build_table(40, P1)


def gauss_f(t, z):
    return np.exp(-(t**2) / (2 * 0.25**2)) * np.exp(-(z**2) / (2 * 0.12**2))


def gauss_g(t, z):
    # criterion 10's second observable
    return np.exp(-(t - 0.3) ** 2 / (2 * 0.3 ** 2)) \
        * np.exp(-(z + 0.1) ** 2 / (2 * 0.15 ** 2))


@pytest.fixture(scope="module")
def image(table):
    return holographic_dual(gauss_f, table, t_span=4.0)


@pytest.fixture(scope="module")
def fig2():
    return fig2_reproduce()


def extension(table, M, coeffs, tau=None):
    """FreqExtension over the included modes m <= M with fhat'(+omega_m) =
    coeffs[m] (an array over the whole table) and the map's width tau."""
    modes = included_modes(table, M)
    omegas = table.omegas()[modes]
    return FreqExtension(holo._width(modes, omegas) if tau is None else tau, modes,
                         omegas, np.asarray(coeffs, dtype=complex)[modes])


def dense_inverse_transform(ext, t_grid, n_omega=4001, chunk=256):
    """Oracle: the trapezoid sum of (2 pi)^(-1/2) int fhat'(omega) e^(-i omega t)
    over both branches, on a uniform omega grid that reaches 40 / tau beyond
    the outermost centres, as a dense phase matrix taken in blocks of output
    times."""
    top = ext.omegas[-1] + 40.0 / ext.tau
    omega = np.linspace(-top, top, n_omega)
    fhat = ext(omega)
    out = np.empty(t_grid.shape, dtype=complex)
    for i in range(0, t_grid.size, chunk):
        out[i:i + chunk] = np.exp(-1j * np.outer(t_grid[i:i + chunk], omega)) @ fhat
    return out * (omega[1] - omega[0]) / np.sqrt(2 * np.pi)


def round_trip(img):
    """Largest miss of the trapezoid transform of the written f' on its own
    grid at the included omega_m against fhat'(+omega_m), relative to the
    largest fhat'(+omega_m)."""
    ext = img.extension
    back = fourier_trapezoid(img.fprime[:, None], img.t_grid, ext.omegas)
    return np.max(np.abs(back - ext.coeffs)) / np.max(np.abs(ext.coeffs))


@pytest.mark.parametrize("mu", [1.0, 0.1, 0.0])
def test_width_is_three_over_the_smallest_gap(mu):
    # the gaps between included omega_m grow with m, so tau is set by the
    # lowest ones for every cutoff: omega_1 - omega_0 at mu = 1, 2 omega_0
    # (from omega_0 to -omega_0) at mu = 0.1, and at mu = 0, where the zero
    # mode is excluded, omega_2 - omega_1
    t = build_table(40, PhysicalParams(c=1.0, mu=mu, geometry=Strip(1.0)))
    w = t.omegas()
    lowest = {1.0: w[1] - w[0], 0.1: 2.0 * w[0], 0.0: w[2] - w[1]}[mu]
    for M in (2, 8, 16, 32, 40):
        modes = included_modes(t, M)
        assert modes[0] == (1 if mu == 0.0 else 0)
        gaps = np.concatenate(([2.0 * w[modes[0]]], np.diff(w[modes])))
        assert np.min(gaps) == lowest
        assert holo._width(modes, w[modes]) == 3.0 / lowest
    if mu == 1.0:
        assert 3.0 / lowest == pytest.approx(9.3998, abs=1e-4)
    if mu == 0.0:
        # holo --fig2 --max 0: the zero mode alone is not included
        assert included_modes(t, 0).size == 0
        with pytest.raises(ValueError, match="no mode with omega_m > 0"):
            holo._width(included_modes(t, 0), w[:0])
    with pytest.raises(ValueError, match="modes 4 and 5 have the same frequency"):
        holo._width(np.arange(2, 6), np.array([1.0, 2.0, 3.0, 3.0]))


def test_extension_interpolates_exactly(table):
    # to rounding: the solve for beta is all that separates fhat'(omega_m)
    # from the coefficients, and both systems are near the identity
    rng = np.random.default_rng(4)
    cp = rng.normal(size=41) + 1j * rng.normal(size=41)
    modes = included_modes(table, 8)
    ext = extension(table, 8, cp)
    w = ext.omegas
    scale = np.max(np.abs(cp[modes]))
    assert np.max(np.abs(ext(w) - cp[modes])) <= 4e-16 * scale
    assert np.array_equal(ext(-w), np.conj(ext(w)))
    assert ext(float(w[3])) == ext(w)[3]
    for kernel in ext._kernels(w):
        assert np.linalg.cond(kernel) < 1.03


def _extension_loop(ext, omega):
    """fhat'(omega) as a loop over the modes: each mode adds its two Gaussians
    over the whole omega array."""
    omega = np.asarray(omega, dtype=float)
    out = np.zeros(omega.shape, dtype=complex)
    for wm, b in zip(ext.omegas, ext.beta):
        out += ext.tau * (b * np.exp(-0.5 * (ext.tau * (omega - wm)) ** 2)
                          + np.conj(b) * np.exp(-0.5 * (ext.tau * (omega + wm)) ** 2))
    return out[()] if omega.ndim == 0 else out


def test_extension_matches_per_mode_loop(table):
    rng = np.random.default_rng(11)
    cp = rng.normal(size=41) + 1j * rng.normal(size=41)
    many = extension(table, 12, cp)
    one = FreqExtension(many.tau, many.modes[:1], many.omegas[:1], many.coeffs[:1])
    for ext in (many, one):
        mids = (ext.omegas[:-1] + ext.omegas[1:]) / 2.0
        beyond = ext.omegas[-1] * np.array([1.0, 1.5, 3.0])
        cases = [rng.uniform(-1.2, 1.2, 5000) * ext.omegas[-1],
                 np.array([0.0, -0.0]), np.concatenate([mids, -mids, beyond, -beyond]),
                 rng.uniform(-20.0, 20.0, (40, 25)),
                 float(ext.omegas[0]), -float(ext.omegas[-1]), 0.0,
                 np.array(ext.omegas[-1]), np.array(-ext.omegas[0])]
        scale = ext.tau * np.sum(np.abs(ext.beta))
        for omega in cases:
            got, want = ext(omega), _extension_loop(ext, omega)
            assert np.max(np.abs(got - want)) <= 1e-15 * scale
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.iscomplexobj(got)


def test_verify_dual_residual(image):
    rep = verify_dual(image)
    assert rep.max_residual < 1e-6
    assert rep.pairing_rel_error < 1e-5


def test_verify_dual_detects_perturbation(image, table):
    perturbed = dataclasses.replace(table, d_bdys=table.d_bdys * 1.01)
    rep = verify_dual(dataclasses.replace(image, table=perturbed))
    assert rep.max_residual == pytest.approx(1e-2, rel=0.2)


def test_dual_linearity(table):
    def g(t, z):
        return np.exp(-((t - 0.2) ** 2) / (2 * 0.3**2)) \
            * np.exp(-((z + 0.15) ** 2) / (2 * 0.18**2))

    def combo(t, z):
        return 2.0 * gauss_f(t, z) - 0.7 * g(t, z)

    M = 20
    img_f = holographic_dual(gauss_f, table, t_span=4.0, M=M)
    img_g = holographic_dual(g, table, t_span=4.0, M=M)
    img_c = holographic_dual(combo, table, t_span=4.0, M=M)
    lin = 2.0 * np.asarray(img_f.fprime) - 0.7 * np.asarray(img_g.fprime)
    scale = np.max(np.abs(img_c.fprime))
    assert np.max(np.abs(np.asarray(img_c.fprime) - lin)) < 1e-10 * scale


def test_dual_reality(image):
    assert np.isrealobj(image.fprime)
    # the extension is Hermitian, exactly
    ext = image.extension
    w = np.linspace(0.0, 1.1 * ext.omegas[-1], 20001)
    assert np.count_nonzero(ext(w)) > 1000
    assert np.array_equal(ext(-w), np.conj(ext(w)))


def test_written_fprime_integrates_to_the_extension_at_zero(fig2):
    # off the modes too, the written f' is the inverse transform of fhat':
    # its time integral over the window is sqrt(2 pi) fhat'(0), which is
    # 1.3e-3 of the largest coefficient for fig2
    image, _ = fig2
    ext = image.extension
    dc = ext(0.0)
    assert dc.imag == 0.0 and abs(dc) > 1e-3 * np.max(np.abs(ext.coeffs))
    integral = np.trapezoid(image.fprime, image.t_grid)
    scale = np.trapezoid(np.abs(image.fprime), image.t_grid)
    assert abs(integral - np.sqrt(2 * np.pi) * dc.real) <= 1e-14 * scale


def test_dual_takes_the_strip_from_the_table():
    # an S = 0.5 table: the map smears on [-0.5, 0.5] with c and mu of the
    # table, on the grid its metadata reports, with a time step of at most h
    # and at most pi / (2 omega_max); here h is the smaller
    table = build_table(20, PhysicalParams(c=0.7, mu=1.3, geometry=Strip(0.5)))
    img = holographic_dual(gauss_f, table, t_span=2.0)
    grid = Grid1D.for_strip(0.5, img.metadata["smear_intervals"])
    t = np.linspace(-2.0, 2.0, img.metadata["smear_times"])
    dt = 4.0 / (t.size - 1)
    assert dt <= grid.h < 2.0 * dt
    assert dt <= np.pi / (2.0 * np.max(table.omegas()))
    assert img.metadata["smear_estimate"] <= 1e-11
    want = smeared_coeffs(gauss_f(t[:, None], grid.nodes[None, :]), None, table, t, grid)
    assert np.array_equal(img.coeffs.f_plus, want.f_plus)
    assert img.table is table
    assert (img.metadata["S"], img.metadata["c"], img.metadata["mu"]) == (0.5, 0.7, 1.3)
    tau = img.metadata["tau"]
    assert img.t_grid[-1] == -img.t_grid[0] == tau * np.sqrt(2 * np.log(1e16))
    omega_max = img.extension.omegas[-1]
    assert np.max(np.diff(img.t_grid)) <= np.pi / (4 * (omega_max + 6 / tau))


def _recording(f):
    """f, and the list of the sample counts of its calls."""
    sizes = []

    def rec(t, z):
        out = f(t, z)
        sizes.append(np.size(out))
        return out
    return rec, sizes


def _halfspace_f(t, z):
    return np.exp(-(t**2) / (2 * 0.3**2)) * np.exp(-((z - 0.8) ** 2) / (2 * 0.15**2))


def _level_samples(image, t_span: float) -> int:
    """Samples of f on the smearing levels n = 64, 128, .. up to the one the
    image reports, each of n + 1 nodes and 2 ceil(t_span / dt) + 1 times,
    dt = min(2S / n, pi / (2 omega_max))."""
    S, n_last = image.metadata["S"], image.metadata["smear_intervals"]
    omega_max = np.max(image.table.omegas())
    total, n = 0, 64
    while n <= n_last:
        n_t = 2 * int(np.ceil(max(t_span * n / (2.0 * S),
                                  2.0 * t_span * omega_max / np.pi))) + 1
        total += n_t * (n + 1)
        n *= 2
    assert n_t == image.metadata["smear_times"]
    return total


def test_duals_sample_f_in_blocks_of_at_most_2_18(table, image, fig2):
    # each row of each level's time grid is sampled once, and no call of f
    # makes more than 2^18 samples; the images are those of f passed as it is
    rec, sizes = _recording(gauss_f)
    img = holographic_dual(rec, table, t_span=4.0)
    assert np.array_equal(img.fprime, image.fprime)
    assert len(sizes) > 1 and max(sizes) <= 2**18
    assert sum(sizes) == _level_samples(img, 4.0)
    fig2_image, _ = fig2
    rec, sizes = _recording(fig2_test_function)
    img = holographic_dual(rec, fig2_image.table, t_span=12.0)
    assert np.array_equal(img.fprime, fig2_image.fprime)
    assert len(sizes) > 1 and max(sizes) <= 2**18
    assert sum(sizes) == _level_samples(img, 12.0)
    p = PhysicalParams(c=1.0, mu=1.0, geometry=HalfSpace())
    q_grid, t = np.linspace(0.0, 12.0, 241), np.linspace(-4.0, 4.0, 1601)
    grid = Grid1D.for_halfspace(4.0, 1024)
    rec, sizes = _recording(_halfspace_f)
    dual = halfspace_dual(rec, p, q_grid, t, grid)
    assert np.array_equal(dual.fhat_pos, halfspace_dual(_halfspace_f, p, q_grid, t, grid).fhat_pos)
    assert len(sizes) > 1 and max(sizes) <= 2**18 and sum(sizes) == 1601 * 1025


@pytest.mark.parametrize("sigma_z", [0.12, 0.02, 0.005])
def test_smearing_grid_meets_a_fine_reference(table, sigma_z):
    # off-centre bumps, so that both parities carry weight; the narrowest
    # needs 1024 intervals.  The reference is the same trapezoid rule on
    # 4096 intervals with a time step of 1/2048.
    def f(t, z):
        return np.exp(-(t**2) / (2 * 0.25**2)) * np.exp(-((z - 0.3) ** 2) / (2 * sigma_z**2))

    img = holographic_dual(f, table, t_span=2.0)
    assert img.metadata["smear_estimate"] <= 1e-11
    t = np.linspace(-2.0, 2.0, 8193)
    ref = smeared_coeffs(f, None, table, t, Grid1D.for_strip(1.0, 4096)).f_plus
    err = np.max(np.abs(img.coeffs.f_plus - ref))
    assert err <= 1e-13 * np.max(np.abs(ref)), (img.metadata["smear_intervals"], err)


def test_smearing_refuses_a_zero_f(table):
    with pytest.raises(ValueError, match="vanishes on the 128-interval grid"):
        holographic_dual(lambda t, z: 0.0 * t * z, table, t_span=2.0)


def test_smearing_stops_at_its_rounding_floor():
    # holo --S 20: the image is 1.7e-5 and the level differences sit at
    # rounding, about 5e-16, from the first comparison, above 1e-11 of the
    # image: the floor ends the doubling at 128 intervals
    t20 = build_table(48, PhysicalParams(c=1.0, mu=1.0, geometry=Strip(20.0)))

    def f(t, z):
        return np.exp(-(t**2) / (2 * 5.0**2)) * np.exp(-(z**2) / (2 * 2.4**2))

    img = holographic_dual(f, t20, t_span=80.0)
    meta, scale = img.metadata, np.max(np.abs(img.coeffs.f_plus))
    assert meta["smear_intervals"] == 128
    assert 1e-11 < meta["smear_estimate"]
    assert meta["smear_estimate"] * scale <= meta["smear_floor"]
    assert meta["smear_floor"] < 1e-8 * scale


def test_smearing_refuses_an_image_below_its_floor(table):
    # at mu = 40 the time Gaussian's transform at omega >= 40 is about e^-50:
    # the coefficients are rounding, at or below the floor on every level
    t40 = build_table(48, PhysicalParams(c=1.0, mu=40.0, geometry=Strip(1.0)))
    with pytest.raises(ValueError, match="vanishes on the 128-interval grid .* to "
                                         "rounding: .* <= its rounding floor"):
        holographic_dual(gauss_f, t40, t_span=4.0)


def test_smearing_refuses_a_time_step_below_its_finest_space_step():
    # omega_max = 1730 needs a time step of pi / 3460, below 2S / 4096 at
    # S = 693: refused before f is sampled
    t693 = build_table(1, PhysicalParams(c=2.3e-6, mu=1730.0, geometry=Strip(693.0)))
    rec, sizes = _recording(gauss_f)
    with pytest.raises(ValueError, match="below the space step 0.338 of its finest grid"):
        holographic_dual(rec, t693, t_span=2772.0)
    assert sizes == []


def test_smearing_refuses_an_f_the_cap_cannot_resolve(table):
    # a jump in z: the trapezoid sums converge only like h
    def f(t, z):
        return np.exp(-(t**2) / (2 * 0.1**2)) * (z > 0.123)

    with pytest.raises(RuntimeError, match="two-resolution error estimate .* 4096"):
        holographic_dual(f, table, t_span=0.8)


def test_dual_checks_the_support_and_reality_of_f(table):
    # gauss_f has width 0.25 in t: on [-0.3, 0.3] its end rows are exp(-0.72)
    # of its peak
    with pytest.raises(ValueError, match="does not cover the support"):
        holographic_dual(gauss_f, table, t_span=0.3)
    with pytest.raises(ValueError, match="must be real"):
        holographic_dual(lambda t, z: gauss_f(t, z) * (1.0 + 0.5j), table, t_span=4.0)


def test_smearing_memory_is_bounded_by_its_blocks():
    # with the whole n_t x 1025 sample array the traced peaks were 26.7 MB
    # (fig2) and 20.3 MB (criterion 10); a block holds at most 2 MB.  The
    # untraced first call keeps one-time import allocations out of the peak.
    for run in (fig2_reproduce, criterion_10_holographic_identity):
        run()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, (run.__name__, peak)


def test_dual_energy_warning(table):
    img = holographic_dual(gauss_f, table, t_span=4.0, M=2)
    assert img.warnings


def test_dual_rejects_cutoff_beyond_table(table):
    # a 41-mode table ends at m = 40: M = 41 would silently use modes up to 40
    holographic_dual(gauss_f, table, t_span=4.0, M=40)
    with pytest.raises(ValueError, match="exceeds the table's last mode m=40"):
        holographic_dual(gauss_f, table, t_span=4.0, M=41)


def test_single_mode_packet(table):
    """A single-mode excitation produces one modulated burst whose carrier is
    the mode frequency; the closed form matches a dense-grid inverse
    transform."""
    m = 5
    cp = np.zeros(41, dtype=complex)
    cp[m] = 1.0
    ext = extension(table, 8, cp)
    t = np.linspace(-6.0, 6.0, 1024)
    wm = table.omegas()[m]
    fprime = ext.fprime(t)
    oracle = dense_inverse_transform(ext, t)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(fprime - oracle)) <= 1e-12 * scale
    # carrier frequency from zero crossings near the center: a cos(w t)
    # carrier crosses zero L w / pi times on a window of length L
    mid = np.abs(t) < 1.0
    crossings = np.count_nonzero(np.diff(np.sign(fprime[mid])))
    assert crossings * np.pi / 2.0 == pytest.approx(wm, rel=0.1)
    # a single mass shell is quasi-monochromatic: one broad modulated burst
    # whose envelope peaks near t = 0 (its width is tau)
    t_long = np.linspace(-150.0, 150.0, 8192)
    burst = detect_bursts(t_long, ext.fprime(t_long), rel_threshold=0.3,
                          cluster_gap=40.0)
    assert len(burst.centers) == 1
    assert abs(burst.peak_times[0]) < 1.0


@pytest.mark.parametrize("case", ["holo", "fig2", "criterion-10-g", "holo-max-48"])
def test_written_fprime_gives_back_its_image(case, fig2):
    # the trapezoid transform of f' on its own grid is fhat'(+omega_m) to
    # rounding (about 2e-15 of the largest), and the window holds f': its
    # ends are at rounding against its peak
    t48 = build_table(48, P1)
    if case == "holo":
        img = holographic_dual(gauss_f, t48, t_span=4.0)
    elif case == "fig2":
        img = fig2[0]
    elif case == "criterion-10-g":
        t40 = build_table(40, P1)
        M = holographic_dual(gauss_f, t40, t_span=4.0).metadata["M"]
        img = holographic_dual(gauss_g, t40, t_span=4.0, M=M)
    else:
        img = holographic_dual(gauss_f, t48, t_span=4.0, M=48)
        assert img.extension.modes.tolist() == list(range(49))
    assert round_trip(img) <= 1e-13
    ends = np.abs(img.fprime[[0, -1]])
    assert np.all(ends <= 1e-15 * np.max(np.abs(img.fprime)))


def test_written_fprime_misses_a_perturbed_image(image):
    # the round trip reads the written samples: one coefficient of fhat'
    # moved by 1e-6 of the largest is seen at that size
    ext = image.extension
    coeffs = ext.coeffs.copy()
    coeffs[2] += 1e-6 * np.max(np.abs(coeffs))
    moved = FreqExtension(ext.tau, ext.modes, ext.omegas, coeffs)
    assert round_trip(dataclasses.replace(image, fprime=moved.fprime(image.t_grid))) \
        == pytest.approx(1e-6, rel=1e-3)


def _assert_matches_dense(img):
    oracle = dense_inverse_transform(img.extension, img.t_grid)
    assert np.max(np.abs(img.fprime - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_inverse_transform_matches_dense_fig2(fig2):
    _assert_matches_dense(fig2[0])


def test_inverse_transform_matches_dense_default(image):
    _assert_matches_dense(image)


@pytest.mark.parametrize("gap", [0.0, float("nan"), "just below the cap"])
def test_inverse_transform_refuses_a_grid_beyond_the_cap(monkeypatch, gap):
    # the size of f''s grid is checked before any grid exists: no array is
    # built at all.  tau = 3 / gap is infinite at a gap of 0 and NaN at NaN;
    # just below the cap's gap the grid would hold 2^21 + 1 times
    omega_max = 5.0
    if gap == "just below the cap":
        steps = (holo._MAX_TIMES - 1) // 2
        tau = (steps * np.pi / (4 * holo._WINDOW) - 6.0) / omega_max
        assert holo._image_times(tau * (1 - 1e-12), omega_max).size == holo._MAX_TIMES - 1
        tau *= 1 + 1e-12
    else:
        with np.errstate(divide="ignore"):
            tau = np.divide(3.0, gap)

    def no_arrays(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(holo.np, "linspace", no_arrays)
    with pytest.raises(ValueError, match="time samples, more than 2097152.*--mu"):
        holo._image_times(tau, omega_max)


def test_inverse_transform_zero_spectrum(table):
    ext = extension(table, 8, np.zeros(len(table), dtype=complex))
    t = np.linspace(-4.0, 4.0, 257)
    fprime = ext.fprime(t)
    assert np.isrealobj(fprime)
    assert fprime.shape == t.shape and not np.any(fprime)


# ---------------------------------------------------------------------------
# reference observable

def test_fig2_function_values():
    assert float(fig2_test_function(0.0, 0.0)) == pytest.approx(np.exp(-8.0), abs=1e-12)
    assert float(fig2_test_function(0.6, 0.0)) == 0.0
    assert float(fig2_test_function(0.0, -0.5)) == 0.0
    # peak of the time slice at x = 0 sits at t = 0
    t = np.linspace(-0.49, 0.49, 99)
    vals = fig2_test_function(t, 0.0)
    assert np.argmax(vals) == 49


def _fig2_elementwise(t, x):
    """The bump over the whole broadcast grid: a mask of the support and the
    exponent at every point in it."""
    tb, xb = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    out = np.zeros(tb.shape)
    inside = (np.abs(tb) < 0.5) & (np.abs(xb) < 0.5)
    ti, xi = tb[inside], xb[inside]
    out[inside] = np.exp(-1.0 / (ti + 0.5) - 1.0 / (0.5 - ti)
                         - 1.0 / (xi + 0.5) - 1.0 / (0.5 - xi))
    return out


@pytest.mark.parametrize("t, x", [
    # random points, some outside the support
    tuple(np.random.default_rng(7).uniform(-0.7, 0.7, (2, 500))),
    # a space-time grid as the smearing samples it
    (np.linspace(-2.0, 2.0, 257)[:, None], np.linspace(-1.0, 1.0, 129)[None, :]),
    (np.linspace(-0.8, 0.8, 97)[None, :], np.linspace(-0.6, 0.6, 33)[:, None]),
    # scalars and 0-d arrays, inside and outside
    (0.1, -0.2), (0.6, 0.0), (np.array(0.1), np.array(-0.3)), (np.array(0.0), 0.7),
    # the edges t, x = +-1/2 exactly
    (np.array([-0.5, -0.25, 0.0, 0.25, 0.5])[:, None],
     np.array([-0.5, -0.25, 0.0, 0.25, 0.5])[None, :]),
    # grids entirely outside the support
    (np.linspace(1.0, 3.0, 17)[:, None], np.linspace(-0.3, 0.3, 7)[None, :]),
    (np.linspace(-0.3, 0.3, 7)[:, None], np.linspace(0.5, 1.0, 9)[None, :]),
    # a 3-d broadcast
    (np.linspace(-0.6, 0.6, 9)[:, None, None], np.linspace(-0.6, 0.6, 12).reshape(1, 3, 4)),
])
def test_fig2_function_bitwise_elementwise(t, x):
    got = fig2_test_function(t, x)
    want = _fig2_elementwise(t, x)
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype


@pytest.mark.slow
def test_fig2_bursts(fig2):
    image, burst = fig2
    assert burst.matches([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0], tol=0.2)
    # the window exp(-t^2 / 2 tau^2) alone makes the heights fall; divided
    # out, they must still decay
    heights = []
    for e in (1.0, 3.0, 5.0):
        idx = int(np.argmin(np.abs(burst.centers - e)))
        heights.append(burst.heights[idx]
                       * np.exp(0.5 * (burst.peak_times[idx] / image.extension.tau) ** 2))
    assert heights[0] > heights[1] > heights[2]


# ---------------------------------------------------------------------------
# half-space map

def test_halfspace_dual_roundtrip():
    p = PhysicalParams(c=1.0, mu=1.0, geometry=HalfSpace())

    def f(t, z):
        return np.exp(-(t**2) / (2 * 0.3**2)) * np.exp(-((z - 0.8) ** 2) / (2 * 0.15**2))

    q_grid = np.linspace(0.0, 12.0, 241)
    tgrid = np.linspace(-4.0, 4.0, 1601)
    grid = Grid1D.for_halfspace(4.0, 1024)
    dual = halfspace_dual(f, p, q_grid, tgrid, grid, t_out=np.linspace(-4, 4, 512))
    assert isinstance(dual, HalfSpaceDual)
    # gap: omega(q) never enters |omega| < mu
    assert np.all(dual.omega_grid >= p.mu)
    # one-sided edge limit equals sqrt(pi/2) fhat^+(q=0)
    pref0 = np.sqrt(np.pi / 2.0)
    assert dual.edge_value == pytest.approx(complex(dual.fhat_pos[0]))
    assert abs(dual.fhat_pos[0] / pref0 - dual.edge_value / pref0) < 1e-12
    # round trip: dividing out the prefactor recovers the coefficients
    pref = np.sqrt(np.pi * (q_grid**2 + 1.0) / 2.0)
    rec = dual.fhat_pos / pref
    # independent recomputation of one coefficient by direct quadrature
    from wentzell.modes import eval_halfspace_mode
    i = 40
    q = q_grid[i]
    w = np.sqrt(q**2 + p.mu**2)
    z = grid.nodes
    prof = eval_halfspace_mode(q, z, p)
    inner = np.trapezoid(f(tgrid[:, None], z[None, :]) * prof[None, :], z, axis=1)
    direct = np.trapezoid(inner * np.exp(1j * w * tgrid), tgrid) / np.sqrt(2 * np.pi)
    assert rec[i] == pytest.approx(direct, rel=1e-6)
    assert dual.fprime is not None and dual.fprime.shape == (512,)


def test_halfspace_dual_fprime_at_t0_matches_q_quadrature():
    """f'(0) integrates fhat' over omega once: against the same integral
    taken over q, (2 pi)^(-1/2) int dq (q / omega) (fhat'(+w) + fhat'(-w))."""
    p = PhysicalParams(c=1.0, mu=1.0, geometry=HalfSpace())

    def f(t, z):
        return np.exp(-(t**2) / (2 * 0.3**2)) * np.exp(-((z - 0.8) ** 2) / (2 * 0.15**2))

    q_grid = np.linspace(0.0, 12.0, 241)
    t_out = np.linspace(-4.0, 4.0, 513)
    dual = halfspace_dual(f, p, q_grid, np.linspace(-4.0, 4.0, 1601),
                          Grid1D.for_halfspace(4.0, 1024), t_out=t_out)
    at0 = dual.fprime[np.flatnonzero(t_out == 0.0)[0]]
    ref = np.trapezoid(q_grid / dual.omega_grid * (dual.fhat_pos + np.conj(dual.fhat_pos)),
                       q_grid) / np.sqrt(2 * np.pi)
    assert abs(at0 - ref) < 1e-3 * abs(ref)


def test_halfspace_dual_fprime_is_the_two_branch_sum():
    """f' is real and equals the sum of the two branch transforms,
    fhat'(+w) against e^(-i w t) plus its conjugate fhat'(-w) against e^(i w t)."""
    p = PhysicalParams(c=0.7, mu=1.0, geometry=HalfSpace())

    def f(t, z):
        return np.exp(-(t**2) / (2 * 0.3**2)) * np.exp(-((z - 0.8) ** 2) / (2 * 0.15**2))

    q_grid = np.linspace(0.0, 12.0, 241)
    t_out = np.linspace(-4.0, 4.0, 513)
    dual = halfspace_dual(f, p, q_grid, np.linspace(-4.0, 4.0, 1601),
                          Grid1D.for_halfspace(4.0, 1024), t_out=t_out)
    ref = (fourier_trapezoid(dual.fhat_pos[:, None], dual.omega_grid, -t_out)
           + fourier_trapezoid(np.conj(dual.fhat_pos)[:, None], dual.omega_grid, t_out))
    assert dual.fprime.dtype == np.float64 and dual.fprime.shape == t_out.shape
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(ref.imag)) <= 1e-15 * scale
    assert np.max(np.abs(dual.fprime - ref.real)) <= 1e-15 * scale


def test_halfspace_dual_rejects_time_grid_inside_support():
    # the Gaussian in t has width 0.3: a grid on [-0.3, 0.3] cuts it off at
    # exp(-1/2) of its peak, which the trapezoid would silently truncate
    p = PhysicalParams(c=1.0, mu=1.0, geometry=HalfSpace())

    def f(t, z):
        return np.exp(-(t**2) / (2 * 0.3**2)) * np.exp(-((z - 0.8) ** 2) / (2 * 0.15**2))

    with pytest.raises(ValueError, match="does not cover the support"):
        halfspace_dual(f, p, np.linspace(0.0, 12.0, 241), np.linspace(-0.3, 0.3, 121),
                       Grid1D.for_halfspace(4.0, 1024))


def test_halfspace_dual_needs_mass():
    p0 = PhysicalParams(c=1.0, mu=0.0, geometry=HalfSpace())
    with pytest.raises(ValueError, match="mu > 0"):
        halfspace_dual(lambda t, z: t * 0.0, p0, np.linspace(0, 5, 11),
                       np.linspace(-1, 1, 21), Grid1D.for_halfspace(2.0, 64))


def test_halfspace_formulas_reject_a_strip():
    # a strip's S would be ignored: each half-space formula reads only c and mu
    from wentzell.modes import eval_halfspace_mode
    from wentzell.qft import boundary_2pt_halfspace

    strip = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))
    with pytest.raises(GeometryError, match="half-space parameters"):
        eval_halfspace_mode(1.3, 0.5, strip)
    with pytest.raises(GeometryError, match="half-space parameters"):
        boundary_2pt_halfspace(0.5, strip, 50.0)
    with pytest.raises(GeometryError, match="half-space parameters"):
        halfspace_dual(lambda t, z: t * z, strip, np.linspace(0, 5, 11),
                       np.linspace(-1, 1, 21), Grid1D.for_halfspace(2.0, 64))


# ---------------------------------------------------------------------------
# properties

coef = arrays(complex, 9, elements=st.complex_numbers(max_magnitude=10.0,
                                                      allow_nan=False,
                                                      allow_infinity=False))


@given(cp=coef)
@settings(max_examples=25, deadline=None)
def test_extension_linearity_property(cp):
    table = build_table(8, P1)
    e1 = extension(table, 8, cp)
    e2 = extension(table, 8, 2 * cp)
    w = np.linspace(-12.0, 12.0, 301)
    assert np.max(np.abs(e2(w) - 2 * e1(w))) < 1e-12 * max(1.0, np.max(np.abs(e1(w))))


# ---------------------------------------------------------------------------
# burst detection primitives against their scipy.signal oracles

@pytest.mark.parametrize("n", [1, 2, 7, 8, 1023, 1024])
def test_analytic_envelope_matches_scipy_hilbert(n):
    y = np.random.default_rng(n).standard_normal(n)
    assert np.array_equal(analytic_envelope(y), np.abs(hilbert(y)))


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(0, 60), elements=st.sampled_from([-1.0, 0.0, 0.5, 2.0])))
def test_local_maxima_matches_find_peaks(y):
    # few distinct values make plateaus, ties and end runs frequent
    assert np.array_equal(local_maxima(y), find_peaks(y)[0])
