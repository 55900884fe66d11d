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
from wentzell.holo import (_SAMPLES_PER_BUMP, BumpOverlapError, FreqExtension,
                           HalfSpaceDual, _inverse_transform, analytic_envelope, choose_a,
                           default_chi, detect_bursts, fig2_reproduce,
                           fig2_test_function, halfspace_dual,
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


@pytest.fixture(scope="module")
def image(table):
    return holographic_dual(gauss_f, table, t_span=4.0, n_out=1024)


@pytest.fixture(scope="module")
def fig2():
    return fig2_reproduce()


def extension(table, M, coeffs, a=None):
    """FreqExtension over the included modes m <= M with fhat'(+omega_m) =
    coeffs[m] (an array over the whole table) and bump scale ``choose_a``."""
    modes = included_modes(table, M)
    return FreqExtension(choose_a(table, M) if a is None else a, modes,
                         table.omegas()[modes], np.asarray(coeffs)[modes])


def image_step(ext):
    """The frequency step of ``holographic_dual``: the narrowest bump over
    _SAMPLES_PER_BUMP."""
    return float(np.min(ext.bump_width(ext.omegas))) / _SAMPLES_PER_BUMP


def dense_inverse_transform(ext, d_omega, t_grid, chunk=1024):
    """Oracle: the trapezoid sum of the inverse transform over both branches,
    on the grid k d_omega symmetric about 0 that covers every bump, as a dense
    phase matrix over the nonzero samples, taken in blocks of output times."""
    n_half = int(np.ceil(np.sqrt(ext.omegas[-1] ** 2 + 1.0 / (2 * ext.a)) / d_omega)) + 2
    omega_grid = np.arange(-n_half, n_half + 1) * d_omega
    fhat = ext(omega_grid)
    nz = np.nonzero(fhat)[0]
    out = np.empty(t_grid.shape, dtype=complex)
    for i in range(0, t_grid.size, chunk):
        phases = np.exp(-1j * np.outer(t_grid[i:i + chunk], omega_grid[nz]))
        out[i:i + chunk] = phases @ fhat[nz]
    return out * d_omega / np.sqrt(2 * np.pi)


def assert_matches_dense(ext, d_omega, t_grid, fprime):
    """The fast transform is real and agrees with the dense sum over both
    branches to rounding."""
    assert np.isrealobj(fprime)
    oracle = dense_inverse_transform(ext, d_omega, t_grid)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(fprime - oracle)) <= 1e-12 * scale


def test_default_chi():
    assert default_chi(0.0) == pytest.approx(1.0)
    assert default_chi(0.5) == 0.0
    assert default_chi(np.array([0.49999, -0.6, 0.2]))[1] == 0.0
    u = np.linspace(-0.49, 0.49, 101)
    assert np.all(default_chi(u) > 0)


def test_choose_a_reference_value(table):
    # gaps omega_1^2 - omega_0^2 = q_1^2 ~ 0.7402, omega_2^2 - omega_1^2 ~ 3.3757;
    # the sector condition 1/(2 mu^2) = 0.5 loses to the smallest gap
    q1, q2 = table.qs[1], table.qs[2]
    expected = max(1.0 / (2 * 1.0), 1.0 / q1**2) / 0.9
    a = choose_a(table, 2)
    assert a == pytest.approx(expected, rel=1e-12)
    assert a == pytest.approx(1.5011, abs=1e-4)
    assert q1**2 == pytest.approx(0.7402, abs=1e-4)
    assert q2**2 - q1**2 == pytest.approx(3.3757, abs=1e-4)


def test_choose_a_massless_drops_mu_constraint():
    p0 = PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.0))
    t0 = build_table(10, p0)
    # zero mode excluded: lowest usable frequency is q_1
    a = choose_a(t0, 4)
    expected = max(1.0 / (2 * t0.qs[1] ** 2), 1.0 / (t0.qs[2] ** 2 - t0.qs[1] ** 2)) / 0.9
    assert a == pytest.approx(expected, rel=1e-12)


def test_choose_a_monotone_in_M(table):
    a2 = choose_a(table, 2)
    for M in (4, 8, 16, 32):
        assert choose_a(table, M) <= a2 + 1e-15


def test_bump_disjointness_enforced(table):
    coeffs = np.ones(41, dtype=complex)
    a = choose_a(table, 10)
    ext = extension(table, 10, coeffs, a)
    w2 = ext.omegas**2
    half = 1.0 / (2 * ext.a)
    assert w2[0] - half > 0
    assert np.all(np.diff(w2) > 2 * half)
    with pytest.raises(BumpOverlapError):
        extension(table, 10, coeffs, a / 20)


def test_extension_interpolates_exactly(table):
    rng = np.random.default_rng(4)
    cp = rng.normal(size=41) + 1j * rng.normal(size=41)
    modes = included_modes(table, 8)
    ext = extension(table, 8, cp)
    w = ext.omegas
    assert np.max(np.abs(ext(w) - cp[modes])) == 0.0
    assert np.max(np.abs(ext(-w) - np.conj(cp)[modes])) == 0.0
    assert ext(float(w[3])) == cp[modes[3]]


def test_extension_zero_between_bumps(table):
    a = choose_a(table, 4)
    ext = extension(table, 4, np.ones(41, dtype=complex))
    w2 = ext.omegas**2
    between = np.sqrt(0.5 * (w2[0] + 1 / (2 * a)) + 0.5 * (w2[1] - 1 / (2 * a)))
    assert ext(float(between)) == 0.0
    assert ext(0.0) == 0.0


def test_extension_smooth_across_bump_edge(table):
    a = choose_a(table, 6)
    ext = extension(table, 6, np.ones(41, dtype=complex))
    edge = np.sqrt(ext.omegas[2] ** 2 + 1 / (2 * a))

    def max_second_diff(n):
        w = np.linspace(edge - 0.05, edge + 0.05, n + 1)
        deriv = np.diff(ext(w).real) / (w[1] - w[0])
        return float(np.max(np.abs(np.diff(deriv)))), deriv

    d1, deriv = max_second_diff(4000)
    d2, _ = max_second_diff(8000)
    assert np.max(np.abs(deriv)) < 50.0  # bounded slope across the edge
    # second differences shrink linearly under refinement: the derivative is
    # continuous (a slope jump would leave them constant)
    assert d2 < 0.7 * d1


def _extension_loop(ext, omega):
    """fhat'(omega) as a loop over the modes: each bump masks the whole omega
    array, and omega <= 0 takes the conjugate coefficient."""
    omega = np.asarray(omega, dtype=float)
    scalar = omega.ndim == 0
    omega = np.atleast_1d(omega)
    out = np.zeros(omega.shape, dtype=complex)
    w2 = omega**2
    for wm, cp in zip(ext.omegas, ext.coeffs):
        u = ext.a * (w2 - wm**2)
        mask = np.abs(u) < 0.5
        val = default_chi(u[mask])
        out[mask] += np.where(omega[mask] > 0.0, val * cp, val * np.conj(cp))
    return out[0] if scalar else out


def test_extension_matches_per_mode_loop(table):
    rng = np.random.default_rng(11)
    cp = rng.normal(size=41) + 1j * rng.normal(size=41)
    many = extension(table, 12, cp)
    one = FreqExtension(many.a, many.modes[:1], many.omegas[:1], many.coeffs[:1])
    for ext in (many, one):
        half = 1.0 / (2.0 * ext.a)
        centres = ext.omegas**2
        edges = np.sqrt(np.concatenate([centres - half, centres + half]))
        edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        between = np.sqrt((centres[:-1] + half + centres[1:] - half) / 2.0)
        beyond = np.sqrt(centres[-1] + half) * np.array([1.0, 1.5, 3.0])
        cases = [rng.uniform(-1.2, 1.2, 5000) * ext.omegas[-1],
                 np.concatenate([edges, -edges]), np.array([0.0, -0.0]),
                 np.concatenate([between, -between, beyond, -beyond]),
                 rng.uniform(-20.0, 20.0, (40, 25)),
                 float(ext.omegas[0]), -float(ext.omegas[-1]), 0.0,
                 np.array(ext.omegas[-1]), np.array(-ext.omegas[0])]
        for omega in cases:
            got, want = ext(omega), _extension_loop(ext, omega)
            assert np.array_equal(got, want)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.count_nonzero(ext(cases[0])) > 100


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
    img_f = holographic_dual(gauss_f, table, t_span=4.0, n_out=1024, M=M)
    img_g = holographic_dual(g, table, t_span=4.0, n_out=1024, M=M)
    img_c = holographic_dual(combo, table, t_span=4.0, n_out=1024, M=M)
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


def test_dual_no_dc_component(image, table):
    # fhat' vanishes identically below the mass gap, so f' carries no DC
    # component; the windowed time integral only decays with the window since
    # the bump duals have long tails.
    ext = image.extension
    assert ext(0.0) == 0.0
    gap_edge = np.sqrt(ext.omegas[0] ** 2 - 1.0 / (2 * ext.a))
    w = np.linspace(-0.98 * gap_edge, 0.98 * gap_edge, 501)
    assert np.all(ext(w) == 0.0)
    img_wide = holographic_dual(gauss_f, table, t_span=16.0, n_out=4096,
                                M=image.metadata["M"])
    short = abs(np.trapezoid(np.asarray(image.fprime), image.t_grid))
    long = abs(np.trapezoid(np.asarray(img_wide.fprime), img_wide.t_grid))
    assert long < 0.5 * short


def test_dual_takes_the_strip_from_the_table():
    # an S = 0.5 table: the map smears on [-0.5, 0.5] with c and mu of the
    # table, on the grid its metadata reports, with a time step of at most h
    table = build_table(20, PhysicalParams(c=0.7, mu=1.3, geometry=Strip(0.5)))
    img = holographic_dual(gauss_f, table, t_span=2.0, n_out=256)
    grid = Grid1D.for_strip(0.5, img.metadata["smear_intervals"])
    t = np.linspace(-2.0, 2.0, img.metadata["smear_times"])
    dt = 4.0 / (t.size - 1)
    assert dt <= grid.h < 2.0 * dt
    assert img.metadata["smear_estimate"] <= 1e-11
    want = smeared_coeffs(gauss_f(t[:, None], grid.nodes[None, :]), None, table, t, grid)
    assert np.array_equal(img.coeffs.f_plus, want.f_plus)
    assert img.table is table
    assert (img.metadata["S"], img.metadata["c"], img.metadata["mu"]) == (0.5, 0.7, 1.3)
    assert np.array_equal(img.t_grid, np.linspace(-2.0, 2.0, 256))


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
    image reports, each of n + 1 nodes and 2 ceil(t_span n / 2S) + 1 times."""
    S, n_last = image.metadata["S"], image.metadata["smear_intervals"]
    total, n = 0, 64
    while n <= n_last:
        n_t = 2 * int(np.ceil(t_span * n / (2.0 * S))) + 1
        total += n_t * (n + 1)
        n *= 2
    assert n_t == image.metadata["smear_times"]
    return total


def test_duals_sample_f_in_blocks_of_at_most_2_18(table, image, fig2):
    # each row of each level's time grid is sampled once, and no call of f
    # makes more than 2^18 samples; the images are those of f passed as it is
    rec, sizes = _recording(gauss_f)
    img = holographic_dual(rec, table, t_span=4.0, n_out=1024)
    assert np.array_equal(img.fprime, image.fprime)
    assert len(sizes) > 1 and max(sizes) <= 2**18
    assert sum(sizes) == _level_samples(img, 4.0)
    fig2_image, _ = fig2
    rec, sizes = _recording(fig2_test_function)
    img = holographic_dual(rec, fig2_image.table, t_span=12.0, n_out=12288)
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

    img = holographic_dual(f, table, t_span=2.0, n_out=256)
    assert img.metadata["smear_estimate"] <= 1e-11
    t = np.linspace(-2.0, 2.0, 8193)
    ref = smeared_coeffs(f, None, table, t, Grid1D.for_strip(1.0, 4096)).f_plus
    err = np.max(np.abs(img.coeffs.f_plus - ref))
    assert err <= 1e-13 * np.max(np.abs(ref)), (img.metadata["smear_intervals"], err)


def test_smearing_refuses_a_zero_f(table):
    with pytest.raises(ValueError, match="vanishes on the 128-interval grid"):
        holographic_dual(lambda t, z: 0.0 * t * z, table, t_span=2.0, n_out=256)


def test_smearing_refuses_an_f_the_cap_cannot_resolve(table):
    # a jump in z: the trapezoid sums converge only like h
    def f(t, z):
        return np.exp(-(t**2) / (2 * 0.1**2)) * (z > 0.123)

    with pytest.raises(RuntimeError, match="two-resolution error estimate .* 4096"):
        holographic_dual(f, table, t_span=0.8, n_out=256)


def test_dual_checks_the_support_and_reality_of_f(table):
    # gauss_f has width 0.25 in t: on [-0.3, 0.3] its end rows are exp(-0.72)
    # of its peak
    with pytest.raises(ValueError, match="does not cover the support"):
        holographic_dual(gauss_f, table, t_span=0.3, n_out=256)
    with pytest.raises(ValueError, match="must be real"):
        holographic_dual(lambda t, z: gauss_f(t, z) * (1.0 + 0.5j), table, t_span=4.0,
                         n_out=256)


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
    img = holographic_dual(gauss_f, table, t_span=4.0, n_out=1024, M=2)
    assert img.warnings


def test_dual_rejects_cutoff_beyond_table(table):
    # a 41-mode table ends at m = 40: M = 41 would silently use modes up to 40
    holographic_dual(gauss_f, table, t_span=4.0, n_out=1024, M=40)
    with pytest.raises(ValueError, match="exceeds the table's last mode m=40"):
        holographic_dual(gauss_f, table, t_span=4.0, n_out=1024, M=41)


def test_single_mode_packet(table):
    """A single-mode excitation produces one modulated burst whose carrier is
    the mode frequency; the pipeline matches a dense-grid inverse transform."""
    m = 5
    cp = np.zeros(41, dtype=complex)
    cp[m] = 1.0
    a = choose_a(table, 8)
    ext = extension(table, 8, cp)
    t = np.linspace(-6.0, 6.0, 1024)
    wm = table.omegas()[m]
    # independent dense quadrature of the inverse transform over the two bump
    # supports (the extension vanishes elsewhere)
    half = 1.0 / (2 * a)
    seg = np.linspace(np.sqrt(wm**2 - half) - 1e-3, np.sqrt(wm**2 + half) + 1e-3,
                      20_001)
    oracle = np.zeros(t.size, dtype=complex)
    for branch in (seg, -seg[::-1]):
        fh = ext(branch)
        oracle += np.trapezoid(fh[None, :] * np.exp(-1j * np.outer(t, branch)),
                               branch, axis=1) / np.sqrt(2 * np.pi)
    d_omega = (np.sqrt(wm**2 + half) - np.sqrt(wm**2 - half)) / 64
    fprime = _inverse_transform(ext, d_omega, t)
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(np.asarray(fprime) - oracle.real)) < 1e-3 * scale
    # carrier frequency from zero crossings near the center: a cos(w t)
    # carrier crosses zero L w / pi times on a window of length L
    mid = np.abs(t) < 1.0
    crossings = np.count_nonzero(np.diff(np.sign(np.asarray(fprime)[mid])))
    assert crossings * np.pi / 2.0 == pytest.approx(wm, rel=0.1)
    # a single mass shell is quasi-monochromatic: one broad modulated burst
    # whose envelope peaks near t = 0 (scale set by the inverse bump width)
    t_long = np.linspace(-150.0, 150.0, 8192)
    fp_long = _inverse_transform(ext, d_omega, t_long)
    assert_matches_dense(ext, d_omega, t_long, fp_long)
    burst = detect_bursts(t_long, np.asarray(fp_long).real, rel_threshold=0.3,
                          cluster_gap=40.0)
    assert len(burst.centers) == 1
    assert abs(burst.peak_times[0]) < 1.0


def test_inverse_transform_matches_dense_fig2(fig2):
    image, _ = fig2
    ext = image.extension
    assert_matches_dense(ext, image_step(ext), image.t_grid, image.fprime)


def test_inverse_transform_matches_dense_default(image):
    ext = image.extension
    assert_matches_dense(ext, image_step(ext), image.t_grid, image.fprime)


def test_inverse_transform_rejects_nonuniform_t_out(image):
    t_out = np.linspace(-4.0, 4.0, 1024) ** 3 / 16.0
    with pytest.raises(ValueError, match="uniform"):
        _inverse_transform(image.extension, image_step(image.extension), t_out)


@pytest.mark.parametrize("d_omega", [0.0, float("nan"), "just below the cap"])
def test_inverse_transform_refuses_a_grid_beyond_the_cap(image, monkeypatch, d_omega):
    # the size is checked before any grid exists: no array is built at all
    ext = image.extension
    hi = np.sqrt(ext.omegas[-1] ** 2 + 1.0 / (2 * ext.a))
    if d_omega == "just below the cap":
        d_omega = np.nextafter(hi / holo._MAX_OMEGA_SAMPLES, 0.0)

    def no_arrays(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(holo.np, "arange", no_arrays)
    with pytest.raises(ValueError, match="frequency samples, more than 2097152.*--mu"):
        _inverse_transform(ext, d_omega, image.t_grid)


def test_inverse_transform_zero_spectrum(table):
    ext = extension(table, 8, np.zeros(len(table), dtype=complex))
    t = np.linspace(-4.0, 4.0, 257)
    fprime = _inverse_transform(ext, 0.01, t)
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
    heights = []
    for e in (1.0, 3.0, 5.0):
        idx = int(np.argmin(np.abs(burst.centers - e)))
        heights.append(burst.heights[idx])
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
        boundary_2pt_halfspace(0.5, 0.0, strip, 50.0)
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
