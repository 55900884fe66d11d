import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wentzell.core import Grid1D, PhysicalParams, Strip
from wentzell.holo import (BumpOverlapError, Fig2Config, HalfSpaceDual,
                           HoloGrids, _inverse_transform, choose_a, default_chi,
                           detect_bursts, extend_to_schwartz, fig2_reproduce,
                           fig2_test_function, halfspace_dual,
                           holographic_dual, included_modes, verify_dual)
from wentzell.modes import ModeTable, build_table
from wentzell.qft import SmearedCoefficients

P1 = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))


@pytest.fixture(scope="module")
def table():
    return build_table(40, P1)


@pytest.fixture(scope="module")
def grids():
    return HoloGrids.default(1.0, n_z=1024, n_t=2049, t_span=4.0, n_out=1024)


def gauss_f(t, z):
    return np.exp(-(t**2) / (2 * 0.25**2)) * np.exp(-(z**2) / (2 * 0.12**2))


@pytest.fixture(scope="module")
def image(table, grids):
    return holographic_dual(gauss_f, P1, table, grids=grids)


@pytest.fixture(scope="module")
def fig2():
    return fig2_reproduce(Fig2Config())


def dense_inverse_transform(ext, omega_grid, t_grid, chunk=1024):
    """Oracle: the trapezoid sum of the inverse transform as a dense phase
    matrix over the nonzero samples, taken in blocks of output times."""
    fhat = ext(omega_grid)
    d_omega = (omega_grid[-1] - omega_grid[0]) / (len(omega_grid) - 1)
    nz = np.nonzero(fhat)[0]
    out = np.empty(t_grid.shape, dtype=complex)
    for i in range(0, t_grid.size, chunk):
        phases = np.exp(-1j * np.outer(t_grid[i:i + chunk], omega_grid[nz]))
        out[i:i + chunk] = phases @ fhat[nz]
    return out * d_omega / np.sqrt(2 * np.pi)


def assert_matches_dense(ext, omega_grid, t_grid, fprime):
    """The fast transform is real and agrees with the dense sum to rounding."""
    assert np.isrealobj(fprime)
    oracle = dense_inverse_transform(ext, omega_grid, t_grid)
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
    a = choose_a(table, 1.0, 2)
    assert a == pytest.approx(expected, rel=1e-12)
    assert a == pytest.approx(1.5011, abs=1e-4)
    assert q1**2 == pytest.approx(0.7402, abs=1e-4)
    assert q2**2 - q1**2 == pytest.approx(3.3757, abs=1e-4)


def test_choose_a_massless_drops_mu_constraint():
    p0 = PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.0))
    t0 = build_table(10, p0)
    # zero mode excluded: lowest usable frequency is q_1
    a = choose_a(t0, 0.0, 4)
    expected = max(1.0 / (2 * t0.qs[1] ** 2), 1.0 / (t0.qs[2] ** 2 - t0.qs[1] ** 2)) / 0.9
    assert a == pytest.approx(expected, rel=1e-12)


def test_choose_a_monotone_in_M(table):
    a2 = choose_a(table, 1.0, 2)
    for M in (4, 8, 16, 32):
        assert choose_a(table, 1.0, M) <= a2 + 1e-15


def test_bump_disjointness_enforced(table):
    coeffs = SmearedCoefficients(f_plus=np.ones(41, dtype=complex),
                                 f_minus=np.ones(41, dtype=complex))
    a = choose_a(table, 1.0, 10)
    ext = extend_to_schwartz(coeffs, table, a, modes=included_modes(table, 10))
    w2 = ext.omegas**2
    half = 1.0 / (2 * ext.a)
    assert w2[0] - half > 0
    assert np.all(np.diff(w2) > 2 * half)
    with pytest.raises(BumpOverlapError):
        extend_to_schwartz(coeffs, table, a / 20, modes=included_modes(table, 10))


def test_extension_interpolates_exactly(table):
    rng = np.random.default_rng(4)
    cp = rng.normal(size=41) + 1j * rng.normal(size=41)
    coeffs = SmearedCoefficients(f_plus=cp, f_minus=np.conj(cp))
    modes = included_modes(table, 8)
    ext = extend_to_schwartz(coeffs, table, choose_a(table, 1.0, 8), modes=modes)
    w = ext.omegas
    assert np.max(np.abs(ext(w) - cp[modes])) == 0.0
    assert np.max(np.abs(ext(-w) - np.conj(cp)[modes])) == 0.0
    assert ext(float(w[3])) == cp[modes[3]]


def test_extension_zero_between_bumps(table):
    coeffs = SmearedCoefficients(f_plus=np.ones(41, dtype=complex),
                                 f_minus=np.ones(41, dtype=complex))
    a = choose_a(table, 1.0, 4)
    ext = extend_to_schwartz(coeffs, table, a, modes=included_modes(table, 4))
    w2 = ext.omegas**2
    between = np.sqrt(0.5 * (w2[0] + 1 / (2 * a)) + 0.5 * (w2[1] - 1 / (2 * a)))
    assert ext(float(between)) == 0.0
    assert ext(0.0) == 0.0


def test_extension_smooth_across_bump_edge(table):
    coeffs = SmearedCoefficients(f_plus=np.ones(41, dtype=complex),
                                 f_minus=np.ones(41, dtype=complex))
    a = choose_a(table, 1.0, 6)
    ext = extend_to_schwartz(coeffs, table, a, modes=included_modes(table, 6))
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


def test_verify_dual_residual(image, table):
    rep = verify_dual(image, image.coeffs, table)
    assert rep.max_residual < 1e-6
    assert rep.pairing_rel_error < 1e-5


def test_verify_dual_detects_perturbation(image, table):
    entries = tuple(dataclasses.replace(e, d_bdy=e.d_bdy * 1.01)
                    for e in table.entries)
    perturbed = ModeTable(params=table.params, entries=entries,
                          residual_tol=table.residual_tol)
    rep = verify_dual(image, image.coeffs, perturbed)
    assert rep.max_residual == pytest.approx(1e-2, rel=0.2)


def test_dual_linearity(table, grids):
    def g(t, z):
        return np.exp(-((t - 0.2) ** 2) / (2 * 0.3**2)) \
            * np.exp(-((z + 0.15) ** 2) / (2 * 0.18**2))

    def combo(t, z):
        return 2.0 * gauss_f(t, z) - 0.7 * g(t, z)

    M = 20
    img_f = holographic_dual(gauss_f, P1, table, M=M, grids=grids)
    img_g = holographic_dual(g, P1, table, M=M, grids=grids)
    img_c = holographic_dual(combo, P1, table, M=M, grids=grids)
    lin = 2.0 * np.asarray(img_f.fprime) - 0.7 * np.asarray(img_g.fprime)
    scale = np.max(np.abs(img_c.fprime))
    assert np.max(np.abs(np.asarray(img_c.fprime) - lin)) < 1e-10 * scale


def test_dual_reality(image):
    assert np.isrealobj(image.fprime)
    # conjugate symmetry of the frequency samples
    fhat = image.fhat
    n = len(image.omega_grid) // 2
    assert np.max(np.abs(fhat[: n] - np.conj(fhat[::-1][: n]))) < 1e-12


def test_dual_no_dc_component(image, table, grids):
    # fhat' vanishes identically below the mass gap, so f' carries no DC
    # component; the windowed time integral only decays with the window since
    # the bump duals have long tails.
    ext = image.extension
    assert ext(0.0) == 0.0
    gap_edge = np.sqrt(ext.omegas[0] ** 2 - 1.0 / (2 * ext.a))
    w = np.linspace(-0.98 * gap_edge, 0.98 * gap_edge, 501)
    assert np.all(ext(w) == 0.0)
    in_gap = np.abs(image.omega_grid) < 0.98 * gap_edge
    assert np.all(image.fhat[in_gap] == 0.0)
    wide = dataclasses.replace(grids, time_grid=grids.time_grid,
                               t_out=np.linspace(-16.0, 16.0, 4096))
    img_wide = holographic_dual(gauss_f, P1, table, M=image.metadata["M"],
                                grids=wide)
    short = abs(np.trapezoid(np.asarray(image.fprime), image.t_grid))
    long = abs(np.trapezoid(np.asarray(img_wide.fprime), img_wide.t_grid))
    assert long < 0.5 * short


def test_dual_energy_warning(table, grids):
    img = holographic_dual(gauss_f, P1, table, M=2, grids=grids)
    assert img.warnings


def test_single_mode_packet(table):
    """A single-mode excitation produces one modulated burst whose carrier is
    the mode frequency; the pipeline matches a dense-grid inverse transform."""
    m = 5
    cp = np.zeros(41, dtype=complex)
    cp[m] = 1.0
    coeffs = SmearedCoefficients(f_plus=cp, f_minus=cp.copy())
    a = choose_a(table, 1.0, 8)
    modes = included_modes(table, 8)
    ext = extend_to_schwartz(coeffs, table, a, modes=modes)
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
    n_half = int(np.ceil((wm + 2.0) / d_omega))
    grid_w = np.arange(-n_half, n_half + 1) * d_omega
    _, fprime = _inverse_transform(ext, grid_w, t)
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
    _, fp_long = _inverse_transform(ext, grid_w, t_long)
    assert_matches_dense(ext, grid_w, t_long, fp_long)
    burst = detect_bursts(t_long, np.asarray(fp_long).real, rel_threshold=0.3,
                          cluster_gap=40.0)
    assert len(burst.centers) == 1
    assert abs(burst.peak_times[0]) < 1.0


def test_inverse_transform_matches_dense_fig2(fig2):
    image, _ = fig2
    assert_matches_dense(image.extension, image.omega_grid, image.t_grid,
                         image.fprime)


def test_inverse_transform_rejects_nonuniform_t_out(table, grids):
    t_out = np.linspace(-4.0, 4.0, 1024) ** 3 / 16.0
    bad = dataclasses.replace(grids, t_out=t_out)
    with pytest.raises(ValueError, match="uniform"):
        holographic_dual(gauss_f, P1, table, grids=bad)


def test_inverse_transform_zero_spectrum(table):
    coeffs = SmearedCoefficients(f_plus=np.zeros(len(table), dtype=complex),
                                 f_minus=np.zeros(len(table), dtype=complex))
    modes = included_modes(table, 8)
    ext = extend_to_schwartz(coeffs, table, choose_a(table, 1.0, 8), modes=modes)
    t = np.linspace(-4.0, 4.0, 257)
    fhat, fprime = _inverse_transform(ext, np.linspace(-10.0, 10.0, 2001), t)
    assert not np.any(fhat)
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
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))

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
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))

    def f(t, z):
        return np.exp(-(t**2) / (2 * 0.3**2)) * np.exp(-((z - 0.8) ** 2) / (2 * 0.15**2))

    q_grid = np.linspace(0.0, 12.0, 241)
    t_out = np.linspace(-4.0, 4.0, 513)
    dual = halfspace_dual(f, p, q_grid, np.linspace(-4.0, 4.0, 1601),
                          Grid1D.for_halfspace(4.0, 1024), t_out=t_out)
    at0 = dual.fprime[np.flatnonzero(t_out == 0.0)[0]]
    ref = np.trapezoid(q_grid / dual.omega_grid * (dual.fhat_pos + dual.fhat_neg),
                       q_grid) / np.sqrt(2 * np.pi)
    assert abs(at0 - ref) < 1e-3 * abs(ref)


def test_halfspace_dual_needs_mass():
    p0 = PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.0))
    with pytest.raises(ValueError, match="mu > 0"):
        halfspace_dual(lambda t, z: t * 0.0, p0, np.linspace(0, 5, 11),
                       np.linspace(-1, 1, 21), Grid1D.for_halfspace(2.0, 64))


# ---------------------------------------------------------------------------
# properties

coef = arrays(complex, 9, elements=st.complex_numbers(max_magnitude=10.0,
                                                      allow_nan=False,
                                                      allow_infinity=False))


@given(cp=coef, cm=coef)
@settings(max_examples=25, deadline=None)
def test_extension_linearity_property(cp, cm):
    table = build_table(8, P1)
    a = choose_a(table, 1.0, 8)
    modes = included_modes(table, 8)
    full_p = np.zeros(9, dtype=complex)
    full_m = np.zeros(9, dtype=complex)
    full_p[modes] = cp[modes]
    full_m[modes] = cm[modes]
    e1 = extend_to_schwartz(SmearedCoefficients(full_p, full_m), table, a, modes=modes)
    e2 = extend_to_schwartz(SmearedCoefficients(2 * full_p, 2 * full_m), table, a,
                            modes=modes)
    w = np.linspace(-12.0, 12.0, 301)
    assert np.max(np.abs(e2(w) - 2 * e1(w))) < 1e-12 * max(1.0, np.max(np.abs(e1(w))))
