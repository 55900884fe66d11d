import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import j0, k0, kv, sici, zeta

from wentzell import qft
from wentzell.core import HalfSpace, PhysicalParams, Strip, ZeroModeError
from wentzell.modes import build_table, mode_matrix
from wentzell.qft import (TwoPointSpec, _bessel_dropped_bound, _bessel_k,
                          _bessel_prefix_sums, _hurwitz_zeta, boundary_2pt_halfspace,
                          boundary_2pt_strip, causality_check,
                          commutator_boundary, fourier_trapezoid, halfspace_weight,
                          halfspace_weight_normalization, pauli_jordan_d2,
                          smeared_coeffs, source_relation_check,
                          spacelike_2pt_bessel, tail_convergence)

P1 = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))


@pytest.fixture(scope="module")
def table200():
    return build_table(200, P1)


@pytest.fixture(scope="module")
def table4000():
    return build_table(4000, P1)


@pytest.mark.parametrize("s", [2, 3])
def test_hurwitz_zeta_matches_scipy(s):
    qs = np.concatenate([np.arange(1, 2001), np.logspace(0, 6, 400)])
    ours = np.array([_hurwitz_zeta(s, q) for q in qs])
    ref = zeta(s, qs)
    assert np.max(np.abs(ours - ref) / ref) <= 1e-15


def test_spec_validation():
    with pytest.raises(ValueError, match="infrared"):
        TwoPointSpec(params=PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.0)), M=10)
    with pytest.raises(ValueError):
        TwoPointSpec(params=P1, M=0)
    # massless is fine for d > 2
    TwoPointSpec(params=PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.0), d=3), M=10)


def test_strip_2pt_one_term(table200):
    res = boundary_2pt_strip(0.0, table200, 1)
    mu_m = table200.omegas()
    d2 = table200.d_bdys**2
    expected = d2[0] / (2 * mu_m[0]) + d2[1] / (2 * mu_m[1])
    assert res.value == pytest.approx(expected, rel=1e-14)
    # the mode-1 contribution alone
    assert res.value - d2[0] / (2 * mu_m[0]) == pytest.approx(
        d2[1] / (2 * mu_m[1]), rel=1e-12)


def test_strip_2pt_real_at_coincidence(table200):
    res = boundary_2pt_strip(0.0, table200, 100)
    assert res.value.imag == 0.0


def test_strip_2pt_partial_sums_within_tail(table200):
    v100 = boundary_2pt_strip(0.0, table200, 100)
    v200 = boundary_2pt_strip(0.0, table200, 200)
    assert abs(v200.value - v100.value) < v100.tail_bound


def test_strip_2pt_hermiticity(table200):
    x0 = np.linspace(0.1, 3.0, 7)
    plus = boundary_2pt_strip(x0, table200, 50)
    minus = boundary_2pt_strip(-x0, table200, 50)
    assert np.allclose(minus.value, np.conj(plus.value), atol=1e-14)


def test_strip_2pt_blocks_of_modes_agree_with_one_block(table200, monkeypatch):
    # 201 modes against 13 times in blocks of 3 modes, and the whole sum in
    # one block, as at the default block size
    x0 = np.linspace(0.0, 6.0, 13)
    one = boundary_2pt_strip(x0, table200, 200).value
    at0 = boundary_2pt_strip(0.0, table200, 200).value
    monkeypatch.setattr(qft, "_BLOCK_ENTRIES", 40)
    sizes, cos = [], np.cos
    monkeypatch.setattr(np, "cos", lambda a: (sizes.append(np.size(a)), cos(a))[1])
    blocked = boundary_2pt_strip(x0, table200, 200).value
    monkeypatch.setattr(np, "cos", cos)
    assert len(sizes) >= 3 and max(sizes) <= 40  # each cos matrix is one block
    assert np.max(np.abs(blocked - one)) <= 1e-14 * np.max(np.abs(one))
    assert at0.imag == 0.0 and not np.signbit(at0.imag)  # +0.0, as one block gives it


def test_strip_2pt_zero_mode_divergence():
    table = build_table(10, PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.0)))
    with pytest.raises(ZeroModeError):
        boundary_2pt_strip(0.0, table, 10)


@pytest.mark.parametrize("M", [0, -1, 201])
def test_strip_2pt_cutoff_within_the_table(table200, M):
    # strip_tail_bound's zeta(3, M) needs M >= 1, and the sum reads modes 0 .. M
    with pytest.raises(ValueError, match="mode cutoff must be in 1 .. 200"):
        boundary_2pt_strip(0.0, table200, M)


def test_weights_positive(table200):
    assert np.all(table200.d_bdys**2 > 0)
    assert np.all(halfspace_weight(np.linspace(0, 50, 100), 1.0) > 0)


# ---------------------------------------------------------------------------
# half-space

def test_halfspace_weight_normalization():
    # the weight integrates to 1/c for every c
    for c in (0.1, 1.0, 2.0, 10.0):
        assert abs(halfspace_weight_normalization(c) - 1.0 / c) < 1e-12


HS1 = PhysicalParams(c=1.0, mu=1.0, geometry=HalfSpace())
X0_DEFAULT = np.linspace(0.0, 5.0, 101)  # the CLI's default sample points


def _halfspace_quad(x0, p, q_max):
    """The adaptive reference: real and imaginary parts by scipy's quad in q,
    with the sum of their quoted errors."""
    def part(fn):
        def integrand(q):
            w = np.sqrt(p.mu**2 + q**2)
            return halfspace_weight(q, p.c) * fn(w * x0) / (2.0 * w)
        return quad(integrand, 0.0, q_max, limit=400)
    re, err_re = part(np.cos)
    im, err_im = part(lambda a: -np.sin(a))
    return re + 1j * im, err_re + err_im


def test_halfspace_2pt_matches_q_domain_rule():
    # an independent rule: composite Gauss-Legendre directly in q, 16 nodes
    # on each of 8000 panels of [0, q_max], no substitution
    res = boundary_2pt_halfspace(X0_DEFAULT, HS1, 200.0)
    g, gw = np.polynomial.legendre.leggauss(16)
    half = 200.0 / 8000 / 2
    q = (half * (2 * np.arange(8000) + 1)[:, None] + half * g).ravel()
    wq = np.tile(half * gw, 8000)
    w = np.sqrt(1.0 + q**2)
    ref = np.exp(-1j * np.outer(X0_DEFAULT, w)) @ (wq * halfspace_weight(q, 1.0) / (2 * w))
    assert res.value.shape == X0_DEFAULT.shape
    assert np.max(np.abs(res.value - ref)) < 1e-12


def test_halfspace_2pt_matches_quad_within_its_error():
    # quad underestimates its error at x0 = 4.65: it is off by about 1.1e-7
    # there against a quoted 1.5e-8
    res = boundary_2pt_halfspace(X0_DEFAULT, HS1, 200.0)
    for x0, val in zip(X0_DEFAULT, res.value):
        ref, err = _halfspace_quad(x0, HS1, 200.0)
        if abs(x0 - 4.65) < 1e-9:
            assert 5e-8 < abs(val - ref) < 2e-7
        else:
            assert abs(val - ref) <= err


def _q_domain_reference(x0, p, q_max):
    """W(x0) by the 16-point Gauss-Legendre rule directly in q, with
    np.exp in place of the cos/sin pair: panels doubling from the distance
    min(1/c, mu) of the integrand's nearest singularity (the weight's pole at
    q = i/c, the branch point of omega at q = i mu) up to the width h, then
    panels of width h <= 8 / max|x0|, each spanning at most 8 rad of phase."""
    x0_max = np.max(np.abs(x0))
    h = min(1.0, q_max, 8.0 / x0_max if x0_max else 1.0)
    near = min(1.0 / p.c, p.mu)
    graded = near * 2.0 ** np.arange(int(np.ceil(np.log2(h / near)))) if near < h else []
    start = graded[-1] if len(graded) else 0.0
    edges = np.concatenate(([0.0], graded, np.arange(start + h, q_max, h), [q_max]))
    g, gw = np.polynomial.legendre.leggauss(16)
    half = np.diff(edges)[:, None] / 2
    q = (edges[:-1, None] + half * (1 + g)).ravel()
    w = np.sqrt(p.mu**2 + q**2)
    amp = (half * gw).ravel() * halfspace_weight(q, p.c) / (2 * w)
    return np.exp(-1j * np.outer(x0, w)) @ amp


@pytest.mark.parametrize("c", [1e-3, 0.1, 1.0, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("mu", [0.01, 1.0, 2.0])
def test_halfspace_2pt_matches_graded_q_domain_rule(c, mu):
    # the graded panels in s against an independent rule in q, with the pole
    # from pi/2 to 5e-6 off the real s axis, up to 10^4 rad of phase, q_max = 1
    # and x0 = 0
    p = PhysicalParams(c=c, mu=mu, geometry=HalfSpace())
    for q_max, x0_max in ((200.0, 5.0), (2000.0, 5.0), (200.0, 50.0), (1.0, 5.0),
                          (200.0, 0.0)):
        x0 = np.linspace(-x0_max, x0_max, 21)
        res = boundary_2pt_halfspace(x0, p, q_max)
        ref = _q_domain_reference(x0, p, q_max)
        w0 = ref[10].real  # W(0) >= |W(x0)|
        assert np.max(np.abs(res.value - ref)) <= 1e-12 * w0, (q_max, x0_max)
        assert res.quad_error <= 1e-10 * w0, (q_max, x0_max)


def test_halfspace_2pt_scalar_equals_array_row():
    res = boundary_2pt_halfspace(np.array([0.0, 1.5, -0.7]), HS1, 200.0)
    assert res.value.shape == (3,)
    one = boundary_2pt_halfspace(1.5, HS1, 200.0)
    assert isinstance(one.value, complex)
    assert one.value == pytest.approx(res.value[1], abs=1e-14)


def test_halfspace_2pt_fails_loudly_when_unresolved():
    # 2^14 panels cannot resolve a phase of 10^6: the two resolutions disagree
    with pytest.raises(RuntimeError, match="did not converge"):
        boundary_2pt_halfspace(np.array([0.0, 1000.0]), HS1, 1000.0)
    with pytest.raises(ValueError, match="x0 must be finite"):
        boundary_2pt_halfspace(np.array([0.0, np.nan]), HS1, 1000.0)
    for q_max in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="q_max must be positive"):
            boundary_2pt_halfspace(0.0, HS1, q_max)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_d1_kernels_reject_a_nonfinite_x0(table200, bad):
    x0 = np.array([0.0, bad])
    with pytest.raises(ValueError, match="x0 must be finite"):
        boundary_2pt_strip(x0, table200, 20)
    with pytest.raises(ValueError, match="x0 must be finite"):
        boundary_2pt_halfspace(x0, HS1, 200.0)


def test_halfspace_2pt_real_at_coincidence():
    p = PhysicalParams(c=1.0, mu=1.0, geometry=HalfSpace())
    res = boundary_2pt_halfspace(0.0, p, 200.0)
    assert res.value.imag == pytest.approx(0.0, abs=1e-12)
    assert res.quad_error < 1e-10


def test_halfspace_2pt_qmax_tail():
    p = PhysicalParams(c=1.0, mu=1.0, geometry=HalfSpace())
    v1 = boundary_2pt_halfspace(0.5, p, 100.0)
    v2 = boundary_2pt_halfspace(0.5, p, 200.0)
    assert abs(v2.value - v1.value) < 2 * v1.tail_bound


def test_halfspace_2pt_hermiticity():
    p = PhysicalParams(c=1.0, mu=1.0, geometry=HalfSpace())
    plus = boundary_2pt_halfspace(0.8, p, 150.0).value
    minus = boundary_2pt_halfspace(-0.8, p, 150.0).value
    assert minus == pytest.approx(np.conj(plus), abs=1e-12)


def test_strip_2pt_tends_to_the_halfspace_2pt():
    # the half-space is the strip's S -> infinity limit: at S = 8 the far
    # boundary's round trip leaves e^(-4 mu S) of W, and with the strip's
    # cutoff matched, q_max = q_M, the two sums agree to 4.0e-13 of W(0) = 0.318
    table = build_table(32_000, PhysicalParams(c=1.0, mu=1.0, geometry=Strip(8.0)))
    x0 = np.linspace(0.0, 6.0, 61)
    strip = boundary_2pt_strip(x0, table, 32_000).value
    half = boundary_2pt_halfspace(x0, HS1, float(table.qs[-1])).value
    assert np.max(np.abs(strip - half)) <= 4e-11 * half[0].real


@pytest.mark.parametrize("S, c, mu",[(2.0, 5.0, 3.0), (2.0, 1.0, 1.0),
                                      (1.0, 5.0, 1.0), (1.0, 1.0, 3.0)])
def test_strip_sums_reject_a_table_for_other_parameters(table200, S, c, mu):
    # table200 holds the modes of (S, c, mu) = (1, 1, 1); its d may differ from
    # the spec's, but its geometry, c and mu may not
    p = PhysicalParams(c=c, mu=mu, geometry=Strip(S))
    spec2 = TwoPointSpec(params=p, M=10, d=2)
    for call in (lambda: spacelike_2pt_bessel(1.0, spec2, table=table200),
                 lambda: commutator_boundary(1.0, 0.0, spec2, table=table200)):
        with pytest.raises(ValueError, match="table was built for"):
            call()


# ---------------------------------------------------------------------------
# spacelike Bessel sum and commutator (d = 2)

def d2_spacelike_oracle(mass, r):
    """Momentum-integral oracle (1/2pi) int cos(kr)/sqrt(k^2+m^2) dk,
    independent of the K-Bessel evaluation."""
    A = 2000.0
    I, _ = quad(lambda k: 1.0 / np.sqrt(k**2 + mass**2), 0.0, A,
                weight="cos", wvar=r, limit=400)
    ci = sici(A * r)[1]
    return (I - ci) / (2 * np.pi)


def test_bessel_sum_matches_momentum_oracle(table200):
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0), d=2)
    spec = TwoPointSpec(params=p, M=1, d=2)
    r = 1.3
    res = spacelike_2pt_bessel(r**2, spec, table=table200)
    mu_m = table200.omegas()
    d2 = table200.d_bdys**2
    expected = d2[0] * d2_spacelike_oracle(mu_m[0], r) \
        + d2[1] * d2_spacelike_oracle(mu_m[1], r)
    assert res.value == pytest.approx(expected, rel=1e-6)
    # and the closed form per term is K0 / 2 pi
    assert res.value == pytest.approx(
        d2[0] * k0(mu_m[0] * r) / (2 * np.pi) + d2[1] * k0(mu_m[1] * r) / (2 * np.pi),
        rel=1e-12)


def test_bessel_sum_decreasing(table200):
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0), d=2)
    spec = TwoPointSpec(params=p, M=30, d=2)
    x2 = np.linspace(0.5, 5.0, 9) ** 2
    vals = spacelike_2pt_bessel(x2, spec, table=table200).value
    assert np.all(np.diff(vals) < 0)


def test_bessel_sum_exponential_tail(table200):
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0), d=2)
    r = 1.0
    # mu_M r > 30 at M ~ 25 for S = 1
    v1 = spacelike_2pt_bessel(r**2, TwoPointSpec(params=p, M=25, d=2), table=table200)
    v2 = spacelike_2pt_bessel(r**2, TwoPointSpec(params=p, M=75, d=2), table=table200)
    assert abs(v2.value - v1.value) < 1e-12
    with pytest.raises(ValueError):
        spacelike_2pt_bessel(-1.0, TwoPointSpec(params=p, M=10, d=2), table=table200)


@pytest.mark.parametrize("x2", [[np.nan, np.inf, 1.0], [1.0, -np.inf], np.inf, np.nan])
def test_bessel_sum_rejects_nonfinite_separations(table200, x2):
    spec = TwoPointSpec(params=P1, M=10, d=2)
    with pytest.raises(ValueError, match="finite"):
        spacelike_2pt_bessel(x2, spec, table=table200)


def dense_bessel_terms(x2, spec, table, kernel=qft._bessel_k):
    """(M+1, n_r) grid of every term of the Bessel sum, with the K_nu
    ``kernel`` (the package's by default) evaluated for every mode and
    separation."""
    r = np.sqrt(np.atleast_1d(np.asarray(x2, dtype=float)))
    mu_m = table.omegas()[: spec.M + 1]
    d2 = table.d_bdys[: spec.M + 1] ** 2
    nu = spec.d / 2.0 - 1.0
    return (d2 * (2 * np.pi) ** (-spec.d / 2.0) * mu_m**nu)[:, None] \
        * (r ** (1.0 - spec.d / 2.0))[None, :] * kernel(nu, np.outer(mu_m, r))


def assert_bessel_is_dense(x2, spec, table):
    terms = dense_bessel_terms(x2, spec, table)
    res = spacelike_2pt_bessel(x2, spec, table=table)
    dense = np.sum(terms, axis=0)
    assert np.array_equal(np.atleast_1d(res.value), dense)
    assert res.tail_bound == 2.0 * np.max(np.abs(terms[-1]))


BESSEL_PARAMS = [(1.0, 1.0, 1.0), (0.4, 7.0, 0.3), (2.5, 0.05, 2.0)]


@pytest.fixture(scope="module", params=BESSEL_PARAMS, ids=lambda p: "S%g-c%g-mu%g" % p)
def bessel_table(request):
    S, c, mu = request.param
    return build_table(600, PhysicalParams(c=c, mu=mu, geometry=Strip(S)))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("M", [600, 137])
def test_bessel_sum_is_bitwise_the_dense_sum(bessel_table, d, M):
    # r from 1e-3 to 30: the cut mu_0 + Z / r lies beyond mu_M at the small r
    # and inside the table at the large ones
    spec = TwoPointSpec(params=bessel_table.params, M=M, d=d)
    r = np.logspace(-3.0, 1.5, 300)
    mu_m = bessel_table.omegas()[: M + 1]
    cut = np.searchsorted(mu_m, mu_m[0] + qft._BESSEL_CUT_Z / r)
    assert cut[0] == M + 1 and 1 <= cut[-1] < M // 4
    assert_bessel_is_dense(r**2, spec, bessel_table)
    assert_bessel_is_dense(r[::-1][:7] ** 2, spec, bessel_table)
    for x2 in (0.37, r[0] ** 2, r[-1] ** 2, np.array([2.0])):  # one separation
        assert_bessel_is_dense(x2, spec, bessel_table)
    assert isinstance(spacelike_2pt_bessel(0.37, spec, table=bessel_table).value, float)
    grid = spacelike_2pt_bessel((r**2).reshape(20, 15), spec, table=bessel_table).value
    assert np.array_equal(grid, np.sum(dense_bessel_terms(r**2, spec, bessel_table),
                                       axis=0).reshape(20, 15))


@settings(max_examples=40, deadline=None)
@given(r=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=40), d=st.sampled_from([2, 3, 4]),
       M=st.integers(1, 200))
def test_bessel_sum_is_bitwise_the_dense_sum_at_any_separations(table200, r, d, M):
    assert_bessel_is_dense(np.array(r) ** 2, TwoPointSpec(params=P1, M=M, d=d), table200)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bessel_dropped_bound_holds_every_dropped_term(bessel_table, d):
    spec = TwoPointSpec(params=bessel_table.params, M=len(bessel_table) - 1, d=d)
    r = np.logspace(-4.0, 1.5, 120)
    terms = dense_bessel_terms(r**2, spec, bessel_table)
    mu_m = bessel_table.omegas()
    d2 = bessel_table.d_bdys**2
    rng = np.random.default_rng(d)
    for cut in (rng.integers(0, spec.M + 2, r.size), np.zeros(r.size, int),
                np.full(r.size, spec.M), np.full(r.size, spec.M + 1)):
        bound = _bessel_dropped_bound(cut, r, d, mu_m, d2)
        dropped = np.arange(spec.M + 1)[:, None] >= cut[None, :]
        assert np.all(np.where(dropped, terms, 0.0) <= bound)
        assert np.all(bound[cut == spec.M + 1] == 0.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bessel_short_cut_widens_to_every_mode(bessel_table, d):
    # a cut of one mode is too short wherever the second term would change a
    # bit of the first: the certificate must catch it and sum every mode
    spec = TwoPointSpec(params=bessel_table.params, M=len(bessel_table) - 1, d=d)
    r = np.logspace(-3.0, 1.5, 200)
    terms = dense_bessel_terms(r**2, spec, bessel_table)
    val, cut = _bessel_prefix_sums(np.ones(r.size, int), r, d, bessel_table.omegas(),
                                   bessel_table.d_bdys**2)
    assert np.array_equal(val, np.sum(terms, axis=0))
    assert set(np.unique(cut)) <= {1, spec.M + 1}
    assert np.all(cut[terms[1] >= 0.5 * np.spacing(terms[0])] == spec.M + 1)
    assert np.all(np.where(np.arange(spec.M + 1)[:, None] >= cut, terms, 0.0)
                  < 0.5 * np.spacing(val))


def test_bessel_sum_with_a_short_cut_is_still_exact(table200, monkeypatch):
    monkeypatch.setattr(qft, "_BESSEL_CUT_Z", 1.0)
    x2 = np.logspace(-4.0, 3.0, 90) ** 2
    for d in (2, 3, 4):
        assert_bessel_is_dense(x2, TwoPointSpec(params=P1, M=200, d=d), table200)


@pytest.mark.parametrize("d", range(2, 15))
def test_bessel_k_against_40_digits(d):
    # log-spaced over the double range of x up to 700, plus 26 points around
    # x = 1.25, where the K_0 and K_1 rules meet, and its two neighbours
    nu = d / 2.0 - 1.0
    x = np.concatenate([np.logspace(-300.0, np.log10(700.0), 300), np.linspace(0.5, 3.0, 26),
                        np.nextafter(1.25, [0.0, 2.0])])
    with mpmath.workdps(40):
        ref = [mpmath.besselk(nu, mpmath.mpf(v)) for v in x.tolist()]
    got = _bessel_k(nu, x)
    big = np.finfo(float).max
    normal = np.array([np.finfo(float).tiny <= k <= big for k in ref])
    err = [float(abs(g - k) / k) for g, k in zip(got[normal], np.array(ref)[normal])]
    assert max(err) <= 8 * np.finfo(float).eps
    assert np.all(np.isinf(got[[k > 2 * mpmath.mpf(big) for k in ref]]))
    assert np.all(np.isfinite(got[[k < big / 2 for k in ref]]))
    far = np.array([800.0, 1e4, 1e300, np.inf])  # K_nu(x) < 1e-340: it underflows
    assert np.all(_bessel_k(nu, far) == 0.0)
    assert not np.any(np.isnan(_bessel_k(nu, np.array([5e-324, 1e-310, 1.25, 745.0]))))


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 14),
       x=st.lists(st.floats(0.0, 1e4, exclude_min=True) | st.floats(0.5, 3.0), min_size=1,
                  max_size=30))
def test_bessel_k_has_the_same_bits_alone_as_in_any_array(d, x):
    x = np.array(x)
    whole = _bessel_k(d / 2.0 - 1.0, x)
    alone = np.concatenate([_bessel_k(d / 2.0 - 1.0, x[i:i + 1]) for i in range(x.size)])
    assert not np.any(np.isnan(whole))
    assert np.array_equal(whole.view(np.int64), alone.view(np.int64))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bessel_sum_matches_the_sum_with_scipys_kv(bessel_table, d):
    spec = TwoPointSpec(params=bessel_table.params, M=len(bessel_table) - 1, d=d)
    x2 = np.logspace(-3.0, 1.5, 300) ** 2
    ours = spacelike_2pt_bessel(x2, spec, table=bessel_table).value
    scipys = np.sum(dense_bessel_terms(x2, spec, bessel_table, kernel=kv), axis=0)
    assert np.max(np.abs(ours - scipys) / scipys) <= 1e-13


def test_bessel_sums_load_no_scipy(scipy_modules_after):
    # the r = 1e3 terms all underflow, so its cut fails the certificate and
    # the prefix sum falls back to every mode
    code = ("import numpy as np\n"
            "from wentzell import qft\n"
            "from wentzell.core import PhysicalParams, Strip\n"
            "from wentzell.modes import build_table\n"
            "p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))\n"
            "table = build_table(50, p)\n"
            "r = np.array([0.3, 2.0, 1e3])\n"
            "mu_m, d2 = table.omegas(), table.d_bdys ** 2\n"
            "cut = np.searchsorted(mu_m, mu_m[0] + qft._BESSEL_CUT_Z / r)\n"
            "for d in (2, 3, 4):\n"
            "    spec = qft.TwoPointSpec(params=p, M=50, d=d)\n"
            "    v = qft.spacelike_2pt_bessel(r ** 2, spec, table=table).value\n"
            "    assert np.all(v[:2] > 0) and v[2] == 0.0\n"
            "    _, used = qft._bessel_prefix_sums(cut, r, d, mu_m, d2)\n"
            "    assert cut[2] < 51 and used[2] == 51")
    assert scipy_modules_after(code) == []


def j0_oracle(x):
    """J0 by direct quadrature of its integral representation."""
    val, _ = quad(lambda th: np.cos(x * np.sin(th)), 0.0, np.pi, limit=200)
    return val / np.pi


def test_pauli_jordan_oracle():
    mass, t = 1.4, 2.3
    val = pauli_jordan_d2(t, 0.0, mass)
    assert val == pytest.approx(-0.5j * j0_oracle(mass * t), abs=1e-10)
    assert abs(val) > 0.01
    # identically zero at spacelike separation
    assert pauli_jordan_d2(0.5, 2.0, mass) == 0.0


def test_pauli_jordan_evaluates_j0_at_timelike_entries_only():
    # the values are the full-grid formula's bit for bit, with the modes
    # broadcast against a mix of spacelike, lightlike and timelike points
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-4.0, 4.0, 200)
    x = np.concatenate([x0[:20], rng.uniform(-4.0, 4.0, 180)])
    mass = np.array([0.5, 1.0, 7.25, 40.0]).reshape(-1, 1)
    tau2 = x0**2 - x**2
    inside = tau2 > 0
    tau = np.sqrt(np.where(inside, tau2, 0.0))
    full = np.where(inside, -0.5j * np.sign(x0) * j0(mass * tau), 0)
    assert 0 < inside.sum() < 180
    assert np.array_equal(pauli_jordan_d2(x0, x, mass), full)


def test_pauli_jordan_at_spacelike_points_loads_no_scipy(scipy_modules_after):
    code = ("import numpy as np\n"
            "from wentzell.qft import pauli_jordan_d2\n"
            "v = pauli_jordan_d2(np.array([0.5, -1.0]), np.array([2.0, 1.5]), "
            "np.array([[1.0], [3.0]]))\n"
            "assert v.shape == (2, 2) and not v.any()")
    assert scipy_modules_after(code) == []


def test_commutator_properties(table200):
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0), d=2)
    spec = TwoPointSpec(params=p, M=50, d=2)
    # antisymmetry in the time argument
    c1 = commutator_boundary(1.7, 0.4, spec, table=table200)
    c2 = commutator_boundary(-1.7, 0.4, spec, table=table200)
    assert c1 == pytest.approx(-c2, abs=1e-12)
    # spacelike points vanish
    rng = np.random.default_rng(99)
    x0 = rng.uniform(-4, 4, 25)
    x = np.abs(x0) + rng.uniform(0.1, 3.0, 25)
    assert causality_check(list(zip(x0, x)), spec, tol=1e-10, table=table200)
    # timelike does not
    assert abs(commutator_boundary(2.0, 0.0, spec, table=table200)) > 1e-3
    with pytest.raises(ValueError):
        commutator_boundary(1.0, 0.0, TwoPointSpec(params=P1, M=10, d=1),
                            table=table200)


def test_commutator_matches_per_mode_loop(table200):
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0), d=2)
    spec = TwoPointSpec(params=p, M=50, d=2)
    rng = np.random.default_rng(7)
    x = rng.uniform(-3.0, 3.0, 300)
    x0 = np.sign(rng.uniform(-1, 1, 300)) * (np.abs(x) + rng.uniform(0.05, 4.0, 300))
    ref = np.zeros(300, dtype=complex)
    for w, dd in zip(table200.omegas()[:51], table200.d_bdys[:51] ** 2):
        ref += dd * pauli_jordan_d2(x0, x, w)
    val = commutator_boundary(x0, x, spec, table=table200)
    assert val.shape == (300,)
    assert np.max(np.abs(val - ref)) < 1e-13 * np.max(np.abs(ref))
    # a scalar point still gives a Python complex
    assert type(commutator_boundary(1.7, 0.4, spec, table=table200)) is complex


# ---------------------------------------------------------------------------
# tail convergence

def test_tail_convergence_passes(table4000):
    rep = tail_convergence(table4000, 100)
    assert rep.passed
    assert 0.8 <= rep.ratio <= 1.2
    with pytest.raises(ValueError, match="M >= 1"):
        tail_convergence(table4000, 0)


_ROUNDING = 1 + 1e-13  # 10^5-mode tables came within 1e-14 of each per-term bound


@given(S=st.floats(0.05, 40.0), log_c=st.floats(-3.0, 3.0), mu=st.floats(0.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_strip_tail_bound_is_proved_term_by_term(S, log_c, mu):
    # the three steps of the proof in strip_tail_bound, checked for every
    # m >= 2 of a 20 000-mode table, and the bound against the sum to the table
    c = 10.0**log_c
    table = build_table(20_000, PhysicalParams(c=c, mu=mu, geometry=Strip(S)))
    m = np.arange(2, len(table))
    assert np.all(table.c_norms[2:] <= _ROUNDING)
    assert np.all(table.d_bdys[2:] ** 2
                  <= _ROUNDING * (2 * np.sqrt(S) / (c * np.pi * (m - 1))) ** 2)
    mu_m = table.omegas()[2:]
    assert np.all(mu_m * _ROUNDING >= np.pi * (m - 1) / (2 * S))
    terms = table.d_bdys[2:] ** 2 / (2 * mu_m)
    for M in (1, 3, 10, 100, 1000):
        assert float(np.sum(terms[M - 1:])) <= _ROUNDING * qft.strip_tail_bound(M, S, c)


def test_partial_sum_stabilizes(table4000):
    d2 = table4000.d_bdys**2
    s2000 = float(np.sum(d2[:2001]))
    s4000 = float(np.sum(d2))
    assert abs(s4000 - s2000) < 2e-4  # 4-digit stabilization by M = 2000


def test_neumann_weights_flagged(table4000):
    # constant Neumann-style couplings, whose tail does not decay
    const = np.full(len(table4000), table4000.d_bdys[1])
    rep = tail_convergence(dataclasses.replace(table4000, d_bdys=const), 100)
    assert not rep.passed


# ---------------------------------------------------------------------------
# smeared coefficients and the trace/source relations

@pytest.fixture(scope="module")
def table20():
    return build_table(20, P1)


@pytest.fixture(scope="module")
def tgrid():
    return np.linspace(-8.0, 8.0, 3201)


@pytest.mark.parametrize("grid", ["uniform", "sinh"])
def test_fourier_trapezoid_gaussian(grid):
    u = np.linspace(-1.0, 1.0, 1601)
    t = 8.0 * u if grid == "uniform" else 8.0 * np.sinh(u) / np.sinh(1.0)
    k = np.linspace(-4.0, 4.0, 33)
    g = np.exp(-(t**2) / 2.0)
    # one function against every k
    assert np.max(np.abs(fourier_trapezoid(g[:, None], t, k)
                         - np.exp(-(k**2) / 2.0))) < 1e-6
    # column j paired with k_j: width sigma_j transforms to sigma_j exp(-sigma_j^2 k^2 / 2)
    sigma = np.linspace(0.5, 1.5, k.size)
    cols = np.exp(-(t[:, None] ** 2) / (2.0 * sigma**2))
    assert np.max(np.abs(fourier_trapezoid(cols, t, k)
                         - sigma * np.exp(-(sigma * k) ** 2 / 2.0))) < 1e-6


def _fourier_reference(values, x, k):
    """The quadrature as one complex trapezoid over the whole grid."""
    return np.trapezoid(values * np.exp(1j * np.outer(x, k)), x, axis=0) / np.sqrt(2 * np.pi)


@pytest.mark.parametrize("grid", ["uniform", "sinh"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_fourier_trapezoid_matches_complex_trapezoid(grid, kind):
    u = np.linspace(-1.0, 1.0, 801)
    t = 6.0 * u if grid == "uniform" else 6.0 * np.sinh(2.0 * u) / np.sinh(2.0)
    k = np.linspace(-7.0, 5.0, 29)
    rng = np.random.default_rng(3)
    env = np.exp(-(t[:, None] ** 2) / rng.uniform(0.5, 4.0, k.size))
    cols = env * np.cos(rng.uniform(0.0, 3.0, k.size) * t[:, None] + 0.4)
    if kind == "complex":
        cols = cols + 1j * env * np.sin(1.3 * t[:, None] - 0.2)
    for values in (cols, cols[:, :1]):
        ref = _fourier_reference(values, t, k)
        got = fourier_trapezoid(values, t, k)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _smeared_reference(f_bulk, f_bdy, table, t, grid):
    """Coefficients from the complex projection on every time row and one
    complex trapezoid per sign of the frequency."""
    A = np.zeros((t.size, len(table)), dtype=complex)
    if f_bulk is not None:
        A += (f_bulk * grid.quad_weights()) @ mode_matrix(table, grid)
    if f_bdy is not None:
        A += table.params.c * (f_bdy @ table.boundary_values().T)
    w = table.omegas()
    return _fourier_reference(A, t, w), _fourier_reference(A, t, -w)


@pytest.mark.parametrize("support", ["compact", "full"])
def test_smeared_coeffs_matches_untrimmed_reference(table20, support):
    from wentzell.core import Grid1D
    from wentzell.holo import fig2_test_function
    grid = Grid1D.for_strip(1.0, 256)
    t = np.linspace(-3.0, 3.0, 769)
    z = grid.nodes
    if support == "compact":  # the fig2 bump: 127 of 769 rows are non-zero
        f_bulk = fig2_test_function(t[:, None], z[None, :])
        f_bdy = np.column_stack([fig2_test_function(t - 0.7, 0.1),
                                 fig2_test_function(t + 0.4, -0.2)])
    else:
        f_bulk = np.exp(-t[:, None] ** 2 / 0.3) * np.cos(2.0 * z[None, :] + 0.3)
        f_bdy = np.column_stack([np.exp(-(t - 0.2) ** 2 / 0.3), np.exp(-t ** 2 / 0.2)])
    for bulk, bdy in ((f_bulk, None), (None, f_bdy), (f_bulk, f_bdy)):
        co = smeared_coeffs(bulk, bdy, table20, t, grid)
        ref_p, ref_m = _smeared_reference(bulk, bdy, table20, t, grid)
        scale = np.max(np.abs(ref_p))
        assert np.max(np.abs(co.f_plus - ref_p)) <= 1e-13 * scale
        assert np.max(np.abs(co.f_minus - ref_m)) <= 1e-13 * scale


def test_smeared_blocks_cross_the_support(table20, monkeypatch):
    # blocks of 5 time rows: the fig2 bump's 127 non-zero rows of 769 cross
    # 26 blocks and most blocks hold none.  The array and the callable it was
    # sampled from give the same bits, and both match the one-product
    # reference.
    from wentzell.core import Grid1D
    from wentzell.holo import fig2_test_function
    grid = Grid1D.for_strip(1.0, 256)
    t = np.linspace(-3.0, 3.0, 769)
    f_bulk = fig2_test_function(t[:, None], grid.nodes[None, :])
    monkeypatch.setattr(qft, "_BLOCK_ENTRIES", 5 * grid.n_nodes + 3)
    sizes = []

    def f(tt, z):
        sizes.append(np.size(np.broadcast(tt, z)))
        return fig2_test_function(tt, z)

    co = smeared_coeffs(f_bulk, None, table20, t, grid)
    assert np.array_equal(smeared_coeffs(f, None, table20, t, grid).f_plus, co.f_plus)
    assert max(sizes) == 5 * grid.n_nodes and sum(sizes) == f_bulk.size
    ref_p, _ = _smeared_reference(f_bulk, None, table20, t, grid)
    assert np.max(np.abs(co.f_plus - ref_p)) <= 1e-13 * np.max(np.abs(ref_p))
    # non-zero in the last row of the last block only: the grid misses the support
    last = np.zeros_like(f_bulk)
    last[-1] = f_bulk[384]
    with pytest.raises(ValueError, match="support of the bulk test function"):
        smeared_coeffs(last, None, table20, t, grid)


def test_smeared_zero_samples_give_zero_coefficients(table20, tgrid):
    from wentzell.core import Grid1D
    grid = Grid1D.for_strip(1.0, 64)
    co = smeared_coeffs(np.zeros((tgrid.size, grid.n_nodes)), np.zeros((tgrid.size, 2)),
                        table20, tgrid, grid)
    assert co.f_plus.shape == co.f_minus.shape == (len(table20),)
    assert not np.any(co.f_plus) and not np.any(co.f_minus)


def test_smeared_reality(table20, tgrid):
    g = np.exp(-(tgrid**2) / 2.0)
    f_bdy = np.zeros((tgrid.size, 2))
    f_bdy[:, 1] = g
    co = smeared_coeffs(None, f_bdy, table20, tgrid)
    assert np.array_equal(co.f_minus, np.conj(co.f_plus))


def test_smeared_resonant_mode_dominates(table20, tgrid):
    w1 = table20.omegas()[1]
    g = np.exp(-(tgrid**2) / 2.0) * np.cos(w1 * tgrid)
    f_bdy = np.zeros((tgrid.size, 2))
    f_bdy[:, 1] = g
    co = smeared_coeffs(None, f_bdy, table20, tgrid)
    mags = np.abs(co.f_plus)
    assert np.argmax(mags) == 1


def test_smeared_support_error(table20):
    t = np.linspace(-1.0, 1.0, 101)
    g = np.exp(-(t**2) / 2.0)  # does not vanish at the window edges
    f_bdy = np.zeros((t.size, 2))
    f_bdy[:, 1] = g
    with pytest.raises(ValueError, match="support"):
        smeared_coeffs(None, f_bdy, table20, t)


def test_smeared_bulk_support_error(table20):
    from wentzell.core import Grid1D
    grid = Grid1D.for_strip(1.0, 64)
    t = np.linspace(-4.0, 4.0, 401)
    f_bulk = np.exp(-((t[:, None] - 3.5) ** 2) / 0.1) * np.cos(grid.nodes[None, :])
    f_bulk[:-1] = 0.0  # non-zero in the last time row only
    with pytest.raises(ValueError, match="support of the bulk test function"):
        smeared_coeffs(f_bulk, None, table20, t, grid)
    # one row earlier, the span ends at the grid's last row and passes
    co = smeared_coeffs(np.roll(f_bulk, -1, axis=0), None, table20, t, grid)
    assert np.all(np.isfinite(co.f_plus)) and np.any(co.f_plus)


def test_smeared_rejects_complex_samples(table20, tgrid):
    f_bdy = np.zeros((tgrid.size, 2), dtype=complex)
    f_bdy[:, 1] = np.exp(-(tgrid**2) / 2.0) * (1.0 + 0.5j)
    with pytest.raises(ValueError, match="must be real"):
        smeared_coeffs(None, f_bdy, table20, tgrid)


def test_trace_relation_two_routes(table20, tgrid):
    """Boundary smearing (0, c^-1 g delta_+) equals the bulk smearing
    g delta(z - S) represented on the grid, coefficient by coefficient."""
    from wentzell.core import Grid1D
    g = np.exp(-(tgrid**2) / (2 * 0.7**2))
    grid = Grid1D.for_strip(1.0, 2048)
    f_plus = np.zeros((tgrid.size, 2))  # (0, c^-1 g) on the component at +S
    f_plus[:, 1] = g / table20.params.c
    co_bdy = smeared_coeffs(None, f_plus, table20, tgrid)
    w = grid.quad_weights()
    spike = np.zeros(grid.n_nodes)
    spike[-1] = 1.0 / w[-1]  # unit point mass at z = S under the quadrature
    f_bulk = g[:, None] * spike[None, :]
    co_blk = smeared_coeffs(f_bulk, None, table20, tgrid, grid)
    scale = np.max(np.abs(co_bdy.f_plus))
    assert np.max(np.abs(co_bdy.f_plus - co_blk.f_plus)) < 1e-8 * scale
    assert np.max(np.abs(co_bdy.f_minus - co_blk.f_minus)) < 1e-8 * scale
    # the minus component carries the (-1)^m signs
    co_m = smeared_coeffs(None, f_plus[:, ::-1], table20, tgrid)  # the pair at -S
    signs = table20.parity_signs
    assert np.max(np.abs(co_m.f_plus - signs * co_bdy.f_plus)) < 1e-8 * scale


def test_source_relation(table20, tgrid):
    g = np.exp(-(tgrid**2) / (2 * 0.5**2))
    assert source_relation_check(g, table20, tgrid, side="plus") < 1e-8
    assert source_relation_check(g, table20, tgrid, side="minus") < 1e-8
    assert source_relation_check(np.zeros_like(tgrid), table20, tgrid) == 0.0


def test_source_relation_neumann_control(table20, tgrid):
    g = np.exp(-(tgrid**2) / (2 * 0.5**2))
    neumann = np.full(len(table20), table20.d_bdys[0])
    assert source_relation_check(g, table20, tgrid, weights=neumann) > 1e-3
