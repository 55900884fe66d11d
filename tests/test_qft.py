import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0, sici

from wentzell.core import HalfSpace, PhysicalParams, Strip, ZeroModeError
from wentzell.modes import build_table
from wentzell.qft import (TwoPointSpec, boundary_2pt_halfspace,
                          boundary_2pt_strip, boundary_smearing, causality_check,
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


def test_spec_validation():
    with pytest.raises(ValueError, match="infrared"):
        TwoPointSpec(params=PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.0)), M=10)
    with pytest.raises(ValueError):
        TwoPointSpec(params=P1, M=0)
    # massless is fine for d > 2
    TwoPointSpec(params=PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.0), d=3), M=10)


def test_strip_2pt_one_term(table200):
    spec = TwoPointSpec(params=P1, M=1)
    res = boundary_2pt_strip(0.0, 0.0, spec, table=table200)
    mu_m = table200.omegas()
    d2 = table200.d_bdys**2
    expected = d2[0] / (2 * mu_m[0]) + d2[1] / (2 * mu_m[1])
    assert res.value == pytest.approx(expected, rel=1e-14)
    # the mode-1 contribution alone
    assert res.value - d2[0] / (2 * mu_m[0]) == pytest.approx(
        d2[1] / (2 * mu_m[1]), rel=1e-12)


def test_strip_2pt_real_at_coincidence(table200):
    spec = TwoPointSpec(params=P1, M=100)
    res = boundary_2pt_strip(0.0, 0.0, spec, table=table200)
    assert res.value.imag == 0.0


def test_strip_2pt_partial_sums_within_tail(table200):
    s100 = TwoPointSpec(params=P1, M=100)
    s200 = TwoPointSpec(params=P1, M=200)
    v100 = boundary_2pt_strip(0.0, 0.0, s100, table=table200)
    v200 = boundary_2pt_strip(0.0, 0.0, s200, table=table200)
    assert abs(v200.value - v100.value) < v100.tail_bound


def test_strip_2pt_hermiticity(table200):
    spec = TwoPointSpec(params=P1, M=50)
    x0 = np.linspace(0.1, 3.0, 7)
    plus = boundary_2pt_strip(x0, 0.0, spec, table=table200)
    minus = boundary_2pt_strip(-x0, 0.0, spec, table=table200)
    assert np.allclose(minus.value, np.conj(plus.value), atol=1e-14)


def test_strip_2pt_zero_mode_divergence():
    p = PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.0), d=3)
    spec = TwoPointSpec(params=p, M=10)
    spec.d = 1  # force the d = 1 kernel against a massless table
    table = build_table(10, p)
    with pytest.raises(ZeroModeError):
        boundary_2pt_strip(0.0, 0.0, spec, table=table)


def test_weights_positive(table200):
    assert np.all(table200.d_bdys**2 > 0)
    assert np.all(halfspace_weight(np.linspace(0, 50, 100), 1.0) > 0)


# ---------------------------------------------------------------------------
# half-space

def test_halfspace_weight_normalization():
    assert halfspace_weight_normalization(1.0) == pytest.approx(1.0, abs=1e-8)
    # general c integrates to 1/c
    assert halfspace_weight_normalization(2.0) == pytest.approx(0.5, abs=1e-8)


def test_halfspace_2pt_real_at_coincidence():
    p = PhysicalParams(c=1.0, mu=1.0, geometry=HalfSpace())
    spec = TwoPointSpec(params=p, M=1, q_max=200.0)
    res = boundary_2pt_halfspace(0.0, 0.0, spec)
    assert res.value.imag == pytest.approx(0.0, abs=1e-12)
    assert res.quad_error < 1e-10


def test_halfspace_2pt_qmax_tail():
    p = PhysicalParams(c=1.0, mu=1.0, geometry=HalfSpace())
    s1 = TwoPointSpec(params=p, M=1, q_max=100.0)
    s2 = TwoPointSpec(params=p, M=1, q_max=200.0)
    v1 = boundary_2pt_halfspace(0.5, 0.0, s1)
    v2 = boundary_2pt_halfspace(0.5, 0.0, s2)
    assert abs(v2.value - v1.value) < 2 * v1.tail_bound


def test_halfspace_2pt_hermiticity():
    p = PhysicalParams(c=1.0, mu=1.0, geometry=HalfSpace())
    spec = TwoPointSpec(params=p, M=1, q_max=150.0)
    plus = boundary_2pt_halfspace(0.8, 0.0, spec).value
    minus = boundary_2pt_halfspace(-0.8, 0.0, spec).value
    assert minus == pytest.approx(np.conj(plus), abs=1e-12)


def test_strip_2pt_routes_to_bessel_for_d2(table200):
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0), d=2)
    spec = TwoPointSpec(params=p, M=20, d=2)
    via_strip = boundary_2pt_strip(0.3, 1.5, spec, table=table200)
    direct = spacelike_2pt_bessel(1.5**2 - 0.3**2, spec, table=table200)
    assert via_strip.value == direct.value


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
    assert rep.is_summable
    assert 0.8 <= rep.ratio <= 1.2


def test_partial_sum_stabilizes(table4000):
    d2 = table4000.d_bdys**2
    s2000 = float(np.sum(d2[:2001]))
    s4000 = float(np.sum(d2))
    assert abs(s4000 - s2000) < 2e-4  # 4-digit stabilization by M = 2000


def test_neumann_weights_flagged(table4000):
    const = np.full(len(table4000), table4000.d_bdys[1] ** 2)
    rep = tail_convergence(table4000, 100, weights=const)
    assert not rep.is_summable
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


def test_smeared_reality(table20, tgrid):
    g = np.exp(-(tgrid**2) / 2.0)
    f_bdy = np.zeros((tgrid.size, 2))
    f_bdy[:, 1] = g
    co = smeared_coeffs(None, f_bdy, table20, tgrid)
    assert np.max(np.abs(co.f_minus - np.conj(co.f_plus))) < 1e-12


def test_smeared_resonant_mode_dominates(table20, tgrid):
    w1 = table20.omegas()[1]
    g = np.exp(-(tgrid**2) / 2.0) * np.cos(w1 * tgrid)
    co = smeared_coeffs(None, boundary_smearing(g, table20, "plus") * table20.params.c,
                        table20, tgrid)
    mags = np.abs(co.f_plus)
    assert np.argmax(mags) == 1


def test_smeared_support_error(table20):
    t = np.linspace(-1.0, 1.0, 101)
    g = np.exp(-(t**2) / 2.0)  # does not vanish at the window edges
    f_bdy = np.zeros((t.size, 2))
    f_bdy[:, 1] = g
    with pytest.raises(ValueError, match="support"):
        smeared_coeffs(None, f_bdy, table20, t)


def test_trace_relation_two_routes(table20, tgrid):
    """Boundary smearing (0, c^-1 g delta_+) equals the bulk smearing
    g delta(z - S) represented on the grid, coefficient by coefficient."""
    from wentzell.core import Grid1D
    g = np.exp(-(tgrid**2) / (2 * 0.7**2))
    grid = Grid1D.for_strip(1.0, 2048)
    co_bdy = smeared_coeffs(None, boundary_smearing(g, table20, "plus"),
                            table20, tgrid)
    w = grid.quad_weights()
    spike = np.zeros(grid.n_nodes)
    spike[-1] = 1.0 / w[-1]  # unit point mass at z = S under the quadrature
    f_bulk = g[:, None] * spike[None, :]
    co_blk = smeared_coeffs(f_bulk, None, table20, tgrid, grid)
    scale = np.max(np.abs(co_bdy.f_plus))
    assert np.max(np.abs(co_bdy.f_plus - co_blk.f_plus)) < 1e-8 * scale
    assert np.max(np.abs(co_bdy.f_minus - co_blk.f_minus)) < 1e-8 * scale
    # the minus component carries the (-1)^m signs
    co_m = smeared_coeffs(None, boundary_smearing(g, table20, "minus"),
                          table20, tgrid)
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
