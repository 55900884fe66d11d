import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wentzell.core import (BulkBoundaryFunction, GeometryError,
                           GridMismatchError, Grid1D, HalfSpace, PhysicalParams,
                           Strip, ZeroModeError, spectral_sobolev_norm,
                           weighted_inner_product, weighted_norm)
from wentzell.modes import build_table, eval_mode_deriv, mode_matrix, synthesize

P1 = PhysicalParams(c=1.0, geometry=Strip(1.0))
GRID = Grid1D.for_strip(1.0, 64)


def bbf(bulk, bdy, grid=GRID):
    return BulkBoundaryFunction(grid=grid, bulk=np.asarray(bulk, dtype=float),
                                boundary=np.asarray(bdy, dtype=float))


def const(value, grid=GRID):
    return bbf(np.full(grid.n_nodes, value), [value, value], grid)


def test_params_validation():
    with pytest.raises(ValueError, match="negative c is rejected"):
        PhysicalParams(c=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(c=1.0, mu=-0.5)
    with pytest.raises(ValueError):
        PhysicalParams(c=1.0, geometry=Strip(-2.0))
    with pytest.raises(ValueError):
        PhysicalParams(c=1.0, d=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            PhysicalParams(c=bad)
        with pytest.raises(ValueError, match="finite"):
            PhysicalParams(c=1.0, mu=bad)
        with pytest.raises(ValueError, match="finite"):
            Strip(bad)


def test_grid_basics():
    g = Grid1D.for_strip(1.0, 8)
    assert g.h == pytest.approx(0.25)
    assert g.nodes[0] == -1.0 and g.nodes[-1] == 1.0
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 1)
    # weights integrate constants exactly and are all positive
    w = Grid1D.for_strip(1.0, 64).quad_weights()
    assert np.sum(w) == pytest.approx(2.0, abs=1e-14)
    assert np.all(w > 0)


def test_inner_product_constant():
    # int 1 over [-1,1] + c * (1 + 1) = 4
    assert weighted_inner_product(const(1.0), const(1.0), P1) == pytest.approx(4.0, abs=1e-14)


def test_inner_product_odd_integrand():
    z = GRID.nodes
    F = bbf(np.sin(np.pi * z), [0.0, 0.0])
    assert abs(weighted_inner_product(F, const(1.0), P1)) < 1e-14


def test_inner_product_normalized_mode():
    # quadrature against the closed-form normalization of mode 1
    table = build_table(1, P1)
    g = Grid1D.for_strip(1.0, 4096)
    F = synthesize(np.array([0.0, 1.0]), table, g)
    assert weighted_inner_product(F, F, P1) == pytest.approx(1.0, abs=1e-8)


def test_inner_product_grid_mismatch():
    other = Grid1D.for_strip(1.0, 32)
    with pytest.raises(GridMismatchError):
        weighted_inner_product(const(1.0), const(1.0, other), P1)


def test_sobolev_norm_single_mode():
    table = build_table(5, PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0)))
    e3 = np.zeros(6)
    e3[3] = 1.0
    assert spectral_sobolev_norm(e3, table, 0.0) == pytest.approx(1.0)
    assert spectral_sobolev_norm(e3, table, 1.0) == pytest.approx(table.omegas()[3])


def test_sobolev_zero_mode_negative_order():
    table = build_table(3, P1)  # mu = 0: omega_0 = 0
    coeffs = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ZeroModeError):
        spectral_sobolev_norm(coeffs, table, -1.0)
    # absent zero mode is fine
    coeffs = np.array([0.0, 1.0, 0.0, 0.0])
    assert spectral_sobolev_norm(coeffs, table, -1.0) > 0


def test_sobolev_r0_equals_weighted_l2():
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))
    table = build_table(20, p)
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=21) / (1.0 + np.arange(21.0)) ** 2
    g = Grid1D.for_strip(1.0, 4096)
    F = synthesize(coeffs, table, g)
    assert spectral_sobolev_norm(coeffs, table, 0.0) == pytest.approx(
        weighted_norm(F, p), abs=1e-6)


def test_sobolev_r1_is_dirichlet_energy():
    # order-1 norm^2 equals the bulk + boundary gradient/mass integrals
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))
    table = build_table(12, p)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=13) / (1.0 + np.arange(13.0)) ** 2
    g = Grid1D.for_strip(1.0, 4096)
    F = synthesize(coeffs, table, g)
    dz = sum(c * eval_mode_deriv(m, g.nodes, table) for m, c in enumerate(coeffs))
    w = g.quad_weights()
    quad = (np.dot(w, dz**2) + p.mu**2 * np.dot(w, F.bulk**2)
            + p.c * p.mu**2 * np.sum(F.boundary**2))
    assert spectral_sobolev_norm(coeffs, table, 1.0) ** 2 == pytest.approx(quad, rel=1e-6)


def test_boundary_has_the_two_strip_components():
    for bdy in ([1.0], [1.0, 2.0, 3.0], 1.0):
        with pytest.raises(ValueError, match="expected \\(2,\\)"):
            bbf(np.ones(GRID.n_nodes), bdy)
    half = PhysicalParams(c=1.0, geometry=HalfSpace())
    with pytest.raises(GeometryError, match="strip"):
        weighted_inner_product(const(1.0), const(1.0), half)
    with pytest.raises(GeometryError, match="strip"):
        weighted_inner_product(const(1.0, Grid1D.for_halfspace(2.0, 64)),
                               const(1.0, Grid1D.for_halfspace(2.0, 64)), half)


def test_mode_matrix_end_rows_are_the_boundary_values():
    # so a synthesized mode's boundary values are its bulk trace, bitwise
    table = build_table(3, P1)
    V = mode_matrix(table, GRID)
    assert np.array_equal(V[[0, -1]], table.boundary_values().T)
    for m in range(4):
        G = synthesize(np.eye(4)[m], table, GRID)
        assert np.array_equal(G.bulk, V[:, m])
        assert np.array_equal(G.boundary, table.boundary_values()[m])


finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
sampled = arrays(float, GRID.n_nodes, elements=finite)
bdy2 = arrays(float, 2, elements=finite)


@given(f=sampled, fb=bdy2, g=sampled, gb=bdy2)
@settings(max_examples=50, deadline=None)
def test_inner_product_conjugate_symmetry(f, fb, g, gb):
    F, G = bbf(f, fb), bbf(g, gb)
    assert weighted_inner_product(F, G, P1) == pytest.approx(
        np.conj(weighted_inner_product(G, F, P1)), abs=1e-9)


@given(f=sampled, fb=bdy2)
@settings(max_examples=50, deadline=None)
def test_inner_product_positive(f, fb):
    F = bbf(f, fb)
    norm2 = np.real(weighted_inner_product(F, F, P1))
    if np.max(np.abs(f)) > 1e-6 or np.max(np.abs(fb)) > 1e-6:
        assert norm2 > 0
    assert norm2 >= 0
