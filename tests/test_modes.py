import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wentzell.core import GeometryError, Grid1D, HalfSpace, PhysicalParams, Strip
from wentzell.modes import (ModeTable, bracket, build_table, check_solution,
                            eval_halfspace_mode, eval_mode, gram_matrix, mode_matrix, project, residual_normalized, synthesize)
from wentzell.qft import smeared_coeffs

P1 = PhysicalParams(c=1.0, geometry=Strip(1.0))


@pytest.fixture(scope="module")
def table20():
    return build_table(20, P1)


def weighted_quad(f, S, c, n=200_000):
    """Independent dense-trapezoid oracle for the weighted norm of a profile."""
    z = np.linspace(-S, S, n + 1)
    y = f(z)
    return np.trapezoid(y * y, z) + c * (f(-S) ** 2 + f(S) ** 2)


def test_solve_q_zero_mode():
    assert build_table(0, P1).qs[0] == 0.0
    assert build_table(3, PhysicalParams(c=3.7, geometry=Strip(0.4))).qs[0] == 0.0


def test_solve_q_reference_roots():
    # bisection oracle values: q tan q = 1 on (0, pi/2); tan q = -q on (pi/2, pi)
    qs = build_table(2, P1).qs
    assert qs[1] == pytest.approx(0.86033, abs=1e-5)
    assert qs[2] == pytest.approx(2.02876, abs=1e-5)


def test_solve_q_rejects_halfspace():
    with pytest.raises(GeometryError):
        build_table(1, PhysicalParams(c=1.0, geometry=HalfSpace()))


def test_normalization_against_quadrature(table20):
    q, c_norm, d_bdy = table20.qs, table20.c_norms, table20.d_bdys
    W = weighted_quad(lambda z: np.sin(q[1] * z), 1.0, 1.0)
    assert c_norm[1] == pytest.approx(np.sqrt(1.0 / W), rel=1e-8)
    assert c_norm[1] == pytest.approx(0.7969, abs=1e-4)
    assert d_bdy[1] == pytest.approx(0.6041, abs=1e-4)
    W2 = weighted_quad(lambda z: np.cos(q[2] * z), 1.0, 1.0)
    assert c_norm[2] == pytest.approx(np.sqrt(1.0 / W2), rel=1e-8)


def test_zero_mode_normalization(table20):
    # constant mode: unit weighted norm gives d_0 = 1 / sqrt(2S + 2c)
    assert table20.d_bdys[0] == pytest.approx(0.5)
    W = weighted_quad(lambda z: np.ones_like(z), 1.0, 1.0)
    assert table20.c_norms[0] == pytest.approx(np.sqrt(1.0 / W), rel=1e-10)


def test_d9_asymptotic_law(table20):
    assert abs(table20.d_bdys[9]) == pytest.approx(2.0 / (np.pi * 8), rel=0.15)


def test_check_solution_passes_at_200_modes():
    # the exact relations hold at every m from the constant mode on, with no
    # range left to a large-m law
    assert check_solution(build_table(200, P1)) <= 1e-12


def test_check_solution_passes_at_1e5_modes():
    # the delta form keeps q, c_m and d_m accurate where q S >> 2^14
    assert check_solution(build_table(10**5, P1)) <= 1e-12


def _scale_d37(t):
    d = t.d_bdys.copy()
    d[37] *= 1 + 1e-12
    return {"d_bdys": d}


def _c_without_the_root(t):
    # c_m^2 = S / (S + 2c sin^2 theta), _normalize without its sin(2 theta) / 2q
    # term, and d_m from that c_m as _normalize would take it
    sin_t = np.sin(t.deltas[1:])
    c_norms = np.r_[t.c_norms[0], np.sqrt(1.0 / (1.0 + 2.0 * sin_t**2))]
    return {"c_norms": c_norms, "d_bdys": t.d_bdys / t.c_norms * c_norms}


def _delta37_past_its_window(t):
    # theta_37 just above arctan(2S / (c pi 36)), with q_37 moved along
    deltas, qs = t.deltas.copy(), t.qs.copy()
    deltas[37] = np.arctan(2.0 / (np.pi * 36)) * (1 + 1e-9)
    qs[37] = np.pi * 36 / 2 + deltas[37]
    return {"deltas": deltas, "qs": qs}


@pytest.mark.parametrize("fault, message", [
    (_scale_d37, r"d_m sqrt\(S\) is not \+-c_m sin theta at m=\[37\]"),
    (_c_without_the_root, r"c_m\^2 \(S \+ c sin\^2 theta\) is not S at m=\[1 2 3 4 5\]"),
    (_delta37_past_its_window, r"theta = delta S outside its window at m=\[37\]"),
], ids=["d-scaled", "c-formula", "delta-window"])
def test_check_solution_names_a_corrupted_mode(fault, message):
    # S = c = 1; each fault keeps the columns finite and q increasing, so
    # ModeTable accepts the table and check_solution must name the mode
    t = build_table(200, P1)
    cols = {k: getattr(t, k) for k in ("qs", "deltas", "c_norms", "d_bdys")}
    with pytest.raises(ValueError, match=message):
        check_solution(ModeTable(params=P1, **(cols | fault(t))))


@pytest.mark.parametrize("S", (0.3, 0.4, 0.7, 1.3, 2.5))
def test_check_solution_passes_at_12000_modes(S):
    # where q S is not exact in binary the trig-form residual floor exceeds
    # 1e-12 a little beyond q S = 2^12 (first failures at m = 3 157 to 4 589
    # with a switch at 2^14); the delta form holds from 2^12 on
    table = build_table(12_000, PhysicalParams(c=1.0, geometry=Strip(S)))
    assert check_solution(table) <= 1e-12


def test_table_residuals_are_computed_once_and_read_only():
    table = build_table(50, P1)
    res = table.residuals
    assert table.residuals is res and res.shape == (50,)
    with pytest.raises(ValueError, match="read-only"):
        res[0] = 0.0


@pytest.mark.parametrize("c", (0.1, 1.0, 10.0))
def test_couplings_match_mpmath(c):
    # c_m and d_m from the trig forms in 40-digit arithmetic at the exact root
    mp = pytest.importorskip("mpmath")
    table = build_table(10**4, PhysicalParams(c=c, geometry=Strip(1.0)))
    with mp.workdps(40):
        cc = mp.mpf(c)
        for m in (100, 10**4):
            if m % 2 == 0:
                q = mp.findroot(lambda x: mp.sin(x) / cc + x * mp.cos(x), table.qs[m])
                trace, s2 = mp.cos(q), mp.sin(2 * q) / (2 * q)
            else:
                q = mp.findroot(lambda x: x * mp.sin(x) - mp.cos(x) / cc, table.qs[m])
                trace, s2 = mp.sin(q), -mp.sin(2 * q) / (2 * q)
            c_norm = mp.sqrt(1 / (1 + s2 + 2 * cc * trace**2))
            d_bdy = c_norm * trace
            assert abs(table.c_norms[m] / c_norm - 1) <= 1e-14
            assert abs(table.d_bdys[m] / d_bdy - 1) <= 1e-14


def test_eval_mode_constant(table20):
    z = np.linspace(-1, 1, 7)
    vals = eval_mode(0, z, table20)
    assert np.allclose(vals, table20.c_norms[0])


def test_eval_mode_outside_domain(table20):
    with pytest.raises(GeometryError):
        eval_mode(1, 1.5, table20)


def test_eval_mode_trace_is_d(table20):
    assert float(eval_mode(2, 1.0, table20)) == pytest.approx(table20.d_bdys[2], abs=1e-14)


def test_halfspace_mode_boundary_value():
    q = 1.3
    p = PhysicalParams(c=1.0, geometry=HalfSpace())
    val = eval_halfspace_mode(q, 0.0, p)
    assert val == pytest.approx((np.pi / 2 * (q**2 + 1)) ** -0.5)
    with pytest.raises(GeometryError):
        eval_halfspace_mode(q, -0.1, p)


def test_halfspace_mode_broadcast_matches_loop():
    # the (z, q) matrix in one call equals one column per q; the vectorized
    # power may round the prefactor differently in the last bit
    p = PhysicalParams(c=1.3, mu=1.0, geometry=HalfSpace())
    q = np.linspace(0.0, 12.0, 241)
    z = Grid1D.for_halfspace(4.0, 1024).nodes
    loop = np.column_stack([eval_halfspace_mode(qi, z, p) for qi in q])
    V = eval_halfspace_mode(q[None, :], z[:, None], p)
    assert V.shape == loop.shape
    assert np.max(np.abs(V - loop)) <= 4 * np.finfo(float).eps * np.max(np.abs(loop))


@pytest.mark.parametrize("n", (7, 256))
def test_mode_matrix_is_the_profile_formula(n):
    # bitwise the written-out profile amp * cos/sin(z q) with the exact
    # boundary values in the end rows
    table = build_table(60, PhysicalParams(c=0.7, mu=1.0, geometry=Strip(1.3)))
    grid = Grid1D.for_strip(1.3, n)
    m = np.arange(len(table))
    phase = np.outer(grid.nodes, table.qs)
    ref = np.where(m % 2 == 0, np.cos(phase), np.sin(phase)) \
        * (table.c_norms / np.sqrt(1.3))
    ref[0], ref[-1] = table.boundary_values().T
    assert np.array_equal(mode_matrix(table, grid), ref)


def test_project_rejects_a_grid_off_the_strip(table20):
    # every sampled-mode operation takes the strip from the table (S = 1)
    F = synthesize(np.eye(21)[3], table20, Grid1D.for_strip(1.0, 64))
    F.grid = Grid1D(-1.0, 0.9, 64)
    with pytest.raises(GeometryError, match=r"must span \[-S, S\]"):
        project(F, table20)
    with pytest.raises(GeometryError, match=r"must span \[-S, S\]"):
        gram_matrix(table20, Grid1D(-1.0, 0.9, 64))
    narrow = Grid1D.for_strip(0.5, 64)
    with pytest.raises(GeometryError, match=r"must span \[-S, S\]"):
        synthesize(np.ones(len(table20)), table20, narrow)
    with pytest.raises(GeometryError, match=r"must span \[-S, S\]"):
        mode_matrix(table20, narrow)
    t = np.linspace(-1.0, 1.0, 33)
    bump = np.exp(-t ** 2 / 0.02)[:, None] * np.ones(narrow.n_nodes)
    with pytest.raises(GeometryError, match=r"must span \[-S, S\]"):
        smeared_coeffs(bump, None, table20, t, narrow)


def test_project_unit_vectors(table20):
    g = Grid1D.for_strip(1.0, 4096)
    F = synthesize(np.eye(21)[7], table20, g)
    a = project(F, table20)
    e7 = np.zeros(21)
    e7[7] = 1.0
    assert np.max(np.abs(a - e7)) < 1e-8


def test_project_zero(table20):
    g = Grid1D.for_strip(1.0, 256)
    F = synthesize(np.zeros(21), table20, g)
    assert np.all(project(F, table20) == 0.0)


def test_gram_identity(table20):
    g = Grid1D.for_strip(1.0, 4096)
    G = np.array([project(synthesize(e, table20, g), table20) for e in np.eye(21)])
    assert np.max(np.abs(G - np.eye(21))) < 1e-8
    # one Gram product over the mode matrix is the same matrix as the loop
    assert np.max(np.abs(gram_matrix(table20, g) - G)) < 1e-14


def test_synthesize_round_trip(table20):
    g = Grid1D.for_strip(1.0, 4096)
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=21) / (1 + np.arange(21.0))
    F = synthesize(coeffs, table20, g)
    assert np.max(np.abs(project(F, table20) - coeffs)) < 1e-8
    # completeness: band-limited functions reproduce in sup norm
    G = synthesize(project(F, table20), table20, g)
    assert np.max(np.abs(G.bulk - F.bulk)) < 1e-6


def test_synthesize_trace_exact(table20):
    g = Grid1D.for_strip(1.0, 128)
    coeffs = np.linspace(1.0, 0.1, 21)
    F = synthesize(coeffs, table20, g)
    assert F.bulk[0] == F.boundary[0]
    assert F.bulk[-1] == F.boundary[1]


@pytest.mark.parametrize("S", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("c", (0.5, 1.0, 2.0))
def test_bracket_unique_root(S, c):
    # the defining trig form changes sign at the window endpoints and crosses
    # zero exactly once inside, for every tested geometry
    p = PhysicalParams(c=c, geometry=Strip(S))
    for m in range(1, 31):
        lo, hi = bracket(m, p)
        q = np.linspace(lo, hi, 201)
        even = m % 2 == 0
        if even:
            vals = np.sin(q * S) / c + q * np.cos(q * S)
        else:
            vals = q * np.sin(q * S) - np.cos(q * S) / c
        assert vals[0] * vals[-1] < 0
        assert np.count_nonzero(np.diff(np.sign(vals))) == 1


st_sc = st.floats(min_value=0.5, max_value=2.0, allow_nan=False)
st_m = st.integers(min_value=1, max_value=40)


@given(S=st_sc, c=st_sc, m=st_m)
@settings(max_examples=60, deadline=None)
def test_bracket_contains_root(S, c, m):
    p = PhysicalParams(c=c, geometry=Strip(S))
    lo, hi = bracket(m, p)
    q = build_table(m, p).qs[m]
    assert lo < q < hi
    assert residual_normalized(q, p, m % 2 == 0) < 1e-12 * max(1.0, 1.0 / S)


@given(S=st_sc, c=st_sc)
@settings(max_examples=15, deadline=None)
def test_d_nonzero_and_increasing(S, c):
    p = PhysicalParams(c=c, geometry=Strip(S))
    table = build_table(30, p)
    assert np.all(table.d_bdys != 0.0)
    assert np.all(np.diff(table.qs) > 0)
    # the proved bound |d_m| < 2 sqrt(S) / (c pi (m-1)), from m = 2 on
    m = np.arange(2, 31)
    assert np.all(np.abs(table.d_bdys[2:]) < 2 * np.sqrt(S) / (c * np.pi * (m - 1)))
