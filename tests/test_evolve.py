import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wentzell.core import (BulkBoundaryFunction, CauchyData, Grid1D,
                           PhysicalParams, Strip, symplectic_form)
from wentzell.evolve import (CflError, SpectralState, causality_probe, energy,
                             energy_in_region, explicit_solution,
                             explicit_solution_dt, fdtd_run,
                             make_fdtd_state, reflection_cauchy_data,
                             spectral_evolve, spectral_symplectic,
                             synthesize_state)
from wentzell.modes import build_table, eval_mode_deriv, synthesize

P0 = PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.0))
P1 = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))


@pytest.fixture(scope="module")
def table0():
    return build_table(10, P0)


@pytest.fixture(scope="module")
def table1():
    return build_table(10, P1)


def gaussian_data(grid, width=0.1, center=0.0):
    z = grid.nodes
    pos = np.exp(-((z - center) ** 2) / (2 * width**2))
    return CauchyData.from_samples(grid, pos, np.zeros_like(z))


# ---------------------------------------------------------------------------
# spectral propagator

def test_spectral_identity_at_t0(table1):
    s = SpectralState(a=np.arange(11.0), b=np.ones(11), table=table1)
    s2 = spectral_evolve(s, 0.0)
    assert np.array_equal(s2.a, s.a) and np.array_equal(s2.b, s.b)


def test_spectral_periodicity(table1):
    a = np.zeros(11)
    a[1] = 1.0
    s = SpectralState(a=a, b=np.zeros(11), table=table1)
    w1 = s.omegas()[1]
    s2 = spectral_evolve(s, 2 * np.pi / w1)
    assert abs(s2.a[1] - 1.0) < 1e-12 and abs(s2.b[1]) < 1e-12


def test_zero_mode_linear_growth(table0):
    b = np.zeros(11)
    b[0] = 1.0
    s = SpectralState(a=np.zeros(11), b=b, table=table0)
    s2 = spectral_evolve(s, 3.0)
    assert s2.a[0] == pytest.approx(3.0)
    assert s2.b[0] == pytest.approx(1.0)


def test_spectral_energy_exact_over_many_steps(table1):
    m = np.arange(11.0)
    s = SpectralState(a=1.0 / (1 + m) ** 2, b=0.5 / (1 + m), table=table1)
    E0 = energy(s).total
    dt = 7.3e-3
    drift = 0.0
    for _ in range(10_000):
        s = spectral_evolve(s, dt)
        # re-evaluation every step; accumulated rotations stay on the shell
    drift = abs(energy(s).total - E0) / E0
    assert drift < 1e-12


def test_single_mode_energy(table1):
    a = np.zeros(11)
    a[1] = 1.0
    s = SpectralState(a=a, b=np.zeros(11), table=table1)
    w1 = s.omegas()[1]
    assert energy(s).total == pytest.approx(w1**2 / 2, rel=1e-12)
    s2 = spectral_evolve(s, 1.7)
    assert energy(s2).total == pytest.approx(w1**2 / 2, rel=1e-12)
    assert energy(s).boundary >= 0 and energy(s).bulk >= 0


@pytest.mark.parametrize("k", [0.0, 2.0])
def test_spectral_energy_split_matches_quadrature(table1, k):
    # the boundary part carries the transverse momentum too:
    # c/2 (v^2 + (mu^2 + k^2) phi^2) at each component, the rest is bulk
    m = np.arange(11)
    s = SpectralState(a=0.6 / (1.0 + m) ** 2, b=0.3 / (1.0 + m), table=table1, k=k)
    grid = Grid1D.for_strip(1.0, 4096)
    data = synthesize_state(s, grid)
    phi, v = data.position.bulk, data.velocity.bulk
    phi_z = eval_mode_deriv(m[None, :], grid.nodes[:, None], table1) @ s.a
    mass2 = P1.mu**2 + k**2
    bulk = 0.5 * grid.quad_weights() @ (v**2 + phi_z**2 + mass2 * phi**2)
    bdy = 0.5 * P1.c * float(np.sum(v[[0, -1]] ** 2 + mass2 * phi[[0, -1]] ** 2))
    rep = energy(s)
    assert rep.boundary == pytest.approx(bdy, rel=1e-12)
    assert rep.bulk == pytest.approx(bulk, rel=1e-10)


def test_zero_state_energy(table1):
    s = SpectralState(a=np.zeros(11), b=np.zeros(11), table=table1)
    assert energy(s).total == 0.0


def test_symplectic_time_invariance_quadrature(table1):
    # conservation of the quadrature symplectic form along spectral evolution
    m = np.arange(11.0)
    A = SpectralState(a=0.6 / (1 + m) ** 2, b=0.1 / (1 + m), table=table1)
    B = SpectralState(a=0.2 / (1 + m), b=0.5 / (1 + m) ** 2, table=table1)
    grid = Grid1D.for_strip(1.0, 2048)
    s0 = symplectic_form(synthesize_state(A, grid), synthesize_state(B, grid), P1)
    At, Bt = spectral_evolve(A, 1.0), spectral_evolve(B, 1.0)
    s1 = symplectic_form(synthesize_state(At, grid), synthesize_state(Bt, grid), P1)
    assert s1 == pytest.approx(s0, abs=1e-6)
    # and the mode representation agrees with the quadrature within tolerance
    assert spectral_symplectic(A, B) == pytest.approx(s0, abs=1e-6)


def test_symplectic_rejects_states_on_different_tables(table1):
    A = SpectralState(a=np.ones(11), b=np.zeros(11), table=table1)
    for p, M in ((PhysicalParams(c=2.0, mu=1.0, geometry=Strip(1.0)), 10), (P1, 11)):
        B = SpectralState(a=np.zeros(M + 1), b=np.ones(M + 1), table=build_table(M, p))
        with pytest.raises(ValueError, match="different mode tables"):
            spectral_symplectic(A, B)
    # a table rebuilt for the same parameters is the same table
    B = SpectralState(a=np.zeros(11), b=np.ones(11), table=build_table(10, P1))
    assert spectral_symplectic(A, B) == 11.0


coeffs = arrays(float, 11, elements=st.floats(min_value=-2, max_value=2,
                                              allow_nan=False))


@given(a=coeffs, b=coeffs, t=st.floats(min_value=0, max_value=20, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_spectral_conservation_property(a, b, t):
    table = build_table(10, P1)
    s = SpectralState(a=a, b=b, table=table)
    st_ = spectral_evolve(s, t)
    assert energy(st_).total == pytest.approx(energy(s).total, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# FDTD

def test_fdtd_zero_data_stays_zero():
    grid = Grid1D.for_strip(1.0, 64)
    data = CauchyData(
        position=BulkBoundaryFunction(grid=grid, bulk=np.zeros(65), boundary=np.zeros(2)),
        velocity=BulkBoundaryFunction(grid=grid, bulk=np.zeros(65), boundary=np.zeros(2)))
    s = make_fdtd_state(data, P0)
    s = fdtd_run(s, 200)
    assert np.all(s.phi == 0.0)


def test_fdtd_cfl_rejected():
    grid = Grid1D.for_strip(1.0, 64)  # h = 1/32
    data = gaussian_data(grid)
    for cfl in (2.0, 1.0 + 1e-9, 0.0, -0.5, float("nan")):
        with pytest.raises(CflError, match=rf"in \(0, 1\] \(dt <= h\), got cfl={cfl}"):
            make_fdtd_state(data, P0, cfl=cfl)
    # the bound itself is allowed: dt = h
    assert make_fdtd_state(data, P0, cfl=1.0).dt == grid.h


def test_negative_step_count_and_time_are_named():
    grid = Grid1D.for_strip(1.0, 64)
    data = gaussian_data(grid)
    with pytest.raises(ValueError, match="n_steps=-1"):
        fdtd_run(make_fdtd_state(data, P0), -1)
    with pytest.raises(ValueError, match="t=-0.5"):
        causality_probe(data, P0, t=-0.5)


def reference_acceleration(phi, h, p):
    """acc(phi) of the scheme, written out term by term: the 3-point Laplacian
    in the interior and the one-sided 3-point closure at both endpoints."""
    acc = np.empty_like(phi)
    acc[1:-1] = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / h**2 - p.mu**2 * phi[1:-1]
    dperp_lo = (-3.0 * phi[0] + 4.0 * phi[1] - phi[2]) / (2.0 * h)
    dperp_hi = -(3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / (2.0 * h)
    acc[0] = -p.mu**2 * phi[0] + dperp_lo / p.c
    acc[-1] = -p.mu**2 * phi[-1] + dperp_hi / p.c
    return acc


@pytest.mark.parametrize("mu", [0.0, 1.0])
@pytest.mark.parametrize("c", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("n", [2, 64])
def test_fdtd_run_matches_reference_leapfrog(n, c, mu):
    # fdtd_run's fused stencil against the unfused form
    # phi_next = 2 phi - phi_prev + dt^2 acc(phi), started from the Taylor back-step
    p = PhysicalParams(c=c, mu=mu, geometry=Strip(1.0))
    grid = Grid1D.for_strip(1.0, n)
    z = grid.nodes
    pos = np.exp(-((z - 0.2) ** 2) / (2 * 0.3**2))
    data = CauchyData.from_samples(grid, pos, -3.0 * z * pos)
    s0 = make_fdtd_state(data, p)
    h, dt = grid.h, s0.dt
    phi, v0 = s0.phi, -3.0 * z * pos
    taylor = phi - dt * v0 + 0.5 * dt**2 * reference_acceleration(phi, h, p)
    assert np.max(np.abs(s0.phi_prev - taylor)) <= 1e-13 * np.max(np.abs(taylor))

    prev, cur = taylor, phi.copy()
    trace = []
    for _ in range(500):
        prev, cur = cur, 2.0 * cur - prev + dt**2 * reference_acceleration(cur, h, p)
        trace.append([cur[0], cur[-1]])
    s = fdtd_run(s0, 500)

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    assert rel(s.phi, cur) <= 1e-11
    assert rel(s.phi_prev, prev) <= 1e-11
    assert rel(s.bdy_trace, np.array(trace)) <= 1e-11


def test_fdtd_standing_mode_vs_spectral(table0):
    grid = Grid1D.for_strip(1.0, 1024)
    a = np.zeros(11)
    a[1] = 1.0
    data = CauchyData(position=synthesize(a, table0, grid),
                      velocity=synthesize(np.zeros(11), table0, grid))
    s = make_fdtd_state(data, P0, cfl=0.5)
    w1 = table0.omegas()[1]
    steps = int(round(2 * np.pi / w1 / s.dt))
    s = fdtd_run(s, steps)
    ref = synthesize_state(
        spectral_evolve(SpectralState(a=a, b=np.zeros(11), table=table0),
                        steps * s.dt), grid)
    err = np.sqrt(np.trapezoid((s.phi - ref.position.bulk) ** 2, grid.nodes))
    assert err < 1e-3


def rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def test_fdtd_run_boundary_trace_matches_single_steps():
    # one 40-step call is two blocked updates, the same map as 40 single steps
    # evaluated in another order
    grid = Grid1D.for_strip(1.0, 128)
    s0 = make_fdtd_state(gaussian_data(grid, width=0.2), P1)
    bulk = fdtd_run(s0, 40)
    assert bulk.bdy_trace.shape == (40, 2)
    s = s0
    single = []
    for k in range(40):
        s = fdtd_run(s, 1)
        assert s.bdy_trace.shape == (1, 2)
        single.append([s.phi[0], s.phi[-1]])
    assert rel_diff(bulk.bdy_trace, np.array(single)) <= 1e-13
    assert rel_diff(bulk.phi, s.phi) <= 1e-13
    assert rel_diff(bulk.phi_prev, s.phi_prev) <= 1e-13
    assert bulk.t == pytest.approx(s.t)
    assert np.array_equal(bulk.bdy_trace[-1], bulk.bdy)
    assert make_fdtd_state(gaussian_data(grid), P1).bdy_trace.shape == (0, 2)


def test_fdtd_run_composes():
    grid = Grid1D.for_strip(1.0, 128)
    s0 = make_fdtd_state(gaussian_data(grid, width=0.2), P1)
    split = fdtd_run(fdtd_run(s0, 3), 4)  # single steps throughout
    whole = fdtd_run(s0, 7)
    assert np.array_equal(split.phi, whole.phi)
    assert np.array_equal(split.phi_prev, whole.phi_prev)
    assert np.array_equal(split.bdy_trace, whole.bdy_trace[3:])
    assert split.t == pytest.approx(whole.t)
    split = fdtd_run(fdtd_run(s0, 17), 23)  # blocks of 17 and 23 against 20 + 20
    whole = fdtd_run(s0, 40)
    assert rel_diff(split.phi, whole.phi) <= 1e-13
    assert rel_diff(split.phi_prev, whole.phi_prev) <= 1e-13
    assert rel_diff(split.bdy_trace, whole.bdy_trace[17:]) <= 1e-13
    assert np.array_equal(split.bdy_trace[-1], split.bdy)


def long_double_leapfrog(s, n_steps):
    """The scheme of ``reference_acceleration`` in long double: (phi, phi_prev)
    after n_steps steps from the levels of s."""
    h, dt = np.longdouble(s.grid.h), np.longdouble(s.dt)
    prev, cur = s.phi_prev.astype(np.longdouble), s.phi.astype(np.longdouble)
    for _ in range(n_steps):
        prev, cur = cur, 2 * cur - prev + dt**2 * reference_acceleration(cur, h, s.p)
    return cur, prev


def test_fdtd_blocked_rounding_against_long_double():
    # 5000 steps on 8193 nodes in 40-step calls (250 blocked updates); the
    # pulse reaches the boundary at -S, and mu = 1 gives the d-from-x kernel
    # its near-zero sum
    grid = Grid1D.for_strip(1.0, 8192)
    s = make_fdtd_state(gaussian_data(grid, width=0.1, center=-0.6), P1)
    ref, ref_prev = long_double_leapfrog(s, 5000)
    for _ in range(125):
        s = fdtd_run(s, 40)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(s.phi - ref)) <= 5e-11 * scale
    assert np.max(np.abs(s.phi_prev - ref_prev)) <= 5e-11 * scale


def test_fdtd_blocked_call_leaves_the_outside_of_the_cone_exactly_zero():
    grid = Grid1D.for_strip(1.0, 1024)
    data = bump_data(grid)
    live = np.nonzero(data.position.bulk)[0]
    s = fdtd_run(make_fdtd_state(data, P1), 100)
    cells = np.arange(grid.n_nodes)
    outside = (cells < live[0] - 102) | (cells > live[-1] + 102)
    assert outside.sum() > 500
    assert np.all(s.phi[outside] == 0.0) and np.all(s.phi_prev[outside] == 0.0)
    assert np.any(s.phi[~outside] != 0.0)


def test_energy_in_region_whole_strip_equals_total():
    grid = Grid1D.for_strip(1.0, 256)
    s = fdtd_run(make_fdtd_state(gaussian_data(grid, width=0.1, center=-0.7), P1), 300)
    rep = energy(s)
    assert rep.boundary > 0  # the pulse has reached the boundary at -S
    # the end nodes carry the boundary terms plus their h/2 share of the bulk
    ends = rep.node_energy[[0, -1]]
    assert np.all(ends >= 0) and ends.sum() >= rep.boundary
    assert ends.sum() == pytest.approx(rep.boundary, rel=1e-2)
    assert rep.node_energy.sum() == pytest.approx(rep.total, rel=1e-14)
    whole = energy_in_region(s, -1.0, 1.0)
    assert whole == pytest.approx(rep.total, rel=1e-14)


def bump_data(grid, r=0.2):
    """Compactly supported bump of radius r at z = 0, at rest."""
    z = grid.nodes
    pos = np.where(np.abs(z) < r, np.exp(1.0 - 1.0 / np.maximum(1.0 - (z / r) ** 2, 1e-300)),
                   0.0)
    return CauchyData.from_samples(grid, pos, np.zeros_like(z))


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_fdtd_energy_constant_before_boundary_contact(mu):
    # the interior leapfrog conserves the energy of its two levels exactly;
    # the support reaches z = +-0.6 by t = 0.39, far from the endpoints
    p = PhysicalParams(c=1.0, mu=mu, geometry=Strip(1.0))
    s = make_fdtd_state(bump_data(Grid1D.for_strip(1.0, 512)), p)
    E0 = energy(s).total
    for _ in range(10):
        s = fdtd_run(s, 20)
        assert abs(energy(s).total - E0) <= 1e-12 * E0


def test_energy_diagnostics_take_no_step(monkeypatch):
    import wentzell.evolve as evolve

    calls = []

    def counted(s, n_steps):
        calls.append(n_steps)
        return fdtd_run(s, n_steps)

    def forbidden(*args, **kwargs):
        raise AssertionError("the FDTD energy is a sum over the stored levels")

    grid = Grid1D.for_strip(1.0, 256)
    data = bump_data(grid)
    s = fdtd_run(make_fdtd_state(data, P1), 50)
    monkeypatch.setattr(evolve, "fdtd_run", counted)
    monkeypatch.setattr(np, "gradient", forbidden)
    monkeypatch.setattr(np, "trapezoid", forbidden)
    energy(s)
    energy_in_region(s, -0.5, 0.5)
    assert calls == []
    causality_probe(data, P1, t=0.25)
    assert calls == [64]  # its own evolution, and no step for the energy


def test_fdtd_second_order_convergence(table1):
    m = np.arange(11.0)
    a = 0.4 / (1 + m) ** 2
    b = 0.2 / (1 + m) ** 2

    def err(n):
        grid = Grid1D.for_strip(1.0, n)
        data = CauchyData(position=synthesize(a, table1, grid),
                          velocity=synthesize(b, table1, grid))
        s = make_fdtd_state(data, P1, cfl=0.5)
        steps = int(round(1.0 / s.dt))
        s = fdtd_run(s, steps)
        ref = synthesize_state(
            spectral_evolve(SpectralState(a=a, b=b, table=table1), steps * s.dt), grid)
        return float(np.max(np.abs(s.phi - ref.position.bulk)))

    ratio = err(512) / err(1024)
    assert 3.2 <= ratio <= 4.8


# ---------------------------------------------------------------------------
# causality

def test_causality_trivial_at_t0():
    grid = Grid1D.for_strip(1.0, 512)
    rep = causality_probe(gaussian_data(grid, width=0.05), P0, t=0.0)
    assert rep.passed


def test_causality_before_boundary_contact():
    grid = Grid1D.for_strip(1.0, 1024)
    data = gaussian_data(grid, width=0.03)
    data.position.bulk[np.abs(grid.nodes) > 0.2] = 0.0
    rep = causality_probe(data, P0, t=0.5)
    assert rep.passed
    assert rep.max_outside < 1e-8


def test_causality_boundary_bump_far_half():
    # bump near the left boundary: the right half stays silent until t ~ distance
    grid = Grid1D.for_strip(1.0, 1024)
    data = gaussian_data(grid, width=0.04, center=-0.8)
    data.position.bulk[grid.nodes > -0.6] = 0.0
    st_ = make_fdtd_state(data, P0, cfl=0.5)
    total = energy(st_).total
    steps = int(round(0.5 / st_.dt))  # right edge of the cone reaches z ~ -0.1
    st_ = fdtd_run(st_, steps)
    far = energy_in_region(st_, 0.0, 1.0)
    assert far < 1e-8 * total


def test_local_energy_estimate():
    grid = Grid1D.for_strip(1.0, 1024)
    data = gaussian_data(grid, width=0.05, center=0.2)
    st_ = make_fdtd_state(data, P0, cfl=0.5)
    lo, hi = 0.2 - 0.3, 0.2 + 0.3
    E0 = energy_in_region(st_, lo, hi)
    for _ in range(5):
        st_ = fdtd_run(st_, int(round(0.04 / st_.dt)))
        assert energy_in_region(st_, lo + st_.t, hi - st_.t) <= E0 * (1 + 1e-3)


# ---------------------------------------------------------------------------
# exact reflection solution

def test_explicit_solution_before_arrival():
    z = np.linspace(0.0, 2.0, 101)
    phi, bdy = explicit_solution(-0.5, z, eps=0.02, c=1.0)
    assert abs(bdy) < 1e-60
    # only the infalling pulse: a single Gaussian at z = 0.5
    assert phi[np.argmax(np.abs(phi))] == pytest.approx(
        1.0 / (0.02 * np.sqrt(2 * np.pi)), rel=1e-6)


def test_explicit_solution_boundary_value():
    # eps -> 0 limit of the trace at t = 1, c = 1 is 2/e
    _, b1 = explicit_solution(1.0, np.array([0.0]), eps=1e-4, c=1.0)
    assert b1 == pytest.approx(2 * np.exp(-1.0), rel=1e-6)
    phi0, b0 = explicit_solution(0.7, np.array([0.0]), eps=0.02, c=1.0)
    assert phi0[0] == pytest.approx(b0, rel=1e-12)  # trace condition


def test_explicit_solution_solves_boundary_ode():
    # d2/dt2 phi| = c^-1 dperp phi at z = 0 (mu = 0), by finite differences
    eps, c = 0.05, 0.7
    dt = 1e-4
    t0 = 0.4
    _, b_m = explicit_solution(t0 - dt, np.array([0.0]), eps, c)
    _, b_0 = explicit_solution(t0, np.array([0.0]), eps, c)
    _, b_p = explicit_solution(t0 + dt, np.array([0.0]), eps, c)
    acc = (b_p - 2 * b_0 + b_m) / dt**2
    dz = 1e-5
    z = np.array([0.0, dz, 2 * dz])
    phi, _ = explicit_solution(t0, z, eps, c)
    dperp = (-3 * phi[0] + 4 * phi[1] - phi[2]) / (2 * dz)
    assert acc == pytest.approx(dperp / c, rel=1e-4)


def test_explicit_solution_dt_consistency():
    eps, c = 0.03, 1.3
    z = np.linspace(0.0, 1.5, 301)
    dt = 1e-6
    up, _ = explicit_solution(0.3 + dt, z, eps, c)
    dn, _ = explicit_solution(0.3 - dt, z, eps, c)
    v, _ = explicit_solution_dt(0.3, z, eps, c)
    assert np.max(np.abs((up - dn) / (2 * dt) - v)) < 1e-4 * np.max(np.abs(v))


def test_fdtd_reflection_trace():
    # coarser, faster variant of the full acceptance run
    eps, c = 0.02, 1.0
    grid = Grid1D(-1.0, 1.0, 4096)
    p = PhysicalParams(c=c, mu=0.0, geometry=Strip(1.0))
    data = reflection_cauchy_data(grid, t0=-0.5, eps=eps, c=c)
    s = make_fdtd_state(data, p, cfl=0.5)
    n_steps = int(round(1.5 / s.dt))
    s = fdtd_run(s, n_steps)
    t = -0.5 + np.arange(1, n_steps + 1) * s.dt
    _, exact = explicit_solution(t, 0.0, eps, c)
    sup = np.max(np.abs(s.bdy_trace[:, 0] - exact))
    assert sup < 5e-2 * 2 / c


def test_explicit_solution_array_times():
    t = np.linspace(-0.5, 1.5, 9)
    phi, bdy = explicit_solution(t, 0.0, eps=0.02, c=0.8)
    assert bdy.shape == t.shape
    for k, tk in enumerate(t):
        phi_k, bdy_k = explicit_solution(tk, 0.0, eps=0.02, c=0.8)
        assert isinstance(bdy_k, float)
        assert bdy[k] == bdy_k and phi[k] == phi_k
