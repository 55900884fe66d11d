import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wentzell.core import (BulkBoundaryFunction, CauchyData, Grid1D,
                           PhysicalParams, Strip)
from wentzell.evolve import (CflError, SpectralState, _span_energy, causality_probe,
                             energy, energy_in_region, energy_steps, explicit_solution,
                             explicit_solution_dt, fdtd_run, fdtd_samples,
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


def quadrature_symplectic(A: CauchyData, B: CauchyData, c: float) -> float:
    """Oracle: int (phi_A psi'_B - phi'_A psi_B) by the grid's quadrature
    plus c times the same form of the boundary values."""
    w = A.position.grid.quad_weights()
    bulk = np.dot(w, A.position.bulk * B.velocity.bulk - A.velocity.bulk * B.position.bulk)
    bdy = np.sum(A.position.boundary * B.velocity.boundary
                 - A.velocity.boundary * B.position.boundary)
    return float(bulk + c * bdy)


def test_symplectic_time_invariance_quadrature(table1):
    # conservation of the quadrature symplectic form along spectral evolution
    m = np.arange(11.0)
    A = SpectralState(a=0.6 / (1 + m) ** 2, b=0.1 / (1 + m), table=table1)
    B = SpectralState(a=0.2 / (1 + m), b=0.5 / (1 + m) ** 2, table=table1)
    grid = Grid1D.for_strip(1.0, 2048)
    s0 = quadrature_symplectic(synthesize_state(A, grid), synthesize_state(B, grid), P1.c)
    At, Bt = spectral_evolve(A, 1.0), spectral_evolve(B, 1.0)
    s1 = quadrature_symplectic(synthesize_state(At, grid), synthesize_state(Bt, grid), P1.c)
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


@given(a=coeffs, b=coeffs, u=coeffs, v=coeffs)
@settings(max_examples=30, deadline=None)
def test_symplectic_antisymmetry(table1, a, b, u, v):
    # each term changes sign exactly, so the sums do
    A = SpectralState(a=a, b=b, table=table1)
    B = SpectralState(a=u, b=v, table=table1)
    assert spectral_symplectic(A, B) == -spectral_symplectic(B, A)
    assert spectral_symplectic(A, A) == 0.0


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
    # one 40-step call is two 20-step blocks, the same map as 40 one-step
    # calls evaluated in another order
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


@pytest.mark.parametrize("n", [2, 4, 64])
def test_inner_trace_is_the_end_nodes_after_every_step(n):
    # a 70-step call in blocks of 1 (3 nodes), 2 (5 nodes), and 24 and 23
    # (65 nodes): the edge operator's rows of nodes 1 and 2, and the buffer
    # at each block's end, against samples after every step
    grid = Grid1D.for_strip(1.0, n)
    s0 = make_fdtd_state(gaussian_data(grid, width=0.3), P1)
    run = fdtd_run(s0, 70)
    inner = [[1, -2], [2, -3]]  # nodes 1 and 2 from each end
    ref = np.array([s.phi[inner] for s in fdtd_samples(s0, 70, 1)])
    assert run.inner_trace.shape == (70, 2, 2)
    assert rel_diff(run.inner_trace, ref) <= 1e-13
    assert np.array_equal(run.inner_trace[-1], run.phi[inner])
    assert fdtd_run(s0, 0).inner_trace.shape == (0, 2, 2)


@pytest.mark.parametrize("mu", [0.0, 1.0])
@pytest.mark.parametrize("c", [0.05, 1.0, 30.0])
def test_energy_steps_carry_the_energy_through_the_closure(c, mu):
    # at h = 1/64 and CFL 0.5 the scheme's coefficients are exact, so the
    # interior conserves energy() to rounding and the closure's balance
    # carries it over 1 000 steps to the energy of the level it reaches
    p = PhysicalParams(c=c, mu=mu, geometry=Strip(1.0))
    s = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 128), width=0.2), p)
    E0 = energy(s).total
    for run in fdtd_samples(s, 3000, 1000):
        dE, bdy = energy_steps(s, run)
        rep = energy(run)
        assert dE.shape == bdy.shape == (1000,)
        assert abs(energy(s).total + dE[-1] - rep.total) <= 1e-13 * E0
        assert bdy[-1] == pytest.approx(rep.boundary, rel=1e-12, abs=1e-15 * E0)
        s = run


def test_fdtd_run_composes():
    grid = Grid1D.for_strip(1.0, 128)
    s0 = make_fdtd_state(gaussian_data(grid, width=0.2), P1)
    # blocks of 3 and 4 against one of 7; of 17 and 23 against 20 + 20
    for first, second in ((3, 4), (17, 23)):
        split = fdtd_run(fdtd_run(s0, first), second)
        whole = fdtd_run(s0, first + second)
        assert rel_diff(split.phi, whole.phi) <= 1e-13
        assert rel_diff(split.phi_prev, whole.phi_prev) <= 1e-13
        assert rel_diff(split.bdy_trace, whole.bdy_trace[first:]) <= 1e-13
        assert np.array_equal(split.bdy_trace[-1], split.bdy)
        assert split.t == pytest.approx(whole.t)


def long_double_leapfrog(s, n_steps):
    """The scheme of ``reference_acceleration`` in long double: (phi, phi_prev)
    after n_steps steps from the levels of s."""
    h, dt = np.longdouble(s.grid.h), np.longdouble(s.dt)
    prev, cur = s.phi_prev.astype(np.longdouble), s.phi.astype(np.longdouble)
    for _ in range(n_steps):
        prev, cur = cur, 2 * cur - prev + dt**2 * reference_acceleration(cur, h, s.p)
    return cur, prev


@pytest.fixture(scope="module")
def long_double_run():
    """5000 steps on 8193 nodes from a pulse that reaches the boundary at -S;
    mu = 1 gives the d-from-x kernel its near-zero sum.  The initial state and
    the long-double (phi, phi_prev) after the last step."""
    grid = Grid1D.for_strip(1.0, 8192)
    s = make_fdtd_state(gaussian_data(grid, width=0.1, center=-0.6), P1)
    return s, *long_double_leapfrog(s, 5000)


def test_fdtd_blocked_rounding_against_long_double(long_double_run):
    # 40-step calls: 250 blocked updates
    s, ref, ref_prev = long_double_run
    for _ in range(125):
        s = fdtd_run(s, 40)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(s.phi - ref)) <= 5e-11 * scale
    assert np.max(np.abs(s.phi_prev - ref_prev)) <= 5e-11 * scale


def test_fdtd_sampled_rounding_against_long_double(long_double_run):
    # one run sampled every 40 steps: (x, d) is kept across the 125 samples
    s, ref, ref_prev = long_double_run
    samples = list(fdtd_samples(s, 5000, 40))
    assert len(samples) == 125
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(samples[-1].phi - ref)) <= 5e-11 * scale
    assert np.max(np.abs(samples[-1].phi_prev - ref_prev)) <= 5e-11 * scale


def test_fdtd_sampled_every_step_against_long_double():
    # 2048 one-step intervals, each a K = 1 block that continues (x, d)
    grid = Grid1D.for_strip(1.0, 1024)
    s = make_fdtd_state(gaussian_data(grid, width=0.1, center=-0.6), P1)
    ref, ref_prev = long_double_leapfrog(s, 2048)
    *_, last = fdtd_samples(s, 2048, 1)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(last.phi - ref)) <= 1e-13 * scale
    assert np.max(np.abs(last.phi_prev - ref_prev)) <= 1e-13 * scale


@pytest.mark.parametrize("mu", [0.0, 1.0])
@pytest.mark.parametrize("K", [1, 2, 7, 32])
def test_stride_kernel_is_k_long_double_steps(K, mu):
    # C x_n - x_(n-K) = x_(n+K) at every node at least K from both ends, through
    # the GEMM operands of a 32-node pad: x_(n-K) is the initial level and x_n
    # and x_(n+K) come from K and 2K long-double steps of the scheme
    import wentzell.evolve as evolve

    p = PhysicalParams(c=1.0, mu=mu, geometry=Strip(1.0))
    grid = Grid1D.for_strip(1.0, 256)
    n, width = grid.n_nodes, 64
    s = make_fdtd_state(gaussian_data(grid, width=0.1, center=-0.8), p)
    x_n = long_double_leapfrog(s, K)[0].astype(float)
    ref = long_double_leapfrog(s, 2 * K)[0]
    t0, t1 = evolve._stride_operators(evolve._leapfrog_stencil(grid.h, s.dt, p), [K], width)[K]
    padded = np.zeros((-(-n // width) + 1) * width)
    padded[width // 2:width // 2 + n] = x_n
    z = padded.reshape(-1, width)
    stride = (z[:-1] @ t0 + z[1:] @ t1).ravel()[:n] - s.phi
    assert rel_diff(stride[K:n - K], ref[K:n - K]) <= 1e-14


def long_double_edge_operator(coeffs, K):
    """The edge operator of K steps from its definition: the unit vectors of
    (x, d) on 2K + 1 nodes, each stepped K times in difference form in long
    double with the scheme's float64 coefficients; the rows are the boundary
    value after steps 1 .. K-1, then x and d on the first K nodes, then x on
    nodes 1 and 2 after steps 1 .. K-1."""
    r2, s0, b0, g = (np.longdouble(v) for v in coeffs)
    M = 2 * K + 1
    x = np.eye(M, 2 * M, dtype=np.longdouble)
    d = np.eye(M, 2 * M, M, dtype=np.longdouble)
    rows, window = [], []
    for k in range(1, K + 1):
        acc = np.empty_like(x)  # (S - 2) x
        acc[1:-1] = r2 * (x[:-2] + x[2:]) + (s0 - 2) * x[1:-1]
        acc[0] = (b0 - 2) * x[0] + g * (-3 * x[0] + 4 * x[1] - x[2])
        acc[-1] = (b0 - 2) * x[-1] - g * (3 * x[-1] - 4 * x[-2] + x[-3])
        d += acc
        x += d
        if k < K:
            rows.append(x[0].copy())
            window.append(x[1:3].copy())
    return np.vstack(rows + [x[:K], d[:K]] + window)


@pytest.mark.parametrize("cfl", [0.5, 0.3])
@pytest.mark.parametrize("c", [0.05, 1.0, 30.0])
@pytest.mark.parametrize("mu", [0.0, 1.0])
@pytest.mark.parametrize("K", [1, 2, 5, 20, 29, 32])
def test_edge_operator_is_k_long_double_steps(K, mu, c, cfl):
    # built alone and on the 65-node window of K = 32, next to it.  The
    # sums of each row over its x and its d inputs hold the long-double
    # response; at CFL 0.3 that takes the float64 response to the interior
    # rows' excess, without which they miss it by up to 1e-14 relative
    import wentzell.evolve as evolve

    p = PhysicalParams(c=c, mu=mu, geometry=Strip(1.0))
    h = Grid1D.for_strip(1.0, 1024).h
    coeffs = evolve._leapfrog_stencil(h, cfl * h, p)
    ref = long_double_edge_operator(coeffs, K)
    shape = (5 * K - 3, 2, 2 * K + 1)
    ref_sums = ref.reshape(shape).sum(axis=2)
    for lengths in ([K], [K, 32]):
        op = evolve._block_operators(coeffs, lengths)[K]
        assert op.shape == (5 * K - 3, 2 * (2 * K + 1))
        if K == 1:
            assert np.array_equal(op, ref.astype(float))
        assert rel_diff(op, ref) <= 3e-14
        sums = op.reshape(shape).sum(axis=2, dtype=np.longdouble)
        assert np.max(np.abs(sums - ref_sums)) <= 1e-15 * np.max(np.abs(ref))


def test_fdtd_blocks_of_two_lengths_against_long_double():
    # a 70-step interval is one block of 24 and two of 23: the level behind
    # moves one step forward at the change, and one back at the next interval
    import wentzell.evolve as evolve

    assert evolve._block_plan(70, 1025) == [(24, 1), (23, 2)]
    s0 = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 1024), width=0.1,
                                       center=-0.6), P1)
    for run in (lambda: fdtd_run(s0, 70), lambda: list(fdtd_samples(s0, 210, 70))[-1]):
        last = run()
        ref, ref_prev = long_double_leapfrog(s0, round(last.t / s0.dt))
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(last.phi - ref)) <= 1e-13 * scale
        assert np.max(np.abs(last.phi_prev - ref_prev)) <= 1e-13 * scale


def test_fdtd_short_last_interval_against_long_double():
    # intervals of one 20-step block, then a last one of 3 steps: the level
    # behind moves 17 steps forward before the last block
    s0 = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 1024), width=0.1,
                                       center=-0.6), P1)
    samples = list(fdtd_samples(s0, 103, 20))
    assert [len(a.bdy_trace) for a in samples] == [20] * 5 + [3]
    ref, ref_prev = long_double_leapfrog(s0, 103)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(samples[-1].phi - ref)) <= 1e-13 * scale
    assert np.max(np.abs(samples[-1].phi_prev - ref_prev)) <= 1e-13 * scale


def test_fdtd_stepper_handed_a_foreign_state_against_long_double():
    # a stepper mid-run, handed a state that another call made, rebuilds its
    # level behind from that state alone (20 steps back), and the run goes on
    # from there: a 3-step interval moves the level behind 17 steps forward
    import wentzell.evolve as evolve

    s0 = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 1024), width=0.1,
                                       center=-0.6), P1)
    stepper = evolve._Stepper(s0, 40)
    fdtd_run(s0, 40, stepper=stepper)
    restarted = fdtd_run(fdtd_run(s0, 13), 40, stepper=stepper)
    for last in (restarted, fdtd_run(restarted, 3, stepper=stepper)):
        ref, ref_prev = long_double_leapfrog(s0, round(last.t / s0.dt))
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(last.phi - ref)) <= 1e-13 * scale
        assert np.max(np.abs(last.phi_prev - ref_prev)) <= 1e-13 * scale


def chopped_run(s, n_steps, every):
    """The samples of a run taken one ``fdtd_run`` call per interval."""
    out = []
    for k in range(0, n_steps, every):
        s = fdtd_run(s, min(every, n_steps - k))
        out.append(s)
    return out


@pytest.mark.parametrize("n_nodes, n_steps, every, one_block", [
    (257, 103, 5, True),      # one 5-step block per interval, the last of 3
    (301, 103, 1, True),      # dt = 1/300: t sums the interval lengths as the calls do
    (1025, 250, 40, False),   # blocks of 20, then a last interval of 10
    (1025, 243, 40, False),   # blocks of 20, then a last interval of 3
    (1025, 200, 70, False),   # blocks of 24 and 23, then a last of 60 in 3 x 20, not 2 x 30
    (17, 42, 17, False),      # K <= 8: 17 steps in blocks of 6, 6 and 5, the last 8 in 4 + 4
    (1025, 40, 100, False),   # one interval, shorter than every
])
def test_fdtd_samples_match_chopped_calls(n_nodes, n_steps, every, one_block):
    import wentzell.evolve as evolve

    assert (evolve._block_plan(every, n_nodes) == [(every, 1)]) == one_block
    grid = Grid1D.for_strip(1.0, n_nodes - 1)
    s0 = make_fdtd_state(gaussian_data(grid, width=0.2, center=-0.5), P1)
    sampled = list(fdtd_samples(s0, n_steps, every))
    chopped = chopped_run(s0, n_steps, every)
    assert len(sampled) == len(chopped) == -(-n_steps // every)
    for a, b in zip(sampled, chopped):
        assert a.t == b.t  # the same accumulation of interval lengths
        assert a.bdy_trace.shape == b.bdy_trace.shape
        assert np.array_equal(a.bdy_trace[-1], a.bdy)
    trace = np.concatenate([a.bdy_trace for a in sampled])
    trace_ref = np.concatenate([b.bdy_trace for b in chopped])
    last, ref = sampled[-1], chopped[-1]
    assert rel_diff(trace, trace_ref) <= 1e-13
    assert rel_diff(last.phi, ref.phi) <= 1e-13
    assert rel_diff(last.phi_prev, ref.phi_prev) <= 1e-13


def test_fdtd_samples_keep_x_and_d_across_samples():
    # sampled every 32 steps, a 96-step run takes the blocks of one 96-step
    # call on a buffer of the same width, so with (x, d) kept across samples
    # it is that call bit for bit
    s0 = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 1024), width=0.2), P1)
    samples = list(fdtd_samples(s0, 96, 32))
    whole = fdtd_run(s0, 96)
    assert np.array_equal(samples[-1].phi, whole.phi)
    assert np.array_equal(samples[-1].phi_prev, whole.phi_prev)
    assert np.array_equal(np.concatenate([a.bdy_trace for a in samples]), whole.bdy_trace)


def test_fdtd_samples_last_interval_leaves_the_others_alone():
    # a 24-step last interval would take one block of 24 steps; capped at the
    # 20-step blocks of the 40-step intervals, it does not widen their buffer,
    # so the samples before it are those of the run without it, bit for bit
    s0 = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 1024), width=0.2), P1)
    with_last = list(fdtd_samples(s0, 144, 40))
    without = list(fdtd_samples(s0, 120, 40))
    assert [len(a.bdy_trace) for a in with_last] == [40, 40, 40, 24]
    for a, b in zip(with_last, without):
        assert np.array_equal(a.phi, b.phi) and np.array_equal(a.phi_prev, b.phi_prev)
        assert np.array_equal(a.bdy_trace, b.bdy_trace)
    ref = fdtd_run(without[-1], 24)
    assert rel_diff(with_last[-1].phi, ref.phi) <= 1e-13
    assert rel_diff(with_last[-1].bdy_trace, ref.bdy_trace) <= 1e-13


def test_fdtd_samples_step_each_interval_in_one_fdtd_run_call(monkeypatch):
    # a tracer that wraps fdtd_run sees every step of a sampled run
    import wentzell.evolve as evolve

    calls = []

    def counted(s, n_steps, **kwargs):
        calls.append(n_steps)
        return fdtd_run(s, n_steps, **kwargs)

    s0 = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 256)), P1)
    monkeypatch.setattr(evolve, "fdtd_run", counted)
    samples = list(fdtd_samples(s0, 103, 40))
    assert calls == [40, 40, 23] == [len(a.bdy_trace) for a in samples]


def test_fdtd_run_continues_a_stepper_only_from_its_last_state():
    import wentzell.evolve as evolve

    s0 = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 256)), P1)
    stepper = evolve._Stepper(s0, 40)
    first = fdtd_run(s0, 40, stepper=stepper)
    again = fdtd_run(s0, 40, stepper=stepper)  # from s0, not from where xd stands
    assert np.array_equal(again.phi, first.phi)
    assert np.array_equal(again.phi_prev, first.phi_prev)
    assert np.array_equal(fdtd_run(s0, 40).phi, first.phi)


def test_fdtd_samples_keep_no_alias_of_the_input():
    grid = Grid1D.for_strip(1.0, 64)
    s0 = make_fdtd_state(gaussian_data(grid), P1)
    phi, phi_prev = s0.phi.copy(), s0.phi_prev.copy()
    samples = list(fdtd_samples(s0, 12, 1)) + list(fdtd_samples(s0, 24, 12))
    for a in samples:
        assert not np.shares_memory(a.phi, s0.phi) and not np.shares_memory(a.phi_prev, s0.phi)
        assert not np.shares_memory(a.phi_prev, s0.phi_prev)
    assert np.array_equal(s0.phi, phi) and np.array_equal(s0.phi_prev, phi_prev)


def test_fdtd_samples_take_no_step_beyond_the_consumer(monkeypatch):
    import wentzell.evolve as evolve

    applied = []

    class CountingEdge(np.ndarray):
        def __matmul__(self, other):
            applied.append("block")
            return np.asarray(self) @ other

    def counted_operators(*args):
        return {K: op.view(CountingEdge) for K, op in block_operators(*args).items()}

    block_operators = evolve._block_operators
    monkeypatch.setattr(evolve, "_block_operators", counted_operators)
    s0 = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 1024)), P1)
    short = fdtd_samples(s0, 1000, 5)
    long = fdtd_samples(s0, 1000, 40)
    assert applied == []  # nothing runs before the first sample is asked for
    next(short)
    next(short)
    assert applied == ["block"] * 2  # one block of 5 per sample
    next(long)
    next(long)
    assert applied == ["block"] * 6  # two blocks of 20 per sample
    short.close()
    long.close()
    assert len(applied) == 6


def test_fdtd_run_builds_one_operator_set(monkeypatch):
    # 460 steps sampled every 205 on 1 025 nodes: blocks of 30 and 29, then a
    # last interval of 50 in two blocks of 25; a lone 70-step call takes
    # blocks of 24 and 23
    import wentzell.evolve as evolve

    built = []

    def counted(name, build):
        def wrapped(coeffs, Ks, *args):
            built.append((name, sorted(Ks)))
            return build(coeffs, Ks, *args)
        monkeypatch.setattr(evolve, name, wrapped)

    counted("_block_operators", evolve._block_operators)
    counted("_stride_operators", evolve._stride_operators)
    assert evolve._block_plan(205, 1025) == [(30, 2), (29, 5)]
    s0 = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 1024)), P1)
    samples = list(fdtd_samples(s0, 460, 205))
    assert [len(a.bdy_trace) for a in samples] == [205, 205, 50]
    assert sorted(built) == [("_block_operators", [25, 29, 30]),
                             ("_stride_operators", [25, 29, 30])]
    built.clear()
    fdtd_run(s0, 70)
    assert sorted(built) == [("_block_operators", [23, 24]),
                             ("_stride_operators", [23, 24])]


def test_fdtd_samples_arguments(monkeypatch):
    import wentzell.evolve as evolve

    s0 = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 64)), P1)
    with monkeypatch.context() as m:
        m.setattr(evolve, "_Stepper", None)  # an empty run builds no stepper
        assert list(fdtd_samples(s0, 0, 5)) == []
    for every in (0, -3):
        with pytest.raises(ValueError, match=f"every={every}"):
            fdtd_samples(s0, 10, every)  # raised at the call, not at the first sample
    with pytest.raises(ValueError, match="n_steps=-1"):
        fdtd_samples(s0, -1, 5)
    empty = fdtd_run(s0, 0)
    assert empty.t == s0.t and empty.bdy_trace.shape == (0, 2)
    assert np.array_equal(empty.phi, s0.phi) and empty.phi is not s0.phi


def reference_node_energy(state):
    """The FDTD energy node by node, the split of the ``evolve`` module
    docstring written out as one array: (w_j/2)(v_j^2 + mu^2 a_j b_j) with
    lumped weights w (h inside, h/2 at the ends), half of each adjacent
    cell's term, and the boundary term at the two end nodes."""
    p = state.p
    a, b, h = state.phi_prev, state.phi, state.grid.h
    v = (b - a) / state.dt
    dens = 0.5 * (v * v + p.mu**2 * a * b)
    half_cell = np.diff(b) * np.diff(a) / (4.0 * h)
    node = h * dens
    node[0] *= 0.5
    node[-1] *= 0.5
    node[:-1] += half_cell
    node[1:] += half_cell
    node[0] += p.c * dens[0]
    node[-1] += p.c * dens[-1]
    return node


def boundary_term(state, j):
    """c/2 (v_j^2 + mu^2 a_j b_j) of end node j."""
    a, b, p = state.phi_prev[j], state.phi[j], state.p
    return p.c * 0.5 * (((b - a) / state.dt) ** 2 + p.mu**2 * a * b)


def energy_test_state(n_nodes, mu, c):
    p = PhysicalParams(c=c, mu=mu, geometry=Strip(1.0))
    grid = Grid1D.for_strip(1.0, n_nodes - 1)
    z = grid.nodes
    pos = np.exp(-((z + 0.8) ** 2) / (2 * 0.3**2))
    data = CauchyData.from_samples(grid, pos, np.cos(3.0 * z))
    return fdtd_run(make_fdtd_state(data, p), 10)


@pytest.mark.parametrize("c", [0.01, 1.0, 30.0])
@pytest.mark.parametrize("mu", [0.0, 1.0, 0.7])
@pytest.mark.parametrize("n_nodes", [64, 1025, 8193])
def test_energy_totals_are_the_node_energy_sum(n_nodes, mu, c):
    s = energy_test_state(n_nodes, mu, c)
    rep = energy(s)
    node = reference_node_energy(s)
    assert rep.total == pytest.approx(float(node.sum()), rel=1e-14)
    a, b = s.phi_prev, s.phi
    dens = 0.5 * (((b - a) / s.dt) ** 2 + mu**2 * a * b)
    assert rep.boundary == float(c * dens[0] + c * dens[-1])
    assert rep.boundary > 0


@pytest.mark.parametrize("c", [0.01, 1.0, 30.0])
@pytest.mark.parametrize("mu", [0.0, 1.0, 0.7])
@pytest.mark.parametrize("n_nodes", [64, 1025, 8193])
def test_energy_spans_sum_to_the_total(n_nodes, mu, c):
    # consecutive spans cut at random nodes add up to the total, and each
    # span is the reference's slice sum, cut cells and end nodes included
    s = energy_test_state(n_nodes, mu, c)
    total = energy(s).total
    node = reference_node_energy(s)
    rng = np.random.default_rng(n_nodes)
    cuts = np.unique(rng.integers(1, n_nodes, size=12))
    edges = [0, *cuts.tolist(), n_nodes]
    spans = [_span_energy(s, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    assert sum(e for e, _ in spans) == pytest.approx(total, rel=1e-14)
    for (lo, hi), (e, bdy) in zip(zip(edges[:-1], edges[1:]), spans):
        assert abs(e - float(node[lo:hi].sum())) <= 1e-14 * total
        assert bdy == sum(boundary_term(s, j) for j in (0, n_nodes - 1) if lo <= j < hi)


def test_energy_span_edge_cases():
    # an empty span holds nothing, a span of one end node holds that node's
    # energy with its boundary term, and the whole grid is the total
    s = energy_test_state(64, 0.7, 1.0)
    node = reference_node_energy(s)
    for lo, hi in ((0, 0), (17, 17), (64, 64), (40, 20)):
        assert _span_energy(s, lo, hi) == (0.0, 0.0)
    for j in (0, 63):
        e, bdy = _span_energy(s, j, j + 1)
        assert bdy == boundary_term(s, j) and bdy > 0
        assert e == pytest.approx(node[j], rel=1e-14)
    rep = energy(s)
    assert _span_energy(s, 0, 64) == (rep.total, rep.boundary)


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
    node = reference_node_energy(s)
    assert rep.boundary > 0  # the pulse has reached the boundary at -S
    # the end nodes carry the boundary terms plus their h/2 share of the bulk
    ends = node[[0, -1]]
    assert np.all(ends >= 0) and ends.sum() >= rep.boundary
    assert ends.sum() == pytest.approx(rep.boundary, rel=1e-2)
    assert node.sum() == pytest.approx(rep.total, rel=1e-14)
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
    phi = explicit_solution(-0.5, z, eps=0.02, c=1.0)
    assert abs(explicit_solution(-0.5, 0.0, eps=0.02, c=1.0)) < 1e-60
    # only the infalling pulse: a single Gaussian at z = 0.5
    assert phi[np.argmax(np.abs(phi))] == pytest.approx(
        1.0 / (0.02 * np.sqrt(2 * np.pi)), rel=1e-6)


def test_explicit_solution_boundary_value():
    # eps -> 0 limit of the trace at t = 1, c = 1 is 2/e
    b1 = explicit_solution(1.0, 0.0, eps=1e-4, c=1.0)
    assert b1 == pytest.approx(2 * np.exp(-1.0), rel=1e-6)


@pytest.mark.parametrize("c", [0.3, 1.0, 7.0])
@pytest.mark.parametrize("eps", [0.02, 0.1])
def test_explicit_solution_trace_is_the_reemission_tail(c, eps):
    # at z = 0 the incoming and reflected Gaussians cancel exactly: the trace
    # is the mollified tail (2/c) (E * G_eps)(t) bit for bit
    import wentzell.evolve as evolve
    t = np.linspace(-1.0, 3.0, 1001)
    tail = (2.0 / c) * evolve._exp_tail(t, eps, c)
    assert np.array_equal(explicit_solution(t, 0.0, eps, c), tail)
    for k in (0, 300, 1000):
        assert explicit_solution(t[k], 0.0, eps, c) == tail[k]


def test_explicit_solution_solves_boundary_ode():
    # d2/dt2 phi| = c^-1 dperp phi at z = 0 (mu = 0), by finite differences
    eps, c = 0.05, 0.7
    dt = 1e-4
    t0 = 0.4
    b_m = explicit_solution(t0 - dt, 0.0, eps, c)
    b_0 = explicit_solution(t0, 0.0, eps, c)
    b_p = explicit_solution(t0 + dt, 0.0, eps, c)
    acc = (b_p - 2 * b_0 + b_m) / dt**2
    dz = 1e-5
    z = np.array([0.0, dz, 2 * dz])
    phi = explicit_solution(t0, z, eps, c)
    dperp = (-3 * phi[0] + 4 * phi[1] - phi[2]) / (2 * dz)
    assert acc == pytest.approx(dperp / c, rel=1e-4)


def test_explicit_solution_dt_consistency():
    eps, c = 0.03, 1.3
    z = np.linspace(0.0, 1.5, 301)
    dt = 1e-6
    up = explicit_solution(0.3 + dt, z, eps, c)
    dn = explicit_solution(0.3 - dt, z, eps, c)
    v = explicit_solution_dt(0.3, z, eps, c)
    assert np.max(np.abs((up - dn) / (2 * dt) - v)) < 1e-4 * np.max(np.abs(v))


@pytest.mark.parametrize("eps", [-0.02, 0.0, np.nan, np.inf])
def test_explicit_solution_rejects_eps(eps):
    # checked before any term is evaluated: no warning comes first
    z = np.linspace(0.0, 1.0, 5)
    for closed_form in (explicit_solution, explicit_solution_dt):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            closed_form(0.3, z, eps, 1.0)


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
    exact = explicit_solution(t, 0.0, eps, c)
    sup = np.max(np.abs(s.bdy_trace[:, 0] - exact))
    assert sup < 5e-2 * 2 / c


def test_explicit_solution_array_times():
    t = np.linspace(-0.5, 1.5, 9)
    phi = explicit_solution(t, 0.0, eps=0.02, c=0.8)
    assert phi.shape == t.shape
    for k, tk in enumerate(t):
        assert phi[k] == explicit_solution(tk, 0.0, eps=0.02, c=0.8)
