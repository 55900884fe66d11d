import math
import warnings

import mpmath
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
    run = fdtd_run(s0, 70, inner_trace=True)
    inner = [[1, -2], [2, -3]]  # nodes 1 and 2 from each end
    ref = np.array([s.phi[inner] for s in fdtd_samples(s0, 70, 1)])
    assert run.inner_trace.shape == (70, 2, 2)
    assert rel_diff(run.inner_trace, ref) <= 1e-13
    assert np.array_equal(run.inner_trace[-1], run.phi[inner])
    assert fdtd_run(s0, 0, inner_trace=True).inner_trace.shape == (0, 2, 2)
    # a run that does not ask for it keeps none, and steps the same bits
    plain = fdtd_run(s0, 70)
    assert plain.inner_trace.shape == (0, 2, 2)
    assert np.array_equal(plain.phi, run.phi) and np.array_equal(plain.bdy_trace, run.bdy_trace)
    with pytest.raises(ValueError, match="inner_trace=True"):
        energy_steps(s0, plain)


@pytest.mark.parametrize("mu", [0.0, 1.0])
@pytest.mark.parametrize("c", [0.05, 1.0, 30.0])
def test_energy_steps_carry_the_energy_through_the_closure(c, mu):
    # at h = 1/64 and CFL 0.5 the scheme's coefficients are exact, so the
    # interior conserves energy() to rounding and the closure's balance
    # carries it over 1 000 steps to the energy of the level it reaches
    p = PhysicalParams(c=c, mu=mu, geometry=Strip(1.0))
    s = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 128), width=0.2), p)
    E0 = energy(s).total
    for run in fdtd_samples(s, 3000, 1000, inner_trace=True):
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
    # the stacked (96 x 32) operand of 32-node blocks, a block of zeros on each
    # side of the nodes, each output block the window of the three input
    # blocks around it times the operand: x_(n-K) is the initial level and x_n
    # and x_(n+K) come from K and 2K long-double steps of the scheme
    import wentzell.evolve as evolve

    p = PhysicalParams(c=1.0, mu=mu, geometry=Strip(1.0))
    grid = Grid1D.for_strip(1.0, 256)
    n, width = grid.n_nodes, 32
    s = make_fdtd_state(gaussian_data(grid, width=0.1, center=-0.8), p)
    x_n = long_double_leapfrog(s, K)[0].astype(float)
    ref = long_double_leapfrog(s, 2 * K)[0]
    op = evolve._stride_operators(evolve._leapfrog_stencil(grid.h, s.dt, p), [K], width)[K]
    # the operand holds the taps of lags within K, and only those: at K = 32
    # its middle third is full and the thirds above and below are triangles
    lag = np.arange(3 * width)[:, None] - np.arange(width) - width  # input - output slot
    assert op.shape == (3 * width, width)
    assert np.array_equal(op != 0, np.abs(lag) <= K)
    padded = np.zeros((-(-n // width) + 2) * width)
    padded[width:width + n] = x_n
    windows = np.lib.stride_tricks.sliding_window_view(padded, 3 * width)[::width]
    stride = (windows @ op).ravel()[:n] - s.phi
    assert rel_diff(stride[K:n - K], ref[K:n - K]) <= 1e-14


def criterion_7_reflection():
    """Criterion 7's data and parameters: the mollified reflection data
    (eps = 0.02, c = 1, t0 = -0.5) on 5 121 nodes, h = 1/2048, mu = 0; its
    run takes 10 240 steps at CFL 0.5."""
    grid = Grid1D(-1.25, 1.25, 5120)
    p = PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.25))
    return reflection_cauchy_data(grid, -0.5, 0.02, 1.0), p


def run_floor(s):
    """The floor of a run from the levels of s: 2^-600 of the largest |x| or
    |d|, x = phi and d = phi - phi_prev."""
    return math.ldexp(max(np.abs(s.phi).max(), np.abs(s.phi - s.phi_prev).max()), -600)


# node count -> (data, sample interval, steps): a pulse on nodes 0 .. 4 at node
# counts around multiples of the block width and around the cap (n - 1) // 2
# on it, stepped past both ends in intervals of one block of the cap, then a
# last one of another length; and criterion 7's reflection run sampled every
# 1 024 steps, whose front crosses the grid to the +S end
CONE_RUNS = {n: ("pulse", min(32, (n - 1) // 2), 2 * n + 7)
             for n in (5, 9, 33, 64, 65, 66, 97, 1025)}
CONE_RUNS[5121] = ("reflection", 1024, 10240)


@pytest.mark.parametrize("n_nodes", CONE_RUNS)
def test_blocked_run_keeps_the_cone_and_the_padding_exactly_zero(n_nodes):
    # After every interval both levels are exactly 0.0 beyond the discrete
    # cone, t/dt nodes past the nodes where phi or phi_prev starts nonzero
    # (the pulse and 1 for the Taylor back-step, which the edge operator of
    # the far end reads before the cone reaches it); so is the padding of
    # both buffers, and no stored x or d of either level lies in (0, floor).
    # The run ends within 2e-13 of the long-double scheme: at 97 nodes it
    # reads 1.2e-13, as the two-GEMM stride that came before read to three
    # digits, the edge operator's rounding on a coarse grid (the other
    # counts read at most 3.6e-14)
    import wentzell.evolve as evolve

    kind, every, n_steps = CONE_RUNS[n_nodes]
    if kind == "pulse":
        grid = Grid1D.for_strip(1.0, n_nodes - 1)
        pos = np.zeros(n_nodes)
        pos[:5] = (0.25, 0.75, 1.0, 0.75, 0.25)
        s0 = make_fdtd_state(CauchyData.from_samples(grid, pos, np.zeros(n_nodes)), P1)
    else:
        s0 = make_fdtd_state(*criterion_7_reflection())
    live = np.flatnonzero((s0.phi != 0) | (s0.phi_prev != 0))
    floor, nodes = run_floor(s0), np.arange(n_nodes)
    stepper = evolve._Stepper(s0, every, n_steps % every)
    assert stepper.k_max == min(every, 32) and (n_steps % every > 0) == (kind == "pulse")
    pad = stepper.width
    s, outside = s0, 0
    for k0 in range(0, n_steps, every):
        s = fdtd_run(s, min(every, n_steps - k0), stepper=stepper)
        steps = round((s.t - s0.t) / s.dt)
        dark = (nodes < live[0] - steps) | (nodes > live[-1] + steps)
        outside += np.count_nonzero(dark)
        assert not np.any(s.phi[dark]) and not np.any(s.phi_prev[dark])
        assert np.array_equal(s.bdy_trace[-1], s.bdy)
        for xd, *_ in stepper.bufs:
            assert not np.any(xd[:, :pad]) and not np.any(xd[:, pad + n_nodes:])
            assert not np.any((xd != 0) & (np.abs(xd) < floor))
    assert (outside > 0) == (n_nodes > 9)
    ref, ref_prev = long_double_leapfrog(s0, n_steps)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(s.phi - ref)) <= 2e-13 * scale
    assert np.max(np.abs(s.phi_prev - ref_prev)) <= 2e-13 * scale


def criterion_6_bump():
    """Criterion 6's data: a smooth bump of radius 0.15 at z = -0.6 at rest on
    1 025 nodes, compactly supported, with c = 1 and mu = 0."""
    grid = Grid1D.for_strip(1.0, 1024)
    u = (grid.nodes + 0.6) / 0.15
    pos = np.where(np.abs(u) < 1, np.exp(1.0 - 1.0 / np.maximum(1.0 - u**2, 1e-300)), 0.0)
    return CauchyData.from_samples(grid, pos, np.zeros_like(pos)), P0


@pytest.mark.parametrize("power", [200, -200])
@pytest.mark.parametrize("case", ["reflection", "bump"])
def test_fdtd_run_is_scale_equivariant(case, power):
    # data scaled by 2^200 or 2^-200 step to 2^+-200 times the unscaled run,
    # bit for bit, in phi, phi_prev and the boundary trace: the floor is
    # relative to the run's scale, and the values it keeps times a tap stay
    # normal at all three scales.  Each run takes a front to a grid end:
    # criterion 7's run, and criterion 6's bump over its 1 024-step probe
    (data, p), n_steps = {"reflection": (criterion_7_reflection(), 10240),
                          "bump": (criterion_6_bump(), 1024)}[case]

    def run(e):
        scaled = CauchyData.from_samples(data.position.grid, np.ldexp(data.position.bulk, e),
                                         np.ldexp(data.velocity.bulk, e))
        return fdtd_run(make_fdtd_state(scaled, p), n_steps)

    plain, scaled = run(0), run(power)
    assert np.any(plain.bdy_trace[:, 1]) and not plain.bdy_trace[0, 1]  # the front reaches +S
    for name in ("phi", "phi_prev", "bdy_trace"):
        assert np.array_equal(getattr(scaled, name), np.ldexp(getattr(plain, name), power)), name


def test_floor_keeps_no_span_for_data_without_a_zero_region(monkeypatch):
    # data at or above the floor at both end nodes leave no span: the run
    # checks that once, at load, and no block scans
    import wentzell.evolve as evolve

    def scan(self, K):
        raise AssertionError("scanned")

    monkeypatch.setattr(evolve._Stepper, "_scan", scan)
    s0 = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 1024)), P1)
    stepper = evolve._Stepper(s0, 1024)
    fdtd_run(s0, 1024, stepper=stepper)
    assert stepper.edges is None and stepper.floor == run_floor(s0)


@pytest.mark.parametrize("n_nodes, residue", [(5, 0), (97, 1), (1025, 2)])
def test_stride_windows_are_views_that_cover_every_output_block_once(n_nodes, residue):
    # each level buffer keeps three window views of itself, one per residue
    # class mod 3 of the output blocks, whose rows are the 3 width input slots
    # that one output block reads.  The output-block count 2 ceil(n / width) + 2
    # takes every value mod 3 over these node counts, which the cone and
    # padding run above steps too: 5 nodes (width 4) gives 0 mod 3, 97
    # (width 32) gives 1 and 1 025 (width 32) gives 2
    import wentzell.evolve as evolve

    grid = Grid1D.for_strip(1.0, n_nodes - 1)
    s0 = make_fdtd_state(gaussian_data(grid), P1)
    stepper = evolve._Stepper(s0, min(32, (n_nodes - 1) // 2))
    width, prod = stepper.width, stepper.prod
    nb = len(prod)
    assert nb == 2 * -(-n_nodes // width) + 2 and nb % 3 == residue
    for xd, flat, wins, *_ in stepper.bufs:
        flat[:] = np.arange(flat.size)
        rows = []
        for win, part in zip(wins, stepper.prods):
            assert np.shares_memory(win, xd) and win.shape == (len(part), 3 * width)
            assert not np.shares_memory(part, xd) and np.shares_memory(part, prod)
            first = (part.ctypes.data - prod.ctypes.data) // prod.strides[0]
            out_rows = first + np.arange(len(part)) * (part.strides[0] // prod.strides[0])
            # output block b + 1 of the flat buffer, row b of prod, reads the
            # input blocks b .. b + 2
            assert np.array_equal(win, flat[out_rows[:, None] * width + np.arange(3 * width)])
            rows.append(out_rows)
        assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(nb))


def test_fdtd_run_holds_its_buffers_and_no_more():
    # tracemalloc's peak over one 16 384-step run on 8 193 nodes: the two
    # level buffers, the product buffer, the operators, the boundary trace,
    # and 352 KiB of headroom.  The peak reads 325 KiB above the rest: the
    # edge operators' build sets it, holding 316 KiB beyond what it keeps
    # (the 130 x 130 one-step map, its square and the long-double row sums).
    # A third product buffer (129 KiB) or the trace of nodes 1 and 2
    # (512 KiB) would break the bound
    import tracemalloc

    import wentzell.evolve as evolve

    s0 = make_fdtd_state(gaussian_data(Grid1D.for_strip(1.0, 8192)), P1)
    stepper = evolve._Stepper(s0, 16384)
    held = (sum(xd.nbytes for xd, *_ in stepper.bufs) + stepper.prod.nbytes
            + sum(a.nbytes for a in stepper._operators(stepper.k_max)) + 16384 * 2 * 8)
    tracemalloc.start()
    try:
        run = fdtd_run(s0, 16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.inner_trace.size == 0
    assert peak <= held + 352 * 1024, (peak, held)


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



@pytest.mark.parametrize("S", [1e-12, 1.0, 1e6])
def test_energy_in_region_counts_the_nodes_at_its_ends_and_between(S):
    # the region between two nodes holds those nodes and the ones between,
    # on a strip of any width, whether its ends are the nodes themselves or
    # z_min + k h; an absolute tolerance of 1e-12 took nodes 0 .. 522 into
    # [z_5, z_10] at S = 1e-12
    grid = Grid1D.for_strip(S, 1024)
    z = grid.nodes
    pos = np.exp(-((z / S + 0.5) ** 2) / 0.02)
    s = make_fdtd_state(CauchyData.from_samples(grid, pos, np.zeros_like(z)),
                        PhysicalParams(c=1.0, mu=0.0, geometry=Strip(S)))
    for lo, hi in ((5, 10), (0, 3), (300, 300), (1019, 1024)):
        want = _span_energy(s, lo, hi + 1)[0]
        assert want > 0
        assert energy_in_region(s, z[lo], z[hi]) == want
        assert energy_in_region(s, grid.z_min + lo * grid.h, grid.z_min + hi * grid.h) == want


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

@pytest.mark.parametrize("field", ["position", "velocity"])
@pytest.mark.parametrize("end", [0, 1])
def test_causality_cone_starts_from_the_boundary_values(field, end):
    # data that is zero but for one boundary value, which the run starts from
    # on an end node: the cone grows from that end and nothing reaches beyond
    # it, where a cone from the bulk samples alone put the +S end outside
    grid = Grid1D.for_strip(1.0, 256)
    zero = np.zeros(grid.n_nodes)
    bdy = np.zeros(2)
    bdy[end] = 1.0
    parts = {"position": np.zeros(2), "velocity": np.zeros(2), field: bdy}
    data = CauchyData(*(BulkBoundaryFunction(grid=grid, bulk=zero, boundary=parts[k])
                        for k in ("position", "velocity")))
    rep = causality_probe(data, P0, t=0.05)
    assert rep.max_outside == 0.0 and rep.energy_outside_fraction == 0.0


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


def test_mills_ratio_against_50_digits():
    # f = 1/R(y) = y + t and t = _mills_rest(y), relative to 50 digits: f within
    # 4 eps max(1, y^2/2) below the band edge, where math.erfc and exp see
    # their arguments' rounding magnified by about y^2, and f and t within
    # 4 eps from it on, where the J-fraction forms t without subtracting
    import wentzell.evolve as evolve
    edges = [evolve._ERFC_BAND, evolve._MILLS_NEAR, evolve._MILLS_FAR]
    y = np.concatenate([np.linspace(0.0, 1e3, 2001), np.linspace(0.0, 40.0, 4001), edges,
                        np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    with mpmath.workdps(50):
        inv = [mpmath.npdf(v) / mpmath.ncdf(-v) for v in map(mpmath.mpf, y.tolist())]
        f_exact = np.array([float(f) for f in inv])
        t_exact = np.array([float(f - mpmath.mpf(v)) for f, v in zip(inv, y.tolist())])
    t = evolve._mills_rest(y)
    eps = np.finfo(float).eps
    err_f = np.abs(y + t - f_exact) / f_exact
    band = y < evolve._ERFC_BAND
    assert np.all(err_f[band] <= 4 * eps * np.maximum(1.0, y[band] ** 2 / 2))
    assert np.max(err_f[~band]) <= 4 * eps
    assert np.max(np.abs(t - t_exact)[~band] / t_exact[~band]) <= 4 * eps
    # elementwise: a scalar gives the bits it gives inside an array
    for k in range(0, y.size, 331):
        assert evolve._mills_rest(y[k]) == t[k]
    assert evolve._mills_rest(np.inf) == 0.0 and np.isnan(evolve._mills_rest(np.nan))


def _mp_tail_and_slope(u: float, eps: float, c: float) -> tuple[float, float]:
    # T = exp(a^2/2 - a v) Phi(v - a) and dT/du = G - T/c: 90 digits keep 50
    # through the a^2 of the exponent and the cancellation in dT/du
    with mpmath.workdps(90):
        e, cc = mpmath.mpf(eps), mpmath.mpf(c)
        a, v = e / cc, mpmath.mpf(u) / e
        T = mpmath.exp(a**2 / 2 - a * v) * mpmath.ncdf(v - a)
        return float(T), float(mpmath.npdf(v) / e - T / cc)


def test_exp_tail_is_as_accurate_as_scipys_log_ndtr():
    # T and dT/du within 1e-12 of 50 digits wherever they exceed 1e-300, at
    # every c down to 1e-12.  The log-space sum exp(eps^2 / (2 c^2) - u/c +
    # log Phi(u/eps - eps/c)) loses about a^2 eps to the cancellation of its
    # a^2 terms (7.5e-12 at c = 1e-4, inf at 1e-12); where it holds, at c in
    # {0.3, 1, 7} with scipy's log_ndtr, T is no worse than it
    from scipy.special import log_ndtr

    import wentzell.evolve as evolve
    t = np.linspace(-1.0, 3.0, 1001)
    worst = {False: 0.0, True: 0.0}  # T, dT/du
    worst_held = worst_scipy = 0.0
    for c in (7.0, 1.0, 0.3, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        for eps in (0.02, 0.1):
            exact = np.array([_mp_tail_and_slope(u, eps, c) for u in t]).T
            for slope, ex in zip((False, True), exact):
                got = evolve._exp_tail(t, eps, c, slope=slope)
                ok = np.abs(ex) > 1e-300
                worst[slope] = max(worst[slope],
                                   np.max(np.abs(got[ok] - ex[ok]) / np.abs(ex[ok])))
            if c >= 0.3:
                T, ok = exact[0], exact[0] > np.finfo(float).tiny
                scipy_path = np.exp(eps**2 / (2 * c**2) - t / c + log_ndtr(t / eps - eps / c))
                worst_held = max(worst_held, np.max(
                    np.abs(evolve._exp_tail(t, eps, c)[ok] - T[ok]) / T[ok]))
                worst_scipy = max(worst_scipy, np.max(np.abs(scipy_path[ok] - T[ok]) / T[ok]))
    assert worst[False] <= 1e-12 and worst[True] <= 1e-12, worst
    assert worst_held <= worst_scipy


def _exp_tail_at_every_element(u, eps, c, slope=False):
    """``_exp_tail``'s products with the Mills ratio taken at every element."""
    import wentzell.evolve as evolve
    a = eps / c
    with np.errstate(over="ignore"):
        v = np.asarray(u, dtype=float) / eps
        x = v - a
        y = np.abs(x)
        t = evolve._mills_rest(y)
        phi_v = evolve._phi(v)
        T = phi_v / (y + t)
        T = np.where(x < 0, T, np.exp(a * (0.5 * a - v)) - T)
        if slope:
            return np.where(x < 0, phi_v * (t - v) / (eps * (y + t)), phi_v / eps - T / c)
    return T


def test_exp_tail_skips_the_mills_ratio_only_where_it_changes_no_bit():
    # the Mills ratio is taken only where phi(u/eps) > 0; T and dT/du keep
    # every bit, signed zeros included, on criterion 7's times, its Cauchy
    # data's nodes, the (eps, c) grid above, and at x = 0 with phi(v) = 0
    import wentzell.evolve as evolve
    grid = Grid1D(-1.25, 1.25, 5120)
    data = reflection_cauchy_data(grid, -0.5, 0.02, 1.0)
    dt = make_fdtd_state(data, PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.25)),
                         cfl=0.5).dt
    crit7 = -0.5 + np.arange(1, int(round(2.5 / dt)) + 1) * dt
    cases = [(crit7, 0.02, 1.0), (-0.5 - (grid.nodes - grid.z_min), 0.02, 1.0),
             (np.array([40.0, -40.0, 39.0]), 1.0, 0.025)]
    cases += [(np.linspace(-1.0, 3.0, 1001), eps, c) for eps in (0.02, 0.1)
              for c in (7.0, 1.0, 0.3, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12)]
    for u, eps, c in cases:
        for slope in (False, True):
            got = evolve._exp_tail(u, eps, c, slope=slope)
            want = _exp_tail_at_every_element(u, eps, c, slope=slope)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (eps, c, slope)
    assert np.mean(evolve._phi(crit7 / 0.02) == 0.0) > 0.45  # 49% of its times


def test_reflection_data_refuses_tiny_c():
    # at c = 1e-160, where eps^2 / (2 c^2) overflows, the data are finite and
    # the trace is the Neumann limit, (2/c) T -> 2 G; the closed form refuses
    # c, naming it, only where eps/c or 2/c leaves the double range
    grid = Grid1D(-1.0, 1.0, 64)
    t = np.linspace(-0.1, 0.1, 201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = reflection_cauchy_data(grid, -0.5, 0.02, 1e-160)
        assert np.all(np.isfinite(data.position.bulk)) and np.all(np.isfinite(data.velocity.bulk))
        neumann = 2.0 * np.exp(-0.5 * (t / 0.02) ** 2) / (0.02 * np.sqrt(2 * np.pi))
        assert np.allclose(explicit_solution(t, 0.0, 0.02, 1e-160), neumann,
                           rtol=1e-14, atol=0.0)
        for c in (1e-310, 0.0, -1.0):
            with pytest.raises(ValueError, match=f"got c = {c:g} "):
                reflection_cauchy_data(grid, -0.5, 0.02, c)


def test_reflection_closed_form_sweep_is_finite():
    # seeded over c in [1e-300, 1e300] and eps in [1e-6, 10], log-uniform,
    # under warnings as errors: the Cauchy data and the trace are finite, or
    # the call raises a ValueError naming c (a log-space sum gives inf from
    # c = 1e-12 on)
    rng = np.random.default_rng(37)
    grid = Grid1D(-1.0, 1.0, 64)
    t = np.linspace(-0.5, 2.0, 101)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c, eps in 10.0 ** rng.uniform([-300, -6], [300, 1], (200, 2)):
            try:
                data = reflection_cauchy_data(grid, -0.5, eps, c)
                trace = explicit_solution(t, 0.0, eps, c)
            except ValueError as exc:
                assert f"c = {c:g}" in str(exc), (c, eps)
                continue
            for vals in (data.position.bulk, data.velocity.bulk, trace):
                assert np.all(np.isfinite(vals)), (c, eps)


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
