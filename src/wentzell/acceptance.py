"""Acceptance suite: one function per criterion, each returning a structured
pass/fail result.  ``run_all`` drives the CLI ``verify`` command and the
pytest acceptance module."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (BulkBoundaryFunction, CauchyData, Grid1D, PhysicalParams,
                   Strip, spectral_sobolev_norm, weighted_norm)
from .evolve import (SpectralState, causality_probe, energy, energy_in_region,
                     explicit_solution, fdtd_run, fdtd_samples, make_fdtd_state,
                     reflection_cauchy_data, spectral_evolve, spectral_symplectic,
                     synthesize_state)
from .holo import (fig2_reproduce, fig2_test_function, holographic_dual,
                   pairing_boundary_route, pairing_bulk_route, verify_dual)
from .modes import bracket, build_table, gram_matrix, synthesize, verify_table
from .qft import (_HALFSPACE_NORM_TOL, TwoPointSpec, causality_check,
                  halfspace_weight_normalization, source_relation_check, tail_convergence)

S_C_GRID = (0.5, 1.0, 2.0)
# image metadata on the smearing grid, copied to the details of criteria 10 and 11
_SMEAR_KEYS = ("smear_intervals", "smear_times", "smear_estimate")


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    runtime: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  ({self.runtime:.2f} s)"


def criterion_1_eigenvalue_brackets() -> CriterionResult:
    """q_m strictly inside its window and the table's normalized eigenvalue
    residual (``ModeTable.residuals``) < 1e-12, for (S, c) in {0.5, 1, 2}^2
    and m <= 200."""
    worst_res = 0.0
    all_inside = True
    ms = np.arange(1, 201)
    for S in S_C_GRID:
        for c in S_C_GRID:
            p = PhysicalParams(c=c, geometry=Strip(S))
            table = build_table(200, p)
            q = table.qs[1:]
            lo, hi = bracket(ms, p)
            all_inside &= bool(np.all((lo < q) & (q < hi)))
            worst_res = max(worst_res, float(np.max(table.residuals)))
    passed = all_inside and worst_res < 1e-12
    return CriterionResult("1-eigenvalue-brackets", passed,
                           {"worst_residual": worst_res, "all_inside": all_inside})


def criterion_2_asymptotic_bounds() -> CriterionResult:
    """Window bound on q_m with delta = 0.1 for 50 <= m <= 200, the d_m decay
    law within [0.9, 1.1], and |c_m - 1| m^2 bounded (S = 1, c in {0.5,1,2}),
    all as ``verify_table`` reports them."""
    ok = True
    details = {}
    for c in S_C_GRID:
        rep = verify_table(build_table(200, PhysicalParams(c=c, geometry=Strip(1.0))))
        ok &= rep.all_pass
        details[f"c={c}"] = {"q_ok": bool(np.all(rep.q_in_bound)),
                             "d_ok": bool(np.all(rep.d_in_bound)),
                             "c_bounded": rep.c_bounded,
                             "d_ratio_range": (float(rep.d_ratio.min()),
                                               float(rep.d_ratio.max()))}
    return CriterionResult("2-asymptotic-bounds", ok, details)


def criterion_3_orthonormality() -> CriterionResult:
    """Gram matrix of modes m, m' <= 20 on a 4096-interval grid is the
    identity within 1e-9."""
    p = PhysicalParams(c=1.0, geometry=Strip(1.0))
    table = build_table(20, p)
    grid = Grid1D.for_strip(1.0, 4096)
    G = gram_matrix(table, grid)
    diag_err = float(np.max(np.abs(np.diag(G) - 1.0)))
    off = G - np.diag(np.diag(G))
    off_err = float(np.max(np.abs(off)))
    passed = diag_err < 1e-9 and off_err < 1e-9
    return CriterionResult("3-orthonormality", passed,
                           {"diag_err": diag_err, "off_diag_err": off_err})


def fdtd_vs_spectral_error(n: int, table, a, b, T: float) -> float:
    """Weighted-L2 distance at time T between FDTD (n intervals, CFL 0.5) and
    the exact spectral propagator, from band-limited mode coefficients (a, b)
    on the strip of ``table`` with its c and mu."""
    p = table.params
    grid = Grid1D.for_strip(p.geometry.S, n)
    s0 = SpectralState(a=a, b=b, table=table)
    st = make_fdtd_state(synthesize_state(s0, grid), p, cfl=0.5)
    steps = int(round(T / st.dt))
    st = fdtd_run(st, steps)
    ref = synthesize(spectral_evolve(s0, steps * st.dt).a, table, grid)
    diff = BulkBoundaryFunction(grid=grid, bulk=st.phi - ref.bulk, boundary=st.bdy - ref.boundary)
    return weighted_norm(diff, p)


def criterion_4_fdtd_oracle() -> CriterionResult:
    """FDTD vs spectral propagator for band-limited data: L2 difference at
    t = 2S below 1e-3 at h = 1/512, shrinking by [3.2, 4.8] when h halves.
    The details also hold the order-of-accuracy table: the error at each of
    n = 128, 256, ..., 2048 intervals (h = 1/64 ... 1/1024) and the observed
    orders log2(e_n / e_2n), which are 2 for the second-order scheme."""
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))
    table = build_table(10, p)
    m = np.arange(11.0)
    a = 0.5 / (1.0 + m) ** 2
    b = 0.3 / (1.0 + m) ** 2
    levels = [128, 256, 512, 1024, 2048]
    errors = [fdtd_vs_spectral_error(n, table, a, b, T=2.0) for n in levels]
    e1, e2 = errors[-2:]  # h = 1/512 and 1/1024
    ratio = e1 / e2
    passed = e1 < 1e-3 and 3.2 <= ratio <= 4.8
    orders = np.log2(np.divide(errors[:-1], errors[1:])).tolist()
    return CriterionResult("4-fdtd-oracle-equivalence", passed,
                           {"err_h512": e1, "err_h1024": e2, "ratio": ratio,
                            "levels": levels, "errors": errors, "orders": orders})


def criterion_5_conservation() -> CriterionResult:
    """Spectral energy, symplectic form, and the order-(1,0) energy identity
    drift below 1e-10 over t in [0, 10]; FDTD energy drift below 1e-3."""
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))
    table = build_table(20, p)
    m = np.arange(21.0)
    A = SpectralState(a=0.7 / (1 + m) ** 2, b=0.2 / (1 + m), table=table)
    B = SpectralState(a=0.1 / (1 + m), b=0.4 / (1 + m) ** 2, table=table)
    E0 = energy(A).total
    sig0 = spectral_symplectic(A, B)
    glob0 = (spectral_sobolev_norm(A.a, table, 1.0) ** 2
             + spectral_sobolev_norm(A.b, table, 0.0) ** 2)
    drift_e = drift_s = drift_g = 0.0
    for t in np.linspace(0.0, 10.0, 101)[1:]:
        At, Bt = spectral_evolve(A, t), spectral_evolve(B, t)
        drift_e = max(drift_e, abs(energy(At).total - E0) / E0)
        drift_s = max(drift_s, abs(spectral_symplectic(At, Bt) - sig0) / abs(sig0))
        glob = (spectral_sobolev_norm(At.a, table, 1.0) ** 2
                + spectral_sobolev_norm(At.b, table, 0.0) ** 2)
        drift_g = max(drift_g, abs(glob - glob0) / glob0)

    p0 = PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.0))
    gridf = Grid1D.for_strip(1.0, 1024)
    z = gridf.nodes
    data = CauchyData.from_samples(gridf, np.exp(-(z ** 2) / (2 * 0.1 ** 2)),
                                   np.zeros_like(z))
    st = make_fdtd_state(data, p0, cfl=0.5)
    Ef0 = energy(st).total
    drift_f = 0.0
    every = int(round(0.2 / st.dt))
    for st in fdtd_samples(st, 50 * every, every):
        drift_f = max(drift_f, abs(energy(st).total - Ef0) / Ef0)
    passed = (drift_e < 1e-10 and drift_s < 1e-10 and drift_g < 1e-10
              and drift_f < 1e-3)
    return CriterionResult("5-conservation", passed,
                           {"spectral_energy_drift": drift_e,
                            "symplectic_drift": drift_s,
                            "global_identity_drift": drift_g,
                            "fdtd_energy_drift": drift_f})


def criterion_6_causality() -> CriterionResult:
    """No leakage outside the discrete light cone before boundary contact
    (the probe passes: amplitude below ``causality_probe``'s 1e-8),
    cone-complement energy fraction < 1e-3 after contact,
    and the local energy estimate on the shrinking domain of dependence."""
    p = PhysicalParams(c=1.0, mu=0.0, geometry=Strip(1.0))
    grid = Grid1D.for_strip(1.0, 1024)
    z = grid.nodes
    z0, r = -0.6, 0.15
    pos = np.where(np.abs(z - z0) < r,
                   np.exp(1.0 - 1.0 / np.maximum(1.0 - ((z - z0) / r) ** 2, 1e-300)),
                   0.0)
    data = CauchyData.from_samples(grid, pos, np.zeros_like(z))
    # boundary contact at t = z0 - r - (-S) = 0.25; cone misses boundary at t=0.2
    rep_pre = causality_probe(data, p, t=0.2)
    # after interaction with the left boundary the right complement stays clean
    rep_post = causality_probe(data, p, t=1.0)
    # local estimate: energy inside D+(S0) never exceeds the initial energy on S0
    st = make_fdtd_state(data, p, cfl=0.5)
    s_lo, s_hi = z0 - r - 2 * grid.h, z0 + r + 2 * grid.h
    E0 = energy_in_region(st, s_lo, s_hi)
    local_ok = True
    worst = 0.0
    every = int(round(0.02 / st.dt))
    for st in fdtd_samples(st, 10 * every, every):
        lo, hi = s_lo + st.t, s_hi - st.t
        if hi - lo < 4 * grid.h:
            break
        frac = energy_in_region(st, lo, hi) / E0
        worst = max(worst, frac)
        local_ok &= frac <= 1.0 + 1e-3
    passed = (rep_pre.passed and rep_post.energy_outside_fraction < 1e-3
              and local_ok)
    return CriterionResult("6-causality", passed,
                           {"pre_contact_max_outside": rep_pre.max_outside,
                            "post_contact_energy_fraction": rep_post.energy_outside_fraction,
                            "local_estimate_worst": worst})


def criterion_7_exact_reflection() -> CriterionResult:
    """FDTD boundary trace against the mollified closed-form reflection
    solution (eps = 0.02, c = 1, h = 1/2048): sup error < 0.1, value at
    t = 1 within 5e-2 of 2/e."""
    eps, c = 0.02, 1.0
    L, h = 2.5, 1 / 2048
    grid = Grid1D(-L / 2, L / 2, int(round(L / h)))
    p = PhysicalParams(c=c, mu=0.0, geometry=Strip(L / 2))
    t0 = -0.5
    st = make_fdtd_state(reflection_cauchy_data(grid, t0=t0, eps=eps, c=c), p, cfl=0.5)
    n_steps = int(round((2.0 - t0) / st.dt))
    st = fdtd_run(st, n_steps)
    t = t0 + np.arange(1, n_steps + 1) * st.dt
    exact = explicit_solution(t, 0.0, eps, c)
    trace = st.bdy_trace[:, 0]
    sup = float(np.max(np.abs(trace - exact)))
    spot = float(trace[np.argmax(t >= 1.0)])
    spot_err = abs(spot - 2 * np.exp(-1.0))
    passed = sup < 5e-2 * 2 / c and spot_err < 5e-2
    return CriterionResult("7-exact-reflection", passed,
                           {"sup_error": sup, "spot_t1": spot, "spot_err": spot_err})


def criterion_8_twopoint_diagnostics() -> CriterionResult:
    """Half-space weight normalization within 1e-13 of 1 (c = 1); strip tail of
    sum d_m^2 within [0.8, 1.2] of the asymptotic law at M = 100; the partial
    sums are Cauchy within the reported tail bound from M = 100 to 200."""
    norm = halfspace_weight_normalization(1.0)
    norm_ok = abs(norm - 1.0) < _HALFSPACE_NORM_TOL
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))
    table = build_table(4000, p)
    rep = tail_convergence(table, 100)
    cauchy_gap = float(np.sum(table.d_bdys[101:201] ** 2))
    cauchy_ok = 0.0 < cauchy_gap <= rep.tail_bound
    passed = norm_ok and rep.passed and cauchy_ok
    return CriterionResult("8-twopoint-diagnostics", passed,
                           {"weight_norm": norm, "tail_ratio": rep.ratio,
                            "cauchy_gap": cauchy_gap, "tail_bound": rep.tail_bound})


def criterion_9_commutator_causality() -> CriterionResult:
    """Boundary commutator (d = 2, M = 50) vanishes below 1e-10 at 100
    seeded random spacelike points."""
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0), d=2)
    spec = TwoPointSpec(params=p, M=50, d=2)
    table = build_table(50, p)
    rng = np.random.default_rng(20240817)
    x0 = rng.uniform(-5.0, 5.0, 100)
    x = (np.abs(x0) + rng.uniform(0.1, 5.0, 100)) * rng.choice([-1, 1], 100)
    points = list(zip(x0, x))
    ok = causality_check(points, spec, table, tol=1e-10)
    return CriterionResult("9-commutator-causality", ok, {"n_points": len(points)})


def criterion_10_holographic_identity() -> CriterionResult:
    """Coefficient-level holography for a Gaussian bulk observable
    (mu = 1, S = 1, c = 1): interpolation residual < 1e-13 at the automatic
    99.9% cutoff, and the smeared two-point pairing of two observables agrees
    along the bulk and boundary routes within 1e-13."""
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))
    table = build_table(40, p)

    def f(t, z):
        return np.exp(-t ** 2 / (2 * 0.25 ** 2)) * np.exp(-z ** 2 / (2 * 0.12 ** 2))

    def g(t, z):
        return np.exp(-(t - 0.3) ** 2 / (2 * 0.3 ** 2)) \
            * np.exp(-(z + 0.1) ** 2 / (2 * 0.15 ** 2))

    img_f = holographic_dual(f, table, t_span=4.0, n_out=1024)
    M = img_f.metadata["M"]
    img_g = holographic_dual(g, table, t_span=4.0, n_out=1024, M=M)
    rep_f = verify_dual(img_f)
    rep_g = verify_dual(img_g)
    bulk = pairing_bulk_route(img_f.coeffs, img_g.coeffs, table, img_f.extension.modes)
    bdy = pairing_boundary_route(img_f.extension, img_g.extension, table)
    pair_rel = abs(bulk - bdy) / max(abs(bulk), 1e-300)
    passed = (rep_f.max_residual < 1e-13 and rep_g.max_residual < 1e-13
              and pair_rel < 1e-13 and rep_f.pairing_rel_error < 1e-13)
    details = {"residual_f": rep_f.max_residual, "residual_g": rep_g.max_residual,
               "pairing_rel_fg": pair_rel, "M": M}
    for key in _SMEAR_KEYS:
        details[key] = [img_f.metadata[key], img_g.metadata[key]]
    return CriterionResult("10-holographic-identity", passed, details)


def criterion_11_fig2() -> CriterionResult:
    """Burst structure of the reference observable: arrivals within 0.2 of
    {+-1, +-3, +-5}, burst heights decaying with |t|, and the reference value
    f(0, 0) = e^-8 (direct evaluation of the four bump factors)."""
    val = float(fig2_test_function(0.0, 0.0))
    val_ok = abs(val - np.exp(-8.0)) < 1e-12
    image, burst = fig2_reproduce()
    expected = [-5.0, -3.0, -1.0, 1.0, 3.0, 5.0]
    centers_ok = burst.matches(expected, tol=0.2)
    heights = []
    for e in (1.0, 3.0, 5.0):
        idx = int(np.argmin(np.abs(burst.centers - e)))
        heights.append(float(burst.heights[idx]))
    mono = heights[0] > heights[1] > heights[2]
    passed = val_ok and centers_ok and mono
    details = {"f00": val, "centers": burst.centers.tolist(),
               "heights_135": heights, "monotone": mono}
    details.update((key, image.metadata[key]) for key in _SMEAR_KEYS)
    return CriterionResult("11-fig2-reproduction", passed, details)


def criterion_12_source_relation() -> CriterionResult:
    """Mode-coefficient residual of the boundary source relation < 1e-13 for
    M <= 20; constant (Neumann-style) boundary weights fail the identity."""
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))
    table = build_table(20, p)
    t = np.linspace(-6.0, 6.0, 2001)
    g = np.exp(-t ** 2 / (2 * 0.5 ** 2))
    res = max(source_relation_check(g, table, t, side="plus"),
              source_relation_check(g, table, t, side="minus"))
    neumann = np.full(len(table), table.d_bdys[0])
    res_neg = source_relation_check(g, table, t, side="plus", weights=neumann)
    passed = res < 1e-13 and res_neg > 1e-3
    return CriterionResult("12-source-relation", passed,
                           {"residual": res, "neumann_residual": res_neg})


ALL_CRITERIA = (
    criterion_1_eigenvalue_brackets,
    criterion_2_asymptotic_bounds,
    criterion_3_orthonormality,
    criterion_4_fdtd_oracle,
    criterion_5_conservation,
    criterion_6_causality,
    criterion_7_exact_reflection,
    criterion_8_twopoint_diagnostics,
    criterion_9_commutator_causality,
    criterion_10_holographic_identity,
    criterion_11_fig2,
    criterion_12_source_relation,
)


def run_all(echo: bool = True) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        start = time.perf_counter()
        res = fn()
        res.runtime = time.perf_counter() - start
        results.append(res)
        if echo:
            print(res.line())
    return results
