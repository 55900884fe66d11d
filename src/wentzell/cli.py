"""Command line front end: ``wentzell <modes|evolve|twopoint|holo|verify>``.

Outputs are deterministic for a given configuration: CSV data files carry the
full parameter set in ``#`` header comments and no timestamps; mode tables are
cached as human-diffable JSON keyed by (S, c, mu, M_max, residual_tol).
Each ``cmd_*`` takes the parsed ``argparse.Namespace``; the parser holds the
only copy of every default.  Exit codes: 0 success, 1 invalid configuration,
2 runtime failure (including non-finite data, for which no CSV is written),
3 acceptance failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .core import CauchyData, Grid1D, HalfSpace, PhysicalParams, Strip
from .evolve import (SpectralState, energy, explicit_solution, fdtd_run,
                     make_fdtd_state, reflection_cauchy_data, synthesize_state)
from .holo import Fig2Config, HoloGrids, fig2_reproduce, holographic_dual, verify_dual
from .modes import ModeEntry, ModeTable, bracket, build_table, residual_normalized, \
    verify_table
from .qft import TwoPointSpec, boundary_2pt_halfspace, boundary_2pt_strip, \
    halfspace_weight_normalization, tail_convergence

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_ACCEPTANCE = 3

CACHE_ENV = "WENTZELL_CACHE_DIR"


# ---------------------------------------------------------------------------
# persistence

def atomic_write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def table_to_json(table: ModeTable) -> str:
    p = table.params
    doc = {
        "S": p.geometry.S,
        "c": p.c,
        "mu": p.mu,
        "residual_tol": table.residual_tol,
        "M_max": len(table) - 1,
        "entries": [
            {"m": e.m, "q": e.q, "parity": e.parity,
             "c_norm": e.c_norm, "d_bdy": e.d_bdy}
            for e in table.entries
        ],
    }
    return json.dumps(doc, indent=1)


def table_from_json(text: str) -> ModeTable:
    doc = json.loads(text)
    p = PhysicalParams(c=doc["c"], mu=doc["mu"], geometry=Strip(doc["S"]))
    entries = tuple(ModeEntry(m=e["m"], q=e["q"], parity=e["parity"],
                              c_norm=e["c_norm"], d_bdy=e["d_bdy"])
                    for e in doc["entries"])
    return ModeTable(params=p, entries=entries, residual_tol=doc["residual_tol"])


def cache_path(cache_dir: Path, p: PhysicalParams, M_max: int, tol: float) -> Path:
    name = f"modes_S{p.geometry.S!r}_c{p.c!r}_mu{p.mu!r}_M{M_max}_tol{tol!r}.json"
    return cache_dir / name


def resolve_cache_dir(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "wentzell"


def load_or_build_table(p: PhysicalParams, M_max: int, tol: float,
                        cache_dir: Path) -> tuple[ModeTable, Path, bool]:
    path = cache_path(cache_dir, p, M_max, tol)
    if path.exists():
        return table_from_json(path.read_text()), path, True
    table = build_table(M_max, p, residual_tol=tol)
    atomic_write_text(path, table_to_json(table))
    return table, path, False


def write_csv(path: Path, header: dict, columns: list[str], rows: np.ndarray):
    lines = [f"# {k} = {v}" for k, v in header.items()]
    lines.append(",".join(columns))
    for row in np.atleast_2d(rows):
        lines.append(",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# commands

def cmd_modes(args: argparse.Namespace) -> int:
    p = PhysicalParams(c=args.c, mu=args.mu, geometry=Strip(args.S))
    cache_dir = resolve_cache_dir(args.cache_dir)
    table, path, cached = load_or_build_table(p, args.M_max, args.residual_tol, cache_dir)
    print(f"mode table: {len(table)} entries "
          f"({'cache hit' if cached else 'computed'}) -> {path}")

    in_window = all(bracket(m, p)[0] < table.qs[m] < bracket(m, p)[1]
                    for m in range(1, len(table)))
    res = max(float(residual_normalized(table.qs[m], p, m % 2 == 0))
              for m in range(1, len(table)))
    print(f"{'PASS' if in_window else 'FAIL'}  eigenvalue windows "
          f"(max normalized residual {res:.3e})")
    ok = in_window and res < args.residual_tol * max(1.0, args.S)

    if len(table) - 1 >= max(args.m_start, 2) + 1:
        rep = verify_table(table, delta=args.delta, m_start=args.m_start)
        print(f"{'PASS' if np.all(rep.q_in_bound) else 'FAIL'}  asymptotic q window "
              f"(delta={args.delta}, m >= {rep.m_start})")
        print(f"{'PASS' if np.all(rep.d_in_bound) else 'FAIL'}  boundary coupling decay law")
        print(f"{'PASS' if rep.c_bounded else 'FAIL'}  normalization deviation "
              f"|c_m - 1| m^2 bounded")
        print(f"skipped (below asymptotic range): m < {rep.m_start}")
        ok = ok and rep.all_pass
    else:
        print("asymptotic checks skipped: table too short for m_start")

    if args.out:
        atomic_write_text(Path(args.out), table_to_json(table))
        print(f"table copied to {args.out}")
    return EXIT_OK if ok else EXIT_ACCEPTANCE


def cmd_evolve(args: argparse.Namespace) -> int:
    if not 0 < args.cfl <= 1.0:
        raise ValueError(f"CFL factor must be in (0, 1], got {args.cfl}")
    p = PhysicalParams(c=args.c, mu=args.mu, geometry=Strip(args.S))
    grid = Grid1D.for_strip(args.S, args.grid_n)
    header = {"command": "evolve", "scenario": args.scenario, "S": args.S, "c": args.c,
              "mu": args.mu, "grid_n": args.grid_n, "cfl": args.cfl, "T": args.T}

    if args.scenario == "reflection":
        if args.mu != 0.0:
            raise ValueError("the reflection scenario is the massless closed form; "
                             "set --mu 0")
        t0 = -0.5
        data = reflection_cauchy_data(grid, t0=t0, eps=args.eps, c=args.c)
        header["eps"] = args.eps
    elif args.scenario == "mode":
        cache_dir = resolve_cache_dir(args.cache_dir)
        table, _, _ = load_or_build_table(p, 3, 1e-12, cache_dir)
        coeffs = np.zeros(4)
        coeffs[1] = 1.0
        t0 = 0.0
        data = synthesize_state(SpectralState(a=coeffs, b=np.zeros(4), table=table), grid)
    elif args.scenario == "gaussian":
        t0 = 0.0
        z = grid.nodes
        data = CauchyData.from_samples(grid, np.exp(-z ** 2 / (2 * 0.1 ** 2)),
                                       np.zeros_like(z))
    else:
        raise ValueError(f"unknown scenario {args.scenario!r}")

    state = make_fdtd_state(data, p, cfl=args.cfl)
    n_steps = int(np.ceil((args.T - t0) / state.dt))
    if n_steps < 1:
        raise ValueError(f"--T {args.T:g} must be after the {args.scenario} scenario's "
                         f"start time {t0:g}; the run has no steps")
    sample_every = max(1, n_steps // 400)
    rows = []
    sup_resid = 0.0
    rep = energy(state)
    E0 = rep.total
    # an unstable run is reported by the row check below, not by overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, n_steps, sample_every):
            state = fdtd_run(state, min(sample_every, n_steps - k))
            t = t0 + state.t
            rep = energy(state)
            row = [t, rep.bulk, rep.boundary, rep.total, state.phi[0], state.phi[-1]]
            if args.scenario == "reflection":
                _, exact = explicit_solution(t, np.array([0.0]), args.eps, args.c)
                resid = float(abs(state.phi[0] - exact))
                sup_resid = max(sup_resid, resid)
                row += [exact, resid]
            if not np.isfinite(row).all():
                raise FloatingPointError(
                    f"non-finite field values at t = {t:.6g}: the scheme is unstable "
                    f"at c = {args.c} (small c needs a smaller --cfl); no CSV written")
            rows.append(row)
    cols = ["t", "E_bulk", "E_bdy", "E_total", "phi_bdy_minus", "phi_bdy_plus"]
    if args.scenario == "reflection":
        cols += ["phi_bdy_exact", "residual"]
        header["sup_residual"] = repr(sup_resid)
        print(f"reflection sup residual: {sup_resid:.4e} "
              f"(bound {5e-2 * 2 / args.c:.4e})")
    drift = abs(rep.total - E0) / E0 if E0 > 0 else 0.0
    print(f"energy drift over the run: {drift:.3e}")
    write_csv(Path(args.out), header, cols, rows)
    print(f"time series -> {args.out}")
    return EXIT_OK


def cmd_twopoint(args: argparse.Namespace) -> int:
    x0 = np.linspace(0.0, args.x0_max, args.n_x0)
    header = {"command": "twopoint", "geometry": args.geometry, "S": args.S,
              "c": args.c, "mu": args.mu, "M": args.M}
    report: dict = {}
    if args.geometry == "strip":
        p = PhysicalParams(c=args.c, mu=args.mu, geometry=Strip(args.S), d=1)
        spec = TwoPointSpec(params=p, M=args.M)
        cache_dir = resolve_cache_dir(args.cache_dir)
        table, _, _ = load_or_build_table(p, max(4 * args.M, 400), 1e-12, cache_dir)
        res = boundary_2pt_strip(x0, 0.0, spec, table=table)
        vals = np.asarray(res.value)
        tail = tail_convergence(table, args.M)
        report = {"tail_bound": res.tail_bound, "tail_ratio": tail.ratio,
                  "tail_ratio_in_08_12": tail.passed,
                  "partial_sum_d2": tail.partial_sum}
        header["tail_bound"] = repr(res.tail_bound)
    elif args.geometry == "halfspace":
        p = PhysicalParams(c=args.c, mu=args.mu, geometry=HalfSpace(), d=1)
        spec = TwoPointSpec(params=p, M=1, q_max=args.q_max)
        norm = halfspace_weight_normalization(args.c)
        report = {"weight_normalization": norm,
                  "weight_normalization_times_c": norm * args.c,
                  "check_within_1e-8": bool(abs(norm * args.c - 1.0) < 1e-8)}
        vals = np.array([boundary_2pt_halfspace(t, 0.0, spec).value for t in x0])
        header["q_max"] = args.q_max
    else:
        raise ValueError(f"unknown geometry {args.geometry!r}")
    rows = np.column_stack([x0, vals.real, vals.imag])
    write_csv(Path(args.out), header, ["x0", "re", "im"], rows)
    report_path = Path(args.out).with_suffix(".report.json")
    atomic_write_text(report_path, json.dumps(report, indent=1))
    print(f"two-point samples -> {args.out}; report -> {report_path}")
    return EXIT_OK


def cmd_holo(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if args.fig2:
        image, burst = fig2_reproduce(Fig2Config(S=args.S, c=args.c, M=args.M))
        meta = dict(image.metadata)
        meta["burst_centers"] = burst.centers.tolist()
        meta["burst_peak_times"] = burst.peak_times.tolist()
        meta["burst_heights"] = burst.heights.tolist()
        print("burst centers:", np.round(burst.centers, 3).tolist())
    else:
        if args.mu <= 0:
            raise ValueError("the quantitative map needs mu > 0; "
                             "use --fig2 for the massless reference run")
        p = PhysicalParams(c=args.c, mu=args.mu, geometry=Strip(args.S))
        table = build_table(48, p)
        grids = HoloGrids.default(args.S, t_span=4.0 * args.S)

        def f(t, z):
            return np.exp(-t ** 2 / (2 * (0.25 * args.S) ** 2)) \
                * np.exp(-z ** 2 / (2 * (0.12 * args.S) ** 2))

        image = holographic_dual(f, p, table, M=args.M, grids=grids)
        rep = verify_dual(image, image.coeffs, table)
        meta = dict(image.metadata)
        meta["max_residual"] = rep.max_residual
        meta["pairing_rel_error"] = rep.pairing_rel_error
        print(f"interpolation residual: {rep.max_residual:.3e}")
    header = {"command": "holo", "fig2": args.fig2, "S": args.S, "c": args.c,
              "mu": meta["mu"], "M": meta["M"], "a": meta["a"]}
    write_csv(out.with_suffix(".fhat.csv"), header, ["omega", "re", "im"],
              np.column_stack([image.omega_grid, image.fhat.real, image.fhat.imag]))
    fprime = np.asarray(image.fprime)
    write_csv(out.with_suffix(".fprime.csv"), header, ["t", "fprime"],
              np.column_stack([image.t_grid, fprime.real]))
    meta["warnings"] = image.warnings
    atomic_write_text(out.with_suffix(".meta.json"), json.dumps(meta, indent=1))
    print(f"image -> {out}.fhat.csv, {out}.fprime.csv, {out}.meta.json")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .acceptance import run_all
    results = run_all(echo=True)
    doc = {"criteria": [{"name": r.name, "passed": bool(r.passed),
                         "runtime_s": r.runtime,
                         "details": _jsonable(r.details)} for r in results],
           "all_passed": bool(all(r.passed for r in results))}
    if args.out:
        atomic_write_text(Path(args.out), json.dumps(doc, indent=1))
        print(f"report -> {args.out}")
    return EXIT_OK if doc["all_passed"] else EXIT_ACCEPTANCE


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sp, mu_default=0.0):
    sp.add_argument("--S", type=float, default=1.0, help="strip half-width")
    sp.add_argument("--c", type=float, default=1.0, help="boundary coupling (length, > 0)")
    sp.add_argument("--mu", type=float, default=mu_default, help="mass")
    sp.add_argument("--cache-dir", default=None,
                    help=f"mode table cache directory (or ${CACHE_ENV})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wentzell",
        description="Scalar field with dynamical boundary conditions: modes, "
                    "evolution, two-point functions, holography")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("modes", help="solve and verify the mode table")
    sp.set_defaults(func=cmd_modes)
    _add_common(sp)
    sp.add_argument("--max", type=int, default=200, dest="M_max",
                    help="highest mode index")
    sp.add_argument("--residual-tol", type=float, default=1e-12)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--m-start", type=int, default=50)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("evolve", help="FDTD time evolution and energy series")
    sp.set_defaults(func=cmd_evolve)
    _add_common(sp)
    sp.add_argument("--grid-n", type=int, default=1024)
    sp.add_argument("--cfl", type=float, default=0.5)
    sp.add_argument("--T", type=float, default=2.0)
    sp.add_argument("--scenario", choices=("gaussian", "mode", "reflection"),
                    default="gaussian")
    sp.add_argument("--eps", type=float, default=0.02,
                    help="pulse regularization width (reflection scenario)")
    sp.add_argument("--out", default="evolve.csv")

    sp = sub.add_parser("twopoint", help="boundary two-point function samples")
    sp.set_defaults(func=cmd_twopoint)
    _add_common(sp, mu_default=1.0)
    sp.add_argument("--geometry", choices=("strip", "halfspace"), default="strip")
    sp.add_argument("--max", type=int, default=100, dest="M")
    sp.add_argument("--q-max", type=float, default=200.0)
    sp.add_argument("--x0-max", type=float, default=5.0)
    sp.add_argument("--n-x0", type=int, default=101)
    sp.add_argument("--out", default="twopoint.csv")

    sp = sub.add_parser("holo", help="holographic image of a bulk observable")
    sp.set_defaults(func=cmd_holo)
    _add_common(sp, mu_default=1.0)
    sp.add_argument("--max", type=int, default=None, dest="M")
    sp.add_argument("--fig2", action="store_true",
                    help="reference massless run with burst report")
    sp.add_argument("--out", default="holo")

    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.set_defaults(func=cmd_verify)
    sp.add_argument("--out", default="verify.json")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - surface with context, fail code 2
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
