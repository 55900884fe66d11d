"""Command line front end: ``wentzell <modes|evolve|twopoint|holo|verify>``.

Outputs are deterministic for a given configuration: CSV data files carry the
full parameter set in ``#`` header comments and no timestamps; mode tables are
cached as line-diffable JSON, one mode per line, keyed by a format version and
(S, c, mu, M_max), and re-verified when read.
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
import time
from collections.abc import Iterable, Iterator, Sequence
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import CauchyData, Grid1D, HalfSpace, PhysicalParams, Strip
from .evolve import (_MAX_BLOCK, SpectralState, energy, energy_steps, explicit_solution,
                     fdtd_samples, make_fdtd_state, reflection_cauchy_data,
                     synthesize_state)
from .holo import fig2_reproduce, holographic_dual, verify_dual
from .modes import ModeTable, build_table, check_solution
from .qft import _HALFSPACE_NORM_TOL, _finite_x0, boundary_2pt_halfspace, \
    boundary_2pt_strip, halfspace_weight_normalization

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_ACCEPTANCE = 3

CACHE_ENV = "WENTZELL_CACHE_DIR"


# ---------------------------------------------------------------------------
# persistence

def atomic_write_text(path: Path | Sequence[Path], text: str | Iterable[str]):
    """Write ``text``, a string or an iterable of string pieces, to a
    temporary file and rename it over ``path``.  With a sequence of paths,
    every piece goes to each file in one pass over ``text``, and a failure to
    produce or write the text replaces none of them.  A file gets the mode
    that ``open(path, "w")`` would create it with, 0o666 less the umask (a
    temporary file starts at 0o600)."""
    path, *rest = [path] if isinstance(path, Path) else path
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as f:
            os.fchmod(f.fileno(), 0o666 & ~umask)
            pieces = [text] if isinstance(text, str) else text
            if rest:
                # the other files take each piece as it is written here
                atomic_write_text(rest, _written(f, pieces))
            else:
                f.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _written(f, pieces: Iterable[str]) -> Iterator[str]:
    """Each of ``pieces``, once it is written to ``f``."""
    for piece in pieces:
        f.write(piece)
        yield piece


# cache file format and solver version, part of the file name; v4 evaluates
# the phase as arctan2(1, c q), which moves delta_m and d_m by an ulp or two
_TABLE_FORMAT = "v4"
# even, so that every piece starts at an even mode
_TABLE_PIECE_ROWS = 1024
# one row's text around its fields, with None where m, q, delta, the parity's
# text, c_norm and d_bdy go; a row's first element closes the row before it
_TABLE_ROW = ['},\n{"m": ', None, ', "q": ', None, ', "delta": ', None, None, None,
              ', "d_bdy": ', None]
_PARITY_TEXT = (', "parity": "even", "c_norm": ', ', "parity": "odd", "c_norm": ')


def _parities(n: int) -> list[str]:
    return ["even", "odd"] * (n // 2) + ["even"] * (n % 2)


def _table_pieces(table: ModeTable) -> Iterator[str]:
    """The JSON text of ``table_to_json`` in pieces of at most
    _TABLE_PIECE_ROWS modes, so that a large table is never held as one
    string or as Python lists of all its modes.  A piece is one join of
    _TABLE_ROW repeated once per row, its slots filled by strided slice
    assignment with m, the parity text and each column's repr, one pass per
    column; the bytes are those of one ``{!r}`` format per row.  (Interleaving
    the columns with chain, zip and repeat instead measured 7% slower.)"""
    p = table.params
    n = len(table)
    head = json.dumps({"S": p.geometry.S, "c": p.c, "mu": p.mu, "M_max": n - 1})
    yield head[:-1] + ', "entries": [\n'  # the header object stays open for the list
    for i in range(0, n, _TABLE_PIECE_ROWS):
        part = slice(i, i + _TABLE_PIECE_ROWS)
        ms = range(n)[part]
        text = _TABLE_ROW * len(ms)
        text[1::10] = map(str, ms)
        text[6::10] = (_PARITY_TEXT * ((len(ms) + 1) // 2))[:len(ms)]
        for j, col in zip((3, 5, 7, 9), (table.qs, table.deltas, table.c_norms, table.d_bdys)):
            text[j::10] = map(repr, col[part].tolist())
        if i == 0:
            text[0] = '{"m": '  # the table has no row before its first
        yield "".join(text)
    yield "}\n]}\n"


def table_to_json(table: ModeTable) -> str:
    """The table as a JSON document with one line per mode."""
    return "".join(_table_pieces(table))


def table_from_json(text: str) -> ModeTable:
    """Parse ``table_to_json`` output.  Raises ValueError (or KeyError,
    TypeError) when the document is not such a table or its m sequence or
    parities are out of order; whether its roots, c_m and d_m are right is
    ``check_solution``'s to say."""
    doc = json.loads(text)
    p = PhysicalParams(c=doc["c"], mu=doc["mu"], geometry=Strip(doc["S"]))
    entries = doc["entries"]
    n = len(entries)
    if list(map(itemgetter("m"), entries)) != list(range(n)):
        raise ValueError("mode indices are not 0, 1, 2, ...")
    if list(map(itemgetter("parity"), entries)) != _parities(n):
        raise ValueError("mode parities do not alternate even, odd from m = 0")
    qs, deltas, c_norms, d_bdys = (np.fromiter(map(itemgetter(key), entries), float, n)
                                   for key in ("q", "delta", "c_norm", "d_bdy"))
    return ModeTable(params=p, qs=qs, deltas=deltas, c_norms=c_norms, d_bdys=d_bdys)


def cache_path(cache_dir: Path, p: PhysicalParams, M_max: int) -> Path:
    name = f"modes_{_TABLE_FORMAT}_S{p.geometry.S!r}_c{p.c!r}_mu{p.mu!r}_M{M_max}.json"
    return cache_dir / name


def resolve_cache_dir(flag_value: str | None) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "wentzell"


def load_or_build_table(p: PhysicalParams, M_max: int, cache_dir: Path,
                        out: Path | None = None) -> tuple[ModeTable, Path, bool]:
    """The table for (p, M_max) from the cache, or built and written there.

    A cached file is re-verified (mode sequence, parities, increasing q, the
    key it was written for, and ``check_solution``: the residual of every root
    and the exact relations of its delta_m, c_m and d_m); one that fails counts
    as a miss and is overwritten.  ``out``, when given, gets the same text,
    formatted from the table: in the cache file's pass on a miss, alone on a
    hit."""
    path = cache_path(cache_dir, p, M_max)
    hit = False
    if path.exists():
        try:
            table = table_from_json(path.read_text())
            got = table.params
            if ((got.geometry, got.c, got.mu, len(table) - 1)
                    == (p.geometry, p.c, p.mu, M_max)):
                check_solution(table)
                hit = True
        except (ValueError, KeyError, TypeError):
            pass  # unreadable or stale: rebuilt below
    if not hit:
        table = build_table(M_max, p)
    dests = ([] if hit else [path]) + ([] if out is None else [out])
    if dests:
        atomic_write_text(dests, _table_pieces(table))
    return table, path, hit


_CSV_PIECE_ROWS = 4096


def _csv_pieces(header: dict, columns: list[str], rows: np.ndarray) -> Iterator[str]:
    """The CSV text in pieces of at most _CSV_PIECE_ROWS rows, so that a long
    file is never held as one string or as Python floats of all its rows."""
    yield "".join(f"# {k} = {v}\n" for k, v in header.items()) + ",".join(columns) + "\n"
    rows = np.atleast_2d(rows)
    for i in range(0, len(rows), _CSV_PIECE_ROWS):
        # each column is formatted in one pass; the bytes are those of a per-row repr
        cells = [map(repr, col) for col in rows[i:i + _CSV_PIECE_ROWS].T.tolist()]
        yield "".join(line + "\n" for line in map(",".join, zip(*cells)))


def write_csv(path: Path, header: dict, columns: list[str], rows: np.ndarray):
    atomic_write_text(path, _csv_pieces(header, columns, rows))


# ---------------------------------------------------------------------------
# commands

def cmd_modes(args: argparse.Namespace) -> int:
    """Build or load the table; ``--out`` gets its text from the same
    formatting pass as the cache file on a miss, so a command formats the
    table at most once."""
    p = PhysicalParams(c=args.c, mu=args.mu, geometry=Strip(args.S))
    cache_dir = resolve_cache_dir(args.cache_dir)
    out = Path(args.out) if args.out else None
    table, path, cached = load_or_build_table(p, args.M_max, cache_dir, out=out)
    print(f"mode table: {len(table)} entries "
          f"({'cache hit' if cached else 'computed'}) -> {path}")

    # the table passed check_solution when it was built or loaded
    res = float(np.max(table.residuals, initial=0.0))
    print(f"PASS  mode table check (max normalized residual {res:.3e})")
    if args.out:
        print(f"table -> {args.out}")
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    if not np.isfinite(args.T):
        raise ValueError(f"--T must be finite, got {args.T}")
    p = PhysicalParams(c=args.c, mu=args.mu, geometry=Strip(args.S))
    grid = Grid1D.for_strip(args.S, args.grid_n)
    header = {"command": "evolve", "scenario": args.scenario, "S": args.S, "c": args.c,
              "mu": args.mu, "grid_n": args.grid_n, "cfl": args.cfl, "T": args.T}

    if args.scenario == "reflection":
        if args.mu != 0.0:
            raise ValueError("the reflection scenario is the massless closed form; "
                             "set --mu 0")
        t0 = -0.5
        # the checks below name a pulse too narrow and an S or eps whose u/eps
        # leaves the double range (inf * 0 there)
        with np.errstate(over="ignore", invalid="ignore"):
            data = reflection_cauchy_data(grid, t0=t0, eps=args.eps, c=args.c)
        header["eps"] = args.eps
    elif args.scenario == "mode":
        cache_dir = resolve_cache_dir(args.cache_dir)
        table, _, _ = load_or_build_table(p, 3, cache_dir)
        coeffs = np.zeros(4)
        coeffs[1] = 1.0
        t0 = 0.0
        data = synthesize_state(SpectralState(a=coeffs, b=np.zeros(4), table=table), grid)
    elif args.scenario == "gaussian":
        t0 = 0.0
        z = grid.nodes
        with np.errstate(over="ignore"):  # far tails square past the double range: 0.0
            data = CauchyData.from_samples(grid, np.exp(-z ** 2 / (2 * 0.1 ** 2)),
                                           np.zeros_like(z))
    else:
        raise ValueError(f"unknown scenario {args.scenario!r}")

    state = make_fdtd_state(data, p, cfl=args.cfl)
    steps = float(np.ceil((args.T - t0) / state.dt))
    if steps < 1:
        raise ValueError(f"--T {args.T:g} must be after the {args.scenario} scenario's "
                         f"start time {t0:g}; the run has no steps")
    if steps > np.iinfo(np.intp).max:
        raise ValueError(f"--T {args.T:g} takes {steps:.4g} steps of dt = {state.dt:g}; "
                         f"a run takes at most {np.iinfo(np.intp).max} steps")
    n_steps = int(steps)
    every = max(1, n_steps // 400)
    # the run steps in chunks of whole blocks, at least one sample interval and
    # 1 024 steps long, and each sample row is read off its chunk's end-node
    # trace: the energy is the chunk's first level's, carried by the balance
    chunk = -(-max(every, 1024) // _MAX_BLOCK) * _MAX_BLOCK
    with np.errstate(over="ignore", invalid="ignore"):
        E0 = E = energy(state).total
    if not np.isfinite(E0):  # e.g. a reflection pulse narrower than a cell
        named = ", ".join(f"{k} = {header[k]:g}" for k in ("S", "c", "mu", "eps") if k in header)
        raise ValueError(f"the {args.scenario} scenario's initial data have no finite energy "
                         f"at {named} on {args.grid_n} cells; no CSV written")
    rows = []
    k0 = 0
    stepping_s = 0.0
    # an unstable run is reported by the row check below, not by overflow
    # warnings; the chunks are stepped lazily, so the run stops at the end of
    # the first chunk with a non-finite sample or end level
    with np.errstate(over="ignore", invalid="ignore"):
        start = time.perf_counter()
        for run in fdtd_samples(state, n_steps, chunk, inner_trace=True):
            stepping_s += time.perf_counter() - start
            dE, E_bdy = energy_steps(state, run)
            k = np.arange(k0 + 1, k0 + len(dE) + 1)
            i = np.flatnonzero((k % every == 0) | (k == n_steps))
            total = E + dE[i]
            block = np.column_stack([t0 + k[i] * state.dt, total - E_bdy[i], E_bdy[i], total,
                                     run.bdy_trace[i]])
            E = energy(run).total
            bad = ~np.isfinite(block).all(axis=1)
            if bad.any() or not np.isfinite(E):
                t = block[bad.argmax(), 0] if bad.any() else t0 + run.t
                raise FloatingPointError(
                    f"non-finite field values at t = {t:.6g}: the scheme is unstable "
                    f"at c = {args.c} (small c needs a smaller --cfl); no CSV written")
            rows.append(block)
            k0 += len(dE)
            state = run
            start = time.perf_counter()
    rows = np.concatenate(rows)
    cols = ["t", "E_bulk", "E_bdy", "E_total", "phi_bdy_minus", "phi_bdy_plus"]
    if args.scenario == "reflection":
        exact = explicit_solution(rows[:, 0], 0.0, args.eps, args.c)
        resid = np.abs(rows[:, 4] - exact)
        rows = np.column_stack([rows, exact, resid])
        sup_resid = float(np.max(resid))
        cols += ["phi_bdy_exact", "residual"]
        header["sup_residual"] = repr(sup_resid)
        print(f"reflection sup residual: {sup_resid:.4e} "
              f"(bound {5e-2 * 2 / args.c:.4e})")
    drift = float(np.max(np.abs(rows[:, 3] - E0))) / E0 if E0 > 0 else 0.0
    print(f"energy drift over the run: {drift:.3e}")
    print(f"stepping: {n_steps} steps x {grid.n_nodes} nodes in {stepping_s:.3g} s "
          f"({n_steps * grid.n_nodes / stepping_s / 1e6:.3g} Mcell/s)")
    write_csv(Path(args.out), header, cols, rows)
    print(f"time series -> {args.out}")
    return EXIT_OK


def cmd_twopoint(args: argparse.Namespace) -> int:
    # the end is checked before linspace spreads it and the strip's table is cached
    x0 = np.linspace(0.0, _finite_x0(args.x0_max), args.n_x0)
    header = {"command": "twopoint", "geometry": args.geometry, "S": args.S,
              "c": args.c, "mu": args.mu, "M": args.M}
    report: dict = {}
    if args.geometry == "strip":
        p = PhysicalParams(c=args.c, mu=args.mu, geometry=Strip(args.S))
        table, _, _ = load_or_build_table(p, args.M, resolve_cache_dir(args.cache_dir))
        res = boundary_2pt_strip(x0, table, args.M)
        vals = np.asarray(res.value)
        report = {"tail_bound": res.tail_bound}
        header["tail_bound"] = repr(res.tail_bound)
    elif args.geometry == "halfspace":
        p = PhysicalParams(c=args.c, mu=args.mu, geometry=HalfSpace())
        norm = halfspace_weight_normalization(args.c)
        res = boundary_2pt_halfspace(x0, p, args.q_max)
        vals = res.value
        report = {"weight_normalization": norm,
                  "weight_normalization_times_c": norm * args.c,
                  f"check_within_{_HALFSPACE_NORM_TOL:g}":
                      bool(abs(norm * args.c - 1.0) < _HALFSPACE_NORM_TOL),
                  "quad_error": res.quad_error, "quad_panels": res.panels,
                  "tail_bound": res.tail_bound}
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
        image, burst = fig2_reproduce(S=args.S, c=args.c, M=args.M)
        meta = dict(image.metadata)
        meta["burst_centers"] = burst.centers.tolist()
        meta["burst_peak_times"] = burst.peak_times.tolist()
        meta["burst_heights"] = burst.heights.tolist()
        print("burst centers:", np.round(burst.centers, 3).tolist())
    else:
        if args.mu <= 0:
            raise ValueError("the quantitative map needs mu > 0; "
                             "use --fig2 for the massless reference run")
        table = build_table(48, PhysicalParams(c=args.c, mu=args.mu,
                                               geometry=Strip(args.S)))

        def f(t, z):
            return np.exp(-t ** 2 / (2 * (0.25 * args.S) ** 2)) \
                * np.exp(-z ** 2 / (2 * (0.12 * args.S) ** 2))

        image = holographic_dual(f, table, t_span=4.0 * args.S, M=args.M)
        rep = verify_dual(image)
        meta = dict(image.metadata)
        meta["max_residual"] = rep.max_residual
        meta["pairing_rel_error"] = rep.pairing_rel_error
        print(f"interpolation residual: {rep.max_residual:.3e}")
    header = {"command": "holo", "fig2": args.fig2, "S": args.S, "c": args.c,
              "mu": meta["mu"], "M": meta["M"], "tau": meta["tau"]}
    # one row per included mode: fhat'(+omega_m); an object array keeps m an int
    ext = image.extension
    write_csv(out.with_suffix(".fhat.csv"), header, ["m", "omega", "re", "im"],
              np.column_stack([ext.modes.astype(object), ext.omegas, ext.coeffs.real,
                               ext.coeffs.imag]))
    write_csv(out.with_suffix(".fprime.csv"), header, ["t", "fprime"],
              np.column_stack([image.t_grid, image.fprime]))
    meta["warnings"] = image.warnings
    atomic_write_text(out.with_suffix(".meta.json"), json.dumps(meta, indent=1))
    print(f"image -> {out}.fhat.csv, {out}.fprime.csv, {out}.meta.json")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .acceptance import run_all
    results = run_all(echo=True)
    doc = {"criteria": [{"name": r.name, "passed": bool(r.passed),
                         "runtime_s": r.runtime,
                         "details": r.details} for r in results],
           "all_passed": bool(all(r.passed for r in results))}
    if args.out:
        # numpy floats are floats; numpy bools, integers and arrays go through tolist
        atomic_write_text(Path(args.out),
                          json.dumps(doc, indent=1, default=lambda o: o.tolist()))
        print(f"report -> {args.out}")
    return EXIT_OK if doc["all_passed"] else EXIT_ACCEPTANCE


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
