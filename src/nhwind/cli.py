"""Command-line front end.

Subcommands cover the loop side (``bands``, ``winding``,
``band-windings``, ``reductio``) and the chain side (``chain``,
``scan``, ``localize``).  Tables default to CSV; the single-record
commands ``winding`` and ``reductio`` default to JSON.  Output is
written atomically when ``--out`` is given, and byte-deterministic for
fixed arguments: no timestamps, no environment-dependent content.

Each layer checks what only it can.  The parser's ``choices=`` refuses
unknown names (model, gauge, band, derivative, boundary, side, format)
and exits 2 itself.  :func:`_check` refuses the flag values a choices
list cannot express: a non-finite ``--v/--r/--gamma``, an odd or
coarse ``--grid``, ``--n`` below 1, a malformed or non-positive
``--n-list`` and a zero or non-finite ``--lee-normalization``.  The
library re-checks its own inputs for library callers; the handlers
read the parsed namespace directly.

Exit codes come from ``_EXIT_CODES``, which maps each refusal class to
its code in order; the first class the error is an instance of wins.
An unwritable ``--out`` path exits 2 with its own message.
    0  success
    2  usage or validation error
    3  gauge singularity (including unresolvable connection poles)
    4  ambiguous branch tracking
    5  branch fails to close
    6  solver failure (defective point, unpairable left spectrum,
       eigensolver breakdown)
"""
from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile

import numpy as np

from .bloch import BlochModel, Defective, Gauge, GaugeSingular, demo, lee
from .berry import (INTEGER_TOL, AmbiguousTracking, NoClosure, band_winding,
                    loop_period, winding_report)
from .lattice import (BALANCING, Boundary, MatchFailure, chain_spectrum,
                      classify, localization_profile, spectrum_scan)

__all__ = ["main"]

# Per-zone normalization constants reductio falls back to per model.
REDUCTIO_DEFAULT_NORMALIZATION = {"demo": 0.5, "lee": 2.0}
# Exit code per refusal class; the first class that matches wins.
# LinAlgError subclasses ValueError, so solver failures must come before
# the generic usage code.
_EXIT_CODES = {GaugeSingular: 3, AmbiguousTracking: 4, NoClosure: 5,
               Defective: 6, MatchFailure: 6, np.linalg.LinAlgError: 6,
               ValueError: 2}


def _check(args: argparse.Namespace) -> None:
    """Refuse the flag values ``choices=`` cannot express, and parse
    ``--n-list`` into a tuple of cell counts in place."""
    if hasattr(args, "n_list"):
        try:
            args.n_list = tuple(
                int(part) for part in args.n_list.split(",") if part)
        except ValueError as exc:
            raise ValueError(f"bad --n-list {args.n_list!r}") from exc
    for name in ("v", "r", "gamma"):
        if not np.isfinite(getattr(args, name)):
            raise ValueError(f"--{name} must be finite")
    grid = getattr(args, "grid", 64)
    if grid < 64 or grid % 2:
        raise ValueError(f"--grid must be even and >= 64, got {grid}")
    if getattr(args, "n", 1) < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    n_list = getattr(args, "n_list", (1,))
    if not n_list or min(n_list) < 1:
        raise ValueError("--n-list needs positive cell counts")
    norm = getattr(args, "lee_normalization", None)
    if norm is not None and (norm == 0 or not np.isfinite(norm)):
        raise ValueError("--lee-normalization must be finite and nonzero")


def _model(args: argparse.Namespace) -> BlochModel:
    if args.model == "demo":
        return demo()
    return lee(args.v, args.r, args.gamma)


def _cmd_bands(args: argparse.Namespace):
    traj = loop_period(_model(args), grid_size=args.grid,
                       gauge=Gauge(args.gauge), start_band=args.band)
    meta = {
        "command": "bands", "model": traj.model.label, "gauge": args.gauge,
        "grid_size": args.grid, "start_band": args.band,
        "period_over_pi": traj.period / np.pi,
        "closure_error": traj.closure_error,
    }
    columns = ["k", "energy", "energy_other"]
    rows = [[float(k), complex(e), complex(o)]
            for k, e, o in zip(traj.k_grid, traj.energies,
                               traj.energies_other)]
    return meta, columns, rows


def _cmd_winding(args: argparse.Namespace):
    rep = winding_report(_model(args), gauge=Gauge(args.gauge),
                         grid_size=args.grid,
                         lee_normalization=args.lee_normalization,
                         derivative=args.derivative)
    meta = {
        "command": "winding", "model": rep.model_label, "gauge": args.gauge,
        "grid_size": args.grid, "derivative": args.derivative,
    }
    columns = ["period_over_pi", "raw_integral", "gamma_b", "w"]
    row = [rep.period / np.pi, rep.raw_integral, rep.gamma_b, rep.w]
    if rep.lee_normalization is not None:
        columns += ["lee_normalization", "w_lee"]
        row += [rep.lee_normalization, rep.w_lee]
    return meta, columns, [row]


def _cmd_band_windings(args: argparse.Namespace):
    model = _model(args)
    w_plus = band_winding(model, band=+1, gauge=Gauge(args.gauge),
                          grid_size=args.grid, derivative=args.derivative)
    w_minus = band_winding(model, band=-1, gauge=Gauge(args.gauge),
                           grid_size=args.grid, derivative=args.derivative)
    meta = {
        "command": "band-windings", "model": model.label,
        "gauge": args.gauge, "grid_size": args.grid,
        "derivative": args.derivative,
    }
    columns = ["band", "winding"]
    rows = [["plus", w_plus], ["minus", w_minus], ["sum", w_plus + w_minus]]
    return meta, columns, rows


def _near_integer(w: complex) -> int:
    return int(abs(w.imag) <= INTEGER_TOL
               and abs(w.real - round(w.real)) <= INTEGER_TOL)


def _cmd_reductio(args: argparse.Namespace):
    """Loop count vs per-zone count, side by side.

    Normalizing the phase per Brillouin zone instead of per closed loop
    multiplies the count by (loop period) / (2 pi * normalization); the
    flag columns record which of the two is still an integer.
    """
    normalization = args.lee_normalization
    if normalization is None:
        normalization = REDUCTIO_DEFAULT_NORMALIZATION[args.model]
    rep = winding_report(_model(args), gauge=Gauge(args.gauge),
                         grid_size=args.grid,
                         lee_normalization=normalization)
    meta = {
        "command": "reductio", "model": rep.model_label,
        "gauge": args.gauge, "grid_size": args.grid,
        "lee_normalization": normalization,
    }
    columns = ["period_over_pi", "w", "w_lee",
               "w_is_integer", "w_lee_is_integer"]
    rows = [[rep.period / np.pi, rep.w, rep.w_lee,
             _near_integer(rep.w), _near_integer(rep.w_lee)]]
    return meta, columns, rows


def _cmd_chain(args: argparse.Namespace):
    spectrum = chain_spectrum(_model(args), args.n, Boundary(args.bc))
    meta = {
        "command": "chain", "model": spectrum.model.label,
        "n_cells": spectrum.n_cells, "bc": args.bc, "balancing": BALANCING,
        "max_abs_imag": spectrum.max_abs_imag, "gap": spectrum.gap,
        "midgap_threshold": spectrum.midgap_threshold,
        "excluded": ";".join(str(i) for i in spectrum.excluded),
        "defectiveness": spectrum.defectiveness,
    }
    columns = ["index", "eigenvalue", "ipr", "label"]
    rows = []
    for i, (e, p) in enumerate(zip(spectrum.eigenvalues, spectrum.iprs)):
        rows.append([i, complex(e), float(p), classify(float(p), spectrum.size)])
    return meta, columns, rows


def _cmd_localize(args: argparse.Namespace):
    spectrum = chain_spectrum(_model(args), args.n, Boundary(args.bc))
    profile = localization_profile(spectrum, side=args.side)
    meta = {
        "command": "localize", "model": spectrum.model.label,
        "n_cells": spectrum.n_cells, "bc": args.bc, "side": args.side,
        "balancing": BALANCING, "median_ipr": profile.median_ipr,
    }
    columns = ["state", "site", "probability", "ipr", "label"]
    rows = []
    n_states = profile.probabilities.shape[1]
    for i in range(n_states):
        p = float(profile.iprs[i])
        lab = profile.labels[i]
        for j, weight in enumerate(profile.probabilities[:, i]):
            rows.append([i, j, float(weight), p, lab])
    return meta, columns, rows


def _cmd_scan(args: argparse.Namespace):
    model = _model(args)
    open_rows = spectrum_scan(model, args.n_list, Boundary.OPEN)
    per_rows = spectrum_scan(model, args.n_list, Boundary.PERIODIC)
    meta = {
        "command": "scan", "model": model.label,
        "n_list": ";".join(str(n) for n in args.n_list),
        "balancing": BALANCING,
    }
    columns = ["n_cells", "max_abs_imag", "gap",
               "median_ipr_open", "median_ipr_periodic"]
    rows = [[o.n_cells, o.max_abs_imag, o.gap, o.median_ipr, p.median_ipr]
            for o, p in zip(open_rows, per_rows)]
    return meta, columns, rows


_DISPATCH = {
    "bands": _cmd_bands,
    "winding": _cmd_winding,
    "band-windings": _cmd_band_windings,
    "reductio": _cmd_reductio,
    "chain": _cmd_chain,
    "scan": _cmd_scan,
    "localize": _cmd_localize,
}


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def _render_csv(meta, columns, rows) -> str:
    cplx = [any(isinstance(row[i], complex) for row in rows)
            for i in range(len(columns))]
    header = []
    for i, name in enumerate(columns):
        header.extend([f"re_{name}", f"im_{name}"] if cplx[i] else [name])
    lines = [f"# {key}={_csv_cell(value)}" for key, value in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for i, value in enumerate(row):
            if cplx[i]:
                value = complex(value)
                cells.extend([_fmt_float(value.real), _fmt_float(value.imag)])
            else:
                cells.append(_csv_cell(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


def _json_cell(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


def _render_json(meta, columns, rows) -> str:
    payload = {
        "meta": {key: _json_cell(value) for key, value in meta.items()},
        "columns": list(columns),
        "rows": [[_json_cell(value) for value in row] for row in rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    # Like open(out, "w"), write through a symlink to its target
    # instead of replacing the link.  The file gets the mode open would
    # leave, not mkstemp's 0600: an existing target keeps its own, a new
    # one 0666 less the umask (which can only be read by setting it).
    path = os.path.realpath(out)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".nhwind-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhwind",
        description="Winding numbers and finite-chain spectra of "
                    "non-Hermitian two-band lattice models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--model", choices=("lee", "demo"), default="lee")
        p.add_argument("--v", type=float, default=0.52,
                       help="intra-cell hopping (lee only)")
        p.add_argument("--r", type=float, default=0.5,
                       help="inter-cell hopping (lee only)")
        p.add_argument("--gamma", type=float, default=1.0,
                       help="gain/loss strength (lee only)")

    def add_loop(p, default_gauge="transpose"):
        p.add_argument("--gauge", choices=("first", "second", "transpose"),
                       default=default_gauge)
        p.add_argument("--grid", type=int, default=8192,
                       help="samples per Brillouin zone (even, >= 64)")

    def add_out(p, default_fmt="csv"):
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default=default_fmt)
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")

    p = sub.add_parser("bands", help="tracked loop energies")
    add_model(p)
    add_loop(p)
    p.add_argument("--band", type=int, choices=(1, -1), default=1)
    add_out(p)

    p = sub.add_parser("winding", help="closed-loop winding number")
    add_model(p)
    add_loop(p)
    p.add_argument("--derivative", choices=("analytic", "fd4"),
                   default="analytic")
    p.add_argument("--lee-normalization", type=float, default=None)
    add_out(p, default_fmt="json")

    p = sub.add_parser("band-windings",
                       help="single-zone segment windings of both bands")
    add_model(p)
    add_loop(p)
    p.add_argument("--derivative", choices=("analytic", "fd4"),
                   default="analytic")
    add_out(p)

    p = sub.add_parser(
        "reductio",
        help="loop count vs per-zone normalized count, side by side")
    add_model(p)
    add_loop(p, default_gauge="first")
    p.add_argument("--lee-normalization", type=float, default=None,
                   help="per-zone constant (default: 0.5 for demo, "
                            "2.0 for lee)")
    add_out(p, default_fmt="json")

    p = sub.add_parser("chain", help="spectrum of one finite chain")
    add_model(p)
    p.add_argument("--n", type=int, default=30, help="unit cells")
    p.add_argument("--bc", choices=("open", "periodic"), default="open")
    add_out(p)

    p = sub.add_parser("scan", help="boundary sensitivity across sizes")
    add_model(p)
    p.add_argument("--n-list", dest="n_list", default="10,20,30",
                   help="comma-separated cell counts")
    add_out(p)

    p = sub.add_parser("localize",
                       help="site-resolved weights of every eigenstate")
    add_model(p)
    p.add_argument("--n", type=int, default=30, help="unit cells")
    p.add_argument("--bc", choices=("open", "periodic"), default="open")
    p.add_argument("--side", choices=("right", "left"), default="right")
    add_out(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check(args)
        meta, columns, rows = _DISPATCH[args.command](args)
        render = _render_csv if args.fmt == "csv" else _render_json
        _emit(render(meta, columns, rows), args.out)
        return 0
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))
    # Only the --out write touches the file system.
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
