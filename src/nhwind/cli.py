"""Command-line front end.

Subcommands cover the loop side (``bands``, ``winding``,
``band-windings``, ``reductio``) and the chain side (``chain``,
``scan``, ``localize``).  Tables default to CSV; the single-record
commands ``winding`` and ``reductio`` default to JSON.  Output is
written atomically when ``--out`` is given, and byte-deterministic for
fixed arguments: no timestamps, no environment-dependent content.

Each subparser names its handler (``set_defaults(run=_cmd_...)``), and
every handler returns ``(meta, table)``: ``meta`` an ordered dict of
scalars, ``table`` an ordered ``{column name: array}`` whose columns
all have one length (a single-record command gives one-element
columns).  The two renderers read the table column by column, and a
column's dtype alone decides its form: complex columns become
``re_``/``im_`` pairs in CSV and ``{"re", "im"}`` cells in JSON, floats
print as ``%.17g``, integers as integers.

The CLI calls the library's checks instead of restating them.  Each
``choices=`` list is read from the library name list it offers
(``Gauge`` less its library-only ``smooth``, ``Band``, ``Boundary``,
``lattice.SIDES``); the parser refuses unknown names and exits 2
itself.  :func:`_check` refuses the values a choices list cannot
express by calling the library's own check with the flag's name, so
the message is the library's: a non-finite ``--v/--r/--gamma``, an odd
or coarse ``--grid``, ``--n`` below 1 and a zero or non-finite
``--lee-normalization``.  Only a malformed or non-positive
``--n-list`` is the CLI's own refusal.  The handlers read the parsed
namespace directly.

Exit codes come from ``_EXIT_CODES``, which maps each refusal class to
its code in order; the first class the error is an instance of wins.
An unwritable ``--out`` path exits 2 with its own message.
    0  success
    2  usage or validation error
    3  gauge singularity (including connection poles between grid
       points)
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

from .bloch import (BlochModel, Defective, Gauge, GaugeSingular,
                    _check_finite, demo, lee)
from .berry import (DERIVATIVE, INTEGER_TOL, AmbiguousTracking, Band,
                    NoClosure, _check_normalization, _zone_step, band_winding,
                    loop_period, winding_report)
from .lattice import (BALANCING, SIDES, Boundary, MatchFailure, _check_cells,
                      chain_spectrum, classify, localization_profile,
                      spectrum_scan)

__all__ = ["main"]

# Per-zone normalization constants reductio falls back to per model.
REDUCTIO_DEFAULT_NORMALIZATION = {"demo": 0.5, "lee": 2.0}
# --gauge offers every gauge but the smooth one, which is library only
# (README, "Numerical conventions").
GAUGE_CHOICES = tuple(g.value for g in Gauge if g is not Gauge.SMOOTH)
# Exit code per refusal class; the first class that matches wins.
# LinAlgError subclasses ValueError, so solver failures must come before
# the generic usage code.
_EXIT_CODES = {GaugeSingular: 3, AmbiguousTracking: 4, NoClosure: 5,
               Defective: 6, MatchFailure: 6, np.linalg.LinAlgError: 6,
               ValueError: 2}


def _check(args: argparse.Namespace) -> None:
    """Refuse the flag values ``choices=`` cannot express, by the
    library's own checks named after the flag, and parse ``--n-list``
    into a tuple of cell counts in place."""
    if hasattr(args, "n_list"):
        try:
            args.n_list = tuple(
                int(part) for part in args.n_list.split(",") if part)
        except ValueError as exc:
            raise ValueError(f"bad --n-list {args.n_list!r}") from exc
    for name in ("v", "r", "gamma"):
        _check_finite(getattr(args, name), f"--{name}")
    _zone_step(getattr(args, "grid", 64), "--grid")
    _check_cells(getattr(args, "n", 1), "--n")
    n_list = getattr(args, "n_list", (1,))
    if not n_list or min(n_list) < 1:
        raise ValueError("--n-list needs positive cell counts")
    if getattr(args, "lee_normalization", None) is not None:
        _check_normalization(args.lee_normalization, "--lee-normalization")


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
    return meta, {"k": traj.k_grid, "energy": traj.energies,
                  "energy_other": traj.energies_other}


def _cmd_winding(args: argparse.Namespace):
    rep = winding_report(_model(args), gauge=Gauge(args.gauge),
                         grid_size=args.grid,
                         lee_normalization=args.lee_normalization)
    meta = {
        "command": "winding", "model": rep.model_label, "gauge": args.gauge,
        "grid_size": args.grid, "derivative": DERIVATIVE,
    }
    table = {"period_over_pi": [rep.period / np.pi],
             "raw_integral": [rep.raw_integral], "gamma_b": [rep.gamma_b],
             "w": [rep.w]}
    if rep.lee_normalization is not None:
        table.update(lee_normalization=[rep.lee_normalization],
                     w_lee=[rep.w_lee])
    return meta, table


def _cmd_band_windings(args: argparse.Namespace):
    model = _model(args)
    w_plus, w_minus = (band_winding(model, band, Gauge(args.gauge), args.grid)
                       for band in Band)
    meta = {
        "command": "band-windings", "model": model.label,
        "gauge": args.gauge, "grid_size": args.grid,
        "derivative": DERIVATIVE,
    }
    return meta, {"band": ["plus", "minus", "sum"],
                  "winding": [w_plus, w_minus, w_plus + w_minus]}


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
    return meta, {"period_over_pi": [rep.period / np.pi], "w": [rep.w],
                  "w_lee": [rep.w_lee],
                  "w_is_integer": [_near_integer(rep.w)],
                  "w_lee_is_integer": [_near_integer(rep.w_lee)]}


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
    iprs = spectrum.iprs
    return meta, {"index": np.arange(iprs.size),
                  "eigenvalue": spectrum.eigenvalues, "ipr": iprs,
                  "label": [classify(p, spectrum.size)
                            for p in iprs.tolist()]}


def _cmd_localize(args: argparse.Namespace):
    spectrum = chain_spectrum(_model(args), args.n, Boundary(args.bc))
    profile = localization_profile(spectrum, side=args.side)
    meta = {
        "command": "localize", "model": spectrum.model.label,
        "n_cells": spectrum.n_cells, "bc": args.bc, "side": args.side,
        "balancing": BALANCING, "median_ipr": profile.median_ipr,
    }
    # State-major: every site of state 0, then of state 1, and so on.
    n_sites, n_states = profile.probabilities.shape
    return meta, {"state": np.repeat(np.arange(n_states), n_sites),
                  "site": np.tile(np.arange(n_sites), n_states),
                  "probability": profile.probabilities.T.ravel(),
                  "ipr": np.repeat(profile.iprs, n_sites),
                  "label": np.repeat(profile.labels, n_sites)}


def _cmd_scan(args: argparse.Namespace):
    model = _model(args)
    open_rows = spectrum_scan(model, args.n_list, Boundary.OPEN)
    per_rows = spectrum_scan(model, args.n_list, Boundary.PERIODIC)
    meta = {
        "command": "scan", "model": model.label,
        "n_list": ";".join(str(n) for n in args.n_list),
        "balancing": BALANCING,
    }
    table = {name: [getattr(row, name) for row in open_rows]
             for name in ("n_cells", "max_abs_imag", "gap")}
    table["median_ipr_open"] = [row.median_ipr for row in open_rows]
    table["median_ipr_periodic"] = [row.median_ipr for row in per_rows]
    return meta, table


# CSV cell format per numpy dtype kind; complex columns take two cells.
_CSV_FORMATS = {"f": "%.17g", "c": "%.17g,%.17g", "i": "%d"}


def _meta_cell(value) -> str:
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def _render_csv(meta, table) -> str:
    header, formats, cells = [], [], []
    for name, column in table.items():
        column = np.asarray(column)
        kind = column.dtype.kind
        formats.append(_CSV_FORMATS.get(kind, "%s"))
        if kind == "c":
            header += [f"re_{name}", f"im_{name}"]
            cells += [column.real.tolist(), column.imag.tolist()]
        else:
            header.append(name)
            cells.append(column.tolist())
    row = ",".join(formats)
    lines = [f"# {key}={_meta_cell(value)}" for key, value in meta.items()]
    lines.append(",".join(header))
    lines.extend(row % values for values in zip(*cells))
    return "\n".join(lines) + "\n"


def _render_json(meta, table) -> str:
    cells = []
    for column in map(np.asarray, table.values()):
        values = column.tolist()
        if column.dtype.kind == "c":
            values = [{"re": z.real, "im": z.imag} for z in values]
        cells.append(values)
    payload = {"meta": meta, "columns": list(table),
               "rows": list(zip(*cells))}
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
        p.add_argument("--gauge", choices=GAUGE_CHOICES,
                       default=default_gauge)
        p.add_argument("--grid", type=int, default=8192,
                       help="samples per Brillouin zone (even, >= 64)")

    def add_chain(p):
        p.add_argument("--n", type=int, default=30, help="unit cells")
        p.add_argument("--bc", choices=[b.value for b in Boundary],
                       default="open")

    def add_out(p, default_fmt="csv"):
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default=default_fmt)
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")

    p = sub.add_parser("bands", help="tracked loop energies")
    add_model(p)
    add_loop(p)
    p.add_argument("--band", type=int, choices=[*map(int, Band)], default=1)
    add_out(p)
    p.set_defaults(run=_cmd_bands)

    p = sub.add_parser("winding", help="closed-loop winding number")
    add_model(p)
    add_loop(p)
    p.add_argument("--lee-normalization", type=float, default=None)
    add_out(p, default_fmt="json")
    p.set_defaults(run=_cmd_winding)

    p = sub.add_parser("band-windings",
                       help="single-zone segment windings of both bands")
    add_model(p)
    add_loop(p)
    add_out(p)
    p.set_defaults(run=_cmd_band_windings)

    p = sub.add_parser(
        "reductio",
        help="loop count vs per-zone normalized count, side by side")
    add_model(p)
    add_loop(p, default_gauge="first")
    defaults = ", ".join(f"{value} for {model}" for model, value
                         in REDUCTIO_DEFAULT_NORMALIZATION.items())
    p.add_argument("--lee-normalization", type=float, default=None,
                   help=f"per-zone constant (default: {defaults})")
    add_out(p, default_fmt="json")
    p.set_defaults(run=_cmd_reductio)

    p = sub.add_parser("chain", help="spectrum of one finite chain")
    add_model(p)
    add_chain(p)
    add_out(p)
    p.set_defaults(run=_cmd_chain)

    p = sub.add_parser("scan", help="boundary sensitivity across sizes")
    add_model(p)
    p.add_argument("--n-list", dest="n_list", default="10,20,30",
                   help="comma-separated cell counts")
    add_out(p)
    p.set_defaults(run=_cmd_scan)

    p = sub.add_parser("localize",
                       help="site-resolved weights of every eigenstate")
    add_model(p)
    add_chain(p)
    p.add_argument("--side", choices=SIDES, default="right")
    add_out(p)
    p.set_defaults(run=_cmd_localize)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check(args)
        meta, table = args.run(args)
        render = _render_csv if args.fmt == "csv" else _render_json
        _emit(render(meta, table), args.out)
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
