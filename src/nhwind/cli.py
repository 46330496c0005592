"""Command-line front end.

Subcommands cover the loop side (``bands``, ``winding``,
``band-windings``, ``reductio``) and the chain side (``chain``,
``scan``, ``localize``).  Tables default to CSV; the single-record
commands ``winding`` and ``reductio`` default to JSON.  Output is
written atomically when ``--out`` is given, and byte-deterministic for
fixed arguments: no timestamps, no environment-dependent content.

Exit codes:
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
from dataclasses import dataclass

import numpy as np

from .bloch import BlochModel, Defective, Gauge, GaugeSingular, demo, lee
from .berry import (AmbiguousTracking, NoClosure, band_winding, loop_period,
                    winding_report)
from .lattice import (BALANCING, Boundary, MatchFailure, chain_spectrum,
                      classify, localization_profile, spectrum_scan)

__all__ = ["RunConfig", "main"]

# Per-zone normalization constants reductio falls back to per model.
REDUCTIO_DEFAULT_NORMALIZATION = {"demo": 0.5, "lee": 2.0}


@dataclass(frozen=True)
class RunConfig:
    """Validated arguments of one invocation."""

    command: str
    model: str = "lee"
    v: float = 0.52
    r: float = 0.5
    gamma: float = 1.0
    gauge: str = "transpose"
    grid: int = 8192
    band: int = 1
    derivative: str = "analytic"
    n: int = 30
    bc: str = "open"
    side: str = "right"
    n_list: tuple[int, ...] = (10, 20, 30)
    lee_normalization: float | None = None
    fmt: str = "csv"
    out: str | None = None

    def __post_init__(self) -> None:
        if self.model not in ("lee", "demo"):
            raise ValueError(f"unknown model {self.model!r}")
        for name in ("v", "r", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"--{name} must be finite")
        if self.gauge not in ("first", "second", "transpose"):
            raise ValueError(f"unknown gauge {self.gauge!r}")
        if self.grid < 64 or self.grid % 2:
            raise ValueError(
                f"--grid must be even and >= 64, got {self.grid}")
        if self.band not in (1, -1):
            raise ValueError(f"--band must be 1 or -1, got {self.band}")
        if self.derivative not in ("analytic", "fd4"):
            raise ValueError(f"unknown derivative {self.derivative!r}")
        if self.n < 1:
            raise ValueError(f"--n must be >= 1, got {self.n}")
        if self.bc not in ("open", "periodic"):
            raise ValueError(f"unknown boundary {self.bc!r}")
        if self.side not in ("right", "left"):
            raise ValueError(f"unknown side {self.side!r}")
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ValueError("--n-list needs positive cell counts")
        if self.lee_normalization is not None and (
                self.lee_normalization == 0
                or not np.isfinite(self.lee_normalization)):
            raise ValueError("--lee-normalization must be finite and nonzero")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")

    def bloch_model(self) -> BlochModel:
        if self.model == "demo":
            return demo()
        return lee(self.v, self.r, self.gamma)

    def gauge_enum(self) -> Gauge:
        return Gauge(self.gauge)


def _cmd_bands(cfg: RunConfig):
    traj = loop_period(cfg.bloch_model(), grid_size=cfg.grid,
                       gauge=cfg.gauge_enum(), start_band=cfg.band)
    meta = {
        "command": "bands", "model": traj.model.label, "gauge": cfg.gauge,
        "grid_size": cfg.grid, "start_band": cfg.band,
        "period_over_pi": traj.period / np.pi,
        "closure_error": traj.closure_error,
    }
    columns = ["k", "energy", "energy_other"]
    rows = [[float(k), complex(e), complex(o)]
            for k, e, o in zip(traj.k_grid, traj.energies,
                               traj.energies_other)]
    return meta, columns, rows


def _cmd_winding(cfg: RunConfig):
    rep = winding_report(cfg.bloch_model(), gauge=cfg.gauge_enum(),
                         grid_size=cfg.grid,
                         lee_normalization=cfg.lee_normalization,
                         derivative=cfg.derivative)
    meta = {
        "command": "winding", "model": rep.model_label, "gauge": cfg.gauge,
        "grid_size": cfg.grid, "derivative": cfg.derivative,
    }
    columns = ["period_over_pi", "raw_integral", "gamma_b", "w"]
    row = [rep.period / np.pi, rep.raw_integral, rep.gamma_b, rep.w]
    if rep.lee_normalization is not None:
        columns += ["lee_normalization", "w_lee"]
        row += [rep.lee_normalization, rep.w_lee]
    return meta, columns, [row]


def _cmd_band_windings(cfg: RunConfig):
    model = cfg.bloch_model()
    w_plus = band_winding(model, band=+1, gauge=cfg.gauge_enum(),
                          grid_size=cfg.grid, derivative=cfg.derivative)
    w_minus = band_winding(model, band=-1, gauge=cfg.gauge_enum(),
                           grid_size=cfg.grid, derivative=cfg.derivative)
    meta = {
        "command": "band-windings", "model": model.label,
        "gauge": cfg.gauge, "grid_size": cfg.grid,
        "derivative": cfg.derivative,
    }
    columns = ["band", "winding"]
    rows = [["plus", w_plus], ["minus", w_minus], ["sum", w_plus + w_minus]]
    return meta, columns, rows


def _near_integer(w: complex) -> int:
    return int(abs(w.imag) <= 1e-6 and abs(w.real - round(w.real)) <= 1e-6)


def _cmd_reductio(cfg: RunConfig):
    """Loop count vs per-zone count, side by side.

    Normalizing the phase per Brillouin zone instead of per closed loop
    multiplies the count by (loop period) / (2 pi * normalization); the
    flag columns record which of the two is still an integer.
    """
    normalization = cfg.lee_normalization
    if normalization is None:
        normalization = REDUCTIO_DEFAULT_NORMALIZATION[cfg.model]
    rep = winding_report(cfg.bloch_model(), gauge=cfg.gauge_enum(),
                         grid_size=cfg.grid,
                         lee_normalization=normalization)
    meta = {
        "command": "reductio", "model": rep.model_label,
        "gauge": cfg.gauge, "grid_size": cfg.grid,
        "lee_normalization": normalization,
    }
    columns = ["period_over_pi", "w", "w_lee",
               "w_is_integer", "w_lee_is_integer"]
    rows = [[rep.period / np.pi, rep.w, rep.w_lee,
             _near_integer(rep.w), _near_integer(rep.w_lee)]]
    return meta, columns, rows


def _cmd_chain(cfg: RunConfig):
    spectrum = chain_spectrum(cfg.bloch_model(), cfg.n, Boundary(cfg.bc))
    meta = {
        "command": "chain", "model": spectrum.model.label,
        "n_cells": spectrum.n_cells, "bc": cfg.bc, "balancing": BALANCING,
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


def _cmd_localize(cfg: RunConfig):
    spectrum = chain_spectrum(cfg.bloch_model(), cfg.n, Boundary(cfg.bc))
    profile = localization_profile(spectrum, side=cfg.side)
    meta = {
        "command": "localize", "model": spectrum.model.label,
        "n_cells": spectrum.n_cells, "bc": cfg.bc, "side": cfg.side,
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


def _cmd_scan(cfg: RunConfig):
    model = cfg.bloch_model()
    open_rows = spectrum_scan(model, cfg.n_list, Boundary.OPEN)
    per_rows = spectrum_scan(model, cfg.n_list, Boundary.PERIODIC)
    meta = {
        "command": "scan", "model": model.label,
        "n_list": ";".join(str(n) for n in cfg.n_list),
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
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, complex):
        return f"{_fmt_float(value.real)}{value.imag:+.17g}j"
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {"command": args.command}
    for name in ("model", "v", "r", "gamma", "gauge", "grid", "band",
                 "derivative", "n", "bc", "side", "lee_normalization",
                 "fmt", "out"):
        if hasattr(args, name):
            fields[name] = getattr(args, name)
    if hasattr(args, "n_list"):
        try:
            fields["n_list"] = tuple(
                int(part) for part in str(args.n_list).split(",") if part)
        except ValueError as exc:
            raise ValueError(f"bad --n-list {args.n_list!r}") from exc
    return RunConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        meta, columns, rows = _DISPATCH[cfg.command](cfg)
        render = _render_csv if cfg.fmt == "csv" else _render_json
        _emit(render(meta, columns, rows), cfg.out)
        return 0
    except GaugeSingular as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AmbiguousTracking as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NoClosure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    # LinAlgError subclasses ValueError, so solver failures must be
    # mapped before the generic usage branch.
    except (Defective, MatchFailure, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Only the --out write touches the file system.
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
