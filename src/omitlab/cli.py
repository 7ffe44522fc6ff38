"""Command-line entry point.

Subcommands: spectrum, steady, dips, delay, delay-map, map2d, oracle,
defaults. Outputs are CSV tables (schemas in sweep/delay), a JSON run
manifest alongside every file output, and optional self-contained SVG plots;
`_run` writes all of them for every subcommand.

Exit codes: 0 success, 1 configuration/usage error, 2 numerical failure.

Unit conventions at this boundary: powers in W except the delay-map power
grid (mW, matching its CSV column); lengths in m; kappa in rad/s (config
files may use {"value", "unit"} wrappers, including Hz); detuning-like flags
(--delta, --delta-prime, --delta0) in units of omega_m.
"""

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import replace as dc_replace

import numpy as np

from . import __version__
from .delay import _classify, group_delay
from .errors import ConfigError, NumericalError
from .model import (FixedEffective, SelfConsistent, config_fingerprint,
                    config_from_json, config_to_dict, config_to_json,
                    default_config, derive_constants, effective_params)
from .oracle import _THRESHOLDS, oracle_check
from .steadystate import residual, solve_steady, steady_states
from .svgplot import heatmap_svg, line_svg
from .sweep import (_AXIS_NAMES, delay_map_csv, find_dips, map_csv,
                    spectrum_csv, spectrum_sweep, sweep_2d)
from .util import atomic_write

_KAPPA_NOTE = ("kappa default 2*pi*15e6 rad/s; the reference parameter list "
               "also quotes 15*pi*1e6 Hz, which contradicts its own "
               "kappa/omega_m = 0.187, so the ratio fixes the convention.")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# config fields that a flag of the same name (with "-" for "_") overrides
_OVERRIDES = (("P", float, "coupling power [W]"),
              ("P_p", float, "probe power [W]"),
              ("cav_len", float, "cavity length [m]"),
              ("kappa", float, "cavity decay rate [rad/s]"),
              ("Q1", float, "quality factor of mirror 1"),
              ("Q2", float, "quality factor of mirror 2"),
              ("omega_phi1", float, "mirror 1 frequency [rad/s]"),
              ("omega_phi2", float, "mirror 2 frequency [rad/s]"),
              ("L", int, "orbital angular momentum number"))


def _add_common(p, svg=False, branch=False):
    """--out, --config and the parameter overrides; --svg and --branch
    only for the subcommands that read them."""
    p.add_argument("--out", help="output file path")
    p.add_argument("--config", help="JSON config file (defaults to the reference point)")
    for field, type_, help_ in _OVERRIDES:
        p.add_argument("--" + field.replace("_", "-"), type=type_, default=None,
                       help=help_ + " (overrides config)")
    p.add_argument("--delta-prime", type=float, default=None,
                   help="fixed effective detuning [units of omega_m] (overrides config)")
    p.add_argument("--delta0", type=float, default=None,
                   help="bare detuning [units of omega_m], self-consistent mode")
    if svg:
        p.add_argument("--svg", action="store_true", help="also write an SVG plot")
    if branch:
        p.add_argument("--branch", type=int, default=0,
                       help="steady-state branch in self-consistent mode")


def _resolve_config(args):
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = config_from_json(fh.read())
        except OSError as e:
            raise ConfigError(f"cannot read config {args.config!r}: {e}")
    else:
        cfg = default_config()
    over = {f: getattr(args, f) for f, _, _ in _OVERRIDES if getattr(args, f) is not None}
    if over:
        cfg = dc_replace(cfg, **over)
    if args.delta_prime is not None and args.delta0 is not None:
        raise ConfigError("--delta-prime and --delta0 are mutually exclusive")
    if args.delta_prime is not None:
        cfg = dc_replace(cfg, detuning_mode=FixedEffective(args.delta_prime * cfg.omega_m))
    if args.delta0 is not None:
        cfg = dc_replace(cfg, detuning_mode=SelfConsistent(args.delta0 * cfg.omega_m))
    return cfg


def _json(obj):
    return json.dumps(obj, indent=2) + "\n"


def _write_manifest(args, cfg, outputs, t0, stats):
    manifest = {
        "subcommand": args.subcommand,
        "tool_version": __version__,
        "config": config_to_dict(cfg),
        "config_fingerprint": config_fingerprint(cfg),
        "outputs": [os.path.basename(p) for p in outputs],
        "duration_s": time.perf_counter() - t0,
        "stats": stats or {},
    }
    atomic_write(f"{os.path.splitext(outputs[0])[0]}.manifest.json", _json(manifest))


# Each _cmd_* takes the parsed args and the resolved config and writes
# nothing: it returns (stdout text, output file text, SVG text or None,
# manifest stats or None) for _run to write.

def _cmd_defaults(args, cfg):
    text = config_to_json(cfg, notes=_KAPPA_NOTE)
    return "" if args.out else text, text, None, None


def _cmd_steady(args, cfg):
    dc = derive_constants(cfg)
    states = steady_states(cfg)
    lines = [f"{'branch':>6} {'n':>22} {'Re_a0':>22} {'Im_a0':>22} "
             f"{'delta_prime/omega_m':>20} {'residual':>12}"]
    for s in states:
        resid = residual(cfg, dc, s.delta_prime, s.a0)
        lines.append(f"{s.branch_index:>6d} {s.n:>22.15e} {s.a0.real:>22.15e} "
                     f"{s.a0.imag:>22.15e} {s.delta_prime / cfg.omega_m:>20.15f} "
                     f"{resid:>12.3e}")
    text = "\n".join(lines) + "\n"
    return text, text, None, {"n_branches": len(states)}


def _spectrum_series(args, cfg):
    if args.delta_min >= args.delta_max:
        raise ConfigError("--delta-min must be below --delta-max")
    if args.points < 2:
        raise ConfigError("--points must be at least 2")
    grid = np.linspace(args.delta_min * cfg.omega_m,
                       args.delta_max * cfg.omega_m, args.points)
    return spectrum_sweep(cfg, grid, branch=args.branch)


def _cmd_spectrum(args, cfg):
    series = _spectrum_series(args, cfg)
    svg = line_svg(series.delta_grid / series.omega_m,
                   [("nu_p", series.nu_p), ("u_p", series.u_p)],
                   title="probe response", xlabel="Delta / omega_m",
                   ylabel="quadrature") if args.svg else None
    return "", spectrum_csv(series), svg, {"n_points": int(series.delta_grid.size)}


def _cmd_dips(args, cfg):
    series = _spectrum_series(args, cfg)
    rep = find_dips(series)
    om = series.omega_m
    text = f"dips: {rep.count}\n" + "".join(
        f"  at Delta/omega_m = {rep.positions[k] / om:.9f}  "
        f"nu_p = {rep.depths[k]:.6e}  width/omega_m = {rep.widths[k] / om:.6e}\n"
        for k in range(rep.count))
    payload = {
        "count": rep.count,
        "positions_over_omega_m": [p / om for p in rep.positions],
        "depths": list(map(float, rep.depths)),
        "widths_over_omega_m": [w / om for w in rep.widths],
    }
    return text, _json(payload), None, {"count": rep.count}


def _cmd_delay(args, cfg):
    ss = solve_steady(cfg, branch=args.branch)
    ep = effective_params(cfg, ss)
    h = args.fd_step * cfg.omega_m if args.fd_step is not None else None
    res = group_delay(ep, ss.a0, args.delta * cfg.omega_m,
                      method=args.method, h=h)
    text = (f"tau_g = {res.tau_g * 1e6:.9g} us  [{res.classification}]  "
            f"method={res.method}  |t_p|={res.t_p_magnitude:.6e}\n")
    payload = {"delta_over_omega_m": args.delta,
               "tau_g_us": res.tau_g * 1e6,
               "classification": res.classification,
               "method": res.method,
               "t_p_magnitude": res.t_p_magnitude}
    return text, _json(payload), None, None


def _cmd_delay_map(args, cfg):
    for name, n in (("--p-points", args.p_points), ("--l-points", args.l_points)):
        if n < 1:
            raise ConfigError(f"{name} must be >= 1")
    P_grid = np.linspace(args.p_start, args.p_stop, args.p_points) * 1e-3
    L_grid = np.linspace(args.l_start, args.l_stop, args.l_points)
    m = sweep_2d(cfg, ("P", P_grid), ("L", L_grid), observable="tau_g",
                 delta=args.delta * cfg.omega_m, branch=args.branch,
                 method=args.method)
    tau_us = m.values * 1e6
    finite = tau_us[np.isfinite(tau_us)]
    kinds = _classify(m.values)
    stats = {
        "max_abs_tau_g_us": float(np.max(np.abs(finite))) if finite.size else None,
        "min_tau_g_us": float(finite.min()) if finite.size else None,
        "max_tau_g_us": float(finite.max()) if finite.size else None,
        "n_slow": int(np.sum(kinds == "slow")),
        "n_fast": int(np.sum(kinds == "fast")),
        "n_error": int(np.count_nonzero(m.flags)),
    }
    svg = heatmap_svg(m.axis2_grid, m.axis1_grid * 1e3, tau_us, title="group delay [us]",
                      xlabel="L", ylabel="P [mW]") if args.svg else None
    return "", delay_map_csv(m), svg, stats


def _parse_axis_grid(spec_str, name):
    parts = spec_str.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{name} must be start:stop:points, got {spec_str!r}")
    try:
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"{name} must be start:stop:points, got {spec_str!r}")
    if n < 1:
        raise ConfigError(f"{name}: points must be >= 1")
    return np.linspace(start, stop, n)


def _cmd_map2d(args, cfg):
    disp1 = _parse_axis_grid(args.grid1, "--grid1")
    disp2 = _parse_axis_grid(args.grid2, "--grid2")
    g1 = disp1 * cfg.omega_m if args.axis1 == "Delta" else disp1
    g2 = disp2 * cfg.omega_m if args.axis2 == "Delta" else disp2
    delta = args.delta * cfg.omega_m if args.delta is not None else None
    m = sweep_2d(cfg, (args.axis1, g1), (args.axis2, g2),
                 observable=args.observable, delta=delta,
                 branch=args.branch)
    # the Delta axis is written in the units of the flag
    if args.axis1 == "Delta":
        m = dc_replace(m, axis1_grid=disp1)
    if args.axis2 == "Delta":
        m = dc_replace(m, axis2_grid=disp2)
    svg = heatmap_svg(m.axis2_grid, m.axis1_grid, m.values, title=f"{args.observable} map",
                      xlabel=args.axis2, ylabel=args.axis1) if args.svg else None
    return "", map_csv(m), svg, {"observable": args.observable}


def _cmd_oracle(args, cfg):
    rep = oracle_check(cfg, args.delta * cfg.omega_m)
    lines = [f"{'quantity':<12} {'rel_error':>12} {'threshold':>12}"]
    lines += [f"{name:<12} {getattr(rep, field):>12.3e} {thr:>12.0e}"
              for name, field, thr in _THRESHOLDS]
    lines += [f"fit residual {rep.fit_residual:.3e}",
              f"pass: {str(rep.passed).lower()}", json.dumps(rep.as_dict())]
    stats = {"pass": rep.passed, "fit_residual": rep.fit_residual,
             "rhs_evals": rep.rhs_evals,
             "newton_iterations": rep.newton_iterations,
             "floquet_max": rep.floquet_max}
    return "\n".join(lines) + "\n", _json(rep.as_dict()), None, stats


def _run(args):
    """Run one subcommand, then write its stdout and, when it has an output
    path, the output file, the SVG and the manifest. Every check and every
    computation comes first, so a run that fails writes no file."""
    t0 = time.perf_counter()
    outputs = [args.out] if args.out else []
    if getattr(args, "svg", False):
        outputs.append(f"{os.path.splitext(args.out)[0]}.svg")
        if outputs[1] == outputs[0]:
            raise ConfigError(f"--out {args.out!r} is also the path of its SVG")
    # the SVG and the manifest go beside the output
    if outputs and not os.path.isdir(os.path.dirname(outputs[0]) or "."):
        raise ConfigError(f"--out {args.out!r}: its directory does not exist")
    cfg = default_config() if args.subcommand == "defaults" else _resolve_config(args)
    stdout, text, svg, stats = args.func(args, cfg)
    sys.stdout.write(stdout)
    try:
        for path, body in zip(outputs, (text, svg)):
            atomic_write(path, body)
        if outputs:
            _write_manifest(args, cfg, outputs, t0, stats)
    except OSError as e:
        raise ConfigError(f"cannot write the outputs of --out {args.out!r}: "
                          f"{e.strerror or e}") from e
    return 0


def build_parser():
    p = _Parser(prog="omitlab",
                description="Double transparency windows and fast/slow light "
                            "of a rotational-mirror cavity")
    p.add_argument("--version", action="version", version=f"omitlab {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("defaults", help="print the reference config as JSON")
    sp.add_argument("--out", help="output file path")
    sp.set_defaults(func=_cmd_defaults)

    sp = sub.add_parser("steady", help="steady-state branch table")
    _add_common(sp)
    sp.set_defaults(func=_cmd_steady)

    for name, func, out, help_ in (
            ("spectrum", _cmd_spectrum, "spectrum.csv", "response spectrum CSV"),
            ("dips", _cmd_dips, None, "transparency dip report")):
        sp = sub.add_parser(name, help=help_)
        _add_common(sp, svg=name == "spectrum", branch=True)
        sp.add_argument("--delta-min", type=float, default=0.5,
                        help="grid start [units of omega_m]")
        sp.add_argument("--delta-max", type=float, default=1.5,
                        help="grid stop [units of omega_m]")
        sp.add_argument("--points", type=int, default=4001, help="grid size")
        sp.set_defaults(func=func, out=out)

    sp = sub.add_parser("delay", help="group delay at one detuning")
    _add_common(sp, branch=True)
    sp.add_argument("--delta", type=float, required=True,
                    help="detuning [units of omega_m]")
    sp.add_argument("--method", choices=("analytic", "fd"), default="analytic")
    sp.add_argument("--fd-step", type=float, default=None,
                    help="finite-difference step [units of omega_m], --method fd only")
    sp.set_defaults(func=_cmd_delay)

    sp = sub.add_parser("delay-map", help="group delay over a (P, L) grid")
    _add_common(sp, svg=True, branch=True)
    sp.add_argument("--p-start", type=float, default=0.000125, help="P grid start [mW]")
    sp.add_argument("--p-stop", type=float, default=0.005, help="P grid stop [mW]")
    sp.add_argument("--p-points", type=int, default=40)
    sp.add_argument("--l-start", type=float, default=0.0, help="L grid start")
    sp.add_argument("--l-stop", type=float, default=200.0, help="L grid stop")
    sp.add_argument("--l-points", type=int, default=40)
    sp.add_argument("--delta", type=float, default=1.1,
                    help="detuning [units of omega_m]")
    sp.add_argument("--method", choices=("analytic", "fd"), default="analytic")
    sp.set_defaults(func=_cmd_delay_map, out="delay_map.csv")

    sp = sub.add_parser("map2d", help="observable over two parameter axes")
    _add_common(sp, svg=True, branch=True)
    sp.add_argument("--axis1", required=True, choices=_AXIS_NAMES)
    sp.add_argument("--grid1", required=True, help="start:stop:points "
                    "(Delta in units of omega_m, others SI)")
    sp.add_argument("--axis2", required=True, choices=_AXIS_NAMES)
    sp.add_argument("--grid2", required=True, help="start:stop:points")
    sp.add_argument("--observable", choices=("nu_p", "tau_g"), default="nu_p")
    sp.add_argument("--delta", type=float, default=None,
                    help="fixed detuning [units of omega_m] when no Delta axis")
    sp.set_defaults(func=_cmd_map2d, out="map2d.csv")

    sp = sub.add_parser("oracle", help="time-domain vs closed-form check")
    _add_common(sp)
    sp.add_argument("--delta", type=float, default=1.0,
                    help="detuning [units of omega_m]")
    sp.set_defaults(func=_cmd_oracle)

    return p


# one parser per process, built by the first main() rather than at import:
# building it (about 135 add_argument calls) takes 3-5 ms, far longer than
# a parse
_parser = functools.lru_cache(maxsize=None)(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as e:
        sys.stderr.write(f"omitlab: error: {e}\n")
        return 1
    except NumericalError as e:
        sys.stderr.write(f"omitlab: numerical error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
