"""Reference checks on one operation's outputs.

Every number the benchmark checks is recomputed through a route the package
already has and that shares no algebra with the program's output path:

- nu_p / u_p against the raw 10x10 ``sideband_linear_solve``, within 1e-10
  of |eps_T| (the tolerance of acceptance criterion 2);
- tau_g against ``group_delay(method="fd")``, within 1e-6 relative (the
  tolerance of acceptance criterion 7), with the step set to a thousandth
  of the narrower mirror linewidth. The default step, 1e-6 omega_m, is
  about a tenth of that linewidth at Q ~ 1e5; where a map sits on a mirror
  resonance (the delay map's Delta = 1.1 omega_m = omega_phi1) its
  Richardson pair then disagrees on about half the cells and misses the
  analytic delay by up to 2e-6 on others, while the narrower step agrees
  to better than 1e-7.

An operation fails when it exits nonzero, when an output or its manifest is
missing or unparseable, when a table's row count differs from its grid, when
a sampled value deviates from its reference, or when an oracle report says
``pass: false``. Rows the program flags are counted, not failed; rows where
the reference itself raises are counted as unchecked.
"""

import csv
import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace

from omitlab import (NumericalError, OmitlabError, config_from_dict,
                     default_delta_grid, effective_params, group_delay,
                     sideband_linear_solve, solve_steady)
from omitlab.cli import build_parser

LINEAR_SOLVE_RTOL = 1e-10
FD_RTOL = 1e-6
FD_STEP_PER_LINEWIDTH = 1e-3
SAMPLES = 100


class CheckFailed(Exception):
    """An output is missing, unparseable or wrong."""


@dataclass
class Outcome:
    """What the checks found in one operation's outputs.

    ``problems`` lists wrong or missing outputs. ``verdict_false`` is an
    oracle report that says ``pass: false``: the operation fails, but its
    output is a faithful report, so it does not make the run incorrect.
    """

    problems: list = field(default_factory=list)
    verdict_false: bool = False
    points: int = 0
    flagged: int = 0
    checked: int = 0
    unchecked: int = 0
    ref_max_rel_err: float = 0.0
    fd_max_rel_err: float = 0.0
    a0_rel_err: object = None

    @property
    def failed(self):
        return bool(self.problems) or self.verdict_false


def check(argv, opdir, returncode, rng):
    """Outcome of the operation ``argv`` that ran in ``opdir``.

    ``rng`` picks which rows are compared with the references; the first
    data row is always among them.
    """
    out = Outcome()
    if returncode != 0:
        out.problems.append(f"exit status {returncode}")
        return out
    args = build_parser().parse_args(argv)
    try:
        _CHECKERS[args.subcommand](args, opdir, out, rng)
    except CheckFailed as e:
        out.problems.append(str(e))
    return out


def _read(opdir, name):
    try:
        with open(os.path.join(opdir, name)) as fh:
            return fh.read()
    except OSError:
        raise CheckFailed(f"missing output {name}")


def _json(opdir, name):
    try:
        return json.loads(_read(opdir, name))
    except ValueError as e:
        raise CheckFailed(f"unparseable {name}: {e}")


def _manifest_config(opdir, out_name):
    name = os.path.splitext(out_name)[0] + ".manifest.json"
    manifest = _json(opdir, name)
    try:
        return config_from_dict(manifest["config"])
    except (KeyError, TypeError, OmitlabError) as e:
        raise CheckFailed(f"unparseable {name}: {e!r}")


def _svg(opdir, out_name):
    name = os.path.splitext(out_name)[0] + ".svg"
    try:
        root = ET.fromstring(_read(opdir, name))
    except ET.ParseError as e:
        raise CheckFailed(f"unparseable {name}: {e}")
    if not root.tag.endswith("svg"):
        raise CheckFailed(f"{name} is not an SVG document")


def _table(opdir, name, n_cols, numeric_cols, n_rows):
    """Data rows of a CSV, numeric columns as floats; checks the shape."""
    rows = list(csv.reader(_read(opdir, name).splitlines()))
    if not rows or len(rows[0]) != n_cols:
        raise CheckFailed(f"{name}: bad header")
    body = rows[1:]
    if len(body) != n_rows:
        raise CheckFailed(f"{name}: {len(body)} rows, grid has {n_rows}")
    for i, row in enumerate(body):
        if len(row) != n_cols:
            raise CheckFailed(f"{name}: row {i} has {len(row)} cells")
        try:
            for c in numeric_cols:
                row[c] = float(row[c])
        except ValueError:
            raise CheckFailed(f"{name}: row {i} has an unparseable value")
    return body


def _sample(n, rng):
    return [0] + rng.sample(range(1, n), min(SAMPLES, n) - 1) if n else []


def _compare_linear_solve(out, what, ep, a0, delta, nu, u=None):
    """nu (and u) against 2 kappa a_plus from the 10x10 solve."""
    try:
        eps_T = 2.0 * ep.kappa * sideband_linear_solve(ep, a0, delta).a_plus
    except NumericalError:
        out.unchecked += 1
        return
    err = abs(nu - eps_T.real)
    if u is not None:
        err = max(err, abs(u - eps_T.imag))
    rel = err / max(abs(eps_T), 1e-300)
    out.checked += 1
    out.ref_max_rel_err = max(out.ref_max_rel_err, rel)
    if not rel <= LINEAR_SOLVE_RTOL:
        raise CheckFailed(f"{what}: deviates from the linear solve by "
                          f"{rel:.3e} of |eps_T|")


def _compare_fd(out, what, ep, a0, delta, tau_g):
    """tau_g [s] against the Richardson finite difference."""
    try:
        h = FD_STEP_PER_LINEWIDTH * min(ep.gamma1, ep.gamma2)
        ref = group_delay(ep, a0, delta, method="fd", h=h).tau_g
    except NumericalError:
        out.unchecked += 1
        return
    rel = abs(tau_g - ref) / max(abs(ref), 1e-300)
    out.checked += 1
    out.fd_max_rel_err = max(out.fd_max_rel_err, rel)
    if not rel <= FD_RTOL:
        raise CheckFailed(f"{what}: tau_g deviates from the finite "
                          f"difference by {rel:.3e} relative")


def _steady(cfg, branch=0):
    ss = solve_steady(cfg, branch=branch)
    return ss, effective_params(cfg, ss)


def _check_spectrum(args, opdir, out, rng):
    cfg = _manifest_config(opdir, args.out)
    ss, ep = _steady(cfg, args.branch)
    # the workloads run at the default grid, so its size is the expected count
    n = default_delta_grid(ep).size
    rows = _table(opdir, args.out, 6, (0, 1, 2, 3, 4), n)
    out.points = n
    out.flagged = sum(1 for r in rows if r[5])
    for i in _sample(n, rng):
        x, nu, u, _, _, flag = rows[i]
        if not flag:
            _compare_linear_solve(out, f"{args.out} row {i}", ep, ss.a0,
                                  x * cfg.omega_m, nu, u)
    if args.svg:
        _svg(opdir, args.out)


def _check_dips(args, opdir, out, rng):
    cfg = _manifest_config(opdir, args.out)
    _, ep = _steady(cfg, args.branch)
    rep = _json(opdir, args.out)
    try:
        count = rep["count"]
        cols = [rep[k] for k in ("positions_over_omega_m", "depths",
                                 "widths_over_omega_m")]
        ok = all(len(c) == count and all(math.isfinite(v) for v in c)
                 for c in cols)
    except (KeyError, TypeError) as e:
        raise CheckFailed(f"unparseable {args.out}: {e!r}")
    if not ok:
        raise CheckFailed(f"{args.out}: dip lists disagree with count {count}")
    out.points = default_delta_grid(ep).size


def _grid_size(spec):
    return int(spec.split(":")[2])


def _check_map2d(args, opdir, out, rng):
    cfg = _manifest_config(opdir, args.out)
    n = _grid_size(args.grid1) * _grid_size(args.grid2)
    rows = _table(opdir, args.out, 4, (0, 1, 2), n)
    out.points = n
    out.flagged = sum(1 for r in rows if r[3])
    om = cfg.omega_m
    for i in _sample(n, rng):
        v1, v2, value, flag = rows[i]
        if flag:
            continue
        c, delta = cfg, None if args.delta is None else args.delta * om
        for name, v in ((args.axis1, v1), (args.axis2, v2)):
            if name == "Delta":
                delta = v * om
            elif name == "L":
                c = replace(c, L=int(round(v)))
            else:
                c = replace(c, **{name: v})
        what = f"{args.out} row {i}"
        try:
            ss, ep = _steady(c, args.branch)
        except NumericalError:
            out.unchecked += 1
            continue
        if args.observable == "nu_p":
            _compare_linear_solve(out, what, ep, ss.a0, delta, value)
        else:
            _compare_fd(out, what, ep, ss.a0, delta, value)
    if args.svg:
        _svg(opdir, args.out)


def _check_delay_map(args, opdir, out, rng):
    cfg = _manifest_config(opdir, args.out)
    n = args.p_points * args.l_points
    rows = _table(opdir, args.out, 5, (0, 1, 2), n)
    out.points = n
    out.flagged = sum(1 for r in rows if r[4])
    delta = args.delta * cfg.omega_m
    for i in _sample(n, rng):
        p_mw, L, tau_us, _, flag = rows[i]
        if flag:
            continue
        try:
            ss, ep = _steady(replace(cfg, P=p_mw * 1e-3, L=int(L)))
        except NumericalError:
            out.unchecked += 1
            continue
        _compare_fd(out, f"{args.out} row {i}", ep, ss.a0, delta,
                    tau_us * 1e-6)
    if args.svg:
        _svg(opdir, args.out)


def _check_oracle(args, opdir, out, rng):
    _manifest_config(opdir, args.out)
    rep = _json(opdir, args.out)
    passed = rep.get("pass") if isinstance(rep, dict) else None
    if not isinstance(passed, bool):
        raise CheckFailed(f"{args.out}: no boolean 'pass'")
    try:
        out.a0_rel_err = float(rep["a0_rel_err"])
    except (KeyError, TypeError, ValueError):
        raise CheckFailed(f"{args.out}: no a0_rel_err")
    out.points = 1
    out.verdict_false = not passed


_CHECKERS = {
    "spectrum": _check_spectrum,
    "dips": _check_dips,
    "map2d": _check_map2d,
    "delay-map": _check_delay_map,
    "oracle": _check_oracle,
}
