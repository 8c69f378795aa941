"""Command-line front end: config in, CSV out.

Every command reads a converter config file, runs one analysis, and emits
a CSV table (stdout by default, ``--out FILE`` otherwise) with a header
row naming each column.  Numbers carry 17 significant digits so doubles
round-trip; identical inputs produce byte-identical output.

Exit codes::

    0  success
    1  usage error (bad flags or arguments)
    2  config error (unreadable, malformed, or unsuitable model)
    3  no periodic orbit: switching saturated or orbit degenerate
    4  singular condition: grazing, pole hit, or singular matrix
    5  iteration failure: non-convergence or simulation divergence
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import buck as buck_mod
from . import sim as sim_mod
from . import stability
from .config import build, parse_config
from .errors import (
    ConfigError,
    DegenerateOrbitError,
    DimensionError,
    DivergenceError,
    DomainError,
    GrazingError,
    NoConvergenceError,
    NoSwitchingError,
    OracleInvalidError,
    PwmStabError,
    SingularMatrixError,
)
from .model import ModulationEdge, switch_time_of_duty
from .steadystate import solve_periodic_orbit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NO_ORBIT = 3
EXIT_SINGULAR = 4
EXIT_NO_CONVERGENCE = 5


class UsageError(PwmStabError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; route through our contract.
    def error(self, message):
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _emit(header, rows, args) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not args.quiet:
        dest = args.out if args.out else "stdout"
        print(f"{len(rows)} rows -> {dest}", file=sys.stderr)


def _load(args):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {args.config}: {exc.strerror}")
    return build(parse_config(text))


def _orbit(model, ramp, u, solver):
    return solve_periodic_orbit(
        model, ramp, u, grid_points=solver.grid_points, d_tol=solver.d_tol
    )


def _duty_grid(args):
    if args.dmin >= args.dmax:
        raise UsageError(f"sweep needs dmin < dmax, got [{args.dmin}, {args.dmax}]")
    if args.points < 2:
        raise UsageError(f"sweep needs points >= 2, got {args.points}")
    return np.linspace(args.dmin, args.dmax, args.points)


def cmd_steady(args) -> None:
    model, ramp, u, solver = _load(args)
    ss = _orbit(model, ramp, u, solver)
    header = ["d_seconds", "duty", "y_switch_volts", "candidates"]
    header += [f"x0_start_{i}" for i in range(model.n)]
    header += [f"x0_switch_{i}" for i in range(model.n)]
    row = [ss.d, ss.duty, ss.y_switch, ss.candidates]
    row += list(ss.x0_start) + list(ss.x0_switch)
    _emit(header, [row], args)


def cmd_eigs(args) -> None:
    model, ramp, u, solver = _load(args)
    ss = _orbit(model, ramp, u, solver)
    jd = stability.jacobian(model, ramp, u, ss)
    report = stability.classify(jd, class_tol=solver.class_tol)
    header = ["index", "re", "im", "modulus", "spectral_radius", "classification"]
    rows = [
        [i, lam.real, lam.imag, abs(lam), report.spectral_radius,
         report.classification.value]
        for i, lam in enumerate(report.eigenvalues)
    ]
    _emit(header, rows, args)


def cmd_sweep_vs(args) -> None:
    model, ramp, u, solver = _load(args)
    plant = buck_mod.make_buck_plant(model, ramp)
    critical = (
        buck_mod.vs_critical_tem
        if model.edge is ModulationEdge.TEM
        else buck_mod.vs_critical_lem
    )
    hdot = ramp.slope
    rows = []
    for duty in _duty_grid(args):
        vs = critical(plant, duty)
        check = (
            abs(buck_mod.buck_pdb_residual(plant, duty, vs, model.edge)) / hdot
            if math.isfinite(vs) else math.nan
        )
        rows.append([duty, vs, check])
    _emit(["duty", "vs_critical_volts", "residual_check"], rows, args)


def _parse_complex_flag(raw: str) -> complex:
    parts = raw.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected 're,im', got {raw!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise UsageError(f"expected 're,im' numbers, got {raw!r}")


def _curve_rows(curve):
    rows = []
    for sample in curve.samples:
        if sample.singular:
            rows.append([sample.parameter, math.nan, math.nan, 1])
        else:
            rows.append(
                [sample.parameter, sample.value.real, sample.value.imag, 0]
            )
    return rows


def cmd_splot(args) -> None:
    model, ramp, u, solver = _load(args)
    lam = _parse_complex_flag(args.lam)
    curve = stability.s_plot(model, ramp, u, lam, _duty_grid(args))
    rows = _curve_rows(curve)
    hdot = ramp.slope
    header = [
        "duty",
        "s_real_volts_per_second",
        "s_imag_volts_per_second",
        "singular",
        "ramp_slope_volts_per_second",
    ]
    _emit(header, [r + [hdot] for r in rows], args)


def cmd_fplot(args) -> None:
    model, ramp, u, solver = _load(args)
    ss = _orbit(model, ramp, u, solver)
    thetas = np.linspace(-math.pi, math.pi, args.points + 1)[1:]
    curve = stability.f_plot(model, ramp, u, ss, thetas)
    rows = _curve_rows(curve)
    header = [
        "theta_radians",
        "f_real_volts_per_second",
        "f_imag_volts_per_second",
        "singular",
        "ramp_slope_volts_per_second",
    ]
    _emit(header, [r + [ramp.slope] for r in rows], args)


def cmd_nyquist(args) -> None:
    model, ramp, u, solver = _load(args)
    ss = _orbit(model, ramp, u, solver)
    omegas = np.linspace(0.0, ramp.ws, args.points)
    curve = stability.nyquist(model, ramp, u, ss, omegas)
    rows = _curve_rows(curve)
    header = [
        "omega_radians_per_second",
        "loop_gain_real",
        "loop_gain_imag",
        "singular",
    ]
    _emit(header, rows, args)


def cmd_simulate(args) -> None:
    model, ramp, u, solver = _load(args)
    if args.x0:
        parts = args.x0.split(",")
        if len(parts) != model.n:
            raise UsageError(f"--x0 needs {model.n} entries, got {len(parts)}")
        try:
            x0 = np.array([float(p) for p in parts])
        except ValueError:
            raise UsageError(f"--x0 entries must be numbers, got {args.x0!r}")
    else:
        x0 = np.zeros(model.n)
    traj = sim_mod.simulate(
        model, ramp, u, x0, args.cycles, scan_points=solver.scan_points
    )
    header = ["cycle", "d_event_seconds", "saturated"]
    header += [f"x_switch_{i}" for i in range(model.n)]
    header += [f"x_end_{i}" for i in range(model.n)]
    rows = []
    for i, rec in enumerate(traj.cycles):
        d = math.nan if rec.d_event is None else rec.d_event
        xs = [math.nan] * model.n if rec.x_switch is None else list(rec.x_switch)
        rows.append([i, d, int(rec.saturated)] + xs + list(rec.x_end))
    _emit(header, rows, args)


def cmd_check_equivalence(args) -> None:
    model, ramp, u, solver = _load(args)
    plant = buck_mod.make_buck_plant(model, ramp)
    harmonics = args.harmonics if args.harmonics else solver.harmonics
    gains = buck_mod.harmonic_gains(plant, harmonics)
    rows = []
    for duty in _duty_grid(args):
        d = switch_time_of_duty(ModulationEdge.LEM, duty, ramp.T)
        result = buck_mod.harmonic_balance(
            plant, d, harmonics, ModulationEdge.LEM, gains
        )
        lhs = 2.0 * ramp.fs * result.series_sum.real
        rhs = buck_mod.lem_boundary_coefficient(plant, d)
        rel = abs(lhs - rhs) / abs(rhs) if rhs != 0.0 else math.nan
        rows.append([duty, d, lhs, rhs, abs(lhs - rhs), rel])
    header = [
        "duty",
        "d_seconds",
        "series_lhs_per_second",
        "matrix_rhs_per_second",
        "abs_residual",
        "rel_residual",
    ]
    _emit(header, rows, args)


def cmd_taylor_compare(args) -> None:
    model, ramp, u, solver = _load(args)
    plant = buck_mod.make_buck_plant(model, ramp)
    rows = []
    for duty in _duty_grid(args):
        exact = buck_mod.vs_critical_tem(plant, duty)
        approx = buck_mod.taylor_critical_vs(plant, duty, order=args.order)
        rel = (
            abs(approx - exact) / abs(exact)
            if math.isfinite(exact) and exact != 0.0 and math.isfinite(approx)
            else math.nan
        )
        rows.append([duty, exact, approx, rel])
    header = ["duty", "vs_exact_volts", "vs_taylor_volts", "rel_difference"]
    _emit(header, rows, args)


def _add_common(sub):
    sub.add_argument("config", help="converter config file")
    sub.add_argument("--out", help="write CSV here instead of stdout")
    sub.add_argument("--quiet", action="store_true", help="suppress stderr summary")


def _add_duty_range(sub, default_points=81):
    sub.add_argument("--dmin", type=float, default=0.1, help="duty sweep start")
    sub.add_argument("--dmax", type=float, default=0.9, help="duty sweep end")
    sub.add_argument(
        "--points", type=int, default=default_points, help="sweep sample count"
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pwmstab",
        description="Sampled-data stability analysis of PWM DC-DC converters",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("steady", help="solve the periodic orbit")
    _add_common(sub)
    sub.set_defaults(func=cmd_steady)

    sub = subs.add_parser("eigs", help="Jacobian eigenvalues and classification")
    _add_common(sub)
    sub.set_defaults(func=cmd_eigs)

    sub = subs.add_parser("sweep-vs", help="critical source voltage vs duty")
    _add_common(sub)
    _add_duty_range(sub)
    sub.set_defaults(func=cmd_sweep_vs)

    sub = subs.add_parser("splot", help="critical condition vs duty at fixed lambda")
    _add_common(sub)
    _add_duty_range(sub)
    sub.add_argument("--lam", default="-1,0", help="lambda as 're,im'")
    sub.set_defaults(func=cmd_splot)

    sub = subs.add_parser("fplot", help="critical condition around the unit circle")
    _add_common(sub)
    sub.add_argument("--points", type=int, default=256, help="theta sample count")
    sub.set_defaults(func=cmd_fplot)

    sub = subs.add_parser("nyquist", help="discrete-time loop-gain curve")
    _add_common(sub)
    sub.add_argument("--points", type=int, default=256, help="omega sample count")
    sub.set_defaults(func=cmd_nyquist)

    sub = subs.add_parser("simulate", help="cycle-by-cycle time-domain simulation")
    _add_common(sub)
    sub.add_argument("--cycles", type=int, default=64, help="number of cycles")
    sub.add_argument("--x0", default="", help="initial state 'x0,x1,...' (default 0)")
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser(
        "check-equivalence", help="series vs matrix boundary coefficient"
    )
    _add_common(sub)
    _add_duty_range(sub)
    sub.add_argument(
        "--harmonics", type=int, default=0,
        help="series truncation (0 = take the config's solver value)",
    )
    sub.set_defaults(func=cmd_check_equivalence)

    sub = subs.add_parser(
        "taylor-compare", help="short-expansion vs exact critical voltage"
    )
    _add_common(sub)
    _add_duty_range(sub)
    sub.add_argument("--order", type=int, default=2, help="expansion order (<= 2)")
    sub.set_defaults(func=cmd_taylor_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DimensionError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoSwitchingError, DegenerateOrbitError) as exc:
        print(f"no periodic orbit: {exc}", file=sys.stderr)
        return EXIT_NO_ORBIT
    except (GrazingError, SingularMatrixError) as exc:
        print(f"singular condition: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except (NoConvergenceError, DivergenceError, OracleInvalidError) as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
