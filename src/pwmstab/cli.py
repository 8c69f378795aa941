"""Command-line front end: config in, CSV out.

Every command reads a converter config file, runs one analysis, and emits
a CSV table (stdout by default, ``--out FILE`` otherwise) with a header
row naming each column.  Numbers carry 17 significant digits so doubles
round-trip; identical inputs produce byte-identical output.

Exit codes::

    0  success
    1  usage error (bad flags or arguments, unwritable --out)
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
from . import errors
from . import sim as sim_mod
from . import stability
from .config import build, parse_config
from .model import ModulationEdge, switch_time_of_duty
from .steadystate import solve_periodic_orbit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NO_ORBIT = 3
EXIT_SINGULAR = 4
EXIT_NO_CONVERGENCE = 5


class UsageError(errors.PwmStabError):
    pass


# Each typed error, in match order, with its exit code and stderr label.
_EXIT_CODES = (
    (UsageError, EXIT_USAGE, "usage error"),
    (
        (errors.ConfigError, errors.DimensionError, errors.DomainError),
        EXIT_CONFIG, "config error",
    ),
    (
        (errors.NoSwitchingError, errors.DegenerateOrbitError),
        EXIT_NO_ORBIT, "no periodic orbit",
    ),
    (
        (errors.GrazingError, errors.SingularMatrixError),
        EXIT_SINGULAR, "singular condition",
    ),
    (
        (errors.NoConvergenceError, errors.DivergenceError, errors.OracleInvalidError),
        EXIT_NO_CONVERGENCE, "did not converge",
    ),
)


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
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
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
        raise errors.ConfigError(f"cannot read {args.config}: {exc.strerror}")
    return build(parse_config(text))


def _orbit(model, ramp, u, solver):
    return solve_periodic_orbit(
        model, ramp, u, grid_points=solver.grid_points, d_tol=solver.d_tol
    )


def _duty_grid(args):
    if not 0.0 < args.dmin < args.dmax < 1.0:
        raise UsageError(
            f"sweep needs 0 < dmin < dmax < 1, got [{args.dmin}, {args.dmax}]"
        )
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
    curve = stability.s_plot(model, ramp, u, args.lam, _duty_grid(args))
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
    x0 = np.zeros(model.n) if args.x0 is None else np.array(args.x0)
    if x0.shape != (model.n,):
        raise UsageError(f"--x0 needs {model.n} entries, got {len(x0)}")
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
    gains = buck_mod.harmonic_gains(plant, solver.harmonics)
    rows = []
    for duty in _duty_grid(args):
        d = switch_time_of_duty(ModulationEdge.LEM, duty, ramp.T)
        result = buck_mod.harmonic_balance(
            plant, d, solver.harmonics, ModulationEdge.LEM, gains
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


def _int_at_least(low: int):
    def parse(raw: str) -> int:
        try:
            if int(raw) >= low:
                return int(raw)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {raw!r}")

    return parse


def _floats(raw: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",")]
    except ValueError:
        values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers, got {raw!r}"
        )
    return values


def _complex(raw: str) -> complex:
    try:
        re_part, im_part = _floats(raw)
    except (argparse.ArgumentTypeError, ValueError):
        raise argparse.ArgumentTypeError(f"expected finite 're,im', got {raw!r}") from None
    return complex(re_part, im_part)


def _command(subs, name, func, summary, duty_range=False):
    sub = subs.add_parser(name, help=summary)
    sub.add_argument("config", help="converter config file")
    sub.add_argument("--out", help="write CSV here instead of stdout")
    sub.add_argument("--quiet", action="store_true", help="suppress stderr summary")
    if duty_range:
        sub.add_argument("--dmin", type=float, default=0.1, help="duty sweep start")
        sub.add_argument("--dmax", type=float, default=0.9, help="duty sweep end")
        sub.add_argument(
            "--points", type=_int_at_least(2), default=81, help="sweep sample count"
        )
    sub.set_defaults(func=func)
    return sub


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="pwmstab",
        description="Sampled-data stability analysis of PWM DC-DC converters",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _command(subs, "steady", cmd_steady, "solve the periodic orbit")
    _command(subs, "eigs", cmd_eigs, "Jacobian eigenvalues and classification")
    _command(
        subs, "sweep-vs", cmd_sweep_vs, "critical source voltage vs duty",
        duty_range=True,
    )
    sub = _command(
        subs, "splot", cmd_splot, "critical condition vs duty at fixed lambda",
        duty_range=True,
    )
    sub.add_argument("--lam", type=_complex, default="-1,0", help="lambda as 're,im'")
    sub = _command(
        subs, "fplot", cmd_fplot, "critical condition around the unit circle"
    )
    sub.add_argument(
        "--points", type=_int_at_least(1), default=256, help="theta sample count"
    )
    sub = _command(subs, "nyquist", cmd_nyquist, "discrete-time loop-gain curve")
    sub.add_argument(
        "--points", type=_int_at_least(1), default=256, help="omega sample count"
    )
    sub = _command(
        subs, "simulate", cmd_simulate, "cycle-by-cycle time-domain simulation"
    )
    sub.add_argument(
        "--cycles", type=_int_at_least(1), default=64, help="number of cycles"
    )
    sub.add_argument("--x0", type=_floats, help="initial state 'x0,x1,...' (default 0)")
    _command(
        subs, "check-equivalence", cmd_check_equivalence,
        "series vs matrix boundary coefficient", duty_range=True,
    )
    sub = _command(
        subs, "taylor-compare", cmd_taylor_compare,
        "short-expansion vs exact critical voltage", duty_range=True,
    )
    sub.add_argument(
        "--order", type=int, choices=(0, 1, 2), default=2, help="expansion order"
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except errors.PwmStabError as exc:
        for classes, code, label in _EXIT_CODES:
            if isinstance(exc, classes):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
