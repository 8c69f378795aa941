"""Converter config text format: parsing, validation, canonical emission.

The format is INI-style with four sections::

    [model]
    preset = vmc_buck        # or raw matrices A1/A2/B1/B2/C/D
    L = 20e-3
    C = 47e-6
    R = 22.0
    g = 8.4
    edge = TEM

    [ramp]
    Vl = 3.8
    Vh = 8.2
    T = 400e-6

    [input]
    vr = 11.3
    vs = 24.0

    [solver]                 # optional, defaults shown
    grid_points = 256
    scan_points = 512
    harmonics = 2000
    class_tol = 1e-4

Matrices are semicolon-separated rows of comma-separated decimals, e.g.
``A1 = 0,-50; 21276.6,-967.12``.  Numbers must be plain decimals with an
optional exponent.  Unknown sections or keys are rejected, and every
parsed config is guaranteed to build a valid model/ramp/input triple.
"""

from __future__ import annotations

import configparser
import io
import re
from dataclasses import dataclass, field

from .errors import ConfigError, DimensionError, DomainError
from .model import (
    InputVector,
    ModulationEdge,
    RampSignal,
    SwitchedLinearModel,
    preset_vmc_buck,
)

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")

_MODEL_PRESET_KEYS = {"preset", "L", "C", "R", "g", "edge"}
_MODEL_RAW_KEYS = {"A1", "A2", "B1", "B2", "C", "D", "edge"}
_RAMP_KEYS = {"Vl", "Vh", "T"}
_INPUT_KEYS = {"vr", "vs"}
_SOLVER_KEYS = {"grid_points", "scan_points", "harmonics", "class_tol", "d_tol"}


@dataclass(frozen=True)
class PresetModelSpec:
    name: str
    L: float
    C: float
    R: float
    g: float
    edge: str


@dataclass(frozen=True)
class RawModelSpec:
    edge: str
    A1: tuple[tuple[float, ...], ...]
    A2: tuple[tuple[float, ...], ...]
    B1: tuple[tuple[float, ...], ...]
    B2: tuple[tuple[float, ...], ...]
    C: tuple[float, ...]
    D: tuple[float, ...]


@dataclass(frozen=True)
class SolverSpec:
    grid_points: int = 256
    scan_points: int = 512
    harmonics: int = 2000
    class_tol: float = 1e-4
    d_tol: float | None = None


@dataclass(frozen=True)
class ConverterConfig:
    model: PresetModelSpec | RawModelSpec
    ramp: RampSignal
    inputs: InputVector
    solver: SolverSpec = field(default_factory=SolverSpec)


def _line_of(text: str, key: str) -> int | None:
    # Best-effort line number for error messages.
    pattern = re.compile(rf"^\s*{re.escape(key)}\s*[=:]")
    for i, line in enumerate(text.splitlines(), start=1):
        if pattern.match(line):
            return i
    return None


def _parse_number(text: str, section: str, key: str, raw: str) -> float:
    token = raw.strip()
    if not _NUMBER_RE.match(token):
        raise ConfigError(
            f"[{section}] {key}: {token!r} is not a decimal number",
            line=_line_of(text, key),
        )
    return float(token)


def _parse_int(text: str, section: str, key: str, raw: str) -> int:
    token = raw.strip()
    if not _INT_RE.match(token):
        raise ConfigError(
            f"[{section}] {key}: {token!r} is not an integer",
            line=_line_of(text, key),
        )
    return int(token)


def _parse_row(text: str, key: str, raw: str) -> tuple[float, ...]:
    entries = [e.strip() for e in raw.split(",")]
    if any(not e for e in entries):
        raise ConfigError(
            f"{key}: empty entry in row {raw!r}", line=_line_of(text, key)
        )
    for e in entries:
        if not _NUMBER_RE.match(e):
            raise ConfigError(
                f"{key}: {e!r} is not a decimal number", line=_line_of(text, key)
            )
    return tuple(float(e) for e in entries)


def _parse_matrix(text: str, key: str, raw: str) -> tuple[tuple[float, ...], ...]:
    rows = [r for r in (part.strip() for part in raw.split(";")) if r]
    if not rows:
        raise ConfigError(f"{key}: empty matrix", line=_line_of(text, key))
    parsed = tuple(_parse_row(text, key, r) for r in rows)
    width = len(parsed[0])
    if any(len(r) != width for r in parsed):
        raise ConfigError(
            f"{key}: ragged rows (expected width {width})", line=_line_of(text, key)
        )
    return parsed


def _require_keys(section: str, have: set[str], need: set[str], allowed: set[str]):
    unknown = have - allowed
    if unknown:
        raise ConfigError(f"[{section}] unknown key: {sorted(unknown)[0]}")
    missing = need - have
    if missing:
        raise ConfigError(f"[{section}] missing key: {sorted(missing)[0]}")


def _check_shape(key: str, mat, rows: int, cols: int):
    if len(mat) != rows or any(len(r) != cols for r in mat):
        raise ConfigError(
            f"{key} must be {rows}x{cols}, got {len(mat)}x{len(mat[0])}"
        )


def parse_config(text: str) -> ConverterConfig:
    """Parse and fully validate converter config text."""
    parser = configparser.ConfigParser(
        interpolation=None, strict=True, empty_lines_in_values=False
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError("content before any section header", line=exc.lineno)
    except configparser.ParsingError as exc:
        first = exc.errors[0] if getattr(exc, "errors", None) else None
        raise ConfigError(
            "malformed line", line=first[0] if first else None
        ) from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    sections = set(parser.sections())
    if not sections:
        raise ConfigError("config is empty: expected [model], [ramp], [input]")
    unknown = sections - {"model", "ramp", "input", "solver"}
    if unknown:
        raise ConfigError(f"unknown section [{sorted(unknown)[0]}]")
    for required in ("model", "ramp", "input"):
        if required not in sections:
            raise ConfigError(f"missing section [{required}]")

    model_items = dict(parser.items("model"))
    if "preset" in model_items:
        _require_keys("model", set(model_items), _MODEL_PRESET_KEYS, _MODEL_PRESET_KEYS)
        preset = model_items["preset"].strip()
        if preset != "vmc_buck":
            raise ConfigError(f"unknown preset {preset!r} (expected vmc_buck)")
        model_spec: PresetModelSpec | RawModelSpec = PresetModelSpec(
            name=preset,
            L=_parse_number(text, "model", "L", model_items["L"]),
            C=_parse_number(text, "model", "C", model_items["C"]),
            R=_parse_number(text, "model", "R", model_items["R"]),
            g=_parse_number(text, "model", "g", model_items["g"]),
            edge=_parse_edge(model_items["edge"]),
        )
    else:
        _require_keys("model", set(model_items), _MODEL_RAW_KEYS, _MODEL_RAW_KEYS)
        a1 = _parse_matrix(text, "A1", model_items["A1"])
        n = len(a1)
        _check_shape("A1", a1, n, n)
        a2 = _parse_matrix(text, "A2", model_items["A2"])
        _check_shape("A2", a2, n, n)
        b1 = _parse_matrix(text, "B1", model_items["B1"])
        _check_shape("B1", b1, n, 2)
        b2 = _parse_matrix(text, "B2", model_items["B2"])
        _check_shape("B2", b2, n, 2)
        c = _parse_row(text, "C", model_items["C"])
        if len(c) != n:
            raise ConfigError(f"C must have {n} entries, got {len(c)}")
        dmat = _parse_row(text, "D", model_items["D"])
        if len(dmat) != 2:
            raise ConfigError(f"D must have 2 entries, got {len(dmat)}")
        model_spec = RawModelSpec(
            edge=_parse_edge(model_items["edge"]),
            A1=a1, A2=a2, B1=b1, B2=b2, C=c, D=dmat,
        )

    ramp_items = dict(parser.items("ramp"))
    _require_keys("ramp", set(ramp_items), _RAMP_KEYS, _RAMP_KEYS)
    input_items = dict(parser.items("input"))
    _require_keys("input", set(input_items), _INPUT_KEYS, _INPUT_KEYS)

    solver_spec = SolverSpec()
    if "solver" in sections:
        solver_items = dict(parser.items("solver"))
        _require_keys("solver", set(solver_items), set(), _SOLVER_KEYS)
        kwargs = {}
        for key in ("grid_points", "scan_points", "harmonics"):
            if key in solver_items:
                kwargs[key] = _parse_int(text, "solver", key, solver_items[key])
        for key in ("class_tol", "d_tol"):
            if key in solver_items:
                kwargs[key] = _parse_number(text, "solver", key, solver_items[key])
        solver_spec = SolverSpec(**kwargs)

    # A parsed config must always be buildable: the ramp and the inputs are
    # validated as they are built here, the model by build(), and any
    # problem they find surfaces as a config error now.
    try:
        cfg = ConverterConfig(
            model=model_spec,
            ramp=RampSignal(
                Vl=_parse_number(text, "ramp", "Vl", ramp_items["Vl"]),
                Vh=_parse_number(text, "ramp", "Vh", ramp_items["Vh"]),
                T=_parse_number(text, "ramp", "T", ramp_items["T"]),
            ),
            inputs=InputVector(
                vr=_parse_number(text, "input", "vr", input_items["vr"]),
                vs=_parse_number(text, "input", "vs", input_items["vs"]),
            ),
            solver=solver_spec,
        )
        build(cfg)
    except (DimensionError, DomainError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _parse_edge(raw: str) -> str:
    token = raw.strip()
    if token not in ("TEM", "LEM"):
        raise ConfigError(f"edge must be TEM or LEM, got {token!r}")
    return token


def build(
    cfg: ConverterConfig,
) -> tuple[SwitchedLinearModel, RampSignal, InputVector, SolverSpec]:
    """Instantiate the model of a config; return it with the config's ramp,
    inputs, and solver settings."""
    if isinstance(cfg.model, PresetModelSpec):
        model = preset_vmc_buck(
            L=cfg.model.L,
            Cf=cfg.model.C,
            R=cfg.model.R,
            g=cfg.model.g,
            edge=ModulationEdge(cfg.model.edge),
        )
    else:
        model = SwitchedLinearModel(
            A1=cfg.model.A1,
            A2=cfg.model.A2,
            B1=cfg.model.B1,
            B2=cfg.model.B2,
            C=cfg.model.C,
            D=cfg.model.D,
            edge=ModulationEdge(cfg.model.edge),
        )
    return model, cfg.ramp, cfg.inputs, cfg.solver


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_matrix(mat: tuple[tuple[float, ...], ...]) -> str:
    return "; ".join(",".join(_fmt(x) for x in row) for row in mat)


def emit_config(cfg: ConverterConfig) -> str:
    """Serialize a config to canonical text; round-trips exactly."""
    out = io.StringIO()
    out.write("[model]\n")
    if isinstance(cfg.model, PresetModelSpec):
        out.write(f"preset = {cfg.model.name}\n")
        out.write(f"L = {_fmt(cfg.model.L)}\n")
        out.write(f"C = {_fmt(cfg.model.C)}\n")
        out.write(f"R = {_fmt(cfg.model.R)}\n")
        out.write(f"g = {_fmt(cfg.model.g)}\n")
        out.write(f"edge = {cfg.model.edge}\n")
    else:
        out.write(f"edge = {cfg.model.edge}\n")
        for key in ("A1", "A2", "B1", "B2"):
            out.write(f"{key} = {_fmt_matrix(getattr(cfg.model, key))}\n")
        out.write(f"C = {','.join(_fmt(x) for x in cfg.model.C)}\n")
        out.write(f"D = {','.join(_fmt(x) for x in cfg.model.D)}\n")
    out.write("\n[ramp]\n")
    out.write(f"Vl = {_fmt(cfg.ramp.Vl)}\n")
    out.write(f"Vh = {_fmt(cfg.ramp.Vh)}\n")
    out.write(f"T = {_fmt(cfg.ramp.T)}\n")
    out.write("\n[input]\n")
    out.write(f"vr = {_fmt(cfg.inputs.vr)}\n")
    out.write(f"vs = {_fmt(cfg.inputs.vs)}\n")
    out.write("\n[solver]\n")
    out.write(f"grid_points = {cfg.solver.grid_points}\n")
    out.write(f"scan_points = {cfg.solver.scan_points}\n")
    out.write(f"harmonics = {cfg.solver.harmonics}\n")
    out.write(f"class_tol = {_fmt(cfg.solver.class_tol)}\n")
    if cfg.solver.d_tol is not None:
        out.write(f"d_tol = {_fmt(cfg.solver.d_tol)}\n")
    return out.getvalue()
