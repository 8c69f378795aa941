"""Converter config text format: parsing, validation, canonical emission.

The format is INI-style with four sections::

    [model]
    # or raw matrices A1/A2/B1/B2/C/D instead of the preset
    preset = vmc_buck
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

    # optional, defaults shown
    [solver]
    grid_points = 256
    scan_points = 512
    harmonics = 2000
    class_tol = 1e-4

Matrices are semicolon-separated rows of comma-separated decimals, e.g.
``A1 = 0,-50; 21276.6,-967.12``.  Numbers must be plain decimals with an
optional exponent.  The section tables below (``_PRESET_MODEL``,
``_RAW_MODEL``, ``_RAMP``, ``_INPUT``, ``_SOLVER``) are the schema: each maps
a key to the parser and the emitter of its value, and both
:func:`parse_config` and :func:`emit_config` walk them.  The ``[solver]``
parsers also check each value's range (``grid_points >= 2``,
``scan_points >= 8``, ``harmonics >= 1``, positive finite tolerances).
Unknown sections or keys are rejected, and every parsed config is
guaranteed to build a valid model/ramp/input triple and solver settings
every command accepts; matrix shapes are checked by the model itself.
"""

from __future__ import annotations

import configparser
import math
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


# Value kinds: (parse, emit).  A parser raises ValueError with a message
# that the section reader prefixes with the section, key and line.


def _token(pattern: re.Pattern, what: str, cast):
    def parse(raw: str):
        token = raw.strip()
        if not pattern.match(token):
            raise ValueError(f"{token!r} is not {what}")
        return cast(token)

    return parse


def _one_of(*choices: str):
    def parse(raw: str) -> str:
        token = raw.strip()
        if token not in choices:
            raise ValueError(f"{token!r} is not one of {', '.join(choices)}")
        return token

    return parse


_parse_number = _token(_NUMBER_RE, "a decimal number", float)


def _parse_row(raw: str) -> tuple[float, ...]:
    return tuple(_parse_number(e) for e in raw.split(","))


def _parse_matrix(raw: str) -> tuple[tuple[float, ...], ...]:
    rows = tuple(_parse_row(r) for r in raw.split(";") if r.strip())
    if not rows:
        raise ValueError("empty matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"ragged rows (expected width {width})")
    return rows


def _emit_number(x) -> str:
    return repr(float(x))


def _emit_row(row) -> str:
    return ",".join(_emit_number(x) for x in row)


def _where(kind, ok, what: str):
    # ``kind`` restricted to the values ``ok`` accepts.
    parse, emit = kind

    def parse_checked(raw: str):
        value = parse(raw)
        if not ok(value):
            raise ValueError(f"must be {what}, got {raw.strip()}")
        return value

    return parse_checked, emit


_NUMBER = (_parse_number, _emit_number)
_INTEGER = (_token(_INT_RE, "an integer", int), str)
_POSITIVE = _where(_NUMBER, lambda v: 0.0 < v < math.inf, "positive and finite")
_ROW = (_parse_row, _emit_row)
_MATRIX = (_parse_matrix, lambda m: "; ".join(_emit_row(r) for r in m))
_EDGE = (_one_of("TEM", "LEM"), str)

# The schema: one table per section, in emission order.  Every key is
# required except under [solver], whose missing keys take SolverSpec's
# defaults.  The preset's name is stored as PresetModelSpec.name.
_PRESET_MODEL = {
    "preset": (_one_of("vmc_buck"), str),
    "L": _NUMBER, "C": _NUMBER, "R": _NUMBER, "g": _NUMBER, "edge": _EDGE,
}
_RAW_MODEL = {
    "edge": _EDGE,
    "A1": _MATRIX, "A2": _MATRIX, "B1": _MATRIX, "B2": _MATRIX,
    "C": _ROW, "D": _ROW,
}
_RAMP = {"Vl": _NUMBER, "Vh": _NUMBER, "T": _NUMBER}
_INPUT = {"vr": _NUMBER, "vs": _NUMBER}
_SOLVER = {
    "grid_points": _where(_INTEGER, lambda v: v >= 2, ">= 2"),
    "scan_points": _where(_INTEGER, lambda v: v >= 8, ">= 8"),
    "harmonics": _where(_INTEGER, lambda v: v >= 1, ">= 1"),
    "class_tol": _POSITIVE,
    "d_tol": _POSITIVE,
}


def _line_of(text: str, key: str) -> int | None:
    # Best-effort line number for error messages.
    pattern = re.compile(rf"^\s*{re.escape(key)}\s*[=:]")
    for i, line in enumerate(text.splitlines(), start=1):
        if pattern.match(line):
            return i
    return None


def _section(parser, text: str, name: str, table: dict) -> dict:
    """Parsed values of one section, checked against its table."""
    items = dict(parser.items(name)) if parser.has_section(name) else {}
    unknown = items.keys() - table.keys()
    if unknown:
        raise ConfigError(f"[{name}] unknown key: {sorted(unknown)[0]}")
    missing = table.keys() - items.keys() if name != "solver" else set()
    if missing:
        raise ConfigError(f"[{name}] missing key: {sorted(missing)[0]}")
    values = {}
    for key, (parse, _) in table.items():
        if key in items:
            try:
                values[key] = parse(items[key])
            except ValueError as exc:
                raise ConfigError(
                    f"[{name}] {key}: {exc}", line=_line_of(text, key)
                ) from None
    return values


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

    # A parsed config must always be buildable: the ramp and the inputs are
    # validated as they are built here, the model (shapes included) by
    # build(), and any problem they find surfaces as a config error now.
    try:
        if parser.has_option("model", "preset"):
            values = _section(parser, text, "model", _PRESET_MODEL)
            model_spec = PresetModelSpec(name=values.pop("preset"), **values)
        else:
            model_spec = RawModelSpec(**_section(parser, text, "model", _RAW_MODEL))
        cfg = ConverterConfig(
            model=model_spec,
            ramp=RampSignal(**_section(parser, text, "ramp", _RAMP)),
            inputs=InputVector(**_section(parser, text, "input", _INPUT)),
            solver=SolverSpec(**_section(parser, text, "solver", _SOLVER)),
        )
        build(cfg)
    except (DimensionError, DomainError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


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
        model = SwitchedLinearModel(**vars(cfg.model))
    return model, cfg.ramp, cfg.inputs, cfg.solver


def emit_config(cfg: ConverterConfig) -> str:
    """Serialize a config to canonical text; round-trips exactly."""
    preset = isinstance(cfg.model, PresetModelSpec)
    sections = (
        ("model", _PRESET_MODEL if preset else _RAW_MODEL, cfg.model),
        ("ramp", _RAMP, cfg.ramp),
        ("input", _INPUT, cfg.inputs),
        ("solver", _SOLVER, cfg.solver),
    )
    blocks = []
    for name, table, spec in sections:
        lines = [f"[{name}]"]
        for key, (_, emit) in table.items():
            value = getattr(spec, "name" if key == "preset" else key)
            if value is not None:  # an unset d_tol
                lines.append(f"{key} = {emit(value)}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
