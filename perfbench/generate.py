"""Seeded input generator for the pwmstab benchmark.

Every workload is a fixed mix of item kinds; the seed only draws the
numbers inside each kind.  Fixing the mix keeps the cost of a pass over
the pool nearly the same for every seed, so run-to-run spread reflects
the program rather than the draw.  Items are emitted as pwmstab config
text (the only way inputs reach the program) plus, for ``sim-oracle``,
a perturbation vector for the simulator's start state.

This module never imports pwmstab: the inputs do not depend on the
program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

# README / acceptance-suite operating point of the desk-scale buck.
BUCK_L, BUCK_CF, BUCK_R, BUCK_G = 20e-3, 47e-6, 22.0, 8.4
BUCK_RAMP = (3.8, 8.2, 400e-6)
BUCK_VR, BUCK_VS = 11.3, 20.0
# Period-doubling source voltage of the nominal buck at vr = 11.3 V
# (24.36 V for TEM, 24.52 V in magnitude for the sign-mirrored LEM branch).
BUCK_VS_PDB = 24.4

UNIT_RAMP = (0.0, 1.0, 1.0)
HARMONICS = 2000
# Orbit-solver scan density.  64 points (the density of the orbit fuzzing
# in ROADMAP item 2) keeps items short, so every item is timed in many
# passes; the scan still dominates an orbit solve.
GRID_POINTS = 64
# Simulator scan density: the acceptance suite's 512, except on sim-oracle.
# There the simulator is what is timed, and 128 points cut a simulator
# set-up (one expm per point) by 4x, so each item is timed in more passes.
# Events are still refined to 1e-13 of a period inside each bracket.
SCAN_POINTS = 512
SIM_SCAN_POINTS = 128

WORKLOADS = ("orbit-analysis", "boundary-sweep", "sim-oracle")

# Pool composition per workload: (kind, count).  Pools are interleaved by
# a seeded shuffle, and the timed loop runs whole passes over the pool.
MIX = {
    "orbit-analysis": (
        ("buck-tem", 10), ("buck-lem", 10),
        ("general-n2", 7), ("general-n3", 7), ("general-n4", 7), ("general-n5", 7),
    ),
    "boundary-sweep": (
        ("buck-tem", 14), ("buck-lem", 14), ("lossy-n2", 7), ("lossy-n3", 7),
    ),
    "sim-oracle": (
        ("buck-tem-below", 10), ("buck-tem-above", 10),
        ("buck-lem-below", 10), ("buck-lem-above", 10),
    ),
}


@dataclass(frozen=True)
class Item:
    """One generated input: config text plus workload-specific extras."""

    id: str
    kind: str
    text: str
    start_offset: tuple[float, ...] = ()

    @property
    def is_buck(self) -> bool:
        return self.kind.startswith("buck")


def _num(x: float) -> str:
    # Six significant digits: readable text that parses to one exact double.
    return f"{x:.6g}"


def _matrix(rows) -> str:
    return "; ".join(",".join(_num(v) for v in row) for row in rows)


def _sections(model_lines, ramp, vr, vs, scan_points=SCAN_POINTS) -> str:
    vl, vh, t = ramp
    return (
        "[model]\n" + "".join(line + "\n" for line in model_lines)
        + f"\n[ramp]\nVl = {_num(vl)}\nVh = {_num(vh)}\nT = {_num(t)}\n"
        + f"\n[input]\nvr = {_num(vr)}\nvs = {_num(vs)}\n"
        + f"\n[solver]\ngrid_points = {GRID_POINTS}\nscan_points = {scan_points}\n"
        + f"harmonics = {HARMONICS}\nclass_tol = 0.0001\n"
    )


def _buck_text(
    rng: random.Random, edge: str, vs_nominal: float, jitter: float,
    scan_points: int = SCAN_POINTS,
) -> str:
    def around(x, rel):
        return x * rng.uniform(1.0 - rel, 1.0 + rel)

    lines = [
        "preset = vmc_buck",
        f"L = {_num(around(BUCK_L, jitter))}",
        f"C = {_num(around(BUCK_CF, jitter))}",
        f"R = {_num(around(BUCK_R, jitter))}",
        f"g = {_num(around(BUCK_G, jitter / 2))}",
        f"edge = {edge}",
    ]
    # LEM points sit on the sign-mirrored branch, where the loop is negative
    # feedback (see README "Conventions").
    sign = 1.0 if edge == "TEM" else -1.0
    vr = sign * around(BUCK_VR, jitter / 4)
    return _sections(lines, BUCK_RAMP, vr, sign * vs_nominal, scan_points)


def _hurwitz(rng: random.Random, n: int) -> list[list[float]]:
    # Random matrix shifted left just past its rightmost eigenvalue, so the
    # stage is Hurwitz with a margin of 0.3 to 1.5 per unit time.
    a = [[rng.gauss(0.0, 1.5) for _ in range(n)] for _ in range(n)]
    shift = float(np.max(np.linalg.eigvals(np.array(a)).real)) + rng.uniform(0.3, 1.5)
    for i in range(n):
        a[i][i] -= shift
    return a


def _general_text(rng: random.Random, n: int) -> str:
    """Random switched-linear TEM model: A1 != A2, Hurwitz stages, unit ramp."""
    a1, a2 = _hurwitz(rng, n), _hurwitz(rng, n)
    b1 = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(n)]
    b2 = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(n)]
    c = [rng.gauss(0.0, 1.0) for _ in range(n)]
    d = [rng.uniform(0.5, 1.5), rng.gauss(0.0, 0.3)]
    lines = [
        "edge = TEM",
        f"A1 = {_matrix(a1)}",
        f"A2 = {_matrix(a2)}",
        f"B1 = {_matrix(b1)}",
        f"B2 = {_matrix(b2)}",
        f"C = {','.join(_num(v) for v in c)}",
        f"D = {','.join(_num(v) for v in d)}",
    ]
    return _sections(lines, UNIT_RAMP, rng.uniform(0.2, 0.8), rng.uniform(0.5, 1.5))


def _lossy_text(rng: random.Random, n: int) -> str:
    """Buck with switch and diode resistances that differ (A1 != A2).

    ``n = 3`` adds a first-order sensing filter on the output voltage, so
    the compensator sees the filtered state.  Both are general models (no
    buck structure) whose operating point stays near the README point.
    """
    L = BUCK_L * rng.uniform(0.95, 1.05)
    cf = BUCK_CF * rng.uniform(0.95, 1.05)
    r = BUCK_R * rng.uniform(0.95, 1.05)
    g = BUCK_G * rng.uniform(0.97, 1.03)
    r_on, r_d = rng.uniform(0.1, 0.6), rng.uniform(0.6, 1.5)
    wf = 2.0e4 * rng.uniform(0.8, 1.2)

    def stage(r_series):
        a = [[-r_series / L, -1.0 / L], [1.0 / cf, -1.0 / (r * cf)]]
        if n == 3:
            a = [row + [0.0] for row in a] + [[0.0, wf, -wf]]
        return a

    a1, a2 = stage(r_on), stage(r_d)
    b1 = [[0.0, 1.0 / L]] + [[0.0, 0.0]] * (n - 1)
    b2 = [[0.0, 0.0]] * n
    c = [0.0, -g] if n == 2 else [0.0, 0.0, -g]
    lines = [
        "edge = TEM",
        f"A1 = {_matrix(a1)}",
        f"A2 = {_matrix(a2)}",
        f"B1 = {_matrix(b1)}",
        f"B2 = {_matrix(b2)}",
        f"C = {','.join(_num(v) for v in c)}",
        f"D = {_num(g)},0",
    ]
    vr = BUCK_VR * rng.uniform(0.98, 1.02)
    vs = BUCK_VS * rng.uniform(0.92, 1.05)
    return _sections(lines, BUCK_RAMP, vr, vs)


def _make(rng: random.Random, kind: str) -> tuple[str, tuple[float, ...]]:
    if kind in ("buck-tem", "buck-lem"):
        edge = kind[-3:].upper()
        return _buck_text(rng, edge, BUCK_VS * rng.uniform(0.9, 1.1), 0.1), ()
    if kind.startswith("general-n"):
        return _general_text(rng, int(kind[-1])), ()
    if kind.startswith("lossy-n"):
        return _lossy_text(rng, int(kind[-1])), ()
    # sim-oracle: nominal plant, source voltage clearly on one side of the
    # period-doubling boundary, start state a small offset from the orbit
    # (as in acceptance criterion 3).  Local stability only predicts the
    # attractor for starts near the orbit: a start 5% away can wander
    # through saturated cycles for longer than the 512-cycle transient.
    edge = "TEM" if "-tem-" in kind else "LEM"
    band = (0.85, 0.95) if kind.endswith("below") else (1.01, 1.04)
    text = _buck_text(rng, edge, BUCK_VS_PDB * rng.uniform(*band), 0.0, SIM_SCAN_POINTS)
    offset = (rng.uniform(-2e-3, 2e-3), rng.uniform(-2e-3, 2e-3))
    return text, offset


def make_items(workload: str, seed: int) -> list[Item]:
    """The pool of items for ``workload``; identical for identical seeds."""
    if workload not in MIX:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"pwmstab-bench:{workload}:{seed}")
    kinds = [kind for kind, count in MIX[workload] for _ in range(count)]
    rng.shuffle(kinds)
    prefix = "".join(word[0] for word in workload.split("-"))
    items = []
    for i, kind in enumerate(kinds):
        text, offset = _make(rng, kind)
        items.append(Item(f"{prefix}-{seed}-{i:02d}", kind, text, offset))
    return items
