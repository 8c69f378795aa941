"""Span tracer for the traced run: wraps pwmstab's public functions in place.

Each call into a wrapped function records a span (name, start, end,
parent span, item id).  Spans stay in memory until the run ends.  Self
time is a span's duration minus the time its child spans cover.  The
wrappers are installed only for the traced loop and removed afterwards,
so the timed loop runs the program unmodified.
"""

from __future__ import annotations

import csv
import gzip
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

from pwmstab import buck, numerics, sim, stability, steadystate

LAYERS = ("numerics", "steadystate", "stability", "buck", "sim")

# (module, attribute, span name).  Functions are wrapped on every module
# that binds them, because stability imports x0_of_d by name.
TARGETS = (
    (scipy.linalg, "expm", "numerics.expm"),
    (numerics, "solve_linear", "numerics.lu"),
    (numerics, "find_root", "numerics.find_root"),
    (numerics, "eigenvalues", "numerics.eigenvalues"),
    (steadystate, "solve_periodic_orbit", "steadystate.solve_periodic_orbit"),
    (steadystate, "x0_of_d", "steadystate.x0_of_d"),
    (stability, "x0_of_d", "steadystate.x0_of_d"),
    (stability, "jacobian", "stability.jacobian"),
    (stability, "classify", "stability.classify"),
    (stability, "pdb_residual", "stability.residuals"),
    (stability, "snb_residual", "stability.residuals"),
    (stability, "nsb_residual", "stability.residuals"),
    (stability, "general_critical_value", "stability.residuals"),
    (stability, "s_plot", "stability.s_plot"),
    (stability, "f_plot", "stability.f_plot"),
    (stability, "nyquist", "stability.nyquist"),
    (buck, "make_buck_plant", "buck.make_buck_plant"),
    (buck, "vs_critical_tem", "buck.vs_critical"),
    (buck, "vs_critical_lem", "buck.vs_critical"),
    (buck, "harmonic_gains", "buck.harmonic_gains"),
    (buck, "harmonic_balance", "buck.harmonic_balance"),
    (buck, "equivalence_residual", "buck.harmonic_balance"),
    (buck, "taylor_critical_vs", "buck.taylor"),
    (sim.CycleSimulator, "__init__", "sim.setup"),
    (sim.CycleSimulator, "cycle", "sim.cycle"),
    (sim, "steady_period", "sim.steady_period"),
    (sim, "fd_jacobian", "sim.fd_jacobian"),
)


class Tracer:
    """In-memory span recorder with exact per-item counters."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.item: list[int] = []
        self.counters: defaultdict = defaultdict(lambda: defaultdict(int))
        self.item_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, start, end, parent, item, stack = (
            self.names, self.start, self.end, self.parent, self.item, self._stack,
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            item.append(self.item_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _wrap_find_root(self, fn):
        inner = self._wrap("numerics.find_root", fn)

        def find_root(f, lo, hi, tol):
            counts = self.counters[self.item_id]

            def counted(x):
                counts["numerics.find_root.evals"] += 1
                return f(x)

            return inner(counted, lo, hi, tol)

        return find_root

    def _wrap_cycle(self, fn):
        inner = self._wrap("sim.cycle", fn)

        def cycle(sim_self, x_in):
            rec = inner(sim_self, x_in)
            if rec.saturated:
                self.counters[self.item_id]["sim.saturated_cycles"] += 1
            return rec

        return cycle

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            if name == "numerics.find_root":
                wrapped = self._wrap_find_root(fn)
            elif name == "sim.cycle":
                wrapped = self._wrap_cycle(fn)
            else:
                wrapped = self._wrap(name, fn)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------------

    def arrays(self):
        """Spans as arrays: name codes, the name table, durations, self times."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        names = np.fromiter((code[n] for n in self.names), dtype=np.int32, count=len(self.names))
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        item = np.asarray(self.item, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return names, table, dur, dur - child, parent, item

    def write(self, path, t0: float) -> None:
        """Write every span as gzip'd CSV (times in microseconds from ``t0``)."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_us", "end_us", "parent", "item"))
            for i, row in enumerate(zip(self.names, self.start, self.end, self.parent, self.item)):
                name, s, e, p, it = row
                out.writerow((i, name, f"{(s - t0) * 1e6:.3f}", f"{(e - t0) * 1e6:.3f}", p, it))


def outermost(parent: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Mask of member spans that have no member ancestor.

    Spans are recorded in call order, so a parent always precedes its
    children and one forward pass settles every span.
    """
    inside = [False] * len(parent)
    mem = member.tolist()
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            inside[i] = inside[p] or mem[p]
    return member & ~np.asarray(inside, dtype=bool)
