"""pwmstab benchmark: seeded closed-loop workloads with an oracle gate.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload orbit-analysis --seed 1 --seconds 15 --trace 0

One caller, one process, closed loop: the next item starts when the
previous one returns.  BLAS is pinned to one thread.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a separate traced loop (see
``perfbench/README.md`` for every metric and the workload it should move).
Raw results and spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported: the matrices are N <= 5, so extra
# threads would only measure the scheduler.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import generate  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

#: Fresh interpreters timed for setup_s (after one unmeasured warm-up that
#: writes the bytecode cache, which users do not pay on every call).
SETUP_PROBES = 7

#: Passes over the pool in a timed loop: at least this many, more while
#: time remains.  An item's latency is its median over the passes.  On a
#: shared machine, quiet stretches come and go within a tenth of a second,
#: so a pass's fastest runs depend on luck while the median settles.
MIN_PASSES = 3

#: Tail percentile over the pool's item latencies; every pool is large
#: enough to leave at least ten items beyond it.
TAIL_PERCENTILE = 75


def load_program():
    """Import pwmstab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "pwmstab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pwmstab sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import pwmstab

    if Path(pwmstab.__file__).resolve().parent != SRC / "pwmstab":
        sys.exit(f"perfbench: imported pwmstab from {pwmstab.__file__}, not {SRC}")
    return pwmstab


# --------------------------------------------------------------------------
# Environment record.


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "pwmstab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# Set-up time: fresh interpreters, each importing pwmstab and building
# every generated config.


class SetupProbe:
    """Times fresh interpreters; samples are spread evenly over the run."""

    def __init__(self, configs: Path, seconds: float):
        self.configs = configs
        self.spacing = seconds / SETUP_PROBES
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.config_ms: list[float] = []
        self._launch()  # unmeasured: writes the bytecode cache

    def _launch(self) -> tuple[float, dict]:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(PROBE), str(SRC), str(self.configs)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait(timeout=120)
        if rc != 0 or not line:
            sys.exit(f"perfbench: set-up probe exited with {rc}")
        return t1 - t0, json.loads(line)

    def sample(self, elapsed: float) -> None:
        """Launch the next probe once ``elapsed`` reaches its slot."""
        if len(self.walls) < SETUP_PROBES and elapsed >= len(self.walls) * self.spacing:
            wall, record = self._launch()
            self.walls.append(wall)
            self.imports.append(record["import_s"])
            self.config_ms.append(record["config_ms"])

    def result(self) -> dict:
        while len(self.walls) < SETUP_PROBES:
            self.sample(math.inf)
        return {
            "setup_s": statistics.median(self.walls),
            "import_s": statistics.median(self.imports),
            "config_ms": statistics.median(self.config_ms),
            "samples_s": self.walls,
        }


# --------------------------------------------------------------------------
# Closed loop.


def closed_loop(pool, runner, seconds: float, min_passes: int, tracer=None, between=None):
    """Whole passes over the pool until ``seconds`` and ``min_passes`` are met.

    With a ``tracer``, every odd pass runs traced (the wrappers are
    installed for that pass only), so traced and untraced passes share the
    machine's slow and quiet stretches.  ``between(elapsed)`` runs after
    every pass, outside the item timings.  Returns the first pass's
    answers, every pass's answer fingerprints and latencies (indexed
    ``[pass][item]``), and the wall time.  Later answers are reduced to
    fingerprints so memory does not grow with the passes.
    """
    from workloads import fingerprint, run_item

    first, prints, latencies = None, [], []
    gc.collect()
    t_begin = time.perf_counter()
    while len(prints) < min_passes or time.perf_counter() - t_begin < seconds:
        pass_answers, pass_latencies = [], []
        traced = tracer is not None and len(prints) % 2 == 1
        if traced:
            tracer.install()
        try:
            for i, p in enumerate(pool):
                if traced:
                    tracer.item_id = len(prints) // 2 * len(pool) + i
                t0 = time.perf_counter()
                answer = run_item(runner, p)
                pass_latencies.append(time.perf_counter() - t0)
                pass_answers.append(answer)
        finally:
            if traced:
                tracer.uninstall()
        prints.append([fingerprint(a) for a in pass_answers])
        latencies.append(pass_latencies)
        if first is None:
            first = pass_answers
        if between is not None:
            between(time.perf_counter() - t_begin)
    return first, prints, latencies, time.perf_counter() - t_begin


def typical(latencies) -> list[float]:
    """Each pool item's median latency over the passes."""
    return [statistics.median(column) for column in zip(*latencies)]


def nearest_rank(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    k = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


# --------------------------------------------------------------------------
# Traced run: per-layer metrics.


def layer_metrics(tracer, answers, passes, latencies, untraced_ips, traced_ips):
    """Per-layer metrics of the traced loop, per item unless named otherwise.

    ``answers`` are one pass's answers (every pass reproduces them);
    ``latencies`` are indexed ``[pass][item]``.
    """
    import numpy as np

    import spans
    from workloads import NO_ORBIT_ERRORS, Refused

    names, table, dur, self_t, parent, item = tracer.arrays()
    n_items = len(answers) * passes
    total = float(sum(map(sum, latencies)))
    code = {n: i for i, n in enumerate(table)}

    def mask(*prefixes):
        ids = [i for n, i in code.items() if n.startswith(prefixes)]
        return np.isin(names, ids)

    def calls(name):
        return float(np.count_nonzero(mask(name))) / n_items

    def busy_ms(*group):
        member = mask(*group)
        return float(dur[spans.outermost(parent, member)].sum()) * 1e3 / n_items

    def p50(name, scale):
        d = dur[mask(name)]
        return float(np.median(d)) * scale if d.size else 0.0

    counters = {}
    for per_item in tracer.counters.values():
        for key, value in per_item.items():
            counters[key] = counters.get(key, 0) + value

    top = parent < 0
    metrics = {
        "numerics.expm.calls": (calls("numerics.expm"), "count/item"),
        "numerics.expm.busy_ms": (busy_ms("numerics.expm"), "ms/item"),
        "numerics.lu.calls": (calls("numerics.lu"), "count/item"),
        "numerics.lu.busy_ms": (busy_ms("numerics.lu"), "ms/item"),
        "numerics.find_root.calls": (calls("numerics.find_root"), "count/item"),
        "numerics.find_root.evals": (
            counters.get("numerics.find_root.evals", 0) / n_items, "count/item"),
        "steadystate.solve_periodic_orbit.ms_p50": (
            p50("steadystate.solve_periodic_orbit", 1e3), "ms"),
        "steadystate.solve_periodic_orbit.share": (
            busy_ms("steadystate.solve_periodic_orbit") * n_items / 1e3 / total, "frac"),
        "steadystate.x0_of_d.calls": (calls("steadystate.x0_of_d"), "count/item"),
        "steadystate.x0_of_d.us_p50": (p50("steadystate.x0_of_d", 1e6), "us"),
        "steadystate.refused_frac": (
            sum(isinstance(a, Refused) and a.error in NO_ORBIT_ERRORS for a in answers)
            / len(answers), "frac"),
        "stability.jacobian.us_p50": (p50("stability.jacobian", 1e6), "us"),
        "stability.classify.us_p50": (p50("stability.classify", 1e6), "us"),
        "stability.residuals.us_p50": (p50("stability.residuals", 1e6), "us"),
        "stability.s_plot.busy_ms": (busy_ms("stability.s_plot"), "ms/item"),
        "stability.f_plot.busy_ms": (busy_ms("stability.f_plot"), "ms/item"),
        "stability.nyquist.busy_ms": (busy_ms("stability.nyquist"), "ms/item"),
        "stability.singular_frac": (_singular_frac(answers), "frac"),
        "buck.vs_critical.busy_ms": (busy_ms("buck.vs_critical"), "ms/item"),
        "buck.harmonic_gains.busy_ms": (busy_ms("buck.harmonic_gains"), "ms/item"),
        "buck.harmonic_balance.busy_ms": (busy_ms("buck.harmonic_balance"), "ms/item"),
        "buck.taylor.busy_ms": (busy_ms("buck.taylor"), "ms/item"),
        "sim.setup.ms_p50": (p50("sim.setup", 1e3), "ms"),
        "sim.cycle.us_p50": (p50("sim.cycle", 1e6), "us"),
        "sim.cycles": (calls("sim.cycle"), "count/item"),
        "sim.steady_period.busy_ms": (busy_ms("sim.steady_period"), "ms/item"),
        "sim.fd_jacobian.busy_ms": (busy_ms("sim.fd_jacobian"), "ms/item"),
        "sim.saturated_frac": (
            counters.get("sim.saturated_cycles", 0) / max(1, np.count_nonzero(mask("sim.cycle"))),
            "frac"),
    }
    # busy_share: calls the benchmark makes into the layer (top-level spans);
    # self_share: time spent in the layer's own code, children excluded.
    for layer in spans.LAYERS:
        member = mask(layer + ".")
        if layer != "numerics":  # the benchmark never calls numerics directly
            metrics[f"{layer}.busy_share"] = (float(dur[member & top].sum()) / total, "frac")
        metrics[f"{layer}.self_share"] = (float(self_t[member].sum()) / total, "frac")
    metrics["trace.overhead_frac"] = (1.0 - traced_ips / untraced_ips, "frac")
    return metrics


def _singular_frac(answers) -> float:
    from pwmstab.stability import BoundaryCurve

    samples = singular = 0
    for answer in answers:
        if isinstance(answer, tuple) and len(answer) > 1 and isinstance(answer[1], tuple):
            for curve in answer[1]:
                if isinstance(curve, BoundaryCurve):
                    samples += len(curve.samples)
                    singular += sum(s.singular for s in curve.samples)
    return singular / samples if samples else 0.0


def item_counts(tracer, pool_size: int):
    """Exact work counts per pool item, for every traced pass."""
    import numpy as np

    names, table, _, _, _, item = tracer.arrays()
    keys = {"numerics.expm": "expm", "numerics.lu": "lu", "sim.cycle": "cycles"}
    per_index: dict[int, dict[str, int]] = {}
    for name, short in keys.items():
        if name not in table:
            continue
        idx, counts = np.unique(item[names == table.index(name)], return_counts=True)
        for i, c in zip(idx.tolist(), counts.tolist()):
            per_index.setdefault(i, {})[short] = c
    for i, per_item in tracer.counters.items():
        if "numerics.find_root.evals" in per_item:
            per_index.setdefault(i, {})["find_root_evals"] = per_item["numerics.find_root.evals"]
    passes: dict[int, dict[int, dict[str, int]]] = {}
    for i, c in per_index.items():
        passes.setdefault(i // pool_size, {})[i % pool_size] = c
    return [passes.get(k, {}) for k in range(max(passes, default=-1) + 1)]


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import spans
    import workloads

    items = generate.make_items(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    configs = OUT / f"configs-{tag}.json"
    configs.write_text(json.dumps([item.text for item in items]))

    env = environment(args.seed)
    print("perfbench env " + json.dumps(env, sort_keys=True), flush=True)
    probe = SetupProbe(configs, args.seconds)

    pool = workloads.prepare(args.workload, items)
    if len(pool) - math.ceil(TAIL_PERCENTILE / 100 * len(pool)) < 10:
        sys.exit(f"perfbench: pool of {len(pool)} leaves < 10 items beyond p{TAIL_PERCENTILE}")
    runner = workloads.RUNNERS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    # Traced runs alternate untraced and traced passes, at least 3 of each.
    min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
    answers, prints, latencies, wall = closed_loop(
        pool, runner, args.seconds, min_passes, tracer, probe.sample
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = probe.result()
    passes = len(prints)

    # Oracle gate (untimed) on the first pass; every later pass must
    # reproduce the first pass bit for bit.
    verdicts = [workloads.check(args.workload, p, a) for p, a in zip(pool, answers)]

    def reproduces(runs) -> list[bool]:
        return [all(run[i] == prints[0][i] for run in runs) for i in range(len(pool))]

    stable = reproduces(prints[1:])
    failing = {}
    for p, v, same in zip(pool, verdicts, stable):
        if not same:
            failing[p.item.id] = "nondeterministic: answer changed between passes"
        elif v.status == "failed":
            failing[p.item.id] = f"{v.cls}: {v.detail}"
    # Each pool item is gated once, however many passes the time allowed,
    # so attempted and failed depend on the seed alone.
    attempted = len(pool)
    failed = len(failing)
    correct = all(stable) and not any(
        v.status == "failed" and not v.known_defect for v in verdicts
    )
    item_s = typical(latencies)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "pool": len(pool),
        "passes": passes,
        "loop_wall_s": wall,
        "mean_items_per_s": len(pool) * passes / sum(map(sum, latencies)),
        "tail_percentile": TAIL_PERCENTILE,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failed_items": failing,
        "verdicts": {
            p.item.id: [p.item.kind, v.status, v.cls, v.detail] for p, v in zip(pool, verdicts)
        },
        "setup": setup,
        "latency_ms": {
            p.item.id: [run[i] * 1e3 for run in latencies] for i, p in enumerate(pool)
        },
    }

    if args.trace:
        # Same number of passes on both sides, so the medians are comparable.
        t_latencies = latencies[1::2]
        plain = latencies[0::2][: len(t_latencies)]
        untraced_ips = len(pool) / sum(typical(plain))
        traced_ips = len(pool) / sum(typical(t_latencies))
        counts = item_counts(tracer, len(pool))
        repeat = all(c == counts[0] for c in counts)
        correct = correct and repeat
        metrics = layer_metrics(
            tracer, answers, len(t_latencies), t_latencies, untraced_ips, traced_ips
        )
        metrics["setup.import_s"] = (setup["import_s"], "s")
        metrics["setup.config_ms"] = (setup["config_ms"], "ms")
        result["counts_per_item"] = {pool[i].item.id: c for i, c in sorted(counts[0].items())}
        result["counts_repeat_exactly"] = repeat
        result["traced_passes"] = len(t_latencies)
        tracer.write(OUT / f"spans-{tag}.csv.gz", tracer.start[0] if tracer.start else 0.0)
    else:
        tail, beyond = nearest_rank(item_s, TAIL_PERCENTILE)
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "items_per_s": (len(pool) / sum(item_s), "1/s"),
            "item_p50_ms": (statistics.median(item_s) * 1e3, "ms"),
            "item_tail_ms": (tail * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        result["latency_samples"] = len(item_s)
        result["tail_samples_beyond"] = beyond

    result["correct"] = correct
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1, default=str))

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"pool={len(pool)} passes={passes} attempted={attempted} failed={failed} "
        f"failed_frac={failed / attempted:.4f} correct={correct}"
    )
    if failing:
        print("perfbench failing items: " + json.dumps(failing, sort_keys=True))
    if not args.trace:
        print(
            f"perfbench latency samples: {len(pool)} items, each its median of {passes} "
            f"passes; p{TAIL_PERCENTILE} leaves {beyond} beyond"
        )
    for name, (value, unit) in metrics.items():
        print(f"perfbench   {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
