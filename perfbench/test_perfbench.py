"""Self-tests of the benchmark harness (not part of the package's suite).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import generate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pwmstab import config, model, sim, stability, steadystate  # noqa: E402

SEED = 7


def _dump(workload, seed):
    return [(i.id, i.kind, i.text, i.start_offset) for i in generate.make_items(workload, seed)]


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _dump(workload, SEED) == _dump(workload, SEED)


def test_inputs_do_not_depend_on_the_process():
    code = (
        "import json, generate; print(json.dumps([[i.text, i.start_offset] "
        f"for w in generate.WORKLOADS for i in generate.make_items(w, {SEED})]))"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    here = [[i.text, list(i.start_offset)] for w in generate.WORKLOADS
            for i in generate.make_items(w, SEED)]
    assert json.loads(outputs[0]) == here


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    a = [text for _, _, text, _ in _dump(workload, SEED)]
    b = [text for _, _, text, _ in _dump(workload, SEED + 1)]
    assert not set(a) & set(b)


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_mix_is_fixed_and_every_text_parses(workload):
    items = generate.make_items(workload, SEED)
    kinds = sorted(i.kind for i in items)
    assert kinds == sorted(k for k, n in generate.MIX[workload] for _ in range(n))
    for item in items:
        m, _, _, _ = config.build(config.parse_config(item.text))
        assert (model.detect_buck_structure(m) is not None) == item.is_buck


def _traced_counts(workload, pool, passes):
    runner = workloads.RUNNERS[workload]
    tracer = spans.Tracer()
    with tracer:
        for k in range(passes * len(pool)):
            tracer.item_id = k
            workloads.run_item(runner, pool[k % len(pool)])
    return run.item_counts(tracer, len(pool))


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_work_counts_repeat_exactly(workload):
    def pool():
        return workloads.prepare(workload, generate.make_items(workload, SEED)[:3])

    first = _traced_counts(workload, pool(), 2)
    again = _traced_counts(workload, pool(), 1)
    assert first[0] == first[1] == again[0]
    assert all(c.get("expm", 0) > 0 for c in first[0].values())


def test_tracer_restores_the_program():
    before = (steadystate.solve_periodic_orbit, stability.x0_of_d, sim.CycleSimulator.cycle)
    with spans.Tracer():
        assert steadystate.solve_periodic_orbit is not before[0]
    after = (steadystate.solve_periodic_orbit, stability.x0_of_d, sim.CycleSimulator.cycle)
    assert before == after


def _solved_item(kind):
    for seed in range(SEED, SEED + 20):
        for item in generate.make_items("orbit-analysis", seed):
            if item.kind != kind:
                continue
            p = workloads.prepare("orbit-analysis", [item])[0]
            answer = workloads.run_item(workloads.run_orbit_analysis, p)
            if workloads.check("orbit-analysis", p, answer).status == "ok":
                return p, answer
    raise AssertionError(f"no oracle-confirmed {kind} item found")


def test_oracle_rejects_a_wrong_jacobian():
    p, (ss, jd, *_rest) = _solved_item("buck-tem")
    wrong = jd.Phi * (1.0 + 1e-5)
    verdict = workloads._check_jacobian(p, ss.x0_start, wrong)
    assert verdict.status == "failed" and verdict.cls == "jacobian"


def test_oracle_rejects_a_wrong_orbit():
    p, (ss, *_rest) = _solved_item("general-n3")
    shifted = steadystate.SteadyState(
        d=ss.d * (1 + 1e-6), duty=ss.duty, x0_start=ss.x0_start,
        x0_switch=ss.x0_switch, y_switch=ss.y_switch,
    )
    verdict = workloads._check_orbit(p, shifted)
    assert verdict.status == "failed" and verdict.cls == "latch"


def test_settled_sim_start_gives_the_transient_tail():
    """The untimed transient leaves the tail steady_period would classify."""
    import numpy as np

    items = generate.make_items("sim-oracle", SEED)
    picks = [next(i for i in items if i.kind.endswith(side)) for side in ("below", "above")]
    for p in workloads.prepare("sim-oracle", picks):
        ref = p.reference
        x = ref.ss.x0_start + np.asarray(p.item.start_offset)
        sp = p.solver.scan_points
        direct = sim.steady_period(
            p.model, p.ramp, p.u, x, transient=workloads.SIM_TRANSIENT, scan_points=sp
        )
        settled = sim.steady_period(p.model, p.ramp, p.u, ref.start, transient=0, scan_points=sp)
        assert direct == settled
        assert workloads.check("sim-oracle", p, workloads.run_item(
            workloads.run_sim_oracle, p)).status == "ok"
