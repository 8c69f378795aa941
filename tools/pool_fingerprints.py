"""Print the answer fingerprint of every benchmark pool item.

Usage (from the root of a checkout)::

    python3 tools/pool_fingerprints.py --seeds 1 2 3

For each seed and each workload of ``perfbench/``, every pool item is
built and run once, untimed, by the benchmark's own code
(``generate.make_items``, ``workloads.prepare``, ``workloads.run_item``),
and one ``item_id fingerprint`` line is printed, with the
``workloads.fingerprint`` of its answer.  A refused or crashed item
prints the fingerprint of that outcome.  Diffing the output of two
checkouts shows every answer a change moved, to the last bit.  One seed
takes about a second.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# One BLAS thread, as the benchmark runs, before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import generate  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for workload in generate.WORKLOADS:
            items = generate.make_items(workload, seed)
            runner = workloads.RUNNERS[workload]
            for prep in workloads.prepare(workload, items):
                answer = workloads.run_item(runner, prep)
                print(prep.item.id, workloads.fingerprint(answer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
