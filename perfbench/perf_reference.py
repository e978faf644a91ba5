"""Reference-token worker, started by :func:`perf_metrics.check_outputs`.

Usage::

    python3 perfbench/perf_reference.py WORKLOAD SEED SECONDS INDEX COUNT

Regenerates the workload's requests from ``SEED`` and ``SECONDS`` exactly as
the benchmark does, computes the reference tokens of every ``COUNT``-th
request starting at ``INDEX``, and prints them as one JSON object (request
id -> tokens) on standard output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    name, seed, seconds, index, count = argv
    from perf_workloads import WORKLOADS, build_model

    workload, lm = WORKLOADS[name], build_model()
    requests, _ = workload.inputs(int(seed), float(seconds))
    tokens = {request.request_id: [int(t) for t in workload.reference(lm, request, int(seed))]
              for request in requests[int(index)::int(count)]}
    print(json.dumps(tokens))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
