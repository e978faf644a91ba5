"""The repo benchmark: one command, three workloads, a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paged_poisson --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload prefix_cluster --seed 1 --seconds 10 --trace 1

``--trace 0`` prints every end-to-end metric; ``--trace 1`` prints every
per-layer metric and the tracing overhead, and writes the spans as gzip-compressed
Chrome trace-event JSON under ``.bench_out/``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every request finished with
tokens equal to its reference.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# BLAS/OpenMP threads are pinned before NumPy is first imported: the load
# generator and the engine share one process, and a second BLAS thread on
# a 2-core host turns into run-to-run noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("kelle_decode", "paged_poisson", "prefix_cluster")


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "python": sys.version.split()[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the work: about this long on a 2-core host")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Benchmark the checkout's own source, never an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from perf_metrics import run_workload

    print(json.dumps({"env": _environment(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds,
                      "trace": bool(args.trace)}))
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = outcome.as_json()
    unscaled = outcome.unscaled or {}
    if unscaled:
        print(f"{'metric':30s} {'value':>14s} {'unscaled':>14s} unit")
    for name, metric in result["metrics"].items():
        raw = f"{unscaled[name]:14.6g}" if name in unscaled else ""
        print(f"{name:30s} {metric['value']:14.6g} {raw} {metric['unit']}")
    if outcome.tracer is not None:
        path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json.gz"
        outcome.tracer.write_chrome(path)
        print(f"spans: {len(outcome.tracer.names)} written to {path.relative_to(ROOT)}")
    if not outcome.correct:
        print(f"perfbench: {outcome.failed} of {outcome.attempted} requests did not "
              "finish with their reference tokens", file=sys.stderr)
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
