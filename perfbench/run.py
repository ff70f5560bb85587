"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dfunc_n512 --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import sys

import pinning

if __name__ == "__main__":
    pinning.pin()
    try:
        import decohist
    except ImportError as exc:
        print(f"error: cannot import decohist from {pinning.SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not decohist.__file__.startswith(pinning.SRC + "/"):
        print(f"error: decohist imported from {decohist.__file__}, not {pinning.SRC}", file=sys.stderr)
        sys.exit(2)
    from bench import main

    sys.exit(main())
