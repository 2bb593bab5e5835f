#!/usr/bin/env python3
"""Seeded benchmark of the arpsd screening tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of clinical-cli, long-cli, wide-montage, epochs-auto, or all
(the default, which runs the four in turn).  Run it from the root of a
source tree: the program is imported from ./src.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it list every metric by name
and unit.  See perfbench/README.md.
"""

import os

import params

# Capped before NumPy loads.
os.environ.update(params.THREAD_CAPS)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description="Seeded benchmark of the arpsd screening tool.")
    parser.add_argument("--workload", default="all", choices=params.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arpsd" / "__init__.py").is_file():
        print(f"error: no arpsd sources under {SRC}; run from the root of a source tree",
              file=sys.stderr)
        return 2
    problems = reference.self_test()
    if problems:
        print("error: reference self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    import harness

    workloads = params.WORKLOADS if args.workload == "all" else (args.workload,)
    print(json.dumps(harness.run(workloads, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
