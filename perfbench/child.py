"""``python -m swcalc ARGS`` with the speed sampler on.

    PERFBENCH_SPEED_FILE=samples.json python3 perfbench/child.py ARGS

Runs the swcalc command line exactly as ``python -m swcalc ARGS`` does (exit
code, standard output and error), sampling the CPU speed meanwhile (see
``speed.py``).  The samples are written as JSON to the file that the
PERFBENCH_SPEED_FILE environment variable names, when it is set.
"""

import os
import runpy

from speed import Sampler


def main() -> None:
    sampler = Sampler()
    try:
        with sampler.running():
            runpy.run_module("swcalc", run_name="__main__", alter_sys=True)
    finally:
        if os.environ.get("PERFBENCH_SPEED_FILE"):
            sampler.dump(os.environ["PERFBENCH_SPEED_FILE"])


if __name__ == "__main__":
    main()
