"""Set-up probe: a fresh interpreter imports jcorm and its command-line
module, then builds and validates one workload's configs, and exits.
``run_bench.py`` times whole runs of this script as ``setup_s``.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys

import run_bench

if __name__ == "__main__":
    run_bench.import_checkout()
    import jcorm.cli  # noqa: F401  (what the jcorm command pays at start-up)
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]](int(sys.argv[2]))
