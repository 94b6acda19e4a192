"""Record the golden reports that ``report_max_dev`` compares against.

    python3 perfbench/record_golden.py

Runs each workload's command once on its cohort for the default seed and
copies the reports to ``perfbench/golden/<workload>/``. The checked-in
goldens were recorded with pcgkit 0.1.0, before any optimisation; re-record
only when a change to the reports is intended.
"""

import shutil
import sys
import time

from run import DEFAULT_SEED, GOLDEN, RUN_LIMIT_S, WORKLOADS, Run


def main():
    for workload in WORKLOADS.values():
        run = Run(workload, DEFAULT_SEED, workload.cohort,
                  time.perf_counter() + RUN_LIMIT_S)
        try:
            run.prepare()
            shutil.rmtree(run.dir / "out", ignore_errors=True)
            inv = run.python("-m", "pcgkit", *workload.argv)
            if inv.exit_code != 0:
                print(f"{workload.name}: exit {inv.exit_code}\n{inv.stderr}",
                      file=sys.stderr)
                return 1
            dest = GOLDEN / workload.name
            shutil.rmtree(dest, ignore_errors=True)
            shutil.copytree(run.dir / "out", dest)
            print(f"{workload.name}: {sorted(p.name for p in dest.iterdir())}")
        finally:
            run.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
