"""Print the process's peak resident memory after each op of a benchmark workload.

Builds the workload with ``build`` from perfbench/workloads.py, which this
only imports, runs its ops 0..N-1 one at a time with one numeric thread (as
perfbench/run.py does) and prints ``op peak_rss_mb minflt`` after each: the
process's ``ru_maxrss`` in MB (2^20 bytes) and the minor page faults
(``ru_minflt``) the op took.  A first line names the balkwise that was
imported.  Point PYTHONPATH at a checkout's ``src`` to measure it, so two
commits can be compared, each in a fresh process:

    PYTHONPATH=src python tools/rss_series.py --workload study-normality --seed 2 --ops 40
    PYTHONPATH=<other checkout>/src python tools/rss_series.py --workload study-normality --seed 2 --ops 40

Needs only the standard library, numpy and balkwise.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
from pathlib import Path

# one numeric thread, fixed before numpy is imported, as in a benchmark run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import balkwise  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="study-normality")
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--ops", type=int, default=40)
    args = parser.parse_args(argv)
    print(f"# balkwise {balkwise.__version__} from {Path(balkwise.__file__).parent}")
    with tempfile.TemporaryDirectory() as out_root:
        wl = workloads.build(args.workload, args.seed, Path(out_root))
        try:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for op in range(args.ops):
                wl.run(op)
                usage = resource.getrusage(resource.RUSAGE_SELF)
                print(op, f"{usage.ru_maxrss / 1024.0:.2f}", usage.ru_minflt - faults, flush=True)
                faults = usage.ru_minflt
        finally:
            wl.close()


if __name__ == "__main__":
    main()
