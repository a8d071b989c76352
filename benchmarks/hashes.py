"""Print the sha256 of every output the last benchmark run of each workload kept.

    python3 benchmarks/hashes.py [WORKLOAD ...]

Reads .bench_out/<workload>/run/ops/<operation>/ under the checkout root
and prints one ``<sha256>  <path>`` line per metrics.csv, checkpoint.bin
and report.json.  The hashes are for comparison by eye with the golden
hashes in ROADMAP.md (which are for seed-0 default runs); nothing gates
on them.
"""

import os
import sys

from checks import file_sha256
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUTS = ("metrics.csv", "checkpoint.bin", "report.json")


def main(argv):
    for workload in argv or WORKLOADS:
        ops_dir = os.path.join(ROOT, ".bench_out", workload, "run", "ops")
        if not os.path.isdir(ops_dir):
            print(f"{workload}: no outputs (run the benchmark first)", file=sys.stderr)
            continue
        for op in sorted(os.listdir(ops_dir)):
            for name in OUTPUTS:
                path = os.path.join(ops_dir, op, name)
                if os.path.isfile(path):
                    print(f"{file_sha256(path)}  {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
