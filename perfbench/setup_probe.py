"""Set-up cost of one chverify call, measured inside a fresh interpreter.

Times the import of cartanhartogs and the construction and domain resolution
of the workload's RunConfigs, then times the reference kernel (median of
three) and prints both, in seconds, on stdout.

    python3 perfbench/setup_probe.py <workload>
"""

import time

started = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from cartanhartogs import cli  # noqa: E402

import workloads  # noqa: E402

for _, cfg in workloads.make_calls(cli, sys.argv[1], 0):
    cfg.domain_spec
setup_s = time.perf_counter() - started

import statistics  # noqa: E402

import reference  # noqa: E402

print(repr(setup_s), repr(statistics.median(reference.kernel_s() for _ in range(3))))
