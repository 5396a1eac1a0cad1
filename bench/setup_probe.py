"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is what a user pays before the first result: importing lmint
(with numpy and scipy), building the workload's configs and one warm-up
call through its main path.  Measured in CPU seconds of this process and
read at the reference speed of speed.py, like every timing of the benchmark.

    python3 bench/setup_probe.py <workload>
"""
import time

T0 = time.process_time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](BENCH.parent / ".bench_out").warm_up()
SPENT = time.process_time() - T0

import speed  # noqa: E402

LOOPS = sorted(speed.reference_loop() for _ in range(3))
print(SPENT * speed.NOMINAL_S / LOOPS[1])
