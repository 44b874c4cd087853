"""One set-up of a workload in a fresh interpreter; prints its times as JSON.

    python3 perfbench/probe.py <workload> <seed>

The workload's inputs are generated first, from the standard library only.
The clock then covers `import quadcong` (numpy included), make_modulus /
make_character on every modulus the workload passes to the API, and one
warm-up operation.  run.py starts several of these and reports the median.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS, load_api  # noqa: E402


def main():
    clock = time.perf_counter
    wl = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    t0 = clock()
    api = load_api()
    t1 = clock()
    wl.setup(api)
    t2 = clock()
    wl.warmup()
    t3 = clock()
    print(json.dumps({"import_s": t1 - t0, "make_modulus_s": t2 - t1, "warmup_s": t3 - t2, "setup_s": t3 - t0}))


if __name__ == "__main__":
    main()
