"""Set-up probe: import algcalc from ``<root>/src``, load each config with
``cli.load_config``, then print ``time.perf_counter()``.  The caller reads
that clock (system-wide on Linux) before it launches the probe, so the
difference spans process launch, import and configuration loading.

    python3 perfbench/setup_probe.py <checkout root> <config.json>...
"""

import os
import sys
import time


def main(argv):
    root, configs = argv[0], argv[1:]
    sys.path.insert(0, os.path.join(root, "src"))
    from algcalc import cli
    for path in configs:
        cli.load_config(path)
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main(sys.argv[1:])
