"""Set-up time of one fresh process: import milne_lab, validate a config.

Usage: ``python3 perfbench/setup_probe.py '<config JSON>'`` with ``src``
on ``PYTHONPATH``.  Prints the seconds from just before ``import
milne_lab`` until ``validate_config`` returns.
"""

import json
import sys
import time

raw = json.loads(sys.argv[1])
t0 = time.perf_counter()
import milne_lab  # noqa: E402  (the import is what is timed)

milne_lab.validate_config(raw)
print(repr(time.perf_counter() - t0))
