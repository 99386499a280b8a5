"""Set-up probe: a fresh interpreter imports the CLI and builds the inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line as soon as it is ready for a first operation; run.py
times the probe from spawn to that line.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import jscthermo.cli  # noqa: E402,F401

imported = time.perf_counter()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]))
print(json.dumps({"import_s": imported - start,
                  "inputs_s": time.perf_counter() - imported}), flush=True)
