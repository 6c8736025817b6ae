"""Time set-up in a fresh interpreter: ``import arlabel.cli`` (which imports
every module) plus building or parsing the workload's Graph inputs.

Usage: python3 perfbench/setup_probe.py <workload> <inputs-dir>
Prints one JSON object: {"import_s": ..., "setup_s": ...}.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module; imports no arlabel)

t0 = time.perf_counter()
import arlabel.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0
workloads.prepare(sys.argv[1], Path(sys.argv[2]))
setup_s = time.perf_counter() - t0
print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
