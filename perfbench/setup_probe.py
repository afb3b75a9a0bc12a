"""One set-up as a CLI call pays it: ``import saxkit``, then read the inputs.

Usage: ``python3 setup_probe.py SRC_DIR FILE...``.  Prints one JSON line with
the import and load times once the inputs are in memory; the caller times
the whole process from its start to that line.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import saxkit  # noqa: E402
from saxkit import harness  # noqa: E402

t1 = time.perf_counter()
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        labeled = "," in fh.readline()
    (harness.load_labeled_csv if labeled else harness.load_series_csv)(path)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "saxkit": saxkit.__file__}), flush=True)
