"""One set-up sample, in a fresh interpreter: import sgdmlab and parse configs.

Usage: python3 setup_probe.py SRC_DIR < configs.json

Reads a JSON list of config texts from stdin, then times importing
sgdmlab from SRC_DIR and parsing every config, and prints the seconds.
The interpreter's own start-up is outside the timed region.
"""

import json
import sys
import time

texts = json.load(sys.stdin)
src = sys.argv[1]
t0 = time.perf_counter()
sys.path.insert(0, src)
import sgdmlab  # noqa: E402
from sgdmlab.config import parse_config  # noqa: E402

for text in texts:
    parse_config(text)
elapsed = time.perf_counter() - t0
if not sgdmlab.__file__.startswith(src):
    sys.exit(f"imported sgdmlab from {sgdmlab.__file__}, not from {src}")
print(repr(elapsed))
