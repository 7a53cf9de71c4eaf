"""Check a traced benchmark run: its outputs are correct and every named
layer metric is above 0.

Usage: tail -n 1 run.txt | python3 .github/check_traced.py LAYER [LAYER ...]

Reads the run's last line, its JSON document, on stdin. A hook whose target
was renamed is skipped and its metric reads 0, so a layer at 0 fails the
check. Exits 0 when the run is correct and no named layer is at 0, else 1.
"""

import json
import sys

if len(sys.argv) < 2:
    sys.exit(__doc__)
doc = json.load(sys.stdin)
zero = [n for n in sys.argv[1:] if not doc["metrics"][n]["value"] > 0]
print("correct:", doc["correct"], "layers at 0:", zero or "none")
sys.exit(0 if doc["correct"] is True and not zero else 1)
