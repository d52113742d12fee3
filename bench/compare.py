"""Compare two benchmark result records written with ``run.py --out``.

    python3 bench/compare.py BEFORE.json AFTER.json

Records of different instance sets are refused: both must carry the same
workload, seed and corpus sha256.  For each metric both records hold, it
prints the two values and the change as a share of the first.
"""

import json
import sys


def main(before_path, after_path):
    with open(before_path, encoding="utf-8") as fh:
        before = json.load(fh)
    with open(after_path, encoding="utf-8") as fh:
        after = json.load(fh)
    for key in ("workload", "seed", "trace", "corpus_sha256"):
        a, b = before["context"].get(key), after["context"].get(key)
        if a != b:
            print(f"refused: {key} differs ({a} vs {b})", file=sys.stderr)
            return 2
    a_metrics = before["result"]["metrics"]
    b_metrics = after["result"]["metrics"]
    for name in a_metrics:
        if name not in b_metrics:
            continue
        a, b = a_metrics[name]["value"], b_metrics[name]["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"{name:48s} {a:14.6g} {b:14.6g} {change:>8s} {a_metrics[name]['unit']}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
