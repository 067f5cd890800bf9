"""Record the expected output of every benchmark op in expected.json.

Usage, from the root of a source checkout:

    python3 bench/record.py

CLI output is a byte-identical contract, so re-record only for a deliberate
output change, and say so where the change is described.  ``table`` and
``oracle-compare`` ops are pinned by their stdout digest.  ``verify`` ops are
pinned by their last line only, since their body may gain counts.  The item
count of an op is the number of checked entries it produces: table cells
agreed by both routes, oracle entries compared, and for ``verify GLn`` the
cells of the ``table GLn`` it cross-checks.
"""

from __future__ import annotations

import csv
import json
import os
import re

from run import BENCH, WORKLOADS, op_key, run_pass


def _table_items(stdout):
    rows = list(csv.reader(line for line in stdout.splitlines() if not line.startswith("#")))
    return sum(len(row) - 1 for row in rows[1:])


def main():
    ops = []
    for workload_ops in WORKLOADS.values():
        ops += [op for op in workload_ops if op not in ops]
    report = run_pass(ops, keep_stdout=True)
    expected = {}
    for op in report["ops"]:
        argv, out = op["argv"], op["stdout"]
        if op["rc"] != 0:
            raise SystemExit(f"{op_key(argv)} exited with {op['rc']}: {op['error']}")
        if argv[0] == "table":
            expected[op_key(argv)] = {"sha256": op["sha256"], "items": _table_items(out)}
        elif argv[0] == "oracle-compare":
            items = int(re.search(r": (\d+) entries OK$", out).group(1))
            expected[op_key(argv)] = {"sha256": op["sha256"], "items": items}
        else:
            expected[op_key(argv)] = {"last_line": op["last_line"]}
    for argv in ops:
        if argv[0] == "verify":
            expected[op_key(argv)]["items"] = expected[op_key(["table", argv[1]])]["items"]
    with open(os.path.join(BENCH, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
