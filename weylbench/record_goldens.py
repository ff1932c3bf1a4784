"""Record the expected outcome and stdout sha256 of every default-seed document.

    python3 weylbench/record_goldens.py

Writes ``weylbench/goldens.json``.  Run it only on a commit whose outputs are
known to be right: the benchmark later requires every recorded document to
reproduce its stdout byte for byte.  A document that lands outside its
expected class stops the recording.
"""
from __future__ import annotations

import hashlib
import json
import sys

from worker import GOLDENS, check, doc_key, execute, import_package
from workloads import WORKLOADS

DEFAULT_SEED = 1


def main() -> int:
    cli = import_package()
    goldens = {}
    for name, make in WORKLOADS.items():
        for doc in make(DEFAULT_SEED):
            outcome, stdout, start, end = execute(cli, doc.argv)
            reason = check(doc, outcome, stdout, {})
            if reason is not None and not reason.startswith("known defect"):
                print(f"{name}: {doc.label}: {reason}", file=sys.stderr)
                return 1
            goldens[doc_key(doc.argv)] = [outcome, hashlib.sha256(stdout).hexdigest()]
            print(f"{name}: {doc.label}: {outcome} in {end - start:.3f} s", flush=True)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(goldens)} documents recorded in {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
