"""Record the reference outputs of every catalog op into ``refs.json``.

    python3 perfbench/make_refs.py

Run once, from the root of a source checkout, at the commit whose outputs
are the reference.  For every op of the ``sweep_csv``, ``attack_search``
and ``oracle_verify`` catalogs it stores the SHA-256 of the op's input, of
its stdout and of the CSV it writes, and its exit code.  An op that raises
has no answer to record; it is reported and must be listed in
``workloads.CLI_CRASHES``, which keeps it out of the workload.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("OEVSIM_WORKERS", None)
    import workloads

    workloads.WORK.mkdir(parents=True, exist_ok=True)
    refs, crashes = {}, []
    for catalog in workloads.CATALOGS.values():
        for variants in catalog().values():
            for op in variants:
                op.prepare()
                try:
                    result = op.call()
                except Exception as exc:  # reported below, never recorded as an answer
                    crashes.append(op.id)
                    print(f"{op.id}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                refs[op.id] = {"input": op.input_digest(), **op.outcome(result)}
    workloads.REFS.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"{len(refs)} references written to {workloads.REFS.relative_to(ROOT)}")
    unlisted = sorted(set(crashes) - set(workloads.CLI_CRASHES))
    if unlisted:
        print(f"crashing ops missing from workloads.CLI_CRASHES: {unlisted}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
