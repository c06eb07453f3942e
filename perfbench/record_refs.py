"""Record the reference artefact digest of every pooled instance.

    python3 perfbench/record_refs.py [--workload NAME ...]

Runs each instance any run of a workload can make
(:func:`scenarios.pooled_instances`) once through the same
:func:`scenarios.run_instance` the benchmark uses and writes their sha256
digests to ``perfbench/references.json``.  Every pooled instance is
recorded: one that raises is stored as ``"error: <type>"``, so the
benchmark counts it as a failure rather than skipping it.  Re-record only
on purpose, when a change alters simulated outputs and says so.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from scenarios import (  # noqa: E402
    REFERENCES,
    WORKLOADS,
    artefact_digest,
    error_reference,
    pooled_instances,
    run_instance,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="record only these workloads (default: all)",
    )
    args = parser.parse_args()
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in args.workload or list(WORKLOADS):
        digests: dict[str, str] = {}
        for instance in pooled_instances(name):
            start = time.perf_counter()
            try:
                digest = artefact_digest(run_instance(name, instance))
            except Exception as exc:  # recorded, never skipped
                digest = error_reference(exc)
            digests[instance.key] = digest
            elapsed = time.perf_counter() - start
            print(f"{name} {instance.key} {digest[:16]} {elapsed:.2f}s", flush=True)
        references[name] = digests
        REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
