#!/usr/bin/env python3
"""Record the reference report digests in bench/reference.json.

    python3 bench/reference.py [workload ...]

For each named workload (all by default) this runs every distinct unit
at the reference seed and stores the digest of each rendered report.
It refuses to record a unit whose verdicts are not all good.  Rerun it
only for a deliberate change of report bytes, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, REFERENCE_FILE, import_package, use_checkout
from workloads import WORKLOADS


def main(argv):
    if not use_checkout():
        return 2
    names = argv or sorted(WORKLOADS)
    data = (json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists()
            else {"seed": DEFAULT_SEED, "workloads": {}})
    lz = import_package()
    for name in names:
        workload = WORKLOADS[name]
        state = workload.setup(lz, data["seed"])
        digests = []
        for k in range(workload.distinct_units):
            unit = workload.run_unit(lz, state, k)
            if unit.bad:
                print(f"{name} unit {k}: bad verdicts {unit.bad}", file=sys.stderr)
                return 1
            digests.append(unit.digest)
        data["workloads"][name] = digests
        print(f"{name}: {len(digests)} digests")
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
