"""Write perfbench/pins.json: exit status and report digest of every task
variant of every workload, as the current source tree produces them.

    python3 perfbench/pin.py

The pins fix the reports byte for byte, so regenerate them only when a change
is meant to alter a report.  Before writing, the script checks that every
task exits 0 and that Galois-conjugate twists of one task certify the same
answers (their reports may differ only in fields that print the twist).
"""

from __future__ import annotations

import json
import sys

import harness

# report fields that carry the printed twist, and nothing else
TWIST_FIELDS = {"zeta", "input", "central_element"}


def _strip_twist(value):
    if isinstance(value, dict):
        return {k: _strip_twist(v) for k, v in value.items() if k not in TWIST_FIELDS}
    if isinstance(value, list):
        return [_strip_twist(v) for v in value]
    return value


def main():
    cli = harness.import_cli()
    pins = {}
    for templates in harness.WORKLOADS.values():
        for template in templates:
            answers = set()
            for line in harness.variants(template):
                status, report, seconds = harness.run_task(cli, line.split())
                if status != 0:
                    sys.exit(f"{line}: exit status {status}, refusing to pin")
                pins[line] = {"status": status, "sha256": harness.digest(report)}
                answers.add(json.dumps(_strip_twist(json.loads(report)), sort_keys=True))
                print(f"{seconds:8.3f}s  {line}", flush=True)
            if len(answers) != 1:
                sys.exit(f"{template}: conjugate twists certify different answers")
    with open(harness.PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
