"""Rewrite ``tests/golden/fingerprints.json`` from the current tree.

Run from the repository root::

    PYTHONPATH=src python -m tests.golden.regenerate

The file pins the decisions of the default (push) path.  It is meant
to stay byte-identical across refactors; any commit that changes it
must say in CHANGES.md which cases moved and why.  A case whose
invariant audit reports violations is refused, not written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tests.golden.cases import CASES, fingerprint, run_case

PATH = Path(__file__).with_name("fingerprints.json")


def main() -> int:
    out = {}
    for name in CASES:
        res = run_case(name)
        if not res.ok:
            print(f"{name}: invariant violations\n{res.report.format_text()}",
                  file=sys.stderr)
            return 1
        out[name] = fingerprint(res)
        print(f"{name}: {out[name]['events']} events "
              f"{out[name]['sha256'][:12]}")
    PATH.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
