"""Record bench/golden.json: digests of the answers alglab gives today.

    python3 bench/record_golden.py

Runs every item of every workload once (full size, seed 0) and stores the
digest of each golden-backed answer.  Items whose known answer comes from a
closed form or an oracle must already pass, or nothing is written.  The
digests are seed-independent (see workloads.py), so one recording serves
every seed.  Re-record only when a change to alglab is meant to change an
answer, and say so in the change.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    run.import_program()
    golden, bad = {}, []
    run.OUT.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        workdir = run.OUT / f"golden-{name}-{os.getpid()}"
        workdir.mkdir()
        try:
            wl = workloads.build(name, 0, "full", workdir, {})
            table = {}
            for item in wl.items:
                out = item.run()
                if item.golden:
                    item.expected = table[item.label] = workloads.digest(item.answer(out))
                if not item.check(out):
                    bad.append(item.label)
            golden[name] = dict(sorted(table.items()))
            print(f"{name}: {len(table)} golden digests, {len(wl.items)} items")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print("not recorded; these items fail their closed-form or oracle answers:",
              *bad, sep="\n  ", file=sys.stderr)
        return 1
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
