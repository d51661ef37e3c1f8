"""Write ``pins.json``: the gate's expected outputs at the default seed.

Run from the repository root as ``python3 perfbench/pin.py``.  The pins
record the answers of the program as it is; the answers must never change
(ROADMAP: any change to a value table is a bug), so regenerate them only when
a workload's inputs change, and check the diff: every digest of an existing
op must stay the same.
"""

from __future__ import annotations

import json
import os
import tempfile

from worker import PINS, run_pass
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    pins = {}
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as workdir:
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, workdir)
            result = run_pass(workload, None)
            workload.close()
            bad = [o for o in result["outcomes"] if not o.startswith(("ok", "expected_failure"))]
            if bad or result["pass_error"]:
                raise SystemExit(f"{name}: {bad or result['pass_error']}")
            pins[name] = {"ops": result["observed"], "pass": result["pass_observed"]}
            share = sum(o != "ok" for o in result["outcomes"])
            print(f"{name}: {len(workload.ops)} ops, {share} expected failures, "
                  f"{result['real_s']:.1f} s", flush=True)
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
