"""One benchmark process: set up a workload, run its ops, gate every output.

Started by ``run.py`` from the root of a source checkout.  It prints
``READY`` once set-up (interpreter start, ``import teamcomp``, generating the
inputs, writing spec files, warm-up) is done, then, unless ``--setup-only``,
one ``RESULT {json}`` line.  Ops run in a closed loop on one thread: the next
op starts only when the previous one and its gate have finished.

Op times are normalised for machine contention by ``speed.SpeedProbe``;
raw times are kept in the result file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import teamcomp.cli  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from tracer import DETERMINISTIC, Tracer  # noqa: E402
from workloads import WORKLOADS, ExpectedFailure, Mismatch  # noqa: E402

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def run_pass(workload, pins, tracer: Tracer | None = None) -> dict:
    """Run every op once.  Only ``op.call`` is inside the timed region."""
    workload.start_pass()
    gc.collect()
    op_pins = pins["ops"] if pins is not None else None
    intervals, outcomes, observed = [], [], {}
    started = perf_counter()
    for op in workload.ops:
        t0 = perf_counter()
        try:
            value = tracer.span("op", op.call) if tracer else op.call()
        except Exception as exc:
            intervals.append((t0, perf_counter()))
            outcomes.append(f"failed: {type(exc).__name__}: {str(exc)[:200]}")
            continue
        intervals.append((t0, perf_counter()))
        try:
            pin = None
            if op_pins is not None:
                if op.name not in op_pins:
                    raise Mismatch("no pin for this op")
                pin = op_pins[op.name]
            observed[op.name] = workload.check(op, value, pin)
            outcomes.append("ok")
        except ExpectedFailure as exc:
            observed[op.name] = exc.observed
            outcomes.append(f"expected_failure: {exc}")
        except Mismatch as exc:
            outcomes.append(f"mismatch: {exc}")
        del value
    try:
        pass_observed = workload.check_pass(pins["pass"] if pins is not None else None)
        pass_error = None
    except Mismatch as exc:
        pass_observed, pass_error = None, str(exc)
    return {
        "real_s": perf_counter() - started,
        "ops": [op.name for op in workload.ops],
        "intervals": intervals,
        "outcomes": outcomes,
        "observed": observed,
        "pass_observed": pass_observed,
        "pass_error": pass_error,
    }


def warm_up() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        teamcomp.cli.main(["solve", "--example", "card"])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workdir = os.path.join(args.out, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        with open(PINS, encoding="utf-8") as handle:
            pins = json.load(handle)[args.workload]
        result = {"checks": workload.applied_checks(), "passes": [], "traced": None}
        start = perf_counter()
        with SpeedProbe() as probe:
            result["passes"].append(run_pass(workload, pins))
            # Later passes reuse memory the first one grew, so the high-water
            # mark is taken here whatever the number of passes.
            result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if args.trace:
                result["traced"] = traced_passes(workload, pins)
            else:
                # Whole passes while the next one still fits in --seconds.
                while True:
                    elapsed = perf_counter() - start
                    done = len(result["passes"])
                    if elapsed * (done + 1) / done > args.seconds:
                        break
                    result["passes"].append(run_pass(workload, pins))
        traced = result["traced"]
        every_pass = result["passes"] + (traced["passes"] if traced else [])
        result["speed"] = probe.normalise(every_pass)
        if traced:
            first = traced.pop("tracer")
            traced["overhead_s"] = traced["passes"][0]["wall_s"] - result["passes"][0]["wall_s"]
            spans = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.bin")
            first.write(spans)
            traced["spans_file"] = os.path.relpath(spans, ROOT)
        workload.close()
        for p in every_pass:
            del p["observed"]
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_passes(workload, pins) -> dict:
    """Two traced passes: the first gives the per-layer metrics and the
    spans, the second must repeat the first one's counts exactly."""
    runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            p = run_pass(workload, pins, tracer)
        finally:
            tracer.uninstall()
        runs.append((tracer, p, tracer.metrics()))
    (first, pass_a, layers), (_, pass_b, layers_b) = runs
    return {
        "tracer": first,
        "passes": [pass_a, pass_b],
        "per_layer": layers,
        "mismatched_counts": {
            name: [layers[name], layers_b[name]]
            for name in DETERMINISTIC
            if layers[name] != layers_b[name]
        },
        "missing_sites": first.missing,
    }


if __name__ == "__main__":
    sys.exit(main())
