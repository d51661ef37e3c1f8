"""teamcomp benchmark: one command, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It starts ``worker.py`` once per set-up sample (``--setup-only``) and once
for the measured run, so set-up time includes interpreter start and peak RSS
belongs to a process that ran this workload alone.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Everything else (run metadata, every op's time and outcome, the gate's checks,
the tail percentile and fail ratio) goes to ``.perfbench-out/`` and a summary
to stderr.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from time import perf_counter

from speed import spot_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 5  # the measured run's own set-up is the last sample
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _worker_cmd(args, *extra: str) -> list[str]:
    return [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT, *extra,
    ]


def _start(cmd: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its set-up time (start to READY),
    normalised by the machine's speed just before the start."""
    factor = spot_factor()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup = (perf_counter() - t0) * factor
        if line.strip() != "READY":
            raise BenchError(f"worker set-up failed ({line.strip() or 'no READY'})")
    except BaseException:
        _stop(proc)
        raise
    return proc, setup


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def measure(args) -> tuple[list[float], dict]:
    deadline = perf_counter() + DEADLINE_S
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = _start(_worker_cmd(args, "--setup-only"), deadline)
        try:
            proc.communicate(timeout=max(0.0, deadline - perf_counter()))
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise BenchError(f"set-up worker exited with {proc.returncode}")
        setups.append(setup)
    proc, setup = _start(_worker_cmd(args), deadline)
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker still running after {DEADLINE_S:.0f} s")
    finally:
        _stop(proc)
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode} and no result")
    return setups, json.loads(lines[-1][len("RESULT "):])


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(args, setups: list[float], result: dict, bench: dict) -> tuple[dict, dict]:
    passes = result["passes"]
    op_times = [t for p in passes for t in p["op_s"]]
    outcomes = [o for p in passes for o in p["outcomes"]]
    if result["traced"]:
        outcomes += [o for p in result["traced"]["passes"] for o in p["outcomes"]]
    gate_errors = [o for o in outcomes if not o.startswith(("ok", "expected_failure"))]
    gate_errors += [p["pass_error"] for p in passes if p["pass_error"]]
    if result["traced"]:
        gate_errors += [p["pass_error"] for p in result["traced"]["passes"] if p["pass_error"]]
        if result["traced"]["mismatched_counts"]:
            gate_errors.append(f"counts differ between traced passes: {result['traced']['mismatched_counts']}")
    failed = sum(o != "ok" for o in outcomes)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_s.p50": statistics.median(op_times),
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }
    extra = {
        "fail_ratio": failed / len(outcomes),
        "op_samples": len(op_times),
        "passes": len(passes),
        "setup_samples_s": setups,
    }
    # The tail percentile is reported only with at least ten samples beyond it.
    if len(op_times) >= 100:
        extra["op_s.p90"] = _quantile(op_times, 0.9)
    if result["traced"]:
        layers = dict(result["traced"]["per_layer"])
        layers["trace.overhead_s"] = result["traced"]["overhead_s"]
        wanted = {m["name"]: m["unit"] for m in bench["per_layer"]}
        source = layers
    else:
        wanted = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        source = end_to_end
    missing = sorted(set(wanted) - set(source))
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    line = {
        "correct": not gate_errors,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": source[name], "unit": unit} for name, unit in wanted.items()},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": metadata(),
        "gate": {"checks": result["checks"], "errors": gate_errors},
        "end_to_end": end_to_end,
        "extra": extra,
        "per_layer": source if result["traced"] else None,
        "traced": result["traced"] and {
            k: v for k, v in result["traced"].items() if k not in ("per_layer", "passes")
        },
        "speed": result["speed"],
        "passes": [
            {k: p[k] for k in ("wall_s", "raw_wall_s", "real_s", "ops", "op_s", "raw_op_s", "outcomes")}
            for p in passes
        ],
    }
    return line, details


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def metadata() -> dict:
    uname = os.uname()
    return {
        "commit": _commit(),
        "python": sys.version,
        "implementation": sys.implementation.name,
        "int_info": dict(zip(
            ("bits_per_digit", "sizeof_digit", "default_max_str_digits", "str_digits_check_threshold"),
            tuple(sys.int_info),
        )),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": {"system": uname.sysname, "release": uname.release, "arch": uname.machine},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "teamcomp", "__init__.py")):
        print("perfbench: no src/teamcomp here; run from the root of a teamcomp checkout",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            bench = json.load(handle)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        os.makedirs(OUT, exist_ok=True)
        setups, result = measure(args)
        line, details = summarize(args, setups, result, bench)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1)
    print(
        f"perfbench {args.workload} seed={args.seed}: "
        + json.dumps({"gate": details["gate"], **details["extra"], **details["end_to_end"]}),
        file=sys.stderr,
    )
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
