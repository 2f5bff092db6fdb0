"""entbound benchmark: CLI workloads timed end to end, and per module when traced.

    python3 perfbench/run.py --workload survey-small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every operation is one in-process
``entbound.cli.main(argv)`` call in a fresh worker process, in a closed loop
with one client.  With ``--trace 0`` the last stdout line carries the
``end_to_end`` metrics of BENCHMARK.json; with ``--trace 1`` it carries the
``per_layer`` metrics from a traced run.  The line before it holds the
details: environment, set-up samples, tail latency, output hashes and check
failures.  See README.md in this directory for the reasons behind each choice.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_op
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "out"
# every child must end before this many seconds have passed since start
DEADLINE_S = 170
STARTED = time.monotonic()


def run_worker(job: dict, env_extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(env_extra or {})
    results = WORK / f"{job['workload']}-{job['mode']}-{job['worker']}.json"
    job = {**job, "root": str(ROOT), "results": str(results)}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(job)],
                          env=env, cwd=str(ROOT), capture_output=True, text=True,
                          timeout=max(1.0, DEADLINE_S - (time.monotonic() - STARTED)))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({job['mode']}) exited with {proc.returncode}:\n{proc.stderr}")
    with open(results, encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def tail_latency(latencies: list[float]) -> dict | None:
    """Highest listed percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(pct / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return {"percentile": pct, "ms": ordered[rank - 1] * 1e3,
                    "beyond": len(ordered) - rank, "samples": len(ordered)}
    return None


def cycle_sha256(ops: list[dict]) -> str:
    digest = hashlib.sha256()
    for op in ops:
        if op["cycle"] == 0:
            digest.update(op["stdout"].encode())
    return digest.hexdigest()


def states_per_s(result: dict, ok: list[dict]) -> float:
    """States analysed by successful operations per second of the timed phase."""
    return sum(op["states"] for op in ok) / result["wall_s"]


def merge(parts: list[dict]) -> dict:
    """Pool the results of the worker processes of one run."""
    return {**parts[0], "ops": [op for p in parts for op in p["ops"]],
            "wall_s": sum(p["wall_s"] for p in parts),
            "cycles": sum(p["cycles"] for p in parts),
            "setups_s": [p["setup"]["setup_s"] for p in parts],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts)}


def end_to_end(result: dict, ok: list[dict]) -> dict[str, float]:
    return {"setup_s": statistics.median(result["setups_s"]),
            "states_per_s": states_per_s(result, ok),
            "op_p50_ms": statistics.median(op["latency_s"] for op in result["ops"]) * 1e3,
            "peak_rss_mb": result["peak_rss_mb"]}


def per_layer(result: dict, reference: dict, names: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics: one fresh process's set-up spans plus one cycle's mean spans."""
    trace, cycles = result["trace"], result["cycles"]
    plain = [op for op in result["ops"] if not op["traced"]]
    traced = [op for op in result["ops"] if op["traced"]]
    states = sum(op["states"] for op in traced)

    def layer(fn: str, field: str) -> float:
        return (trace["setup"].get(fn, {}).get(field, 0)
                + trace["ops"].get(fn, {}).get(field, 0) / cycles)

    def calls_per_state(*fns: str) -> float:
        return sum(trace["ops"].get(fn, {}).get("calls", 0) for fn in fns) / states

    derived = {
        "criteria.trace_norms_per_state": lambda: calls_per_state(
            "criteria.partial_transpose_norm", "criteria.realign_norm"),
        "criteria.build_witness.calls_per_state": lambda: calls_per_state(
            "criteria.build_witness"),
        "setup.import_s": lambda: result["setup"]["import_s"],
        "setup.structure_s": lambda: result["setup"]["structure_s"],
        "setup.scipy_loaded": lambda: float(result["setup"]["scipy_loaded"]),
        "process.cpu_per_wall": lambda: (sum(op["cpu_s"] for op in plain)
                                         / sum(op["latency_s"] for op in plain)),
        "trace.states_per_s": lambda: states / sum(op["latency_s"] for op in traced),
        "trace.untraced_states_per_s": lambda: (sum(op["states"] for op in plain)
                                                / sum(op["latency_s"] for op in plain)),
        "reference_1thread.setup_s": lambda: reference["setup"]["setup_s"],
        "reference_1thread.states_per_s": lambda: states_per_s(reference, reference["ops"]),
    }
    metrics, missing = {}, []
    for name in names:
        if name in derived:
            metrics[name] = derived[name]()
            continue
        fn, _, field = name.rpartition(".")
        if fn not in result["traced_names"]:
            missing.append(fn)
        metrics[name] = float(layer(fn, field))
    return metrics, missing


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "entbound" / "__init__.py").is_file():
        print(f"error: no entbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    WORK.mkdir(parents=True, exist_ok=True)
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    workload = WORKLOADS[args.workload]
    inputs = {s.path: s for s in workload.prepare(args.seed, WORK)}
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "ns": list(workload.ns), "paths": list(inputs), "worker": 0, "workers": 1}
    started = time.perf_counter()
    try:
        if args.trace:
            spans = WORK / f"{args.workload}-spans.jsonl.gz"
            result = merge([run_worker({**job, "mode": "trace", "spans": str(spans)})])
            reference = run_worker({**job, "mode": "reference"}, {"OPENBLAS_NUM_THREADS": "1"})
        else:
            # A process keeps one speed for its life, but fresh processes
            # differ by up to 25 % (measured on a 2-vCPU VM), so the timed
            # phase is split over several of them.
            k = workload.processes
            result = merge([run_worker({**job, "mode": "run", "worker": j, "workers": k,
                                        "seconds": args.seconds / k}) for j in range(k)])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # A traced operation must print exactly what its plain run printed.  The
    # single-thread reference is only checked: another BLAS thread count may
    # round differently in the last bits.
    by_key = {(op["cycle"], op["index"]): op for op in result["ops"] if not op["traced"]}
    plain = list(by_key.values())
    traced = [op for op in result["ops"] if op["traced"]]
    checked = plain + (reference["ops"] if args.trace else [])
    failures = {}
    for k, op in enumerate(checked + traced):
        errors = check_op(op, inputs) if k < len(checked) else (
            [] if op["stdout"] == by_key[op["cycle"], op["index"]]["stdout"]
            else ["traced output differs from the plain run of the same operation"])
        if errors:
            failures[k] = {"argv": op["argv"], "errors": errors[:5]}
    ok = [op for k, op in enumerate(plain) if k not in failures]
    attempted = len(checked) + len(traced)

    if args.trace:
        metrics, missing = per_layer(result, reference, list(units))
    else:
        metrics, missing = end_to_end(result, ok), []
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": {**result["env"], "git_commit": git_commit()},
        "setup_samples_s": result["setups_s"], "cycles": result["cycles"], "ops": attempted,
        "failed_frac": len(failures) / attempted,
        "op_tail": tail_latency([op["latency_s"] for op in plain]),
        "stdout_sha256_cycle0": cycle_sha256(plain),
        "trace_missing": missing, "trace_skipped": result.get("trace_skipped", []),
        "layers": result.get("trace"),
        "failures": dict(list(failures.items())[:10]),
        "bench_wall_s": time.perf_counter() - started,
    }
    if args.trace:
        detail["reference_1thread_env"] = reference["env"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
