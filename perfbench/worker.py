"""Fresh-process side of the benchmark: set-up timing and the operation loop.

Started by run.py with one JSON argument (the job).  Only the standard
library is imported before ``import entbound`` is timed; numpy arrives with
entbound, as it does for a user of the CLI.

Modes:
  run        set-up, then whole cycles of operations until the time is up;
             worker j of k runs cycles j, j + k, j + 2k, ...
  trace      as run, but each operation runs once plain and once traced
  reference  set-up and one plain cycle (run with a single BLAS thread)
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def setup(root, ns, traced):
    start = time.perf_counter()
    import entbound
    imported = time.perf_counter()
    source = os.path.join(root, "src", "entbound")
    if os.path.dirname(os.path.realpath(entbound.__file__)) != os.path.realpath(source):
        raise SystemExit(f"entbound imported from {entbound.__file__}, not from {source}")
    scipy_loaded = "scipy" in sys.modules
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer(entbound)
        tracer.install()
    begin = time.perf_counter()
    for n in ns:
        entbound.coupled_system(n)
    built = time.perf_counter()
    if tracer:
        tracer.uninstall()
    return {"setup_s": imported - start + built - begin, "import_s": imported - start,
            "structure_s": built - begin, "scipy_loaded": scipy_loaded}, tracer


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # looked up per call, so a traced main is seen
    except Exception:
        code, error = None, traceback.format_exc()
    latency = time.perf_counter() - start
    return {"rc": code, "error": error, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "latency_s": latency, "cpu_s": time.process_time() - cpu0}


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "cpu_count": os.cpu_count()}


def main(job):
    mode = job["mode"]
    info, tracer = setup(job["root"], job["ns"], mode == "trace")
    from entbound import cli
    from workloads import WORKLOADS
    workload = WORKLOADS[job["workload"]]
    ops = []
    start = time.perf_counter()
    cycles = 0
    while cycles == 0 or (mode != "reference"
                          and time.perf_counter() - start < job["seconds"]):
        cycle = job["worker"] + job["workers"] * cycles
        for k, op in enumerate(workload.cycle(job["seed"], cycle, job["paths"])):
            record = {"cycle": cycle, "index": k, "argv": op.argv, "kind": op.kind,
                      "states": op.states, "traced": False}
            ops.append({**record, **run_op(cli, op.argv)})
            if tracer:
                tracer.op = f"{cycle}.{k}"
                tracer.install()
                try:
                    ops.append({**record, "traced": True, **run_op(cli, op.argv)})
                finally:
                    tracer.uninstall()
        cycles += 1
    result = {"setup": info, "ops": ops, "cycles": cycles, "wall_s": time.perf_counter() - start,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "env": environment()}
    if tracer:
        tracer.write(job["spans"])
        result.update(trace=tracer.summary(), traced_names=tracer.names,
                      trace_skipped=tracer.skipped)
    with open(job["results"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
