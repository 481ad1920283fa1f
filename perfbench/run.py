"""Benchmark of the kuramoto_dephasing package.

Run from the repository root:

    python3 perfbench/run.py --workload exp_ref --seed 1 --seconds 20 --trace 0

One single-threaded process runs closed-loop operations (one caller; the
next starts when the previous ends) until ``--seconds`` have passed, sets
the workload up again before each one (``setup_s`` is the median), and
checks every operation's output.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, ``setup_s``, ``op_s`` (medians)
  and ``peak_rss_mb`` (peak RSS over set-up and the first operation).
* ``--trace 1``: the per-layer metrics.  Operations alternate between
  untraced (stage timings) and traced (spans at each module boundary, see
  ``spans.py``); ``trace.overhead_s`` is the difference of their medians.

Machine facts, per-operation detail and, when traced, every span are
written to ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

# set up at least this many times before the first operation, and again
# before every later one; each batch repeats until SETUP_BATCH_S has passed,
# so the median samples the whole run (host speed drifts within seconds)
SETUP_REPEATS = 3
SETUP_BATCH_S = 0.1
STAGES = ("solve", "certify", "crosscheck", "refuse", "particles")


def machine_facts(field_bytes: int) -> dict:
    import numpy
    import scipy

    cpu, llc = "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        levels = {int((d / "level").read_text()): (d / "size").read_text().strip()
                  for d in caches.glob("index*")}
        llc = f"L{max(levels)} {levels[max(levels)]}"
    except (OSError, StopIteration, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "llc": llc,
        "field_mb_computed": field_bytes / 1e6,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    from spans import BOUNDARIES

    names = [(f"stage.{s}_s", "s") for s in STAGES if s != "particles"]
    names.append(("stage.particle_steps_per_s", "1/s"))
    names += [("grid.cells", "count"), ("scheme.outer_solve.n_outer", "count")]
    seen = set()
    for _, _, layer, work in BOUNDARIES:
        if layer in seen:
            continue
        seen.add(layer)
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
        if work:
            names += [(f"{layer}.{work[1]}s", "count"), (f"{layer}.ns_per_{work[1]}", "ns")]
    names += [("memory.field_mb", "MB"), ("memory.field_copies", "count"),
              ("trace.overhead_s", "s")]
    return names


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from spans import BOUNDARIES, SpanRecorder
    from workloads import WORKLOADS, GateError, Stages

    wl = WORKLOADS[workload]
    setup_s = []

    def set_up(repeats):
        t_batch = time.perf_counter()
        while repeats > 0 or time.perf_counter() - t_batch < SETUP_BATCH_S:
            t0 = time.perf_counter()
            ctx = wl.setup(seed)
            setup_s.append(time.perf_counter() - t0)
            repeats -= 1
        return ctx

    recorder = SpanRecorder()
    ops = []
    t_start = time.perf_counter()
    while not ops or time.perf_counter() - t_start < seconds or (trace and len(ops) < 2):
        ctx = set_up(SETUP_REPEATS if not ops else 1)
        traced = trace and len(ops) % 2 == 1
        recorder.op = len(ops)
        stages = Stages()
        counts, error = None, None
        t0 = time.perf_counter()
        try:
            with recorder.installed() if traced else nullcontext():
                counts = wl.op(ctx, stages)
        except GateError as exc:
            error = f"gate: {exc}"
        except Exception as exc:  # a raising operation counts as failed; keep measuring
            traceback.print_exc(file=sys.stderr)
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if error is None and ops and counts != ops[0]["counts"]:
            error = f"counts {counts} differ from the first operation's {ops[0]['counts']}"
        ops.append({"traced": traced, "wall_s": wall, "stages": stages.seconds,
                    "counts": counts, "error": error})
        if len(ops) == 1:
            # set-up plus one operation, as one command-line run would use;
            # later operations only add allocator history
            peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        print(f"op {len(ops) - 1} traced={int(traced)} {wall:.3f}s "
              + " ".join(f"{k}={v:.3f}" for k, v in stages.seconds.items())
              + (f" FAILED {error}" if error else ""), flush=True)

    field_bytes = 8 * int(ctx["grid"].n_times * ctx["grid"].n_theta * ctx["grid"].n_omega)
    plain = [o for o in ops if not o["traced"]]
    counts = ops[0]["counts"] or {}
    med = statistics.median

    if not trace:
        values = {
            "setup_s": (med(setup_s), "s"),
            "op_s": (med(o["wall_s"] for o in plain), "s"),
            "peak_rss_mb": (peak_bytes / 1e6, "MB"),
        }
    else:
        traced_ops = [i for i, o in enumerate(ops) if o["traced"]]
        totals = [recorder.layer_totals(i) for i in traced_ops]
        values = {}
        for s in STAGES:
            secs = med(o["stages"].get(s, 0.0) for o in plain)
            if s == "particles":
                values["stage.particle_steps_per_s"] = (
                    counts.get("particle_steps", 0) / secs if secs else 0.0, "1/s")
            else:
                values[f"stage.{s}_s"] = (secs, "s")
        values["grid.cells"] = (field_bytes // 8, "count")
        values["scheme.outer_solve.n_outer"] = (
            counts.get("n_outer", 0) + counts.get("refused_n_outer", 0), "count")
        for _, _, layer, work in BOUNDARIES:
            per_op = [t.get(layer, {"calls": 0, "self_s": 0.0, "work": 0}) for t in totals]
            values[f"{layer}.calls"] = (per_op[0]["calls"], "count")
            values[f"{layer}.self_s"] = (med(p["self_s"] for p in per_op), "s")
            if work:
                values[f"{layer}.{work[1]}s"] = (per_op[0]["work"], "count")
                values[f"{layer}.ns_per_{work[1]}"] = (
                    med(p["self_s"] * 1e9 / p["work"] if p["work"] else 0.0 for p in per_op),
                    "ns")
        values["memory.field_mb"] = (field_bytes / 1e6, "MB")
        values["memory.field_copies"] = (peak_bytes / field_bytes, "count")
        values["trace.overhead_s"] = (
            med(ops[i]["wall_s"] for i in traced_ops) - med(o["wall_s"] for o in plain), "s")
        values = {name: values[name] for name, _ in per_layer_names()}

    failed = sum(o["error"] is not None for o in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_facts(field_bytes), "setup_s": setup_s, "ops": ops,
        "result": result, "spans": recorder.to_json(),
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    src = HERE.parent / "src"
    try:
        import kuramoto_dephasing
    except ImportError as exc:
        print(f"cannot import kuramoto_dephasing from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(kuramoto_dephasing.__file__).resolve().is_relative_to(src):
        print(f"kuramoto_dephasing was imported from {kuramoto_dephasing.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine " + json.dumps(record["machine"]))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
