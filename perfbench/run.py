"""endolab benchmark: run one seeded workload and report its metrics.

    python3 perfbench/run.py --workload cycles --seed 1 --seconds 20 --trace 0

Run from the root of an endolab checkout; it uses the sources under src/
and needs nothing installed beyond NumPy and SciPy.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1.  The lines above it report every
metric measured (with the per-subcommand times and failed_frac), the
machine and any failed job.  BENCHMARK.json lists only metrics that are
measured on every workload: a self time of a function one workload never
calls would read 0 there on every run, so those are only printed here.
A per-layer metric of a function the tracer no longer finds (renamed or
inlined) is printed as MISSING and makes the run incorrect, rather than
reading as a count of 0.

Set-up time is the median over SETUP_PROBES fresh interpreters that import
endolab.cli and finish the lazy set-up of the first calls.  The workload
itself runs in one more fresh interpreter (perfbench/worker.py); its peak
resident memory is that child's.  BLAS and OpenMP pools are pinned to one
thread.

wall_s, setup_s and the per-subcommand times are seconds scaled to a fixed
machine speed: each job's time, and each set-up probe's, is multiplied by
REF_LOOP_S over the time a fixed reference loop took next to it (see
worker.reference_loop).  The unscaled times are printed as wall_raw_s and
setup_raw_s.  trace.wall_s and the self times are unscaled, so that they
add up; trace.overhead_s is a difference of scaled times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
WORKER_TIMEOUT = 150  # seconds; a run must end within 180
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import HOOKS, MODULES  # noqa: E402
from worker import REF_LOOP_S  # noqa: E402


def pinned_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def worker(args, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py")]
    return subprocess.run(cmd + args, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT)


def setup_seconds(env):
    """Raw and scaled set-up times of SETUP_PROBES fresh interpreters."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = worker(["--probe"], env)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        loop_s = json.loads(proc.stdout.strip().splitlines()[-1])["loop_s"]
        raw.append(dt)
        scaled.append(dt * REF_LOOP_S / loop_s)
    return raw, scaled


def git_sha():
    """HEAD of a git checkout, read from .git directly; None elsewhere."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def src_digest():
    """SHA-256 over the endolab sources, identifying the code measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "endolab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def machine():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(),
            "threads": {var: "1" for var in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "git_sha": git_sha(), "src_digest": src_digest()}


def missing_functions(bench, wrapped):
    """Traced functions that BENCHMARK.json's per-layer metrics or the
    counting hooks name, but that the tracer did not find."""
    named = {m["name"].rsplit(".", 1)[0] for m in bench["per_layer"]
             if m["name"].count(".") == 2
             and m["name"].split(".")[0] in MODULES}
    return sorted((named | set(HOOKS)) - set(wrapped))


def per_layer(res):
    """Per-layer metrics from a traced run: one traced pass's worth."""
    tr = res["trace"]
    traced = [p for p in res["passes"] if p["traced"]]
    plain = [p for p in res["passes"] if not p["traced"]]
    k = len(traced)
    # every pass runs the same jobs, so a count divides exactly
    out = {name: v // k for name, v in tr["counts"].items()}
    for name, rec in tr["by_name"].items():
        out[f"{name}.calls"] = rec["calls"] // k
        out[f"{name}.self_s"] = rec["self_s"] / k
    kernel_s = sum(out.get(f"maps.{m}.self_s", 0.0)
                   for m in ("eval", "jet", "iterated_jet", "iterate"))
    points = out.get("maps.eval.points", 0) + out.get("maps.jet.points", 0)
    out["maps.points_per_s"] = points / kernel_s if kernel_s else 0.0
    grid_s = out.get("julia.escape_grid.self_s", 0.0)
    out["julia.cell_iters_per_s"] = (
        out.get("julia.escape_grid.cell_iters", 0) / grid_s if grid_s else 0.0)
    stats = res["stats"]
    out["periodic.overcount"] = stats.get("overcount", 0)
    # attracting cycles outside a recurrent sink class where that is not
    # asserted (2-D depth 3, parabolic); reported, not a check
    out["conley.sink_unmet"] = stats.get("sink_unmet", 0)
    out["periodic.recall"] = (stats["recall_found"] / stats["recall_oracle"]
                              if stats.get("recall_oracle") else 0.0)
    out["perturb.infeasible"] = res["infeasible"]
    out["reporting.artifacts_changed"] = res["artifacts_changed"]
    out["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    # from the scaled times: the machine's drift between passes is larger
    # than the overhead and would otherwise set its sign
    out["trace.overhead_s"] = (
        statistics.median(p["scaled_s"] for p in traced)
        - statistics.median(p["scaled_s"] for p in plain))
    # where the traced wall time went: module self times, the CLI around
    # them (self time of the job.* spans), and the counting hooks
    self_s = {name: rec["self_s"] / k for name, rec in tr["by_name"].items()}
    out["trace.module_self_s"] = sum(
        v for name, v in self_s.items() if name.split(".")[0] in MODULES)
    out["trace.cli_self_s"] = sum(
        v for name, v in self_s.items() if name.startswith("job."))
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.SLOTS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "endolab", "cli.py")):
        print("perfbench: no endolab sources under src/endolab; run it from "
              "the root of an endolab checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    env = pinned_env()
    setup_raw, setup_scaled = setup_seconds(env)
    proc = worker(["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)], env)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"perfbench: worker failed ({proc.returncode}):\n{proc.stderr}",
              file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    plain = [p for p in res["passes"] if not p["traced"]]
    found = {"setup_s": statistics.median(setup_scaled),
             "setup_raw_s": statistics.median(setup_raw),
             "wall_s": statistics.median(p["scaled_s"] for p in plain),
             "wall_raw_s": statistics.median(p["wall_s"] for p in plain),
             "peak_rss_mb": res["peak_rss_mb"],
             "failed_frac": res["failed"] / res["attempted"]}
    for kind in workloads.KINDS:  # a subcommand's share of wall_s
        v = statistics.median(p["kinds"][kind] for p in plain)
        if v:
            found[f"{kind}_s"] = v
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "machine": machine(),
                      "jobs": res["jobs"], "setup_probes_s": setup_raw,
                      "setup_scaled_s": setup_scaled,
                      "pass_wall_s": [p["wall_s"] for p in res["passes"]],
                      "pass_scaled_s": [p["scaled_s"]
                                        for p in res["passes"]]}))
    missing = []
    if args.trace:
        found.update(per_layer(res))
        missing = missing_functions(bench, res["trace"]["wrapped"])
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    units["failed_frac"] = "1"
    for name in sorted(found):
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        value = found[name]
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {text} {unit}")
    for line in res["failures"]:
        print(f"FAILED {line}")
    for name in missing:
        print(f"MISSING {name}: not found by the tracer")

    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": found.get(m["name"], 0),
                           "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": not res["failures"] and not missing,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
