"""One workload run in a fresh interpreter; prints raw results as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1
    python3 perfbench/worker.py --probe

The job list runs in a closed loop with one client, in this process: the
next job starts when the previous one returns, and passes over the list
repeat until the time is used, at least MIN_PASSES times.  With --trace 1
the passes alternate untraced and traced, at least MIN_TRACED_PASSES
times, so the tracing overhead is a difference of medians of two passes
each.  --probe only imports endolab
and finishes its lazy set-up, so the caller can time a fresh interpreter
doing that.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
# Every job runs at least twice, so its artifacts can be compared.
MIN_PASSES = 2
MIN_TRACED_PASSES = 4
# Reported times are scaled to a machine on which reference_loop() takes
# this long (about the 2-vCPU VM the baseline was recorded on, when calm).
REF_LOOP_S = 0.005

import oracles  # noqa: E402
import workloads  # noqa: E402


def warm_up():
    """Import the CLI and run the lazy set-up its first calls would pay."""
    import numpy as np
    import scipy.linalg

    import endolab.cli  # noqa: F401
    from endolab.maps import Window

    Window.square(1, -1.0, 1.0).sample(2, seed=0)  # scipy.stats.qmc
    eye = np.eye(2, dtype=complex)
    scipy.linalg.lstsq(eye, np.ones(2, dtype=complex), lapack_driver="gelsy")
    np.linalg.solve(eye[None], np.ones((1, 2, 1), dtype=complex))


def reference_loop():
    """Time a fixed piece of work outside endolab; returns seconds.

    On a shared VM the machine's speed can drift by tens of percent within
    seconds, for CPU time as much as for wall time.  This loop runs
    between jobs and after the set-up, so that every job's time can be
    scaled by the machine speed measured around it (REF_LOOP_S / loop
    time).  Its parts were chosen among interpreter-bound code, NumPy
    calls on few or many points and small least squares as the mix whose
    scaling made repeated passes of all three workloads agree best.
    """
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    big = np.full(1 << 16, 0.3 + 0.1j)
    for _ in range(4):
        big = big * big + 0.25
        big[np.abs(big) > 2] = 0.5
    a = np.eye(6, dtype=complex) + 0.1
    b = np.ones(6, dtype=complex)
    for _ in range(80):
        np.linalg.lstsq(a, b, rcond=None)
    return perf_counter() - t0


def digest(out):
    """SHA-256 over the names and bytes of every artifact in `out`."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _hurley_hakim(cfg, out):
    """Criterion 5's Conley check of the parabolic map, as a library job."""
    from endolab import conley, perturb, reporting
    from endolab.maps import Window

    window = Window(bounds=tuple(tuple(b) for b in cfg["window"]))
    report, _, _, _ = conley.hurley_report(
        perturb.hakim_map(cfg["dim"]), window, cfg["depth"],
        m_max=cfg["m_max"], seeds=cfg["seeds"], seed=cfg["seed"],
        petal_threshold=cfg["petal_threshold"])
    reporting.write_json(os.path.join(out, "report.json"), report, cfg)
    return 0


def write_inputs(job, where):
    """Config file of a CLI job; returns its argv minus --out.

    The map JSON goes inside the config rather than in a --map file: the
    CLI hashes the config, --map path included, into every artifact, and
    the artifacts must not depend on where the benchmark ran.
    """
    os.makedirs(where, exist_ok=True)
    cfg = dict(job["config"])
    if job["map"] is not None:
        cfg["map"] = job["map"]
    path = os.path.join(where, "config.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh, sort_keys=True)
    return [job["kind"], "--config", path]


def run_job(job, argv, out):
    """Run one job; returns (seconds, exit code or None, message)."""
    from endolab import cli

    os.makedirs(out)
    err = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            if job.get("library"):
                rc = _hurley_hakim(job["config"], out)
            else:
                rc = cli.main(argv + ["--out", out])
        msg = err.getvalue().strip()
    except SystemExit as exc:
        rc, msg = exc.code, err.getvalue().strip()
    except Exception as exc:  # a crash is a failed job; the run goes on
        rc, msg = None, f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - t0, rc, msg


class Run:
    """Closed-loop passes over one job list, with checks and accounting."""

    def __init__(self, jobs, work, tracer=None):
        self.jobs = jobs
        self.work = work
        self.tracer = tracer
        self.argv = [write_inputs(job, os.path.join(work, "in", str(i)))
                     for i, job in enumerate(jobs)]
        self.passes = []
        self.first = {}  # job index -> artifact digest of its first run
        self.checked = {}  # job index -> check problems of its first run
        self.attempted = 0
        self.failures = []
        self.infeasible = 0
        self.stats = {}  # oracle counts, summed over the jobs of one pass

    def one_pass(self, traced):
        tr = self.tracer if traced else None
        if tr is not None:
            tr.install()
        kinds = dict.fromkeys(workloads.KINDS, 0.0)
        wall = scaled = 0.0
        loop_s = reference_loop()
        try:
            for i, job in enumerate(self.jobs):
                out = os.path.join(self.work, "out", str(len(self.passes)),
                                   str(i))
                if tr is not None:
                    with tr.span(f"job.{job['kind']}"):
                        dt, rc, msg = run_job(job, self.argv[i], out)
                else:
                    dt, rc, msg = run_job(job, self.argv[i], out)
                after = reference_loop()
                dt_scaled = dt * REF_LOOP_S / ((loop_s + after) / 2)
                loop_s = after
                wall += dt
                scaled += dt_scaled
                kinds[job["kind"]] += dt_scaled
                self._account(i, rc, msg, out)
        finally:
            if tr is not None:
                tr.uninstall()
        self.passes.append({"wall_s": wall, "scaled_s": scaled,
                            "kinds": kinds, "traced": traced})

    def _account(self, i, rc, msg, out):
        """Count one execution; it fails on a crash, an exit other than 0
        or 3, a failed check, or artifacts unlike its first repetition."""
        self.attempted += 1
        first_pass = not self.passes
        problems = []
        if rc not in (0, 3):
            problems.append(f"exit {rc}: {msg[:200]}")
        else:
            if rc == 3 and first_pass:
                self.infeasible += 1
            d = digest(out)
            if first_pass:
                self.first[i] = d
            elif self.first.get(i) != d:
                problems.append("artifacts differ from the first repetition")
            if rc == 0 and (first_pass or self.first.get(i) != d):
                try:
                    found, stats = oracles.check(self.jobs[i], out)
                except Exception as exc:  # unreadable artifacts fail too
                    found, stats = [f"check raised {exc!r}"], {}
                problems += found
                if first_pass:
                    self.checked[i] = found
                    for k, v in stats.items():
                        self.stats[k] = self.stats.get(k, 0) + v
            elif rc == 0:  # the same bytes as the first time, same verdict
                problems += self.checked.get(i, [])
        shutil.rmtree(out)
        if problems:
            job = self.jobs[i]
            self.failures.append(f"{job['slot']}#{job['pool_index']} pass "
                                 f"{len(self.passes)}: " + "; ".join(problems))


def _reference():
    path = os.path.join(HERE, "reference_digests.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)["digests"]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    warm_up()
    if args.probe:
        print(json.dumps({"loop_s": sorted(reference_loop()
                                           for _ in range(3))[1]}))
        return 0

    from tracer import Tracer

    jobs = workloads.jobs_for(args.workload, args.seed)
    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-"
                                       f"{os.getpid()}")
    tracer = Tracer() if args.trace else None
    min_passes = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    try:
        run = Run(jobs, work, tracer)
        start = perf_counter()
        while True:
            t0 = perf_counter()
            run.one_pass(traced=bool(args.trace) and len(run.passes) % 2 == 1)
            took = perf_counter() - t0
            if (len(run.passes) >= min_passes
                    and perf_counter() - start + took > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ref = _reference()
    changed = sum(ref.get(job["key"]) not in (None, run.first.get(i))
                  for i, job in enumerate(jobs))
    result = {
        "passes": run.passes,
        "jobs": len(jobs),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "infeasible": run.infeasible,
        "stats": run.stats,
        "artifacts_changed": changed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        result["trace"] = {"by_name": tracer.by_name(),
                           "counts": tracer.counts,
                           "wrapped": sorted(tracer.wrapped)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
