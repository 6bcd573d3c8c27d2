"""Record the artifact digests of every pool job as the reference.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each job every workload can draw once, checks it, and writes
perfbench/reference_digests.json (job key -> SHA-256 of its artifacts).
The runs report reporting.artifacts_changed against this file, so it is
recorded once, at the commit whose behaviour is the reference, and a
change that alters any artifact shows as a count.  Jobs that fail their
checks are printed; they belong in workloads.KNOWN_FAILURES.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import oracles
import workloads
from run import HERE, git_sha, pinned_env, src_digest
from worker import digest, run_job, warm_up, write_inputs


def main(names):
    warm_up()
    path = os.path.join(HERE, "reference_digests.json")
    ref = {}
    if os.path.exists(path):
        with open(path) as fh:
            ref = json.load(fh)["digests"]
    work = tempfile.mkdtemp(dir=HERE, prefix=".work-record-")
    try:
        for name in names:
            for n, job in enumerate(workloads.pool(name)):
                where = os.path.join(work, f"{name}-{n}")
                argv = write_inputs(job, os.path.join(where, "in"))
                out = os.path.join(where, "out")
                dt, rc, msg = run_job(job, argv, out)
                problems = [] if rc in (0, 3) else [f"exit {rc}: {msg[:200]}"]
                if rc == 0:
                    problems += oracles.check(job, out)[0]
                if rc in (0, 3):
                    ref[job["key"]] = digest(out)
                tag = (job["workload"], job["slot"], job["pool_index"])
                verdict = f" FAILED: {'; '.join(problems)}" if problems else ""
                print(f"{dt:7.2f}s rc={rc} {tag}{verdict}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump({"git_sha": git_sha(), "src_digest": src_digest(),
                   "digests": dict(sorted(ref.items()))}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if os.environ.get("OMP_NUM_THREADS") != "1":
        # BLAS reads its thread count at import: restart with the pinned
        # one, which the benchmark uses and which changes the last digits
        os.execve(sys.executable, [sys.executable] + sys.argv, pinned_env())
    main(sys.argv[1:] or list(workloads.SLOTS))
