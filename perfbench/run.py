#!/usr/bin/env python3
"""Build oqf and the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload cold_catalog --seed 1 --seconds 25 --trace 0

The last line of standard output is the JSON result (see
perfbench/README.md).  Build output goes to standard error.  Exits
non-zero, without a result, when it is not run from a checkout of the
repository or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["cold_catalog", "serve_read", "serve_ingest"]
TARGETS = ["./bin/oqf_cli.exe", "./perfbench/bench.exe"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
OQF = os.path.join("_build", "default", "bin", "oqf_cli.exe")
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not all(os.path.exists(p) for p in ["dune-project", "lib", "bin"]):
        sys.exit("perfbench: run from the repository root (dune-project, lib/ and bin/ not found)")

    # --cache=disabled: build only inside the checkout
    build = subprocess.run(
        ["dune", "build", "--cache=disabled", "--display=quiet"] + TARGETS,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--oqf", OQF]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        # the bench stops its daemon on SIGTERM; whatever is left goes
        # with the process group
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        sys.exit("perfbench: run did not finish in time")
    sys.exit(rc)


if __name__ == "__main__":
    main()
