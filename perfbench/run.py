#!/usr/bin/env python3
"""Build and run the query benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload xmark-local --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.exe with dune (the first build compiles the
library from source), then runs it with the same arguments.  The last
line of standard output is the JSON result; any failure exits non-zero
without printing one.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")

# A run must end within 180 seconds; the first one in a checkout also
# builds, which may take up to 900.
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def find_dune():
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        candidate = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
        if os.access(candidate, os.X_OK):
            dune = candidate
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    return dune


def one_cpu():
    """Pin the benchmark, and the server it forks, to one CPU.

    On a 2-vCPU guest a socket round trip that crosses vCPUs waits for
    the host to wake the other one, and that wait swung the socket
    workload's p90 by 3x from run to run; on one CPU a round trip is two
    context switches.  The in-process workloads are single-threaded and
    only lose their migrations.
    """
    cpu = max(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


def run_group(argv, timeout, stdout, env=None, preexec_fn=None):
    """Run argv in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=stdout, env=env, start_new_session=True,
                            preexec_fn=preexec_fn)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: %s timed out after %d s" % (argv[0], timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    build = [find_dune(), "build", "--root", ".", "--display", "quiet", "./" + EXE]
    # dune's progress and errors go to stderr, never into the result; its
    # shared cache is off so that the build writes only inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    if run_group(build, BUILD_TIMEOUT, sys.stderr, env) != 0:
        sys.exit("perfbench: build failed")
    sys.stdout.flush()
    code = run_group([os.path.join(ROOT, EXE)] + sys.argv[1:], RUN_TIMEOUT, None,
                     preexec_fn=one_cpu())
    if code != 0:
        sys.exit("perfbench: benchmark exited with code %d" % code)


if __name__ == "__main__":
    main()
