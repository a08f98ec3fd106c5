#!/usr/bin/env python3
"""Host-cost benchmark of the Hermes simulator.

Builds perfbench/hostbench.exe with dune from the checkout this script
sits in, prints the machine shape, then runs one workload and passes its
output through; the last line of standard output is the JSON result.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

Extra flags (--variant, --measure-scale) go to the benchmark unchanged;
see perfbench/README.md.  Exits non-zero, printing no result, if the
build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/hostbench.exe"


def ocaml_config():
    try:
        out = subprocess.run(
            ["ocamlfind", "ocamlopt", "-config"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {}
    return dict(
        line.split(": ", 1) for line in out.splitlines() if ": " in line
    )


def main():
    # Keep every file the build writes inside the checkout: no shared
    # dune cache, and compiler temporaries under .perfbench/.
    tmp = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cfg = ocaml_config()
    print(
        "machine cores=%d ocaml=%s flambda=%s"
        % (
            len(os.sched_getaffinity(0)),
            cfg.get("version", "unknown"),
            cfg.get("flambda", "unknown"),
        ),
        flush=True,
    )
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "hostbench.exe")
    run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
