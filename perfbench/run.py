#!/usr/bin/env python3
"""Build and run the GECKO benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

Builds perfbench/gecko_bench.exe with dune (inside the checkout, shared
cache off), runs it with the same arguments and passes its output through.
The last line of standard output is the result object; this script checks
that it names exactly the metrics BENCHMARK.json lists.  Exits non-zero,
printing no result, when the checkout has no sources to build from.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "gecko_bench.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("the last line of output is not a JSON result", 1)
    if list(result) != ["correct", "attempted", "failed", "metrics"]:
        fail("result keys are %s" % list(result), 1)
    names = list(result["metrics"])
    want = expected_metrics(trace)
    if sorted(names) != sorted(want):
        missing = sorted(set(want) - set(names))
        extra = sorted(set(names) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra), 1)


def main(argv):
    if "--trace" not in argv:
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    trace = argv[argv.index("--trace") + 1:][:1] == ["1"]
    for needed in ("dune-project", "lib", "BENCHMARK.json",
                   os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a source checkout: %s is missing"
                 % needed)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled",
         "./perfbench/gecko_bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        fail("build failed", 1)
    try:
        run = subprocess.run([EXE] + argv, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 1)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail("benchmark exited with %d" % run.returncode, run.returncode)
    check_result(run.stdout.rstrip("\n").split("\n")[-1], trace)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
