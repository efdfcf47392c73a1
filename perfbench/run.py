#!/usr/bin/env python3
"""Build and run the far-memory benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload analytics --seed 1 --seconds 10 --trace 0

It builds cardsd (./cmd/cardsd) and the benchmark (./perfbench) from
source into .bench_build/ with a Go build cache kept there too, runs the
benchmark, and forwards its output: a metric table on standard error and,
as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. The exit status is the
benchmark's (non-zero on a failed build, a checksum mismatch or a failed
consistency check). See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# One run measures --seconds twice over (traced runs have an untraced
# and a traced phase) plus set-up; this bounds a wedged run.
RUN_TIMEOUT_S = 170


def go_env():
    """Keep the Go toolchain's caches and state inside the checkout."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("HOME", "home")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOMODCACHE"] = os.path.join(BUILD, "gopath", "pkg", "mod")
    env["GOTOOLCHAIN"] = "local"
    return env


def build(env):
    """Build cardsd and the benchmark; return their paths or None."""
    go = shutil.which("go") or "/usr/local/go/bin/go"
    bindir = os.path.join(BUILD, "bin")
    steps = [
        (ROOT, os.path.join(bindir, "cardsd"), "./cmd/cardsd"),
        (HERE, os.path.join(bindir, "perfbench"), "."),
    ]
    for cwd, out, pkg in steps:
        p = subprocess.run([go, "build", "-o", out, pkg], cwd=cwd, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=840)
        if p.returncode != 0:
            sys.stderr.write("perfbench: building %s failed:\n%s" % (pkg, p.stdout))
            return None
    return [os.path.join(bindir, "cardsd"), os.path.join(bindir, "perfbench")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: %s is not a CaRDS checkout (no go.mod)\n" % ROOT)
        return 2
    env = go_env()
    bins = build(env)
    if bins is None:
        return 2
    cardsd, bench = bins
    cmd = [bench, "-cardsd", cardsd, "-workload", args.workload,
           "-seed", str(args.seed), "-seconds", str(args.seconds),
           "-trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["-spans", os.path.join(spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the benchmark; its cardsd
        # children die with it (they are started with a parent-death
        # signal).
        sys.stderr.write("perfbench: run exceeded %ds\n" % RUN_TIMEOUT_S)
        return 3
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
