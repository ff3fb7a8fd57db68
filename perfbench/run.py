#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of serve-sparse, serve-dense, tournament, offline-dp. The
benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds the repository's crates by path, into $CARGO_TARGET_DIR when set
and perfbench/target otherwise. The last line of standard output is the
JSON result; a traced run also writes its spans to
<target>/perfbench-trace/<workload>-seed<N>.json. The exit code is the
benchmark's: 0 when every output check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def arg(argv, key, default=None):
    """The value after `key` in argv, or `default`."""
    for i, a in enumerate(argv[:-1]):
        if a == key:
            return argv[i + 1]
    return default


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "mcp-perfbench")
    trace_out = os.path.join(
        target, "perfbench-trace",
        "%s-seed%s.json" % (arg(argv, "--workload", "unknown"), arg(argv, "--seed", "0")))
    return subprocess.run([exe] + argv + ["--trace-out", trace_out], env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
