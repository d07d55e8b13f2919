#!/usr/bin/env python3
"""Build enaserve and the perfbench harness from this checkout, then run one
benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload simulate-mixed --seed 1 --seconds 20 --trace 0

All build output, the Go build cache and temporary files stay under
.bench_build/ in the checkout (CARGO_TARGET_DIR, when set, names that
directory). The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    enaserve = os.path.join(build, "enaserve")
    harness = os.path.join(build, "perfbench")
    bench_dir = os.path.join(root, "perfbench")
    for args, cwd in (
        (["go", "build", "-o", enaserve, "./cmd/enaserve"], root),
        (["go", "build", "-o", harness, "."], bench_dir),
    ):
        done = subprocess.run(args, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(args), file=sys.stderr)
            return 2
    cmd = [harness, "-enaserve", enaserve] + translate(sys.argv[1:])
    return subprocess.run(cmd, cwd=root, env=env).returncode


def translate(argv):
    """Map --flag value / --flag=value onto the Go flag spelling."""
    return ["-" + a[2:] if a.startswith("--") else a for a in argv]


if __name__ == "__main__":
    sys.exit(main())
