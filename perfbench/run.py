#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 10 --trace 0

Everything the build and the run write stays under .bench_build/ at the root
of the checkout: the Go build cache, the binary, castore data dirs, result
records and traces. The benchmark's own exit code is passed through; the last
line of standard output is its JSON result.

Castore data dirs live in .bench_build/work. Where the system allows it, the
benchmark runs in a private mount namespace with a tmpfs mounted on that
directory, so durable writes cost what the program does and not what the
disk's other tenants do; the mount is visible to no other process and
vanishes when the benchmark exits. Otherwise the directory stays on the
checkout's filesystem and the benchmark prints a warning naming it.
"""
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TMPFS_OPTS = "size=1g,mode=0700"
MOUNT_THEN_EXEC = 'mount -t tmpfs -o %s perfbench-work "$0" && exec "$@"' % TMPFS_OPTS


def private_tmpfs_prefix(work):
    """Returns the command prefix that runs a program with a private tmpfs
    on `work`, or [] when mount namespaces are unavailable here."""
    probe = ["unshare", "--mount", "--propagation", "private", "--",
             "sh", "-c", MOUNT_THEN_EXEC, work, "true"]
    try:
        ok = subprocess.run(probe, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            timeout=30).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        ok = False
    return probe[:-1] if ok else []


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    exe = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [*private_tmpfs_prefix(work), exe, *sys.argv[1:],
           "--work-dir", work, "--out-dir", os.path.join(build, "results")]
    # A terminated wrapper takes the benchmark down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        return 130
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
