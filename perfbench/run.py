"""Benchmark of tlsrf: wall time, set-up time and peak memory of three
workloads, with every operation's output checked.

    python3 perfbench/run.py --workload mc-chaotic --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it uses the package under
src/ and needs no install.  --trace 0 prints the end-to-end metrics
(wall_norm_s, the wall time of one operation divided by a host-speed
probe; setup_s; peak_rss_mb); --trace 1 prints the per-layer metrics
of a traced run.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
the same numbers for a reader, with error_rate, the warm-up time and
the environment.  The full report, and in a traced run the spans, are
written under .perfbench/.  The exit code is 0 only when every
operation passed its gate.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("mc-chaotic", "mc-blink-wide", "figures")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
SETUP_CODE = "import time; t = time.perf_counter(); import tlsrf, tlsrf.cli; print(time.perf_counter() - t)"
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env.update({var: threads for var in THREAD_VARS})
    return env


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Import time of tlsrf and tlsrf.cli in fresh interpreters."""
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=deadline - time.monotonic(),
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout; do not pick up an enclosing repository
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the benchmark's own tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "tlsrf" / "__init__.py").is_file():
        print(f"no tlsrf sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    env = child_env()
    OUT_DIR.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(env, deadline)
    child = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--size", args.size, "--out-dir", str(OUT_DIR)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=deadline - time.monotonic(),
    )
    if child.returncode != 0:
        print(f"workload process exited with {child.returncode}", file=sys.stderr)
        return 1
    report = json.loads(child.stdout.splitlines()[-1])
    report["env"]["git_commit"] = git_commit()
    if args.trace:
        metrics = report["layers"]
    else:
        report["setup_s_samples"] = setup
        metrics = {
            "wall_norm_s": {"value": report["wall_norm_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {report['attempted']} operations, "
          f"{len(report['op_wall_s'])} timed untraced, warm-up {report['warmup_s']} s")
    if not args.trace:
        print(f"  {'wall_s (raw)':40s} {report['wall_s']!s:>22} s")
        print(f"  {'probe_s':40s} {report['probe_s']!s:>22} s")
    for key, m in metrics.items():
        print(f"  {key:40s} {m['value']!s:>22} {m['unit']}")
    print(f"  {'error_rate':40s} {report['failed'] / report['attempted']!s:>22} "
          f"({report['failed']} of {report['attempted']} failed)")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print(f"  inputs {json.dumps(report['inputs'])}")
    print(f"  env {json.dumps(report['env'])}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
