"""Benchmark of spintraj's pulse design and trajectory analysis.

Run from the root of a spintraj checkout:

    python3 perfbench/run.py --workload relay --seed 1 --seconds 36 --trace 0

One run sets up (imports, inputs from the seed), then repeats rounds of the
workload's CLI commands, called in-process through spintraj.cli.main, for
about --seconds seconds of command time. After each round, outside the timed
span, every command's outputs are checked against an independent
Hilbert-space reference. The last line of standard output is one JSON
object: correct, attempted and failed operations (an operation is one
command with its checks), and the metrics. --trace 0 reports the end-to-end
metrics (medians over rounds); --trace 1 wraps the layers in spans and
reports the per-layer metrics instead. BLAS threads default to one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
HERE = Path(__file__).resolve().parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["relay", "broadband", "survey"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help="set up into DIR, print the time when ready, and exit")
    return p.parse_args(argv)


def setup(args, root: Path, work: Path):
    """Everything before the first timed call: imports and input generation."""
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import workloads
    from spintraj import cli

    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    workload = workloads.make(args.workload, root, args.seed, bool(args.trace))
    workload.prepare(inputs)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    return workload, cli, tracer


def measure_setup(args, work: Path) -> list[float]:
    """Set up in fresh interpreters; each sample runs from process start to ready."""
    samples = []
    for k in range(SETUP_PROBES):
        probe_dir = work / f"setup{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--trace", str(args.trace),
               "--setup-probe", str(probe_dir)]
        start = time.time()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
        shutil.rmtree(probe_dir)
    return samples


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_command(cli, argv: list[str]) -> str | None:
    """Run one CLI command; return None on exit code 0, else what went wrong."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        return f"exit {exc.code}"
    except Exception:  # a traceback is a failed operation, not a failed run
        return traceback.format_exc(limit=1).strip().splitlines()[-1]
    return None if code == 0 else f"exit code {code}"


def run_rounds(workload, cli, tracer, seconds: float, work: Path) -> tuple[list[dict], int, int]:
    """Whole rounds until the next one would overrun the command-time budget."""
    rounds, attempted, failed = [], 0, 0
    spent = longest = 0.0
    while not rounds or seconds - spent >= longest:
        out = work / "round"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        ops = workload.operations(out)
        problems = []
        if tracer:
            tracer.round, tracer.active, first_span = len(rounds), True, len(tracer.spans)
        cpu0, t0 = _cpu_s(), time.perf_counter()
        op_wall = []
        for op in ops:
            t_op = time.perf_counter()
            with tracer.span("cli." + op.command) if tracer else contextlib.nullcontext():
                problems.append(run_command(cli, op.argv))
            op_wall.append(time.perf_counter() - t_op)
        wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        if tracer:
            tracer.active = False
        for i, op in enumerate(ops):
            found = [problems[i]] if problems[i] else op.check()
            attempted += 1
            if found:
                failed += 1
                print(f"FAILED round {len(rounds)} {' '.join(op.argv)}: {'; '.join(found)}",
                      file=sys.stderr)
        record = {"wall_s": wall, "cpu_s": cpu, "op_wall_s": op_wall}
        if tracer:
            from tracing import round_metrics

            record["layers"] = round_metrics(tracer.spans[first_span:], wall)
        rounds.append(record)
        spent += wall
        longest = max(longest, wall)
    return rounds, attempted, failed


def openblas_threads() -> dict[str, int]:
    """Thread count that each loaded OpenBLAS reports through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return {}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "openblas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas.get("version"),
        "scipy_openblas": sblas.get("version"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "spintraj" / "cli.py").is_file() or not (root / "configs").is_dir():
        print("error: run from the root of a spintraj checkout (src/spintraj and configs/ "
              "are missing here)", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")

    if args.setup_probe:
        setup(args, root, Path(args.setup_probe))
        print(time.time())
        return 0

    work = root / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_samples = [] if args.trace else measure_setup(args, work)
    workload, cli, tracer = setup(args, root, work)
    rounds, attempted, failed = run_rounds(workload, cli, tracer, args.seconds, work)
    shutil.rmtree(work / "round")
    if tracer:
        tracer.uninstall()
        tracer.write(work / "trace.json")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    env = environment()
    (work / "rounds.json").write_text(json.dumps(
        {"env": env, "setup_s": setup_samples, "peak_rss_mb": peak_rss_mb, "rounds": rounds},
        indent=1), encoding="utf-8")
    print("env " + json.dumps(env))
    print(f"rounds {len(rounds)}: wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in rounds))

    if tracer:
        from tracing import LAYER_METRICS

        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
            for name, unit, _ in LAYER_METRICS
        }
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
