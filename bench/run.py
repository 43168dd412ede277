"""Benchmark harness for asymcouple.

Run from the root of a source checkout::

    python3 bench/run.py --workload presets-coupled --seed 0 --seconds 25 --trace 0

Builds the workload's inputs from ``--seed``, runs its rounds of
operations as a closed loop for about ``--seconds`` seconds (at least
one round), checks every operation's output, and prints one JSON object
as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one untraced round, then traced
rounds, and reports per-layer metrics.  Details go to ``bench/out/``.
See ``bench/README.md`` for what each workload and metric is.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()

# one BLAS thread, fixed before numpy loads, so both commits of a
# comparison run the same dense kernels the same way
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 reproduces the presets' pinned seeds")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time; whole rounds run, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import asymcouple from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "asymcouple" / "__init__.py").is_file():
        raise SystemExit(f"error: no asymcouple sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import asymcouple

    if SRC not in Path(asymcouple.__file__).resolve().parents:
        raise SystemExit(f"error: asymcouple imported from {asymcouple.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def measure(workload, runner: Runner, seconds: float) -> list[float]:
    """Run whole rounds; start another only if it should end within ``seconds``."""
    walls = []
    t0 = time.perf_counter()
    while True:
        runner.round_no += 1
        r0 = time.perf_counter()
        workload.round(runner)
        walls.append(time.perf_counter() - r0)
        if time.perf_counter() - t0 + stats.median(walls) > seconds:
            return walls


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(args) -> list[float]:
    """Process start to ready-for-the-first-operation, in fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", repr(time.time())]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(runner: Runner, walls: list[float], setups: list[float], rss: float) -> dict:
    op_times = [r.seconds for r in runner.records if r.seconds is not None]
    tail, pct, beyond, rounds = stats.round_tail(
        [(r.round_no, r.seconds) for r in runner.records if r.seconds is not None])
    return {
        "wall_s": (stats.median(walls), "s", f"median of {len(walls)} rounds"),
        "setup_s": (stats.median(setups), "s", f"median of {len(setups)} fresh processes"),
        "peak_rss_mb": (rss, "MB", "harness process plus its largest child"),
        "op_p50_s": (stats.median(op_times), "s", f"median of {len(op_times)} operations"),
        "op_tail_s": (tail, "s", f"median over {rounds} rounds of each round's p{pct:.1f} "
                                 f"of {len(op_times) // rounds} operations, {beyond} beyond"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    workload = WORKLOADS[args.workload](args.seed, OUT)
    workload.setup()
    if args.setup_probe is not None:
        print(json.dumps({"setup_s": time.time() - args.setup_probe}))
        return 0
    setup_main = time.perf_counter() - T_START
    env = environment()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")

    runner = Runner()
    spans_path = None
    if args.trace:
        from layers import Instrumentation, layer_metrics
        from spans import SpanRecorder

        untraced = measure(workload, runner, 0.0)
        recorder = SpanRecorder()
        instrumentation = Instrumentation(recorder)
        instrumentation.install()
        try:
            workload.setup()
            recorder.reset()
            runner.recorder = recorder
            t0 = time.perf_counter()
            walls = measure(workload, runner, args.seconds)
            window = time.perf_counter() - t0
        finally:
            runner.recorder = None
            instrumentation.uninstall()
        metrics = {k: (v, u, "per round") for k, (v, u) in
                   layer_metrics(recorder, window, stats.median(untraced), len(walls)).items()}
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        recorder.write(spans_path)
    else:
        walls = measure(workload, runner, args.seconds)
    workload.probes(runner)
    workload.finish()
    if not args.trace:
        # peak memory before the set-up probes, whose processes are children too
        rss = peak_rss_mb()
        metrics = end_to_end(runner, walls, setup_seconds(args), rss)

    for failure in runner.failures:
        print(f"# FAILED {failure}")
    for note in runner.notes:
        print(f"# NOTE {note}")
    for name, (value, unit, note) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} ({note})")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        **result,
        "environment": env,
        "setup_main_s": setup_main,
        "round_walls_s": walls,
        "operations": [vars(r) for r in runner.records],
        "failures": runner.failures,
        "notes": runner.notes,
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
