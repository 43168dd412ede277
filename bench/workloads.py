"""The benchmark's workloads and the closed-loop runner that drives them.

Each workload builds its inputs from the seed, then runs rounds of
operations one at a time: the next operation starts only when the
previous one has returned and its output has been checked.  Work a
round needs that is not itself an operation (the ensembles a distance is
taken between) runs through ``Runner.work`` so it is traced but not
counted.

All calls into ``asymcouple`` go through module attributes looked up at
call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import math
import re
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

MODEL_IDS = ("toy2d", "ginzburg_landau", "reaction_diffusion", "chain")


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class OpRecord:
    label: str
    seconds: float | None  # None for an untimed probe
    ok: bool
    round_no: int = 0


@dataclass
class Runner:
    """Closed loop with one operation in flight; optionally traced."""

    recorder: object | None = None
    records: list[OpRecord] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)  # known defects, seen but not failed
    round_no: int = 0  # the round operations are recorded in
    _next_id: int = 0

    def _begin(self, kind: str):
        if self.recorder is None:
            return None
        self.recorder.op_id = self._next_id
        self._next_id += 1
        return self.recorder.begin(f"harness.{kind}")

    def _end(self, span):
        if span is not None:
            self.recorder.finish(span)
            self.recorder.op_id = -1

    def count(self, key: str, amount: float = 1.0):
        if self.recorder is not None:
            self.recorder.count(key, amount)

    def note(self, message: str):
        self.notes.append(message)

    def op(self, label: str, call, check=None, timed: bool = True):
        """Run one operation, time the call, then check its output.

        A check that raises ``CheckFailed``, or a call that raises at
        all, makes the operation a failed one; the loop goes on.
        Returns the call's value, or None when the operation failed.
        """
        span = self._begin("op")
        ok, value, seconds = True, None, None
        try:
            t0 = time.perf_counter()
            try:
                value = call()
            finally:
                seconds = time.perf_counter() - t0
            if check is not None:
                check(value)
        except CheckFailed as exc:
            ok = False
            self.failures.append(f"{label}: {exc}")
        except Exception as exc:  # a crashed operation is counted and reported, not fatal
            ok = False
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        finally:
            self._end(span)
        self.records.append(OpRecord(label, seconds if timed else None, ok, self.round_no))
        return value if ok else None

    def work(self, label: str, call):
        """Run work a round needs that is not an operation of its own."""
        span = self._begin("work")
        try:
            return call()
        finally:
            self._end(span)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.records)


class Workload:
    """A named workload: ``setup`` builds inputs from the seed, ``round``
    runs one round of operations, ``probes`` runs untimed checks after
    the measured rounds, ``finish`` writes what it recorded."""

    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def probes(self, runner: Runner):
        pass

    def finish(self):
        pass


def _pad(values, dim):
    out = np.zeros(dim)
    out[: len(values)] = values
    return out


def _default_seed(fn) -> int:
    return inspect.signature(fn).parameters["seed"].default


# -- presets-coupled --------------------------------------------------------------

# every preset apart from mixing-distance, as ``asymcouple reproduce`` runs them
PRESET_IDS = ("toy-contraction", "gl-gap", "rd-zeta", "chain-cascade", "girsanov-martingale")


def preset_plan(seed: int, pinned: dict[str, int]) -> list[tuple[str, int]]:
    """(preset id, preset seed) pairs in the order a round runs them.

    Every preset runs at its pinned seed, the one its checks are stated
    for; the seed orders the presets (seed 0 keeps ``PRESET_IDS``'s order).
    """
    order = list(PRESET_IDS)
    if seed:
        order = [order[i] for i in np.random.default_rng(seed).permutation(len(order))]
    return [(pid, pinned[pid]) for pid in order]


class PresetsCoupled(Workload):
    """``presets.run_preset`` on the five coupled presets at their pinned
    seeds; one preset is one operation, failed when any of its checks FAILs."""

    name = "presets-coupled"

    def setup(self):
        self.presets = importlib.import_module("asymcouple.presets")
        pinned = {pid: _default_seed(self.presets.PRESETS[pid][0]) for pid in PRESET_IDS}
        self.plan = preset_plan(self.seed, pinned)

    def round(self, runner: Runner):
        for pid, preset_seed in self.plan:
            runner.op(pid, partial(self.presets.run_preset, pid, seed=preset_seed), _check_preset)


def _check_preset(outcome):
    failed = [line for line, c in zip(outcome.lines(), outcome.checks) if not c.passed]
    if failed:
        raise CheckFailed("; ".join(failed))


# -- mixing-distance ----------------------------------------------------------------

MIX_N_SIDE = 100         # points per side (the preset uses 300)
MIX_TIMES = (1, 2, 3)    # integer times (the preset uses 1..8)
MIX_DT = 2e-3
MIX_CAP = 70             # each distance call subsamples this many points per side
MIX_DRAWS = 4            # subsample draws per time, each a distinct LP
MIX_N_BOOT = 12          # as in the preset, on half-size resamples
PROBE_POINTS = 50
PROBE_TOL = 1e-6


def mixing_plan(seed: int, pinned: int) -> dict:
    return {
        "ensemble_seed": pinned + seed,
        "n_side": MIX_N_SIDE,
        "times": MIX_TIMES,
        "dt": MIX_DT,
        "cap": MIX_CAP,
        # subsample seeds of the distance calls at each time
        "draw_seeds": [1000 * seed + d for d in range(MIX_DRAWS)],
        "n_boot": MIX_N_BOOT,
        "boot_cap": MIX_N_SIDE // 2,
    }


def mixing_cases(models):
    """The mixing-distance preset's four models and pairs of starts."""
    sqrt2pi = math.sqrt(2.0 * math.pi)
    gl = models.make_ginzburg_landau(modes=64, forced_modes=3, noise_coeffs=[2.2, 1.54, 1.54])
    rd = models.make_reaction_diffusion(modes_per_component=16)
    half = rd.dim // 2
    amp = math.sqrt(3.0) * sqrt2pi
    chain = models.make_chain(a_squared=0.0)
    return {
        "toy2d": (models.make_toy2d(), np.array([1.5, 1.5]), np.array([0.25, 0.25])),
        "ginzburg_landau": (gl, _pad([sqrt2pi, 0.4], gl.dim), _pad([-sqrt2pi, 0.0, 0.4], gl.dim)),
        "reaction_diffusion": (rd, np.concatenate([_pad([amp], half), _pad([amp], half)]),
                               np.zeros(rd.dim)),
        "chain": (chain, _pad([1.2, 0.4], chain.dim), _pad([-0.8, 0.2, 0.1], chain.dim)),
    }


class MixingDistance(Workload):
    """Reduced mixing-distance preset: two uncoupled ensembles per model,
    direct bounded-Lipschitz distances between them at each time (one
    operation per call, on several subsample draws) and one bootstrap
    noise floor per model."""

    name = "mixing-distance"

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        self.values: list[dict] = []

    def setup(self):
        self.engine = importlib.import_module("asymcouple.engine")
        self.estimators = importlib.import_module("asymcouple.estimators")
        models = importlib.import_module("asymcouple.models")
        presets = importlib.import_module("asymcouple.presets")
        self.plan = mixing_plan(self.seed, _default_seed(presets.mixing_distance))
        self.cases = mixing_cases(models)
        self.last: dict[str, tuple] = {}

    def round(self, runner: Runner):
        p = self.plan
        n, seed, times = p["n_side"], p["ensemble_seed"], p["times"]
        record = not self.values
        for name, (model, xa, xb) in self.cases.items():
            run = self.engine.run_ensemble
            ens_a = runner.work(f"{name}/ensemble-a",
                                partial(run, model, xa, n, times[-1], p["dt"], seed, stream0=0))
            ens_b = runner.work(f"{name}/ensemble-b",
                                partial(run, model, xb, n, times[-1], p["dt"], seed, stream0=n))
            for t in times:
                for draw in p["draw_seeds"]:
                    d = runner.op(f"{name}/t={t}/draw={draw}",
                                  partial(self._distance, ens_a.states[t], ens_b.states[t],
                                          cap=p["cap"], subsample_seed=draw),
                                  _check_range)
                    if record:
                        self.values.append({"model": name, "t": t, "draw": draw, "distance": d})
            floor = runner.work(f"{name}/floor", partial(
                self.estimators.bootstrap_null_quantile, ens_a.states[-1], ens_b.states[-1],
                n_boot=p["n_boot"], cap=p["boot_cap"], seed=seed))
            if record:
                self.values.append({"model": name, "floor": floor})
            self.last[name] = (ens_a, ens_b)

    def _distance(self, a, b, **kwargs):
        return self.estimators.dual_lipschitz_distance(a, b, **kwargs)

    def probes(self, runner: Runner):
        """Untimed checks with known answers on the last round's samples:
        identical samples are at distance 0, the distance is symmetric, and
        two point masses at distance d are at 2d/(2+d)."""
        for name, (ens_a, ens_b) in self.last.items():
            a = ens_a.states[-1][:PROBE_POINTS]
            b = ens_b.states[-1][:PROBE_POINTS]
            same = runner.op(f"{name}/probe-identical", partial(self._distance, a, a),
                             partial(_check_close, 0.0), timed=False)
            ab = runner.op(f"{name}/probe-ab", partial(self._distance, a, b),
                           _check_range, timed=False)
            ba = runner.op(f"{name}/probe-ba", partial(self._distance, b, a),
                           partial(_check_close, ab), timed=False)
            sep = float(np.linalg.norm(a[0] - b[0]))
            dirac = runner.op(f"{name}/probe-point-masses",
                              partial(self._distance, a[:1], b[:1]),
                              partial(_check_close, 2.0 * sep / (2.0 + sep)), timed=False)
            self.values.append({"model": name, "probe_identical": same, "probe_ab": ab,
                                "probe_ba": ba, "probe_point_masses": dirac, "separation": sep})

    def finish(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        record = {"plan": self.plan, "values": self.values}
        (self.out_dir / f"distances-seed{self.seed}.json").write_text(json.dumps(record, indent=1) + "\n")


def _check_range(value):
    if not (0.0 <= value <= 2.0):
        raise CheckFailed(f"distance {value!r} outside [0, 2]")


def _check_close(expected, value):
    _check_range(value)
    if expected is None:
        raise CheckFailed("no reference value to compare with")
    if abs(value - expected) > PROBE_TOL:
        raise CheckFailed(f"distance {value!r}, expected {expected!r}")


# -- cli-run ------------------------------------------------------------------------------

CLI_MODEL_SECTIONS = {
    "toy2d": "id = toy2d\n",
    "ginzburg_landau": "id = ginzburg_landau\nmodes = 32\nforced_modes = 3\nnoise_coeffs = 1.0 0.6 0.6\n",
    "reaction_diffusion": "id = reaction_diffusion\nmodes_per_component = 16\n",
    "chain": "id = chain\na_squared = 2.0\n",
}
# starts of the matching presets (RD: the u part of rd-zeta's; the chain's
# small offset is girsanov-martingale's, which keeps the log weight in range)
CLI_STARTS = {
    "toy2d": ("1.0 0.5", "1.0 -0.5"),
    "ginzburg_landau": ("0.4 0.8 -0.3 0.2 -0.1", "0.7 -0.4 0.5 0.0 0.0 0.3 0.0 -0.2"),
    "reaction_diffusion": ("0.5 0.3 -0.2 0.1", "0.3 -0.3 0.2"),
    "chain": ("0.4 0.3 -0.2 0.1", "0.01 0.0067 -0.005 0.0033"),
}
# every estimator the run command has, apart from mixing, is reached somewhere
CLI_EXTRA_ESTIMATORS = {
    "toy2d": "lyapunov = on\naxk = on\ndensity = on\n",
    "chain": "lyapunov = on\naxk = on\ndensity = on\n",
}
CLI_JOBS = (1, 2)
ARTIFACTS = ("report.json", "trajectory.csv", "plot_data.csv")
# numbers in the --jobs 2 artifacts must match --jobs 1 to this relative
# (or, near zero, absolute) tolerance; rounding of batch-shaped matmuls
# moves them by about 1e-14
JOBS_REL_TOL = 1e-9
JOBS_ABS_TOL = 1e-12
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def artifact_difference(ref: str, other: str) -> str | None:
    """Where two artifact texts differ by more than rounding, or None.

    The texts are split into numbers and the text between them; the text
    must match exactly and each pair of numbers within the tolerances.
    """
    a, b = _NUMBER.split(ref), _NUMBER.split(other)
    if len(a) != len(b):
        return f"{len(a) // 2} numbers against {len(b) // 2}"
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y:
            continue
        if i % 2 == 0:
            return f"text {x[:40]!r} against {y[:40]!r}"
        if not math.isclose(float(x), float(y), rel_tol=JOBS_REL_TOL, abs_tol=JOBS_ABS_TOL):
            return f"number {x} against {y}"
    return None


def cli_config_text(model_id: str, seed: int) -> str:
    x0, offset = CLI_STARTS[model_id]
    return (
        f"[model]\n{CLI_MODEL_SECTIONS[model_id]}\n"
        "[run]\ndt = 0.001\nunits = 3\nensemble = 24\n"
        f"seed = {seed}\nbinding = on\nx0 = {x0}\ny0_offset = {offset}\n\n"
        f"[estimators]\ncontraction = on\n{CLI_EXTRA_ESTIMATORS.get(model_id, '')}"
    )


class CliRun(Workload):
    """``cli.main(["run", ...])`` in-process, once per model at ``--jobs 1``
    and once at ``--jobs 2``.  The second fails unless its artifacts hold
    the first's numbers up to rounding; artifacts that match only up to
    rounding, not byte for byte, are counted and noted."""

    name = "cli-run"

    def setup(self):
        self.cli = importlib.import_module("asymcouple.cli")
        config = importlib.import_module("asymcouple.config")
        self.dir = self.out_dir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for model_id in MODEL_IDS:
            path = self.dir / f"{model_id}.cfg"
            path.write_text(cli_config_text(model_id, self.seed))
            config.load_config(path)
            self.configs[model_id] = path

    def _out(self, model_id, jobs) -> Path:
        return self.dir / f"{model_id}-jobs{jobs}"

    def round(self, runner: Runner):
        for model_id in MODEL_IDS:
            for jobs in CLI_JOBS:
                out = self._out(model_id, jobs)
                shutil.rmtree(out, ignore_errors=True)
                runner.op(f"{model_id}/jobs={jobs}",
                          partial(self._run, self.configs[model_id], jobs, out),
                          partial(self._check, runner, model_id, jobs))

    def _run(self, config_path, jobs, out):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(["run", "--config", str(config_path),
                                  "--jobs", str(jobs), "--out", str(out)])

    def _check(self, runner, model_id, jobs, code):
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        out = self._out(model_id, jobs)
        runner.count("cli.artifact_bytes", sum((out / f).stat().st_size for f in ARTIFACTS))
        status = json.loads((out / "report.json").read_text()).get("extras", {}).get("status")
        if status != "ok":
            raise CheckFailed(f"report status {status!r}")
        if jobs == CLI_JOBS[0]:
            return
        ref = self._out(model_id, CLI_JOBS[0])
        if not all((ref / f).is_file() for f in ARTIFACTS):
            raise CheckFailed(f"no --jobs {CLI_JOBS[0]} artifacts to compare with")
        wrong, rounded = [], []
        for f in ARTIFACTS:
            ref_text, text = (ref / f).read_text(), (out / f).read_text()
            if ref_text == text:
                continue
            rounded.append(f)
            difference = artifact_difference(ref_text, text)
            if difference is not None:
                wrong.append(f"{f} ({difference})")
        runner.count("cli.jobs_mismatch", len(rounded))
        if wrong:
            raise CheckFailed(f"--jobs {jobs} artifacts differ from --jobs {CLI_JOBS[0]}: "
                              + ", ".join(wrong))
        if rounded:
            runner.note(f"{model_id}/jobs={jobs}: not byte-identical to --jobs {CLI_JOBS[0]} "
                        f"(equal up to rounding): " + ", ".join(rounded))


WORKLOADS = {w.name: w for w in (PresetsCoupled, MixingDistance, CliRun)}
