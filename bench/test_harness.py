"""Tests of the benchmark harness itself (not of asymcouple).

Run from the repository root::

    python3 -m pytest bench/test_harness.py -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# -- self time ----------------------------------------------------------------------


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has child [5, 6]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 4.0, 5.0, 7.0]
    parent = [-1, 0, 0, 0]
    # children cover [1, 5] and [6, 7]: five of the root's ten seconds
    assert self_times(start, end, parent)[0] == pytest.approx(5.0)


def test_self_time_clips_children_to_parent():
    start = [0.0, 8.0, 20.0]
    end = [10.0, 12.0, 30.0]
    parent = [-1, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(8.0)


def test_recorder_nests_spans_and_tags_operations():
    rec = SpanRecorder(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
    rec.op_id = 7
    outer = rec.begin("a.outer")
    inner = rec.begin("b.inner")
    rec.finish(inner)
    rec.op_id = -1
    rec.finish(outer)
    other = rec.begin("a.outer")
    rec.finish(other)
    arr = rec.arrays()
    assert rec.names == ["a.outer", "b.inner"]
    assert arr["name_id"].tolist() == [0, 1, 0]
    assert arr["parent"].tolist() == [-1, 0, -1]
    assert arr["op"].tolist() == [7, 7, -1]
    assert self_times(arr["start"], arr["end"], arr["parent"]).tolist() == [2.0, 1.0, 1.0]


def test_recorder_rejects_crossed_spans():
    rec = SpanRecorder()
    outer = rec.begin("a")
    rec.begin("b")
    with pytest.raises(RuntimeError):
        rec.finish(outer)


# -- tail percentile ------------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = stats.tail(range(1, 101))
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    value, pct, beyond = stats.tail(list(range(1, 21))[::-1])
    assert (value, pct, beyond) == (10.0, 50.0, 10)


def test_tail_with_eleven_samples_is_the_smallest():
    value, pct, beyond = stats.tail(range(11))
    assert value == 0.0 and beyond == 10
    assert pct == pytest.approx(100.0 / 11)


def test_round_tail_is_the_median_of_per_round_tails():
    samples = [(1, v) for v in (1.0, 2.0, 9.0)] + [(2, v) for v in (1.0, 2.0, 3.0)]
    samples += [(3, v) for v in (1.0, 2.0, 4.0)]
    assert stats.round_tail(samples) == (4.0, 100.0, 0, 3)
    many = [(r, float(v)) for r in (1, 2) for v in range(1, 101)]
    assert stats.round_tail(many) == (90.0, 90.0, 10, 2)
    with pytest.raises(ValueError):
        stats.round_tail([])


def test_tail_without_enough_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        stats.tail([])


# -- failed-operation accounting ----------------------------------------------------------


def _fail_check(value):
    raise workloads.CheckFailed(f"bad value {value}")


def _crash():
    raise ZeroDivisionError("boom")


def test_runner_counts_failed_operations():
    runner = workloads.Runner()
    assert runner.op("good", lambda: 1.0, lambda v: None) == 1.0
    assert runner.op("bad-output", lambda: 2.0, _fail_check) is None
    assert runner.op("crash", _crash) is None
    assert runner.op("probe", lambda: 3.0, timed=False) == 3.0
    assert (runner.attempted, runner.failed) == (4, 2)
    assert runner.failures[0] == "bad-output: bad value 2.0"
    assert runner.failures[1].startswith("crash: ZeroDivisionError")
    assert [r.ok for r in runner.records] == [True, False, False, True]
    assert runner.records[-1].seconds is None
    assert all(r.seconds is not None for r in runner.records[:3])


def test_traced_runner_gives_each_operation_its_own_id():
    rec = SpanRecorder()
    runner = workloads.Runner(recorder=rec)
    runner.op("a", lambda: None)
    runner.work("prep", lambda: None)
    runner.op("b", _crash)
    arr = rec.arrays()
    assert [rec.names[i] for i in arr["name_id"]] == ["harness.op", "harness.work", "harness.op"]
    assert arr["op"].tolist() == [0, 1, 2]
    assert rec.op_id == -1


# -- seeds ---------------------------------------------------------------------------------


def test_presets_run_at_pinned_seeds_in_seeded_order():
    from asymcouple import presets

    pinned = {pid: presets.PRESETS[pid][0].__defaults__[0] for pid in workloads.PRESET_IDS}
    assert workloads.preset_plan(0, pinned) == [(p, pinned[p]) for p in workloads.PRESET_IDS]
    for seed in (5, 207575499):
        plan = workloads.preset_plan(seed, pinned)
        assert dict(plan) == pinned
        assert plan == workloads.preset_plan(seed, pinned)
    orders = {tuple(p for p, _ in workloads.preset_plan(s, pinned)) for s in range(1, 9)}
    assert len(orders) > 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_reaches_every_workload(name, tmp_path):
    def inputs(seed):
        w = workloads.WORKLOADS[name](seed, tmp_path / str(seed))
        w.setup()
        if name == "presets-coupled":
            return w.plan
        if name == "mixing-distance":
            return w.plan
        return {m: p.read_text() for m, p in w.configs.items()}

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_artifact_difference_allows_rounding_only():
    ref = '{"gamma_se": 0.1890451352291099, "n": 24}\n1.0,8.86868025686173e-05,-0.65\n'
    rounded = '{"gamma_se": 0.18904513522910965, "n": 24}\n1.0,8.86868025686187e-05,-0.65\n'
    assert workloads.artifact_difference(ref, ref) is None
    assert workloads.artifact_difference(ref, rounded) is None
    assert "number" in workloads.artifact_difference(ref, ref.replace("0.65", "0.66"))
    assert "text" in workloads.artifact_difference(ref, ref.replace('"n"', '"m"'))
    assert "numbers against" in workloads.artifact_difference(ref, ref + "2.0\n")


def _cli_outputs(tmp_path, texts):
    w = workloads.CliRun(0, tmp_path)
    w.dir = tmp_path
    for jobs, text in zip(workloads.CLI_JOBS, texts):
        out = w._out("toy2d", jobs)
        out.mkdir(parents=True)
        (out / "report.json").write_text('{"extras": {"status": "ok"}, "g": %s}' % text)
        for f in workloads.ARTIFACTS[1:]:
            (out / f).write_text("t,x\n0.0,1.0\n")
    return w


def test_cli_check_notes_rounding_and_fails_real_differences(tmp_path):
    runner = workloads.Runner()
    w = _cli_outputs(tmp_path / "a", ["0.1890451352291099", "0.18904513522910965"])
    runner.op("rounded", lambda: 0, lambda code: w._check(runner, "toy2d", 2, code))
    w = _cli_outputs(tmp_path / "b", ["0.18904", "0.18905"])
    runner.op("wrong", lambda: 0, lambda code: w._check(runner, "toy2d", 2, code))
    runner.op("exit", lambda: 1, lambda code: w._check(runner, "toy2d", 1, code))
    assert [r.ok for r in runner.records] == [True, False, False]
    assert runner.notes == ["toy2d/jobs=2: not byte-identical to --jobs 1 "
                            "(equal up to rounding): report.json"]
    assert "report.json (number 0.18904 against 0.18905)" in runner.failures[0]
    assert runner.failures[1] == "exit: exit code 1"


def test_cli_config_carries_the_seed():
    text = workloads.cli_config_text("chain", 42)
    assert "seed = 42\n" in text and "density = on" in text


# -- tracing --------------------------------------------------------------------------------


def test_instrumentation_records_layers_and_restores_originals():
    from asymcouple import binding, engine, estimators, models

    originals = (engine.run_coupled_ensemble, estimators.dual_lipschitz_distance,
                 models.make_toy2d, models._FACTORIES["toy2d"])
    rec = SpanRecorder()
    inst = layers.Instrumentation(rec)
    inst.install()
    try:
        runner = workloads.Runner(recorder=rec)
        t0 = rec.clock()
        model = models.make_model("toy2d")
        spec = binding.make_binding(model)
        ens = runner.work("ensemble", lambda: engine.run_coupled_ensemble(
            model, spec, np.array([1.0, 0.5]), np.array([1.5, 0.2]), 8, 1, 0.01, 0))
        runner.op("distance", lambda: estimators.dual_lipschitz_distance(
            ens.x[-1], ens.y[-1]))
        wall = rec.clock() - t0
    finally:
        inst.uninstall()
    assert (engine.run_coupled_ensemble, estimators.dual_lipschitz_distance,
            models.make_toy2d, models._FACTORIES["toy2d"]) == originals

    names = set(rec.names)
    assert {"models.make_model", "models.make_toy2d", "binding.make_binding",
            "engine.run_coupled_ensemble:toy2d", "models.nonlinearity:toy2d",
            "binding.force:toy2d", "binding.zeta_map", "models.lyapunov",
            "estimators.dual_lipschitz_distance"} <= names
    metrics = {k: v for k, (v, _) in layers.layer_metrics(rec, wall, wall).items()}
    assert metrics["engine.path_steps"] == 8 * 100
    assert metrics["estimators.distance_calls"] == 1
    u = metrics["estimators.distance_points"]
    assert u == 16
    assert metrics["estimators.distance_lp_rows"] == 2 * u + u * (u - 1) + 1
    assert metrics["models.nonlinearity_rows"] > 0
    assert metrics["binding.force_s.toy2d"] > 0
    # layer self times, harness time and the remainder account for the window
    parts = sum(metrics[f"{lay}.self_s"] for lay in
                ("models", "binding", "polynomials", "engine", "estimators", "cli",
                 "presets", "harness"))
    parts += metrics["config.load_config_s"] + metrics["trace.bookkeeping_s"]
    assert parts + metrics["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert metrics["trace.unattributed_s"] >= 0.0


def test_per_layer_names_match_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert declared == layers.per_layer_names()
    empty = layers.layer_metrics(SpanRecorder(), 1.0, 1.0)
    assert list(empty) == [name for name, _ in declared]
    assert all(math.isfinite(v) for v, _ in empty.values())


def test_end_to_end_names_match_benchmark_json():
    import run

    runner = workloads.Runner()
    for i in range(4):
        runner.op(f"op{i}", lambda: None)
    metrics = run.end_to_end(runner, [1.0], [0.5], 100.0)
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert [(k, v[1]) for k, v in metrics.items()] == declared
