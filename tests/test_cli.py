"""Harness behaviour: config validation, artifacts, determinism, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import asymcouple
from asymcouple import binding as bnd
from asymcouple.binding import build_zeta_cascade, make_binding
from asymcouple.cli import _groups, _run_groups, _trajectory_table, _write_csv, main
from asymcouple import config, engine
from asymcouple.config import ConfigError, load_config
from asymcouple.engine import (
    BlowUpError,
    EnsembleResult,
    integrate,
    integrate_coupled,
    run_coupled_ensemble,
    run_ensemble,
    sample_noise,
)
from asymcouple.models import make_chain, make_toy2d
from oracles import parse_cascade_dump

TOY_CONFIG = """\
[model]
id = toy2d

[run]
dt = 0.002
units = 2
ensemble = 20
seed = 42
binding = on
record_every = 100
x0 = 1.0 0.5
y0_offset = {offset}

[estimators]
contraction = on

[output]
dir = {out}
"""

EST = "contraction = on\n"
TOY = make_toy2d()

# per model: [model] section, x0 and y0 offset (the toy's are TOY_CONFIG's)
JOBS_MODELS = {
    "toy2d": ("id = toy2d\n", "1.0 0.5", "0.4 -0.2"),
    "ginzburg_landau": ("id = ginzburg_landau\nmodes = 32\nforced_modes = 3\n",
                        "0.4 0.8 -0.3 0.2", "0.3 -0.2 0.1"),
    "reaction_diffusion": ("id = reaction_diffusion\nmodes_per_component = 16\n",
                           "0.5 0.3 -0.2 0.1", "0.3 -0.3 0.2"),
    "chain": ("id = chain\na_squared = 2.0\n", "0.4 0.3 -0.2 0.1", "0.01 0.0067 -0.005"),
}


# id: (binding, units, estimators, pair_units, x_units) of one-ensemble
# runs whose bound and x spans are each set by a different reader
SPAN_CASES = {
    "density-longest": ("on", 1, "density = on\ndensity_horizons = 1 2 3\n", 4, 4),
    "binding-then-x": ("on", 1, "axk = on\naxk_horizon = 4\nmixing = on\nmixing_times = 1 3\n"
                                "mixing_alt_x0 = 0.2 0.1\n", 1, 5),
    "density-then-x": ("off", 3, "density = on\ndensity_horizons = 1\n", 2, 3),
    "x-only": ("off", 1, "axk = on\naxk_horizon = 2\n", 0, 3),
    "no-sup-reader": ("on", 1, "lyapunov = on\nmixing = on\nmixing_times = 1 3\n"
                               "mixing_alt_x0 = 0.2 0.1\n", 1, 3),
}


def count_builds(monkeypatch) -> dict:
    """Counts, kept up to date, of the models and bindings built from here on."""
    built = {"model": 0, "binding": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(config, "make_model", counted("model", config.make_model))
    monkeypatch.setattr(bnd, "make_binding", counted("binding", bnd.make_binding))
    return built


def write_config(tmp_path, offset="0.4 -0.2", name="exp.cfg", **extra):
    text = TOY_CONFIG.format(offset=offset, out=tmp_path / "out")
    for key, value in extra.items():
        text = text.replace(f"{key} = ", f"{key} = {value} #", 1)
    path = tmp_path / name
    path.write_text(text)
    return path


def write_model_config(tmp_path, model_id, estimators="", **extra):
    """TOY_CONFIG with a JOBS_MODELS model, its starts and five paths."""
    section, x0, offset = JOBS_MODELS[model_id]
    path = write_config(tmp_path, offset=offset, **extra)
    text = path.read_text().replace("id = toy2d\n", section)
    text = text.replace("x0 = 1.0 0.5", f"x0 = {x0}").replace("ensemble = 20", "ensemble = 5")
    path.write_text(text.replace(EST, EST + estimators))
    return path


class TestConfig:
    def test_load_and_fingerprint(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.model_id == "toy2d"
        assert cfg.dt == 0.002
        assert len(cfg.fingerprint()) == 16
        # pinned: a schema change that alters a parsed type shows here
        assert cfg.fingerprint() == "39151243bac91381"

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "readme.cfg"
        path.write_text(example)
        assert load_config(path).fingerprint() == "3f68ff73127ef537"

    def test_readme_reference_names_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        tables = [config._RUN_KEYS, config._ESTIMATOR_KEYS, config._OUTPUT_KEYS,
                  *config._MODEL_KEYS.values(), config._MODEL_KEYS]
        for key in (key for table in tables for key in table):
            assert f"`{key}`" in readme, key

    def test_unknown_model(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nid = pendulum\n")
        with pytest.raises(ConfigError, match="unknown model"):
            load_config(path)

    def test_bad_dt(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nid = toy2d\n\n[run]\ndt = 0.003\n")
        with pytest.raises(ConfigError, match="dt"):
            load_config(path)

    def test_chain_truncation_floor(self, tmp_path):
        # without a_squared the floor is that of the model's default a² = 5
        path = tmp_path / "bad.cfg"
        for params, floor in (("a_squared = 5.0\ntruncation = 8\n", 12),
                              ("truncation = 11\n", 12),
                              ("a_squared = 0.0\ntruncation = 7\n", 8)):
            path.write_text("[model]\nid = chain\n" + params)
            with pytest.raises(ConfigError, match=f"4 k\\* = {floor} sites"):
                load_config(path)

    def test_gl_underforced(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nid = ginzburg_landau\nmodes = 16\nforced_modes = 1\n")
        with pytest.raises(ConfigError, match="contracting"):
            load_config(path)

    def test_x0_too_long(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nid = toy2d\n\n[run]\nx0 = 1 2 3\n")
        with pytest.raises(ConfigError, match="exceed"):
            load_config(path)

    @pytest.mark.parametrize(
        "edits, jobs, match",
        [
            ([(EST, EST + "mixing = on\n")], None, "[estimators] mixing requires mixing_alt_x0"),
            ([(EST, EST + "mixing = on\nmixing_alt_x0 = 1 2 3\n")], None,
             "[estimators] mixing_alt_x0: 3 entries exceed"),
            ([(EST, EST + "mixing_times = -1\n")], None, "[estimators] mixing_times: need"),
            ([(EST, EST + "density_horizons = 0\n")], None,
             "[estimators] density_horizons: need"),
            ([(EST, EST + "axk_horizon = -2\n")], None, "[estimators] axk_horizon: must"),
            ([(EST, EST + "axk_ks =\n")], None, "[estimators] axk_ks: need"),
            ([(EST, EST + "density_horizons = 1 2 2 3 4 5 6\n")], None,
             "[estimators] density_horizons: values must be distinct"),
            ([(EST, EST + "mixing_times = 1 3 1\n")], None,
             "[estimators] mixing_times: values must be distinct"),
            ([(EST, EST + "axk_ks = 100 1e2\n")], None, "[estimators] axk_ks: values must be distinct"),
            ([(EST, EST + "lyapnuov = on\n")], None, "[estimators] lyapnuov: unknown key"),
            ([("[run]\n", "[run]\nensembel = 6\n")], None, "[run] ensembel: unknown key"),
            ([("[output]", "[estimator]\nlyapunov = on\n\n[output]")], None,
             "[estimator] section: unknown section"),
            ([("ensemble = 20", "ensemble = 1"), (EST, EST + "lyapunov = on\n")], None,
             "[run] ensemble: lyapunov and density need"),
            ([("seed = 42", "seed = -1")], None, "[run] seed: must be non-negative"),
            ([("dt = 0.002", "dt = nan")], None, "[run] dt: must be finite, got 'nan'"),
            ([], 0, "[run] jobs: must be at least 1"),
            ([], -3, "[run] jobs: must be at least 1"),
            # the domain is [-π, π] and the chain's V is |x|²: neither is a setting
            ([("id = toy2d", "id = ginzburg_landau\nlength = 0")], None,
             "[model] length: unknown key"),
            ([("id = toy2d", "id = reaction_diffusion\nlength = -1")], None,
             "[model] length: unknown key"),
            ([("id = toy2d", "id = chain\nlyapunov_power = 0")], None,
             "[model] lyapunov_power: unknown key"),
        ],
        ids=["no-alt-x0", "alt-x0-too-long", "negative-mixing-time", "zero-density-horizon",
             "negative-axk-horizon", "empty-axk-ks", "repeated-density-horizon",
             "repeated-mixing-time", "repeated-axk-level", "misspelt-estimator", "misspelt-run-key",
             "unknown-section", "one-path-lyapunov", "negative-seed", "nan-dt", "jobs-0",
             "jobs-negative", "gl-length", "rd-length", "chain-lyapunov-power"],
    )
    def test_bad_mixing_settings_rejected_before_any_output(
        self, tmp_path, capsys, edits, jobs, match
    ):
        path = write_config(tmp_path)
        text = path.read_text()
        for old, new in edits:
            text = text.replace(old, new, 1)
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(match)):
            load_config(path, jobs=jobs)
        argv = ["run", "--config", str(path)] + ([] if jobs is None else ["--jobs", str(jobs)])
        assert main(argv) == 2
        assert f"config error: {match}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRun:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        code = main(["run", "--config", str(write_config(tmp_path))])
        assert code == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["model_id"] == "toy2d"
        assert report["contraction"]["gamma"] > 0
        fingerprint = report["config_fingerprint"]
        for name in ("trajectory.csv", "plot_data.csv"):
            assert fingerprint in (out / name).read_text().splitlines()[0]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg)])
        first = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in ("report.json", "trajectory.csv", "plot_data.csv")
        }
        main(["run", "--config", str(cfg)])
        for name, blob in first.items():
            assert (tmp_path / "out" / name).read_bytes() == blob

    def test_jobs_do_not_change_results(self, tmp_path):
        # five paths go to three workers as 1 + 2 + 2, so one batch holds a
        # single path.  axk, density and mixing read the one shared ensemble,
        # recorded 5 times a unit over the plotted units and once a unit
        # after.  With binding on it is coupled over 3 units (density), then
        # the x paths go on alone to 4 (mixing); with binding off and
        # density on, coupled over 2, then alone over the third plotted unit
        # and the fourth.  Mixing's second start (5 paths) and the lyapunov
        # probes (30) are split across the workers as well
        artifacts = ("report.json", "trajectory.csv", "plot_data.csv")
        mixing = ("mixing = on\nmixing_times = 1 4\nmixing_alt_x0 = 0.2 0.1\naxk = on\n"
                  "axk_horizon = 1\nlyapunov = on\n")
        cases = (("on", 2, "density = on\ndensity_horizons = 1 2\n" + mixing),
                 ("off", 3, "density = on\ndensity_horizons = 1\n" + mixing),
                 ("off", 2, ""))
        differ = []
        for model_id in JOBS_MODELS:
            for binding, units, estimators in cases:
                cfg = write_model_config(tmp_path, model_id, estimators, binding=binding, units=units)
                main(["run", "--config", str(cfg), "--jobs", "1"])
                single = {name: (tmp_path / "out" / name).read_bytes() for name in artifacts}
                report = json.loads(single["report.json"])
                assert bool(report["density"]) == bool(estimators), (model_id, binding)
                assert bool(report["lyapunov"]) == bool(estimators), (model_id, binding)
                main(["run", "--config", str(cfg), "--jobs", "3"])
                differ += [(model_id, binding, bool(estimators), name) for name in artifacts
                           if (tmp_path / "out" / name).read_bytes() != single[name]]
        assert differ == []

    @pytest.mark.parametrize("binding, units, estimators, pair_units, x_units, record_every", [
        case + (record_every,) for record_every in (1, 0) for case in SPAN_CASES.values()
    ], ids=list(SPAN_CASES) + [f"{name}-tenths" for name in SPAN_CASES])
    def test_one_ensemble_couples_and_records_only_what_is_read(
            self, tmp_path, binding, units, estimators, pair_units, x_units, record_every):
        # the pair is bound only as long as the plot (binding on) or density
        # reads it; the x paths run as long as any reader needs; records are
        # every record_every steps over the plotted units (ten a unit, the
        # trajectory's spacing, when it is 0) and once a unit after, so the
        # record memory does not grow with the estimators' horizons; the W
        # sups are tracked by the ensemble alone, and only for axk or density
        path = write_config(tmp_path, binding=binding, units=units, record_every=record_every)
        text = path.read_text().replace("ensemble = 20", "ensemble = 2")
        path.write_text(text.replace(EST, EST + estimators))
        cfg = load_config(path)
        groups = _run_groups(cfg)
        pairs, x_ens = groups["ensemble"]
        per_unit = 500 // record_every if record_every else 10
        w_sups = "axk" in estimators or "density" in estimators
        assert {name: group.w_sups for name, group in _groups(cfg, cfg.build_model()).items()} == {
            name: w_sups and name == "ensemble" for name in groups}
        assert (x_ens.w_sup is not None) == w_sups
        for name, (_, x_paths) in groups.items():
            assert name == "ensemble" or x_paths.w_sup is None, name

        def record_count(span):
            return per_unit * min(units, span) + max(span - units, 0) + 1

        assert x_ens.times[-1] == pytest.approx(x_units)
        assert x_ens.states.shape[:2] == (record_count(x_units), 2)
        np.testing.assert_allclose(x_ens.head(units).times, np.arange(per_unit * units + 1) / per_unit)
        if not pair_units:
            assert pairs is None
            return
        assert pairs.times[-1] == pytest.approx(pair_units)
        assert pairs.rho.shape[:2] == (record_count(pair_units), 2)
        np.testing.assert_array_equal(pairs.x, x_ens.head(pair_units).states)
        assert (pairs.w_sup_x is not None) == (pairs.w_sup_y is not None) == w_sups

    @pytest.mark.parametrize("model_id", list(JOBS_MODELS))
    def test_pooled_groups_keep_their_streams(self, tmp_path, model_id):
        # split over three workers, the probe group is probe i's own run on
        # streams i*S..(i+1)*S-1 (S = 5 paths a probe), and mixing's second
        # start one run on the streams after the ensemble's; neither tracks
        # the W sups, which no reader of theirs reads
        estimators = "lyapunov = on\nmixing = on\nmixing_times = 2\nmixing_alt_x0 = 0.2 0.1\n"
        cfg = load_config(write_model_config(tmp_path, model_id, estimators), jobs=3)
        groups = _run_groups(cfg)
        model = cfg.build_model()
        x0 = cfg.initial_conditions(model)[0]
        n, samples = cfg.ensemble, 5
        probes = [x0 * s for s in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        oracles = {
            "lyapunov": EnsembleResult.concat([
                run_ensemble(model, probe, samples, 1, cfg.dt, cfg.seed, stream0=i * samples,
                             w_sups=False)
                for i, probe in enumerate(probes)
            ]),
            "mixing": run_ensemble(model, cfg.mixing_alt_x0(model), n, 2, cfg.dt, cfg.seed,
                                   stream0=n, w_sups=False),
        }
        for group, oracle in oracles.items():
            for field in fields(oracle):
                np.testing.assert_array_equal(getattr(groups[group][1], field.name),
                                              getattr(oracle, field.name), err_msg=group)

    @pytest.mark.parametrize("binding", ["on", "off"])
    def test_trajectory_fields_are_floats(self, tmp_path, binding):
        main(["run", "--config", str(write_config(tmp_path, binding=binding))])
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(lines) > 1
        for line in lines[1:]:
            for field in line.split(","):
                float(field)

    def test_equal_starts_zero_difference_column(self, tmp_path):
        cfg = write_config(tmp_path, offset="")
        main(["run", "--config", str(cfg)])
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        for line in lines[1:]:
            assert float(line.split(",")[3]) == 0.0

    @pytest.mark.parametrize("binding", ["on", "off"])
    @pytest.mark.parametrize("model_id", list(JOBS_MODELS))
    def test_trajectory_is_stream_0_of_the_run(self, tmp_path, model_id, binding):
        # the one-path run on stream 0 is the given-noise integration of
        # that stream's noise, field for field and row for row, and the
        # run command writes that integration's table as trajectory.csv
        path = write_model_config(tmp_path, model_id, binding=binding)
        cfg = load_config(path)
        model = cfg.build_model()
        x0, y0 = cfg.initial_conditions(model)
        noise = sample_noise(model, cfg.units * round(1 / cfg.dt), cfg.dt, cfg.seed, stream=0)
        if cfg.binding:
            spec = make_binding(model)
            run = run_coupled_ensemble(model, spec, x0, y0, 1, cfg.units, cfg.dt, cfg.seed,
                                       record_every=cfg.record_every)
            oracle = integrate_coupled(model, spec, x0, y0, noise, record_every=cfg.record_every)
        else:
            run = run_ensemble(model, x0, 1, cfg.units, cfg.dt, cfg.seed,
                               record_every=cfg.record_every)
            oracle = integrate(model, x0, noise, record_every=cfg.record_every)
        for field in fields(run):
            np.testing.assert_array_equal(getattr(run, field.name), getattr(oracle, field.name))
        columns, rows = _trajectory_table(model, run)
        oracle_columns, oracle_rows = _trajectory_table(model, oracle)
        assert columns == oracle_columns
        assert list(rows) == list(oracle_rows)
        _write_csv(tmp_path / "oracle.csv", *_trajectory_table(model, oracle), cfg.fingerprint())
        assert main(["run", "--config", str(path)]) == 0
        assert ((tmp_path / "out" / "trajectory.csv").read_bytes()
                == (tmp_path / "oracle.csv").read_bytes())

    @pytest.mark.parametrize("binding, estimators", [
        ("on", ""), ("off", ""), ("off", "density = on\ndensity_horizons = 1\n"),
    ], ids=["bound", "unbound", "density-only"])
    def test_stream_0_is_integrated_once(self, tmp_path, monkeypatch, binding, estimators):
        # the trajectory is the ensemble's path 0: a run that does not blow
        # up steps no batch of one path
        batches = []

        def counted(model, scheme, x0, *args, **kwargs):
            batches.append(len(x0))
            return integrate_batch(model, scheme, x0, *args, **kwargs)

        integrate_batch = engine._integrate_batch
        monkeypatch.setattr(engine, "_integrate_batch", counted)
        path = write_config(tmp_path, binding=binding)
        path.write_text(path.read_text().replace(EST, EST + estimators))
        assert main(["run", "--config", str(path), "--jobs", "1"]) == 0
        assert batches and 1 not in batches

    @pytest.mark.parametrize("binding, estimators, jobs, bindings", [
        ("on", "", 1, 1),
        ("off", "density = on\ndensity_horizons = 1\n", 1, 1),
        ("off", "", 1, 0),
        ("on", "density = on\ndensity_horizons = 1\n", 2, 0),
        ("on", "lyapunov = on\nmixing = on\nmixing_alt_x0 = 0.2 0.1\n", 1, 1),
    ], ids=["bound", "density-only", "unbound", "bound-2-jobs", "lyapunov-and-mixing"])
    def test_model_and_binding_built_once(self, tmp_path, monkeypatch, binding, estimators, jobs,
                                          bindings):
        # validation, the run and an in-process worker share one model; a
        # bound span builds the binding it integrates with, in the process
        # that runs it, so the run's own process builds none at --jobs 2
        built = count_builds(monkeypatch)
        path = write_model_config(tmp_path, "chain", estimators, binding=binding)
        assert main(["run", "--config", str(path), "--jobs", str(jobs)]) == 0
        assert built == {"model": 1, "binding": bindings}

    def test_a_bound_blow_up_builds_a_binding_per_span(self, tmp_path, monkeypatch):
        # streams 1 and 5 of the bound ensemble blow up: the ensemble span
        # builds one binding and the replay of stream 0, which writes its
        # bound trajectory, builds another
        built = count_builds(monkeypatch)
        path = tmp_path / "blow.cfg"
        path.write_text("[model]\nid = chain\na_squared = 5.0\n\n"
                        "[run]\ndt = 0.001\nunits = 1\nensemble = 8\nseed = 25\nbinding = on\n"
                        "x0 = 44.7\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--jobs", "1", "--out", str(out)]) == 3
        assert built == {"model": 1, "binding": 2}
        assert "rho_norm" in (out / "trajectory.csv").read_text().splitlines()[0]
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "blow_up" and report["stream"] == 5

    def test_trajectory_csv_shape(self, tmp_path):
        binding = make_binding(TOY)
        traj = run_coupled_ensemble(TOY, binding, np.zeros(2), np.zeros(2), 1, 1, 1e-3, seed=21,
                                    record_every=50)
        _write_csv(tmp_path / "t.csv", *_trajectory_table(TOY, traj), "deadbeef")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "# t,V_x,V_y,rho_norm,zeta_1,log_density  [config deadbeef]"
        assert len(lines) == 1 + len(traj.times)
        # identical initial conditions leave the difference column at zero
        for line in lines[1:]:
            assert float(line.split(",")[3]) == 0.0

    @pytest.mark.parametrize("model_id, binding, trajectory, plot_data", [
        ("toy2d", "on", "t,V_x,V_y,rho_norm,zeta_1,log_density",
         "t,rho_norm_mean,rho_norm_q10,rho_norm_q50,rho_norm_q90,log_density_mean,abs_zeta1_mean"),
        ("ginzburg_landau", "on", "t,V_x,V_y,rho_norm,log_density",
         "t,rho_norm_mean,rho_norm_q10,rho_norm_q50,rho_norm_q90,log_density_mean"),
        ("toy2d", "off", "t,V_x", "t,V_mean,V_q10,V_q50,V_q90"),
    ], ids=["bound-with-zeta", "bound-without-zeta", "unbound"])
    def test_csv_headers(self, tmp_path, model_id, binding, trajectory, plot_data):
        path = write_model_config(tmp_path, model_id, binding=binding, units=1)
        assert main(["run", "--config", str(path)]) == 0
        stamp = f"  [config {load_config(path).fingerprint()}]"
        for name, columns in (("trajectory.csv", trajectory), ("plot_data.csv", plot_data)):
            text = (tmp_path / "out" / name).read_text()
            assert text.splitlines()[0] == f"# {columns}{stamp}", name
            assert text.endswith("\n") and not text.endswith("\n\n")

    def test_report_is_strict_json(self, tmp_path):
        # a one-path ensemble has no path standard error: report.json
        # writes the rate's as null, not NaN
        path = write_config(tmp_path, ensemble=1)
        assert main(["run", "--config", str(path)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        text = (tmp_path / "out" / "report.json").read_text()
        report = json.loads(text, parse_constant=reject)
        assert report["contraction"]["gamma_se"] is None
        assert math.isfinite(report["contraction"]["gamma"])

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nid = nope\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_a_squared_above_the_k_star_ceiling_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # refused before the cascade is derived, and before any file is written
        monkeypatch.setattr(bnd, "build_zeta_cascade", lambda *a, **k: pytest.fail("cascade derived"))
        monkeypatch.setattr(bnd, "_chain_levels", lambda *a, **k: pytest.fail("levels derived"))
        path = write_model_config(tmp_path, "chain")
        path.write_text(path.read_text().replace("a_squared = 2.0", "a_squared = 1e12"))
        assert main(["run", "--config", str(path)]) == 2
        assert "a_squared must be at most 33" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_blow_up_exit_code(self, tmp_path, capsys):
        path = tmp_path / "blow.cfg"
        path.write_text(
            "[model]\nid = chain\na_squared = 5.0\n\n"
            "[run]\ndt = 0.001\nunits = 1\nensemble = 2\nseed = 1\nbinding = off\n"
            "x0 = 60.0\n\n[output]\ndir = %s\n" % (tmp_path / "out")
        )
        assert main(["run", "--config", str(path)]) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["status"] == "blow_up"
        assert report["time"] > 0

    def test_blow_up_in_a_worker_exits_3(self, tmp_path):
        # from this start only stream 3 blows up within the unit (about
        # 0.0026 on either side of its threshold), so the trajectory, on
        # stream 0, is written and the blow-up happens inside the ensemble
        model = make_chain(a_squared=5.0)
        x0 = np.zeros(model.dim)
        x0[0] = 44.695

        def blows_up(stream):
            try:
                run_ensemble(model, x0, 1, 1, 1e-3, seed=1, stream0=stream)
            except BlowUpError:
                return True
            return False

        assert [s for s in range(8) if blows_up(s)] == [3]
        path = tmp_path / "blow.cfg"
        path.write_text(
            "[model]\nid = chain\na_squared = 5.0\n\n"
            "[run]\ndt = 0.001\nunits = 1\nensemble = 8\nseed = 1\nbinding = off\n"
            f"x0 = {float(x0[0])!r}\n"
        )
        reports = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--config", str(path), "--jobs", jobs, "--out", str(out)]) == 3
            assert (out / "trajectory.csv").is_file() and not (out / "plot_data.csv").exists()
            reports.append((out / "report.json").read_bytes())
        assert json.loads(reports[0])["status"] == "blow_up"
        assert reports[1] == reports[0]

    @pytest.mark.parametrize("group", ["ensemble", "second-start"])
    def test_blow_up_report_is_the_same_at_every_jobs(self, tmp_path, group):
        # from this start streams 1 and 5 blow up, at 0.008 and 0.007, and
        # streams 8 and 15 at 0.007: one batch raises the earliest, on the
        # lowest stream at that time, and so must every split of the paths,
        # in the ensemble (streams 0..7: stream 5, before stream 1) and in
        # mixing's second start (8..15: stream 8), which now also runs
        # before plot_data.csv is written
        model = make_chain(a_squared=5.0)
        start = np.zeros(model.dim)
        start[0] = 44.7
        errors = {}
        for stream in range(16):
            try:
                run_ensemble(model, start, 1, 1, 1e-3, seed=25, stream0=stream)
            except BlowUpError as exc:
                errors[stream] = exc
        times = {stream: exc.time for stream, exc in errors.items()}
        assert times == {1: pytest.approx(0.008), 5: pytest.approx(0.007),
                         8: pytest.approx(0.007), 15: pytest.approx(0.007)}
        first = errors[5 if group == "ensemble" else 8]
        text = ("[model]\nid = chain\na_squared = 5.0\n\n"
                "[run]\ndt = 0.001\nunits = 1\nensemble = 8\nseed = 25\nbinding = off\n")
        if group == "ensemble":
            text += "x0 = 44.7\n"
        else:
            text += "x0 = 1.0\n\n[estimators]\nmixing = on\nmixing_times = 1\nmixing_alt_x0 = 44.7\n"
        path = tmp_path / "blow.cfg"
        path.write_text(text)
        reports = set()
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--config", str(path), "--jobs", jobs, "--out", str(out)]) == 3
            assert (out / "trajectory.csv").is_file() and not (out / "plot_data.csv").exists()
            reports.add((out / "report.json").read_text())
        assert len(reports) == 1
        report = json.loads(reports.pop())
        assert report["status"] == "blow_up" and report["time"] == times[5]
        assert (report["stream"], report["step"], report["component"]) == (
            first.stream, first.step, first.component)
        assert first.step == 7

    def test_stream_0_blow_up_is_reported_first(self, tmp_path):
        # from this start (the first seed, scanning up from 1, at which
        # stream 0 blows up after another of the eight streams) stream 0
        # blows up at 0.008 and streams 3, 4, 6 and 7 at 0.007: the run
        # reports stream 0's time at every --jobs, and writes no trajectory
        model = make_chain(a_squared=5.0)
        start = np.zeros(model.dim)
        start[0] = 44.7
        times = {}
        for stream in range(8):
            try:
                run_ensemble(model, start, 1, 1, 1e-3, seed=1, stream0=stream)
            except BlowUpError as exc:
                times[stream] = exc.time
        assert times == {0: pytest.approx(0.008), 3: pytest.approx(0.007), 4: pytest.approx(0.007),
                         6: pytest.approx(0.007), 7: pytest.approx(0.007)}
        path = tmp_path / "blow.cfg"
        path.write_text("[model]\nid = chain\na_squared = 5.0\n\n"
                        "[run]\ndt = 0.001\nunits = 1\nensemble = 8\nseed = 1\nbinding = off\n"
                        "x0 = 44.7\n")
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--config", str(path), "--jobs", jobs, "--out", str(out)]) == 3
            assert not (out / "trajectory.csv").exists() and not (out / "plot_data.csv").exists()
            report = json.loads((out / "report.json").read_text())
            assert report["status"] == "blow_up" and report["time"] == times[0]
            assert report["stream"] == 0 and report["step"] == 8

    def test_density_of_one_kept_path_writes_nulls(self, tmp_path):
        # one of the two paths overflows and the other's weight falls to
        # about 1e-260: its standard error over one path and its inverse
        # square, past the float range, are written as null, with no
        # numpy warning (the suite turns warnings into errors)
        path = tmp_path / "underflow.cfg"
        path.write_text("[model]\nid = toy2d\n\n"
                        "[run]\ndt = 0.001\nunits = 1\nensemble = 2\nseed = 2\nx0 = 1.0 0.5\n"
                        "y0_offset = -2.5 -2.0\n\n[estimators]\ndensity = on\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--jobs", "1", "--out", str(out)]) == 0
        density = json.loads((out / "report.json").read_text())["density"]
        assert density["n_overflow"] == 1
        assert all(0.0 < mean < 1e-250 for mean in density["mean_density"])
        assert density["mean_density_se"] == [None] * len(density["horizons"])
        assert density["mean_inv_sq_good"] == [None] * len(density["horizons"])

    def test_estimator_error_exits_3_with_a_report(self, tmp_path, capsys):
        # a far start of the a² = 5 chain: every path's log weight passes the
        # overflow bound within the density horizon
        path = tmp_path / "overflow.cfg"
        path.write_text(
            "[model]\nid = chain\na_squared = 5.0\n\n"
            "[run]\ndt = 0.001\nunits = 1\nensemble = 4\nseed = 7\nbinding = on\n"
            "x0 = 0.4 0.3 -0.2 0.1\ny0_offset = 1.0 0.5 -0.5 0.5\n\n"
            "[estimators]\ndensity = on\ndensity_horizons = 1 2\n"
        )
        reports = []
        for jobs in ("1", "2", "1"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["run", "--config", str(path), "--jobs", jobs, "--out", str(out)]) == 3
            assert "estimator error: all trajectories overflowed" in capsys.readouterr().err
            assert (out / "trajectory.csv").is_file() and (out / "plot_data.csv").is_file()
            reports.append((out / "report.json").read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert json.loads(reports[0]) == {
            "status": "estimator_error",
            "message": "all trajectories overflowed the density accumulator",
            "config_fingerprint": load_config(path).fingerprint(),
            "model_id": "chain",
            "seed": 7,
        }

    def test_env_out_override(self, tmp_path, monkeypatch):
        alt = tmp_path / "elsewhere"
        monkeypatch.setenv("ASYMCOUPLE_OUT", str(alt))
        main(["run", "--config", str(write_config(tmp_path))])
        assert (alt / "report.json").exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["run", "--config", str(cfg)])
        base = (tmp_path / "out" / "plot_data.csv").read_bytes()
        main(["run", "--config", str(cfg), "--seed", "43"])
        assert (tmp_path / "out" / "plot_data.csv").read_bytes() != base


class TestPresetsCommand:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in (
            "toy-contraction", "gl-gap", "rd-zeta",
            "chain-cascade", "girsanov-martingale", "mixing-distance",
        ):
            assert name in out

    def test_scipy_loads_only_for_distances(self):
        # importing the package and listing presets need no scipy.optimize
        # or scipy.spatial: only the bounded-Lipschitz distance loads them
        script = (
            "import sys\n"
            "import asymcouple\n"
            "loaded = lambda: sorted(m for m in sys.modules\n"
            "                        if m.startswith(('scipy.optimize', 'scipy.spatial')))\n"
            "assert not loaded(), loaded()\n"
            "from asymcouple.cli import main\n"
            "assert main(['list-presets']) == 0\n"
            "assert not loaded(), loaded()\n"
            "asymcouple.dual_lipschitz_distance([[0.0]], [[1.0]])\n"
            "assert loaded()\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(asymcouple.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr

    def test_unknown_preset(self, capsys):
        assert main(["reproduce", "nope"]) == 2
        assert "toy-contraction" in capsys.readouterr().err

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        import asymcouple.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("a negative seed reached the preset")

        monkeypatch.setattr(cli_mod, "run_preset", never)
        monkeypatch.setenv("ASYMCOUPLE_OUT", str(tmp_path / "out"))
        assert main(["reproduce", "toy-contraction", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --seed: must be non-negative")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_reproduce_toy(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ASYMCOUPLE_OUT", str(tmp_path))
        assert main(["reproduce", "toy-contraction"]) == 0
        out = capsys.readouterr().out
        assert "PASS toy-contraction/zeta-exponential-decay" in out
        assert (tmp_path / "toy-contraction" / "report.json").exists()

    def test_reproduce_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import asymcouple.cli as cli_mod
        from asymcouple.estimators import EstimatorReport
        from asymcouple.presets import CheckResult, PresetOutcome

        def failing(seed=None):
            return PresetOutcome("stub", [CheckResult("always-fails", False, "forced failure")],
                                 EstimatorReport(model_id="toy2d", config_fingerprint="stub"))

        monkeypatch.setenv("ASYMCOUPLE_OUT", str(tmp_path))
        monkeypatch.setitem(cli_mod.PRESETS, "stub", (failing, "stub"))
        monkeypatch.setattr(cli_mod, "run_preset", lambda pid, seed=None: failing(seed))
        assert main(["reproduce", "stub"]) == 1
        assert "FAIL stub/always-fails" in capsys.readouterr().out

    def test_reproduce_prints_cascade_dump(self, tmp_path, capsys, monkeypatch):
        import asymcouple.cli as cli_mod
        from asymcouple.estimators import EstimatorReport
        from asymcouple.presets import CheckResult, PresetOutcome

        def stub(seed=None):
            return PresetOutcome("stub", [CheckResult("ok", True, "fine")], EstimatorReport(
                model_id="chain",
                config_fingerprint="stub",
                extras={"cascade_text": "[zeta 1]\n1.0 * rho[2]\n"},
            ))

        monkeypatch.setenv("ASYMCOUPLE_OUT", str(tmp_path))
        monkeypatch.setitem(cli_mod.PRESETS, "stub", (stub, "stub"))
        monkeypatch.setattr(cli_mod, "run_preset", lambda pid, seed=None: stub(seed))
        assert main(["reproduce", "stub"]) == 0
        assert "1.0 * rho[2]" in capsys.readouterr().out

    def test_run_with_all_estimators(self, tmp_path):
        path = tmp_path / "full.cfg"
        path.write_text(
            "[model]\nid = toy2d\n\n"
            "[run]\ndt = 0.004\nunits = 2\nensemble = 20\nseed = 3\nbinding = on\n"
            "x0 = 1.0 0.5\ny0_offset = 0.3 -0.1\n\n"
            "[estimators]\ncontraction = on\nlyapunov = on\naxk = on\n"
            "axk_ks = 10 100\naxk_horizon = 1\ndensity = on\ndensity_horizons = 1\n"
            "mixing = on\nmixing_times = 1\nmixing_alt_x0 = 0.2 0.1\n\n"
            f"[output]\ndir = {tmp_path / 'out'}\n"
        )
        assert main(["run", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["lyapunov"]["a"] < 1.0
        assert len(report["axk"]) == 2
        assert report["density"]["horizons"] == [1]
        assert len(report["distances"]) == 1


class TestDumpCascade:
    def test_header_k_star(self, capsys):
        assert main(["dump-cascade", "0.0"]) == 0
        assert "k_star=2" in capsys.readouterr().out
        assert main(["dump-cascade", "5.0"]) == 0
        assert "k_star=3" in capsys.readouterr().out

    def test_output_reparses_to_cascade(self, capsys):
        assert main(["dump-cascade", "5.0"]) == 0
        text = capsys.readouterr().out
        parsed = parse_cascade_dump(text)
        cascade = build_zeta_cascade(make_chain(a_squared=5.0))
        assert parsed["G"] == cascade.g_poly
        for level, zeta in enumerate(cascade.zetas, start=1):
            assert parsed[f"zeta {level}"] == zeta

    def test_a_wide_truncation_prints_the_cascade_of_4_k_star_sites(self, capsys):
        # the cascade reaches the first 2 k* sites, so beyond the header the
        # dump at M = 200000 is the one at M = 4 k* = 12, and as quick to derive
        start = time.perf_counter()
        assert main(["dump-cascade", "2.0", "--truncation", "200000"]) == 0
        elapsed = time.perf_counter() - start
        wide = capsys.readouterr().out.splitlines()
        assert main(["dump-cascade", "2.0", "--truncation", "12"]) == 0
        narrow = capsys.readouterr().out.splitlines()
        assert "truncation=200000" in wide[0] and "truncation=12" in narrow[0]
        assert wide[1:] == narrow[1:]
        assert elapsed < 20.0

    def test_negative_a_squared(self, capsys):
        assert main(["dump-cascade", "--", "-1.0"]) == 2

    def test_a_squared_above_the_k_star_ceiling(self, capsys, monkeypatch):
        monkeypatch.setattr(bnd, "build_zeta_cascade", lambda *a, **k: pytest.fail("cascade derived"))
        monkeypatch.setattr(bnd, "_chain_levels", lambda *a, **k: pytest.fail("levels derived"))
        assert main(["dump-cascade", "1e12"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: a_squared must be at most 33 (k* at most 6)")
        assert captured.out == ""

    @pytest.mark.parametrize("a_squared", ["nan", "inf"])
    def test_non_finite_a_squared(self, capsys, a_squared):
        assert main(["dump-cascade", a_squared]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: a_squared must be finite")
        assert captured.out == ""
