"""Harness behaviour: config validation, artifacts, determinism, exit codes."""

import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from asymcouple.binding import build_zeta_cascade, make_binding, parse_cascade_dump
from asymcouple.cli import _run_ensemble_jobs, _trajectory_table, _write_csv, main
from asymcouple import config
from asymcouple.config import ConfigError, load_config
from asymcouple.engine import (
    BlowUpError,
    integrate,
    integrate_coupled,
    run_coupled_ensemble,
    run_ensemble,
    sample_noise,
)
from asymcouple.models import make_chain, make_toy2d

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
        path = tmp_path / "bad.cfg"
        path.write_text(
            "[model]\nid = chain\na_squared = 5.0\ntruncation = 8\n"
        )
        with pytest.raises(ConfigError, match="4 k"):
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
        ],
        ids=["no-alt-x0", "alt-x0-too-long", "negative-mixing-time", "zero-density-horizon",
             "negative-axk-horizon", "empty-axk-ks", "misspelt-estimator", "misspelt-run-key",
             "unknown-section", "one-path-lyapunov", "negative-seed", "nan-dt", "jobs-0",
             "jobs-negative"],
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
        # and the fourth
        artifacts = ("report.json", "trajectory.csv", "plot_data.csv")
        mixing = "mixing = on\nmixing_times = 1 4\nmixing_alt_x0 = 0.2 0.1\naxk = on\naxk_horizon = 1\n"
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
                main(["run", "--config", str(cfg), "--jobs", "3"])
                differ += [(model_id, binding, bool(estimators), name) for name in artifacts
                           if (tmp_path / "out" / name).read_bytes() != single[name]]
        assert differ == []

    @pytest.mark.parametrize("binding, units, estimators, pair_units, x_units", [
        ("on", 1, "density = on\ndensity_horizons = 1 2 3\n", 4, 4),
        ("on", 1, "axk = on\naxk_horizon = 4\nmixing = on\nmixing_times = 1 3\n"
                  "mixing_alt_x0 = 0.2 0.1\n", 1, 5),
        ("off", 3, "density = on\ndensity_horizons = 1\n", 2, 3),
        ("off", 1, "axk = on\naxk_horizon = 2\n", 0, 3),
    ], ids=["density-longest", "binding-then-x", "density-then-x", "x-only"])
    def test_one_ensemble_couples_and_records_only_what_is_read(
            self, tmp_path, binding, units, estimators, pair_units, x_units):
        # the pair is bound only as long as the plot (binding on) or density
        # reads it; the x paths run as long as any reader needs; records are
        # every step over the plotted units and once a unit after, so the
        # record memory does not grow with the estimators' horizons
        path = write_config(tmp_path, binding=binding, units=units, record_every=1)
        text = path.read_text().replace("ensemble = 20", "ensemble = 2")
        path.write_text(text.replace(EST, EST + estimators))
        pairs, x_ens = _run_ensemble_jobs(load_config(path))

        def record_count(span):
            return 500 * min(units, span) + max(span - units, 0) + 1

        assert x_ens.times[-1] == pytest.approx(x_units)
        assert x_ens.states.shape[:2] == (record_count(x_units), 2)
        if not pair_units:
            assert pairs is None
            return
        assert pairs.times[-1] == pytest.approx(pair_units)
        assert pairs.rho.shape[:2] == (record_count(pair_units), 2)
        np.testing.assert_array_equal(pairs.x, x_ens.head(pair_units).states)

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
        # that stream's noise, field for field and row for row
        cfg = load_config(write_model_config(tmp_path, model_id, binding=binding))
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

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nid = nope\n")
        assert main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

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

    def test_unknown_preset(self, capsys):
        assert main(["reproduce", "nope"]) == 2
        assert "toy-contraction" in capsys.readouterr().err

    def test_reproduce_toy(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ASYMCOUPLE_OUT", str(tmp_path))
        assert main(["reproduce", "toy-contraction"]) == 0
        out = capsys.readouterr().out
        assert "PASS toy-contraction/zeta-exponential-decay" in out
        assert (tmp_path / "toy-contraction" / "report.json").exists()

    def test_reproduce_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        import asymcouple.cli as cli_mod
        from asymcouple.estimators import EstimatorReport
        from asymcouple.presets import PresetOutcome

        def failing(seed=None):
            outcome = PresetOutcome("stub")
            outcome.add("always-fails", False, "forced failure")
            outcome.report = EstimatorReport(model_id="toy2d", config_fingerprint="stub")
            return outcome

        monkeypatch.setenv("ASYMCOUPLE_OUT", str(tmp_path))
        monkeypatch.setitem(cli_mod.PRESETS, "stub", (failing, "stub"))
        monkeypatch.setattr(cli_mod, "run_preset", lambda pid, seed=None: failing(seed))
        assert main(["reproduce", "stub"]) == 1
        assert "FAIL stub/always-fails" in capsys.readouterr().out

    def test_reproduce_prints_cascade_dump(self, tmp_path, capsys, monkeypatch):
        import asymcouple.cli as cli_mod
        from asymcouple.estimators import EstimatorReport
        from asymcouple.presets import PresetOutcome

        def stub(seed=None):
            outcome = PresetOutcome("stub")
            outcome.add("ok", True, "fine")
            outcome.report = EstimatorReport(
                model_id="chain",
                config_fingerprint="stub",
                extras={"cascade_text": "[zeta 1]\n1.0 * rho[2]\n"},
            )
            return outcome

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

    def test_negative_a_squared(self, capsys):
        assert main(["dump-cascade", "--", "-1.0"]) == 2
