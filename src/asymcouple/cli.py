"""Command-line experiment runner.

Subcommands::

    asymcouple run --config PATH [--seed N] [--out DIR] [--jobs N]
    asymcouple reproduce EXPERIMENT [--seed N] [--out DIR]
    asymcouple dump-cascade A_SQUARED [--truncation M]
    asymcouple list-presets

Exit codes: 0 success / all checks pass, 1 an acceptance check failed,
2 configuration error, 3 the run could not finish: a blow-up, or an
estimator that could not run (partial outputs are written).
The environment variable ``ASYMCOUPLE_OUT`` overrides the output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import binding as bnd
from . import estimators as est
from . import models
from .config import ConfigError, ExperimentConfig, load_config
from .engine import (
    BlowUpError,
    CoupledEnsembleResult,
    EnsembleResult,
    run_coupled_ensemble,
    run_ensemble,
)
from .estimators import EstimatorError, EstimatorReport
from .presets import PRESETS, run_preset


def _ensemble_worker(task):
    """Top-level worker so process pools can pickle the task ``(cfg, lo, hi)``.

    Integrates the run's paths on streams ``lo..hi-1`` over the
    ``_spans``: bound pairs over the first span, the ``x`` paths alone
    after that.  Returns the pairs (None when nothing reads them) and the
    ``x`` paths over the whole run."""
    cfg, lo, hi = task
    model = cfg.build_model()
    x0, y0 = cfg.initial_conditions(model)
    coupled_units, units = _spans(cfg)
    records = {"stream0": lo, "record_every": cfg.record_every or None, "dense_units": cfg.units}
    if not coupled_units:
        return None, run_ensemble(model, x0, hi - lo, units, cfg.dt, cfg.seed, **records)
    pairs = run_coupled_ensemble(
        model, bnd.make_binding(model), x0, y0, hi - lo, coupled_units, cfg.dt, cfg.seed, **records
    )
    x_ens = pairs.x_half()
    if units > coupled_units:
        x_ens = x_ens.then(run_ensemble(
            model, x_ens.states[-1], hi - lo, units - coupled_units, cfg.dt, cfg.seed,
            start_unit=coupled_units, **records,
        ))
    return pairs, x_ens


def _spans(cfg: ExperimentConfig) -> tuple[int, int]:
    """Units of the run's one ensemble: how long the bound pair is read
    (by the plot data with binding on, and by density), and how long any
    reader, the ``x`` paths' included, needs it."""
    coupled = [cfg.units] if cfg.binding else []
    if cfg.estimator("density"):
        coupled.append(max(cfg.estimator("density_horizons")) + 1)
    units = [cfg.units] + coupled
    if cfg.estimator("axk"):
        units.append(cfg.estimator("axk_horizon") + 1)
    if cfg.estimator("mixing"):
        units.append(max(cfg.estimator("mixing_times")))
    return max(coupled, default=0), max(units)


def _run_ensemble_jobs(cfg: ExperimentConfig):
    """Integrate the run's one ensemble, streams ``0..n-1`` from the
    config's ``(x0, y0)``, on a worker pool; members are indexed by noise
    stream so the merged result is independent of the schedule.  Records
    are every ``record_every`` steps over the first ``units`` units, which
    the plot data reads, and once a unit after.  Returns the bound pairs
    (None when nothing reads them) and the ``x`` paths."""
    n = cfg.ensemble
    jobs = min(cfg.jobs, n)
    bounds = np.linspace(0, n, jobs + 1).astype(int)
    tasks = [(cfg, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if jobs == 1:
        results = [_ensemble_worker(tasks[0])]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_ensemble_worker, tasks))
    pairs, x_parts = zip(*results)
    return (None if pairs[0] is None else CoupledEnsembleResult.concat(pairs),
            EnsembleResult.concat(x_parts))


def _trajectory_table(model, ens):
    """Columns and rows of ``trajectory.csv``: path 0 of a run, a bound
    pair (t, V_x, V_y, rho_norm, zeta_*, log_density) or an ``x`` path
    (t, V_x)."""
    if isinstance(ens, EnsembleResult):
        return ["t", "V_x"], zip(ens.times, models.lyapunov(model, ens.states[:, 0]))
    x, rho = ens.x[:, 0], ens.rho[:, 0]
    columns = ["t", "V_x", "V_y", "rho_norm"]
    values = [ens.times, models.lyapunov(model, x), models.lyapunov(model, x + rho),
              np.linalg.norm(rho, axis=-1)]
    if ens.zeta is not None:
        columns += [f"zeta_{i + 1}" for i in range(ens.zeta.shape[-1])]
        values += list(ens.zeta[:, 0].T)
    return columns + ["log_density"], zip(*values, ens.log_density[:, 0])


def _plot_table(model, ens):
    """Columns and rows of ``plot_data.csv``: the mean and the 10/50/90 %
    quantiles over the paths at each record of ``rho_norm`` for bound
    pairs (then the mean log weight and, where there is zeta, the mean
    of |zeta_1|) or of V for ``x`` paths."""
    coupled = isinstance(ens, CoupledEnsembleResult)
    name = "rho_norm" if coupled else "V"
    v = np.linalg.norm(ens.rho, axis=-1) if coupled else models.lyapunov(model, ens.states)
    columns = ["t"] + [f"{name}_{stat}" for stat in ("mean", "q10", "q50", "q90")]
    values = [ens.times, v.mean(axis=1), *np.quantile(v, [0.1, 0.5, 0.9], axis=1)]
    if coupled:
        columns.append("log_density_mean")
        values.append(ens.log_density.mean(axis=1))
        if ens.zeta is not None:
            columns.append("abs_zeta1_mean")
            values.append(np.abs(ens.zeta[:, :, 0]).mean(axis=1))
    return columns, zip(*values)


def _write_csv(path: Path, columns, rows, fingerprint):
    """One '#' header naming the columns, stamped with the config
    fingerprint, then one line of ``repr`` floats per row."""
    lines = [f"# {','.join(columns)}  [config {fingerprint}]"]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _run_estimators(cfg, model, plot_ens, pairs, x_ens, x0, fingerprint) -> EstimatorReport:
    """Every estimator that is on, from the run's one ensemble: its first
    ``units`` units as plotted, its bound pairs and its ``x`` paths."""
    report = EstimatorReport(model_id=model.id, config_fingerprint=fingerprint)
    if isinstance(plot_ens, CoupledEnsembleResult):
        rho_norm = np.linalg.norm(plot_ens.rho, axis=-1).mean(axis=1)
        if cfg.estimator("contraction") and np.all(rho_norm > 0):
            report.contraction = asdict(est.fit_contraction(list(zip(plot_ens.times, rho_norm))))
    if cfg.estimator("mixing"):
        # the second start runs on the streams after the ensemble's
        times = cfg.estimator("mixing_times")
        alt = run_ensemble(model, cfg.mixing_alt_x0(model), cfg.ensemble, max(times), cfg.dt,
                           cfg.seed, stream0=cfg.ensemble)
        report.distances = est.mixing_distance_series(x_ens, alt, times)
    if cfg.estimator("lyapunov"):
        base = x0 if np.linalg.norm(x0) > 0 else np.ones(model.dim) / np.sqrt(model.dim)
        probes = [base * s for s in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        report.lyapunov = asdict(est.lyapunov_fit(
            model, probes, samples_per_probe=min(200, cfg.ensemble), dt=cfg.dt, seed=cfg.seed,
        ))
    if cfg.estimator("axk"):
        report.axk = est.axk_table(model, x_ens, cfg.estimator("axk_ks"), cfg.estimator("axk_horizon"))
    if cfg.estimator("density"):
        report.density = asdict(est.density_diagnostics(
            model, pairs, cfg.estimator("density_horizons"),
        ))
    return report


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config, seed=args.seed, jobs=args.jobs)
        out_dir = Path(os.environ.get("ASYMCOUPLE_OUT") or args.out or cfg.out_dir)
        model = cfg.build_model()
        x0, y0 = cfg.initial_conditions(model)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir.mkdir(parents=True, exist_ok=True)
    fingerprint = cfg.fingerprint()
    spu = round(1.0 / cfg.dt)
    dense_every = cfg.record_every
    if not dense_every:
        # densest divisor of the unit interval near a tenth of it
        dense_every = next(d for d in range(max(1, spu // 10), 0, -1) if spu % d == 0)

    try:
        # stream 0 of the run, recorded densely, as a run of its own: it is
        # written before the ensemble, so a blow-up in the ensemble leaves it
        if cfg.binding:
            traj = run_coupled_ensemble(model, bnd.make_binding(model), x0, y0, 1, cfg.units,
                                        cfg.dt, cfg.seed, record_every=dense_every)
        else:
            traj = run_ensemble(model, x0, 1, cfg.units, cfg.dt, cfg.seed, record_every=dense_every)
        _write_csv(out_dir / "trajectory.csv", *_trajectory_table(model, traj), fingerprint)

        # one ensemble serves the plot data and every estimator that starts
        # at (x0, y0); density needs the bound copy even with binding off
        pairs, x_ens = _run_ensemble_jobs(cfg)
        plot_ens = (pairs if cfg.binding else x_ens).head(cfg.units)
        _write_csv(out_dir / "plot_data.csv", *_plot_table(model, plot_ens), fingerprint)
        report = _run_estimators(cfg, model, plot_ens, pairs, x_ens, x0, fingerprint)
    except BlowUpError as exc:
        failure, message = {"status": "blow_up", "time": exc.time}, str(exc)
    except EstimatorError as exc:
        failure = {"status": "estimator_error", "message": str(exc)}
        message = f"estimator error: {exc}"
    else:
        report.extras["status"] = "ok"
        report.extras["seed"] = cfg.seed
        (out_dir / "report.json").write_text(report.to_json() + "\n")
        print(f"run complete; outputs in {out_dir} (config {fingerprint})")
        return 0
    diag = {**failure, "config_fingerprint": fingerprint, "model_id": cfg.model_id, "seed": cfg.seed}
    (out_dir / "report.json").write_text(json.dumps(diag, sort_keys=True, indent=2) + "\n")
    print(f"{message}; partial outputs in {out_dir}", file=sys.stderr)
    return 3


def cmd_reproduce(args) -> int:
    if args.experiment not in PRESETS:
        print(
            f"unknown experiment {args.experiment!r}; valid ids: {', '.join(sorted(PRESETS))}",
            file=sys.stderr,
        )
        return 2
    outcome = run_preset(args.experiment, seed=args.seed)
    out_dir = Path(os.environ.get("ASYMCOUPLE_OUT") or args.out or "out") / args.experiment
    out_dir.mkdir(parents=True, exist_ok=True)
    if outcome.report is not None:
        cascade_text = outcome.report.extras.get("cascade_text")
        if cascade_text:
            print(cascade_text)
        (out_dir / "report.json").write_text(outcome.report.to_json() + "\n")
    for line in outcome.lines():
        print(line)
    return 0 if outcome.passed else 1


def cmd_dump_cascade(args) -> int:
    try:
        if args.a_squared < 0:
            raise ConfigError("a_squared must be non-negative")
        model = models.make_chain(a_squared=args.a_squared, truncation=args.truncation)
        cascade = bnd.build_zeta_cascade(model)
    except (ConfigError, models.ModelError, bnd.BindingError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(bnd.dump_cascade_text(cascade), end="")
    return 0


def cmd_list_presets(_args) -> int:
    for name in sorted(PRESETS):
        print(f"{name:22s} {PRESETS[name][1]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asymcouple", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True, help="path to the config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--jobs", type=int, default=None, help="worker pool size")
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser("reproduce", help="run a pinned experiment and check it")
    p_rep.add_argument("experiment", help="preset id (see list-presets)")
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(fn=cmd_reproduce)

    p_dump = sub.add_parser("dump-cascade", help="print the chain's derived force")
    p_dump.add_argument("a_squared", type=float)
    p_dump.add_argument("--truncation", type=int, default=None)
    p_dump.set_defaults(fn=cmd_dump_cascade)

    p_list = sub.add_parser("list-presets", help="list pinned experiments")
    p_list.set_defaults(fn=cmd_list_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
