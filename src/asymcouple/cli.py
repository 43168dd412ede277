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
from typing import NamedTuple

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


class _Group(NamedTuple):
    """``n`` paths from ``x0`` (one start, or one per path), path ``i`` on
    stream ``stream0 + i``, for ``units`` units, bound to copies from one
    ``y0`` over the first ``coupled_units``; records and W sups as
    ``run_ensemble``'s."""
    n: int
    x0: np.ndarray
    stream0: int
    units: int
    coupled_units: int = 0
    y0: np.ndarray | None = None
    record_every: int | None = None
    dense_units: int | None = None
    w_sups: bool = False


# the lyapunov probes are these multiples of x0 (of a unit vector if x0 = 0)
_PROBE_SCALES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)


def _probe_samples(cfg: ExperimentConfig) -> int:
    return min(200, cfg.ensemble)  # paths per lyapunov probe


def _dense_every(cfg: ExperimentConfig) -> int:
    """Steps between the records over the plotted units: ``record_every``,
    or when it is 0 the densest divisor of the unit interval near a tenth
    of it."""
    if cfg.record_every:
        return cfg.record_every
    spu = round(1.0 / cfg.dt)
    return next(d for d in range(max(1, spu // 10), 0, -1) if spu % d == 0)


def _groups(cfg: ExperimentConfig, model) -> dict[str, _Group]:
    """The groups the run integrates, in the order their blow-ups are
    weighed.  The ensemble (streams ``0..n-1``) is bound while the plot
    (binding on) or density reads the copy, and its ``x`` paths run as
    long as any reader needs, recorded every ``_dense_every`` steps over
    the plotted units and once a unit after, with the W sups that axk
    and density read, if either is on; mixing's second start takes
    streams ``n..2n-1``, lyapunov probe ``i`` paths ``i*S..(i+1)*S-1``."""
    x0, y0 = cfg.initial_conditions(model)
    coupled = [cfg.units] if cfg.binding else []
    if cfg.estimator("density"):
        coupled.append(max(cfg.estimator("density_horizons")) + 1)
    units = [cfg.units] + coupled
    if cfg.estimator("axk"):
        units.append(cfg.estimator("axk_horizon") + 1)
    if cfg.estimator("mixing"):
        units.append(max(cfg.estimator("mixing_times")))
    w_sups = bool(cfg.estimator("axk") or cfg.estimator("density"))
    groups = {"ensemble": _Group(cfg.ensemble, x0, 0, max(units), max(coupled, default=0), y0,
                                 _dense_every(cfg), cfg.units, w_sups)}
    if cfg.estimator("mixing"):
        groups["mixing"] = _Group(cfg.ensemble, cfg.mixing_alt_x0(model), cfg.ensemble,
                                  max(cfg.estimator("mixing_times")))
    if cfg.estimator("lyapunov"):
        base = x0 if np.linalg.norm(x0) > 0 else np.ones(model.dim) / np.sqrt(model.dim)
        starts = np.repeat([base * s for s in _PROBE_SCALES], _probe_samples(cfg), axis=0)
        groups["lyapunov"] = _Group(len(starts), starts, 0, 1)
    return groups


def _run_span(cfg, model, group: _Group, lo: int, hi: int):
    """Paths ``lo..hi-1`` of ``group``: bound pairs over its
    ``coupled_units``, under a binding built for them, then the ``x``
    paths alone up to its ``units``.  Returns the pairs (None when the
    group has no bound span) and the ``x`` paths over the whole group."""
    x0 = group.x0[lo:hi] if group.x0.ndim == 2 else group.x0
    n = hi - lo
    records = {"stream0": group.stream0 + lo, "record_every": group.record_every,
               "dense_units": group.dense_units, "w_sups": group.w_sups}
    if not group.coupled_units:
        return None, run_ensemble(model, x0, n, group.units, cfg.dt, cfg.seed, **records)
    pairs = run_coupled_ensemble(
        model, bnd.make_binding(model), x0, group.y0, n, group.coupled_units, cfg.dt,
        cfg.seed, **records,
    )
    x_ens = pairs.x_half()
    if group.units > group.coupled_units:
        x_ens = x_ens.then(run_ensemble(
            model, x_ens.states[-1], n, group.units - group.coupled_units, cfg.dt, cfg.seed,
            start_unit=group.coupled_units, **records,
        ))
    return pairs, x_ens


def _group_worker(task):
    """Top-level worker so process pools can pickle the task ``(cfg, name,
    lo, hi)``: paths ``lo..hi-1`` of the run's group ``name``, or the
    ``BlowUpError`` they raised, which the run weighs against its other
    spans' (see ``_run_groups``).  The model is the config's, built once
    per process; a bound span builds its own binding."""
    cfg, name, lo, hi = task
    model = cfg.build_model()
    try:
        return _run_span(cfg, model, _groups(cfg, model)[name], lo, hi)
    except BlowUpError as exc:
        return exc


def _run_groups(cfg: ExperimentConfig) -> dict:
    """Integrate the run's ``_groups`` as one task list on a worker pool,
    each group cut into at most ``jobs`` spans; paths are indexed by noise
    stream, so the merge does not depend on the schedule.  Returns each
    group by name as ``(pairs or None, x paths)``.  A blow-up raises that
    of the first group that blew up, at its earliest time over the spans
    and on the lowest stream at that time, as the group run as one batch
    would."""
    groups = _groups(cfg, cfg.build_model())
    jobs = min(cfg.jobs, max(group.n for group in groups.values()))
    tasks = []
    for name, group in groups.items():
        bounds = np.linspace(0, group.n, min(jobs, group.n) + 1).astype(int)
        tasks += [(cfg, name, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])]
    if jobs == 1:
        outcomes = [_group_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_group_worker, tasks))
    merged = {}
    for name in groups:
        parts = [out for task, out in zip(tasks, outcomes) if task[1] == name]
        blow_ups = [out for out in parts if isinstance(out, BlowUpError)]
        if blow_ups:
            raise min(blow_ups, key=lambda exc: (exc.time, exc.stream))
        pairs, x_paths = zip(*parts)
        merged[name] = (None if pairs[0] is None else CoupledEnsembleResult.concat(pairs),
                        EnsembleResult.concat(x_paths))
    return merged


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


def _run_estimators(cfg, model, plot_ens, groups, fingerprint) -> EstimatorReport:
    """Every estimator that is on, from the run's merged ``groups`` of
    paths (see ``_run_groups``) and the ensemble's first ``units`` units
    as plotted."""
    report = EstimatorReport(model_id=model.id, config_fingerprint=fingerprint)
    if isinstance(plot_ens, CoupledEnsembleResult) and cfg.estimator("contraction"):
        fit = est.mean_rho_rate(plot_ens)
        report.contraction = None if fit is None else asdict(fit)
    pairs, x_ens = groups["ensemble"]
    if cfg.estimator("mixing"):
        report.distances = est.mixing_distance_series(x_ens, groups["mixing"][1],
                                                      cfg.estimator("mixing_times"))
    if cfg.estimator("lyapunov"):
        report.lyapunov = asdict(est.lyapunov_fit(model, groups["lyapunov"][1], _probe_samples(cfg)))
    if cfg.estimator("axk"):
        report.axk = est.axk_table(model, x_ens, cfg.estimator("axk_ks"), cfg.estimator("axk_horizon"))
    if cfg.estimator("density"):
        report.density = asdict(est.density_diagnostics(model, pairs, cfg.estimator("density_horizons")))
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

    try:
        # one ensemble serves the trajectory (its path 0), the plot data and
        # every estimator that starts at (x0, y0); density needs the bound
        # copy even with binding off
        try:
            groups = _run_groups(cfg)
        except BlowUpError:
            # stream 0 alone, as the ensemble's path 0 over the plotted
            # units: its own blow-up is reported first, and if it has none
            # its trajectory is written before the groups' blow-up
            trajectory = _Group(1, x0, 0, cfg.units, cfg.units if cfg.binding else 0, y0,
                                _dense_every(cfg))
            pair, path = _run_span(cfg, model, trajectory, 0, 1)
            _write_csv(out_dir / "trajectory.csv",
                       *_trajectory_table(model, path if pair is None else pair), fingerprint)
            raise
        pairs, x_ens = groups["ensemble"]
        plotted = (pairs if cfg.binding else x_ens).head(cfg.units)
        _write_csv(out_dir / "trajectory.csv", *_trajectory_table(model, plotted), fingerprint)
        plot_ens = plotted if cfg.record_every else plotted.at_units()
        _write_csv(out_dir / "plot_data.csv", *_plot_table(model, plot_ens), fingerprint)
        report = _run_estimators(cfg, model, plot_ens, groups, fingerprint)
    except BlowUpError as exc:
        failure = {"status": "blow_up", "time": exc.time, "stream": exc.stream, "step": exc.step,
                   "component": exc.component}
        message = str(exc)
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
    if args.seed is not None and args.seed < 0:
        print("config error: --seed: must be non-negative", file=sys.stderr)
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
        model = models.make_chain(a_squared=args.a_squared, truncation=args.truncation)
        cascade = bnd.build_zeta_cascade(model)
    except (models.ModelError, bnd.BindingError) as exc:
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
