"""Pinned reproduction experiments, one record (``_Gate``) per headline property.

A record holds its pinned seed, summary and cases, its sizes (paths, units,
dt and record spacing in time units of every run), a measurement (cases,
sizes and seed in; a dict of numbers out), a rule (those numbers in; one
named PASS/FAIL check per claim out) and its report.  A coupled case is ``(model, binding, x0,
rho0)`` with ``rho0 = y0 - x0``; a mixing case is ``(model, xa, xb)``.  A
negative control is another set of cases passed to a gate's own measurement.
Where a pinned start is load-bearing, its cases builder says why.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import binding as bnd
from . import estimators as est
from . import models
from .engine import EngineError, run_coupled_ensemble, run_ensemble
from .estimators import EstimatorReport

# the largest relative deviation a bound combination may take from its
# exact decay, and the growth rate of the pathwise envelopes' allowance
# 1 + ENVELOPE_SLOPE t, both held at their values for dt = 1e-3 whatever a
# run's dt: a coarser step must not buy a looser check
ZETA_DECAY_TOL = 1e-2
ENVELOPE_SLOPE = 1e-2


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class PresetOutcome:
    preset_id: str
    checks: list[CheckResult]
    report: EstimatorReport

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [f"{'PASS' if c.passed else 'FAIL'} {self.preset_id}/{c.name}: {c.detail}"
                for c in self.checks]


def _record_every(run: dict) -> int:
    """``run``'s record spacing in steps of its dt, which must divide the
    spacing (the engine checks that it divides the unit)."""
    dt, spacing = run["dt"], run["spacing"]
    every = round(spacing / dt)
    if every < 1 or abs(every * dt - spacing) >= 1e-9:
        raise EngineError(f"dt={dt:g} must divide the record spacing {spacing:g}")
    return every


def _coupled(case, run: dict, seed: int, noise_dt: float | None = None):
    """The bound ensemble of ``case`` at the sizes ``run``, its noise drawn
    at ``noise_dt`` (if given) and summed to the run's dt."""
    model, binding, x0, rho0 = case
    return run_coupled_ensemble(model, binding, x0, x0 + rho0, run["n_traj"], run["units"],
                                run["dt"], seed, record_every=_record_every(run), w_sups=False,
                                noise_dt=noise_dt)


def _extrapolated(coarse: float, fine: float) -> float:
    """Richardson's dt → 0 value of a number whose error is second order
    in dt, from its values at dt (``coarse``) and dt/2 (``fine``)."""
    return fine + (fine - coarse) / 3.0


def _pad(values, dim):
    return np.pad(np.asarray(values, dtype=float), (0, dim - len(values)))


def _bound(model, x0, rho0) -> tuple:
    """A coupled case under ``model``'s binding, its starts zero-padded."""
    return model, bnd.make_binding(model), _pad(x0, model.dim), _pad(rho0, model.dim)


def _zeta_decay_deviation(zeta, times, rate) -> float:
    """Largest relative deviation of ``zeta`` (records, paths) from
    ``zeta(0) exp(-rate t)`` after the first record."""
    target = zeta[0, 0] * np.exp(-rate * times)[:, None]
    return float(np.abs(zeta / target - 1.0)[1:].max())


def _envelope_margin(values, scale, rate, times) -> float:
    """Largest ratio of ``values`` (records, paths) to the envelope
    ``scale exp(-rate t) (1 + ENVELOPE_SLOPE t)``."""
    envelope = scale * np.exp(-rate * times) * (1.0 + ENVELOPE_SLOPE * times)
    return float((values / envelope[:, None]).max())


def _rho_v_bound_margin(ens, rho0, half) -> float:
    """Largest ratio of the ensemble mean of ``|rho_v(t)|^2`` (the
    coordinates from ``half`` on) to ``(|rho_v(0)|^2 + (1 + |zeta(0)|^2)/2) exp(-t)``."""
    rho_v_sq = (ens.rho[:, :, half:] ** 2).sum(axis=-1).mean(axis=1)
    zeta_sq0 = float((ens.zeta[0, 0] ** 2).sum())
    bound = (float((rho0[half:] ** 2).sum()) + 0.5 * (1.0 + zeta_sq0)) * np.exp(-ens.times)
    return float((rho_v_sq / bound).max())


def _report(keys, cases, m, seed) -> dict:
    """A coupled gate's report: the numbers named by ``keys``, its contraction
    fit if measured, and the fitted force growth of its last case's binding."""
    *_, (model, binding, _, _) = cases.values()
    extras = {k: m[k] for k in keys}
    extras["growth_fit"] = est.binding_growth_exponents(model, binding, seed=seed)
    return {"model_id": model.id, "contraction": m.get("contraction"), "extras": extras}


def _toy_cases() -> dict:
    return {"toy2d": _bound(models.make_toy2d(), [1.0, 0.5], [1.0, -0.5])}


def toy_measure(cases, sizes, seed) -> dict:
    """Exact decay of the bound combination; contraction rate of the difference."""
    (case,), run = cases.values(), sizes["run"]
    ens = _coupled(case, run, seed)
    return {
        "zeta_rel_err_max": _zeta_decay_deviation(ens.zeta[:, :, 0], ens.times, 2.0),
        "dt": run["dt"], "ensemble": run["n_traj"],
        "contraction": asdict(est.mean_rho_rate(ens)),
    }


def toy_rule(m: dict) -> list[CheckResult]:
    worst, allowed, gamma = m["zeta_rel_err_max"], ZETA_DECAY_TOL, m["contraction"]["gamma"]
    return [
        CheckResult("zeta-exponential-decay", worst <= allowed,
                    f"max relative deviation of zeta(t)/zeta(0) from exp(-2t): {worst:.3e} "
                    f"(allowed {allowed:.1e})"),
        CheckResult("mean-difference-rate", gamma >= 0.9,
                    f"fitted decay rate of mean |rho|: {gamma:.3f} (needs >= 0.9)"),
    ]


def _gl_cases() -> dict:
    model = models.make_ginzburg_landau(modes=64, forced_modes=3, noise_coeffs=[1.0, 0.6, 0.6])
    return {model.id: _bound(model, [0.4, 0.8, -0.3, 0.2, -0.1],
                             [0.7, -0.4, 0.5, 0.0, 0.0, 0.3, 0.0, -0.2])}


def gl_measure(cases, sizes, seed) -> dict:
    """Per-trajectory contraction of the difference at the spectral gap."""
    (case,), run = cases.values(), sizes["run"]
    (model, binding, _, rho0), ens = case, _coupled(case, run, seed)
    gap, rho_norm = model.params["gap"], np.linalg.norm(ens.rho, axis=-1)
    scale = float(np.linalg.norm(rho0))
    return {
        "gap": gap,
        "diagonal_max": float(bnd.gl_coupled_diagonal(model, binding).max()),
        "pathwise_margin": _envelope_margin(rho_norm, scale, gap, ens.times),
        "dt": run["dt"], "ensemble": run["n_traj"],
        "contraction": asdict(est.mean_rho_rate(ens)),
    }


def gl_rule(m: dict) -> list[CheckResult]:
    gap, diag, margin = m["gap"], m["diagonal_max"], m["pathwise_margin"]
    gamma = m["contraction"]["gamma"]
    return [
        CheckResult("coupled-diagonal", diag <= -gap + 1e-12,
                    f"max diagonal entry of the bound difference operator: {diag:.3f} "
                    f"(needs <= -{gap:.3f})"),
        CheckResult("pathwise-contraction", margin <= 1.0 + 1e-9,
                    f"max |rho(t)| over trajectories relative to exp(-{gap:.2f} t) "
                    f"envelope: {margin:.6f}"),
        CheckResult("measured-rate", gamma >= gap,
                    f"fitted decay rate {gamma:.3f} vs configured gap {gap:.3f}"),
    ]


def _rd_cases() -> dict:
    model = models.make_reaction_diffusion(modes_per_component=16)
    half = model.dim // 2
    x0 = np.concatenate([_pad([0.5, 0.3, -0.2, 0.1], half), _pad([-0.4, 0.2, 0.1], half)])
    rho0 = np.concatenate([_pad([0.3, -0.3, 0.2], half), _pad([0.2, 0.15, -0.1], half)])
    return {model.id: _bound(model, x0, rho0)}


def rd_measure(cases, sizes, seed) -> dict:
    """Damped-heat decay of the bound combination; bound on the unforced part."""
    (case,), run = cases.values(), sizes["run"]
    (model, _, _, rho0), ens = case, _coupled(case, run, seed)
    zeta_sq0 = float((ens.zeta[0, 0] ** 2).sum())
    return {
        "zeta_sq0": zeta_sq0,
        "zeta_pathwise_margin": _envelope_margin((ens.zeta**2).sum(axis=-1), zeta_sq0, 1.0,
                                                 ens.times),
        "rho_v_bound_margin": _rho_v_bound_margin(ens, rho0, model.dim // 2),
        "dt": run["dt"], "ensemble": run["n_traj"],
    }


def rd_rule(m: dict) -> list[CheckResult]:
    margin, ratio = m["zeta_pathwise_margin"], m["rho_v_bound_margin"]
    return [
        CheckResult("zeta-l2-pathwise", margin <= 1.0 + 1e-9,
                    f"max |zeta(t)|^2 relative to |zeta(0)|^2 exp(-t) envelope: {margin:.6f}"),
        CheckResult("rho-v-ensemble-bound", ratio <= 1.0,
                    f"max ensemble-mean |rho_v(t)|^2 relative to its decay bound: {ratio:.4f}"),
    ]


def _chain_cases() -> dict:
    """One case per a².  The separations are modest: the derived force
    amplifies the difference through a large transient before the cascade
    contraction takes over, and the amplification grows fast with a²."""
    x0, rho0 = [0.4, 0.3, -0.2, 0.1, 0.05], [0.2, 0.1, -0.08, 0.05, 0.03]
    return {a2: _bound(models.make_chain(a_squared=a2), x0, rho0) for a2 in (0.0, 2.0, 5.0)}


def chain_measure(cases, sizes, seed) -> dict:
    """Cascade invariants and the difference's decay rate per a², and the
    exact decay of the final cascade variable on the last case.

    The rate is fitted at the ``rates`` run's dt and at dt/2 on one
    Brownian path per stream, drawn at dt/2 and summed in pairs for dt.
    The scheme's weak error is second order, so the rate checked is their
    Richardson value ``r(dt/2) + (r(dt/2) - r(dt))/3``; the two fitted
    rates are reported per a² by dt."""
    cascades = {a2: bnd.build_zeta_cascade(model) for a2, (model, *_) in cases.items()}
    *_, last = cases
    ens = _coupled(cases[last], sizes["run"], seed)
    coarse = sizes["rates"]
    fine = {**coarse, "dt": coarse["dt"] / 2}

    def rate(case, run):
        return est.mean_rho_rate(_coupled(case, run, seed + 1, noise_dt=fine["dt"])).gamma

    level_rates = {a2: {f"{run['dt']:g}": rate(case, run) for run in (coarse, fine)}
                   for a2, case in cases.items()}
    rates = {a2: _extrapolated(*levels.values()) for a2, levels in level_rates.items()}
    return {
        "k_star": {a2: models.chain_k_star(a2) for a2 in cases},
        "shape": {a2: bnd.cascade_shape_ok(cascade) for a2, cascade in cascades.items()},
        "zeta_kstar0": float(ens.zeta[0, 0, -1]),
        "zeta_rel_err_max": _zeta_decay_deviation(ens.zeta[:, :, -1], ens.times, 1.0),
        "decay_rates": rates,
        "level_rates": level_rates,
        "cascade_text": bnd.dump_cascade_text(cascades[last]),
    }


def chain_rule(m: dict) -> list[CheckResult]:
    details = [f"a²={a2}: {', '.join(found)}" for a2, found in m["shape"].items() if found]
    z0, worst, allowed = m["zeta_kstar0"], m["zeta_rel_err_max"], ZETA_DECAY_TOL
    return [
        CheckResult("k-star-values", m["k_star"] == {0.0: 2, 2.0: 3, 5.0: 3},
                    f"first damped site index per a²: {m['k_star']}"),
        CheckResult("cascade-shape", not details,
                    "; ".join(details) or "leading terms, index ranges, rho factors, "
                    "and level recursion all hold for a² in {0, 2, 5}"),
        CheckResult("zeta-kstar-decay", abs(z0) > 0.1 and worst <= allowed,
                    f"zeta_k*(0)={z0:.3f}; max relative deviation from exp(-t): {worst:.3e} "
                    f"(allowed {allowed:.1e})"),
        CheckResult("rho-decay-rates", all(g > 0.0 for g in m["decay_rates"].values()),
                    "fitted decay rates of mean |rho|: "
                    + ", ".join(f"a²={a2}: {g:.3f}" for a2, g in m["decay_rates"].items())),
    ]


def _girsanov_cases() -> dict:
    """A non-degenerate and a one-noise model.  The chain separation is small
    on purpose: the derived force amplifies differences so strongly that O(1)
    separations push the quadratic variation of the log weight past exp's range."""
    return {"toy2d": _bound(models.make_toy2d(), [1.0, 0.5], [0.3, -0.2]),
            "chain": _bound(models.make_chain(a_squared=2.0), [0.4, 0.3, -0.2, 0.1],
                            [0.01, 0.0067, -0.005, 0.0033])}


def girsanov_measure(cases, sizes, seed) -> dict:
    """Per case, the mean path density at the horizon and its standard error."""
    out = {}
    for name, case in cases.items():
        ens = _coupled(case, sizes["run"], seed)
        mean, se, n = est.mean_density(ens.log_density[-1], ~ens.overflow[-1])
        out[name] = {"mean": mean, "se": se, "n": n, "overflowed": int(ens.overflow[-1].sum())}
    return out


def _girsanov_report(cases, m, seed) -> dict:
    extras = {name: {k: c[k] for k in ("mean", "se", "n")} for name, c in m.items()}
    return {"model_id": "toy2d+chain", "extras": extras}


def girsanov_rule(m: dict) -> list[CheckResult]:
    return [
        CheckResult(f"mean-density-{name}",
                    abs(c["mean"] - 1.0) <= 3.0 * c["se"] and c["overflowed"] == 0,
                    f"mean density {c['mean']:.4f} ± {c['se']:.4f} over {c['n']} paths "
                    f"({c['overflowed']} overflowed)")
        for name, c in m.items()
    ]


def _mixing_cases() -> dict:
    """Getting a measurable law difference inside the integer-time window
    takes care: relaxation at the bottom of a well runs much faster than
    one time unit, so same-well starts are statistically identical by
    t = 1.  The starts below therefore differ in slowly decaying ways:
    the toy and reaction-diffusion pairs put the second start near the
    saddle (its ensemble settles later and splits its well mass), the
    Ginzburg-Landau pair straddles the wells with noise strong enough to
    hop on desk timescales, and the chain runs at a² = 0 where the
    forced site relaxes anharmonically at an order-one rate.
    """
    sqrt2pi = math.sqrt(2.0 * math.pi)
    gl = models.make_ginzburg_landau(modes=64, forced_modes=3, noise_coeffs=[2.2, 1.54, 1.54])
    rd = models.make_reaction_diffusion(modes_per_component=16)
    rd_well = np.concatenate([_pad([math.sqrt(3.0) * sqrt2pi], rd.dim // 2)] * 2)
    chain = models.make_chain(a_squared=0.0)
    return {
        "toy2d": (models.make_toy2d(), np.array([1.5, 1.5]), np.array([0.25, 0.25])),
        "ginzburg_landau": (gl, _pad([sqrt2pi, 0.4], gl.dim), _pad([-sqrt2pi, 0.0, 0.4], gl.dim)),
        "reaction_diffusion": (rd, rd_well, np.zeros(rd.dim)),
        "chain": (chain, _pad([1.2, 0.4], chain.dim), _pad([-0.8, 0.2, 0.1], chain.dim)),
    }


def mixing_measure(cases, sizes, seed) -> dict:
    """Per case, the law distance of two uncoupled ensembles at ``times``,
    the two-sample noise floor at the last and the distances' fitted rate."""
    times, n, dt = list(sizes["times"]), sizes["n_traj"], sizes["dt"]
    out = {}
    for name, (model, xa, xb) in cases.items():
        ens_a = run_ensemble(model, xa, n, times[-1], dt, seed, stream0=0, w_sups=False)
        ens_b = run_ensemble(model, xb, n, times[-1], dt, seed, stream0=n, w_sups=False)
        values = [row["distance"] for row in est.mixing_distance_series(ens_a, ens_b, times)]
        floor = est.bootstrap_null_quantile(ens_a.states[-1], ens_b.states[-1], seed=seed,
                                            n_boot=sizes["n_boot"], cap=sizes["boot_cap"])
        gamma = est.fit_contraction(times, values).gamma
        out[name] = {"times": times, "distances": values, "floor": floor, "gamma": gamma}
    return out


def _mixing_report(cases, m, seed) -> dict:
    return {"model_id": "all", "distances": [{"model": k, **v} for k, v in m.items()]}


def mixing_rule(m: dict) -> list[CheckResult]:
    checks = []
    for name, s in m.items():
        values, floor, gamma = s["distances"], s["floor"], s["gamma"]
        monotone = all(values[i + 1] <= values[i] + floor for i in range(len(values) - 1))
        checks.append(CheckResult(f"decay-{name}", monotone and gamma > 0.0,
                                  f"distances {', '.join(f'{v:.3f}' for v in values)}; "
                                  f"noise floor {floor:.3f}; fitted rate {gamma:.3f}"))
    return checks


class _Gate(NamedTuple):
    """One preset; ``run_preset`` checks ``rule(measure(cases(), sizes, seed))``."""

    seed: int
    summary: str
    cases: Callable[[], dict]
    sizes: dict
    measure: Callable[[dict, dict, int], dict]
    rule: Callable[[dict], list[CheckResult]]
    report: Callable[[dict, dict, int], dict]  # (cases, numbers, seed) -> fields


# Each run's dt is the largest that keeps its records at their times and
# is within the refinement budget of ``tools/refine_dt.py``.  The chain's
# rates run is also made at dt/2, and its budget is on the Richardson
# value of the two (``chain_measure``).
_GATES = {
    "toy-contraction": _Gate(
        11, "coupled toy model: exact zeta decay + difference rate", _toy_cases,
        {"run": dict(n_traj=200, units=5, dt=2.5e-3, spacing=0.05)},
        toy_measure, toy_rule, partial(_report, ("zeta_rel_err_max", "dt", "ensemble"))),
    "gl-gap": _Gate(
        12, "Ginzburg-Landau: pathwise contraction at the spectral gap", _gl_cases,
        {"run": dict(n_traj=50, units=3, dt=5e-3, spacing=0.025)},
        gl_measure, gl_rule, partial(_report, ("gap", "pathwise_margin", "dt", "ensemble"))),
    "rd-zeta": _Gate(
        13, "reaction-diffusion: damped-heat zeta decay + component bound", _rd_cases,
        {"run": dict(n_traj=50, units=3, dt=5e-3, spacing=0.025)}, rd_measure, rd_rule,
        partial(_report, ("zeta_sq0", "zeta_pathwise_margin", "rho_v_bound_margin", "dt",
                          "ensemble"))),
    "chain-cascade": _Gate(
        14, "chain: cascade invariants and derived-force decay", _chain_cases,
        # ten units for the rates: the fit must see past the transient hump
        {"run": dict(n_traj=20, units=2, dt=5e-3, spacing=0.025),
         "rates": dict(n_traj=20, units=10, dt=1e-2, spacing=1.0)}, chain_measure,
        chain_rule, partial(_report, ("k_star", "zeta_rel_err_max", "decay_rates",
                                      "level_rates", "cascade_text"))),
    "girsanov-martingale": _Gate(
        15, "mean path density equals one", _girsanov_cases,
        {"run": dict(n_traj=2000, units=2, dt=1e-2, spacing=1.0)},
        girsanov_measure, girsanov_rule, _girsanov_report),
    "mixing-distance": _Gate(
        16, "law distance between two starts decays, all models", _mixing_cases,
        {"times": range(1, 9), "dt": 2e-2, "n_traj": 300, "n_boot": 12, "boot_cap": 150},
        mixing_measure, mixing_rule, _mixing_report),
}


def run_preset(preset_id: str, seed: int | None = None) -> PresetOutcome:
    gate = _GATES[preset_id]
    seed = gate.seed if seed is None else seed
    cases = gate.cases()
    m = gate.measure(cases, gate.sizes, seed)
    report = EstimatorReport(config_fingerprint=f"preset:{preset_id}:seed={seed}",
                             **gate.report(cases, m, seed))
    return PresetOutcome(preset_id, gate.rule(m), report)


def _pinned(preset_id: str):
    def preset(seed: int = _GATES[preset_id].seed) -> PresetOutcome:
        return run_preset(preset_id, seed)

    return preset


PRESETS = {pid: (_pinned(pid), gate.summary) for pid, gate in _GATES.items()}
mixing_distance = PRESETS["mixing-distance"][0]  # bench/workloads.py reads it by name
