"""Pinned reproduction experiments, one per headline property.

Each preset is a measurement and a rule.  The measurement takes the
model, the binding, the starts (``x0`` and ``rho0 = y0 - x0``) and the
seed and returns a dict of numbers; the rule, a pure function of those,
returns one named PASS/FAIL check per claim.  A test hands a measurement
a control binding, such as a zero force, to show that its rule can fail.
All seeds and starts are pinned; where a choice is load-bearing (the
mixing starts, the chain separations) the docstring says why.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import binding as bnd
from . import estimators as est
from . import models
from .engine import run_coupled_ensemble, run_ensemble
from .estimators import EstimatorReport


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class PresetOutcome:
    preset_id: str
    checks: list[CheckResult] = field(default_factory=list)
    report: EstimatorReport | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [
            f"{'PASS' if c.passed else 'FAIL'} {self.preset_id}/{c.name}: {c.detail}"
            for c in self.checks
        ]


def _pad(values, dim):
    return np.pad(np.asarray(values, dtype=float), (0, dim - len(values)))


def _outcome(preset_id, checks, model_id, seed, **report) -> PresetOutcome:
    fingerprint = f"preset:{preset_id}:seed={seed}"
    return PresetOutcome(preset_id, checks, EstimatorReport(model_id, fingerprint, **report))


def _zeta_decay_deviation(zeta, times, rate) -> float:
    """Largest relative deviation of ``zeta`` (records, paths) from
    ``zeta(0) exp(-rate t)`` after the first record."""
    target = zeta[0, 0] * np.exp(-rate * times)[:, None]
    return float(np.abs(zeta / target - 1.0)[1:].max())


def _envelope_margin(values, scale, rate, times, dt) -> float:
    """Largest ratio of ``values`` (records, paths) to ``scale exp(-rate t) (1 + 10 dt t)``."""
    envelope = scale * np.exp(-rate * times) * (1.0 + 10.0 * dt * times)
    return float((values / envelope[:, None]).max())


def toy_measure(model, binding, x0, rho0, seed) -> dict:
    dt = 1e-3
    ens = run_coupled_ensemble(model, binding, x0, x0 + rho0, 200, 5, dt, seed, record_every=50,
                               w_sups=False)
    return {
        "zeta_rel_err_max": _zeta_decay_deviation(ens.zeta[:, :, 0], ens.times, 2.0),
        "dt": dt,
        "ensemble": 200,
        "contraction": asdict(est.mean_rho_rate(ens)),
    }


def toy_rule(m: dict) -> list[CheckResult]:
    worst, allowed, gamma = m["zeta_rel_err_max"], 10.0 * m["dt"], m["contraction"]["gamma"]
    return [
        CheckResult("zeta-exponential-decay", worst <= allowed,
                    f"max relative deviation of zeta(t)/zeta(0) from exp(-2t): {worst:.3e} "
                    f"(allowed {allowed:.1e})"),
        CheckResult("mean-difference-rate", gamma >= 0.9,
                    f"fitted decay rate of mean |rho|: {gamma:.3f} (needs >= 0.9)"),
    ]


def toy_contraction(seed: int = 11) -> PresetOutcome:
    """Coupled toy-model run: exact exponential decay of the bound
    combination and the fitted contraction rate of the difference."""
    model = models.make_toy2d()
    binding = bnd.make_binding(model)
    m = toy_measure(model, binding, np.array([1.0, 0.5]), np.array([1.0, -0.5]), seed)
    extras = {k: m[k] for k in ("zeta_rel_err_max", "dt", "ensemble")}
    extras["growth_fit"] = est.binding_growth_exponents(model, binding, seed=seed)
    return _outcome("toy-contraction", toy_rule(m), model.id, seed,
                    contraction=m["contraction"], extras=extras)


def gl_measure(model, binding, x0, rho0, seed) -> dict:
    dt, gap = 1e-3, model.params["gap"]
    ens = run_coupled_ensemble(model, binding, x0, x0 + rho0, 50, 3, dt, seed, record_every=25,
                               w_sups=False)
    rho_norm = np.linalg.norm(ens.rho, axis=-1)
    scale = float(np.linalg.norm(rho0))
    return {
        "gap": gap,
        "diagonal_max": float(bnd.gl_coupled_diagonal(model, binding).max()),
        "pathwise_margin": _envelope_margin(rho_norm, scale, gap, ens.times, dt),
        "dt": dt,
        "ensemble": 50,
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


def gl_gap(seed: int = 12) -> PresetOutcome:
    """Spectral Ginzburg-Landau: per-trajectory contraction of the
    difference at the configured spectral gap."""
    model = models.make_ginzburg_landau(modes=64, forced_modes=3, noise_coeffs=[1.0, 0.6, 0.6])
    x0 = _pad([0.4, 0.8, -0.3, 0.2, -0.1], model.dim)
    rho0 = _pad([0.7, -0.4, 0.5, 0.0, 0.0, 0.3, 0.0, -0.2], model.dim)
    binding = bnd.make_binding(model)
    m = gl_measure(model, binding, x0, rho0, seed)
    extras = {k: m[k] for k in ("gap", "pathwise_margin", "dt", "ensemble")}
    extras["growth_fit"] = est.binding_growth_exponents(model, binding, seed=seed)
    return _outcome("gl-gap", gl_rule(m), model.id, seed,
                    contraction=m["contraction"], extras=extras)


def rd_measure(model, binding, x0, rho0, seed) -> dict:
    half, dt = model.dim // 2, 1e-3
    ens = run_coupled_ensemble(model, binding, x0, x0 + rho0, 50, 3, dt, seed, record_every=25,
                               w_sups=False)
    zeta_sq0 = float((ens.zeta[0, 0] ** 2).sum())
    zeta_sq = (ens.zeta**2).sum(axis=-1)
    rho_v_sq = (ens.rho[:, :, half:] ** 2).sum(axis=-1).mean(axis=1)
    bound = (float((rho0[half:] ** 2).sum()) + 0.5 * (1.0 + zeta_sq0)) * np.exp(-ens.times)
    return {
        "zeta_sq0": zeta_sq0,
        "zeta_pathwise_margin": _envelope_margin(zeta_sq, zeta_sq0, 1.0, ens.times, dt),
        "rho_v_bound_margin": float((rho_v_sq / bound).max()),
        "dt": dt,
        "ensemble": 50,
    }


def rd_rule(m: dict) -> list[CheckResult]:
    margin, ratio = m["zeta_pathwise_margin"], m["rho_v_bound_margin"]
    return [
        CheckResult("zeta-l2-pathwise", margin <= 1.0 + 1e-9,
                    f"max |zeta(t)|^2 relative to |zeta(0)|^2 exp(-t) envelope: {margin:.6f}"),
        CheckResult("rho-v-ensemble-bound", ratio <= 1.0,
                    f"max ensemble-mean |rho_v(t)|^2 relative to its decay bound: {ratio:.4f}"),
    ]


def rd_zeta(seed: int = 13) -> PresetOutcome:
    """Reaction-diffusion pair: mode-wise damped-heat decay of the bound
    combination, plus the ensemble bound on the unforced component."""
    model = models.make_reaction_diffusion(modes_per_component=16)
    half = model.dim // 2
    x0 = np.concatenate([_pad([0.5, 0.3, -0.2, 0.1], half), _pad([-0.4, 0.2, 0.1], half)])
    rho0 = np.concatenate([_pad([0.3, -0.3, 0.2], half), _pad([0.2, 0.15, -0.1], half)])
    binding = bnd.make_binding(model)
    m = rd_measure(model, binding, x0, rho0, seed)
    extras = {**m, "growth_fit": est.binding_growth_exponents(model, binding, seed=seed)}
    return _outcome("rd-zeta", rd_rule(m), model.id, seed, extras=extras)


def chain_measure(chains, x0, rho0, seed) -> dict:
    """``chains`` maps a² to ``(model, cascade, binding)``; the starts are
    heads, zero-padded to each chain's truncation."""
    model, _, binding = chains[5.0]
    dt, xa, ra = 1e-3, _pad(x0, model.dim), _pad(rho0, model.dim)
    ens = run_coupled_ensemble(model, binding, xa, xa + ra, 20, 2, dt, seed, record_every=25,
                               w_sups=False)
    rates = {}
    for a2, (model, _, binding) in chains.items():
        xa, ra = _pad(x0, model.dim), _pad(rho0, model.dim)
        # ten units: the fitted rate must see past the transient hump
        e = run_coupled_ensemble(model, binding, xa, xa + ra, 20, 10, dt, seed + 1,
                                 record_every=1000, w_sups=False)
        rates[a2] = est.mean_rho_rate(e).gamma
    return {
        "k_star": {a2: models.chain_k_star(a2) for a2 in chains},
        "shape": {a2: bnd.cascade_shape_ok(cascade) for a2, (_, cascade, _) in chains.items()},
        "zeta_kstar0": float(ens.zeta[0, 0, -1]),
        "zeta_rel_err_max": _zeta_decay_deviation(ens.zeta[:, :, -1], ens.times, 1.0),
        "dt": dt,
        "decay_rates": rates,
    }


def chain_rule(m: dict) -> list[CheckResult]:
    details = [f"a²={a2}: {', '.join(found)}" for a2, found in m["shape"].items() if found]
    z0, worst, allowed = m["zeta_kstar0"], m["zeta_rel_err_max"], 10.0 * m["dt"]
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


def chain_cascade(seed: int = 14) -> PresetOutcome:
    """Chain with noise on one site: symbolic cascade invariants, exact
    decay of the final cascade variable, positive difference decay across
    the catalogue of coupling strengths."""
    chains = {}
    for a2 in (0.0, 2.0, 5.0):
        model = models.make_chain(a_squared=a2)
        cascade = bnd.build_zeta_cascade(model)
        chains[a2] = (model, cascade, bnd.make_binding(model))
    # modest separations: the derived force amplifies the difference through
    # a large transient before the cascade contraction takes over, and the
    # amplification constant grows fast with a²
    x0, rho0 = [0.4, 0.3, -0.2, 0.1, 0.05], [0.2, 0.1, -0.08, 0.05, 0.03]
    m = chain_measure(chains, x0, rho0, seed)
    model, cascade, binding = chains[5.0]
    extras = {
        "k_star": {str(k): v for k, v in m["k_star"].items()},
        "zeta_rel_err_max": m["zeta_rel_err_max"],
        "decay_rates": {str(k): v for k, v in m["decay_rates"].items()},
        "cascade_text": bnd.dump_cascade_text(cascade),
        "growth_fit": est.binding_growth_exponents(model, binding, seed=seed),
    }
    return _outcome("chain-cascade", chain_rule(m), "chain", seed, extras=extras)


def girsanov_measure(cases, seed) -> dict:
    """``cases`` maps a name to ``(model, binding, x0, y0 - x0)``; per
    case, the mean path density at t = 2 over 2000 pairs, its standard
    error, and the paths kept and overflowed."""
    out = {}
    for name, (model, binding, x0, rho0) in cases.items():
        ens = run_coupled_ensemble(model, binding, x0, x0 + rho0, 2000, 2, 1e-3, seed,
                                   record_every=1000, w_sups=False)
        mean, se, n = est.mean_density(ens.log_density[-1], ~ens.overflow[-1])
        out[name] = {"mean": mean, "se": se, "n": n, "overflowed": int(ens.overflow[-1].sum())}
    return out


def girsanov_rule(m: dict) -> list[CheckResult]:
    return [
        CheckResult(f"mean-density-{name}",
                    abs(c["mean"] - 1.0) <= 3.0 * c["se"] and c["overflowed"] == 0,
                    f"mean density {c['mean']:.4f} ± {c['se']:.4f} over {c['n']} paths "
                    f"({c['overflowed']} overflowed)")
        for name, c in m.items()
    ]


def girsanov_martingale(seed: int = 15) -> PresetOutcome:
    """Mean path-density over fresh noise must sit at one (within Monte
    Carlo resolution) for both a non-degenerate and a one-noise model."""
    # the chain separation is small on purpose: the derived force amplifies
    # differences so strongly that O(1) separations push the quadratic
    # variation of the log weight past the exp range
    toy, chain = models.make_toy2d(), models.make_chain(a_squared=2.0)
    cases = {
        "toy2d": (toy, bnd.make_binding(toy), np.array([1.0, 0.5]), np.array([0.3, -0.2])),
        "chain": (chain, bnd.make_binding(chain), _pad([0.4, 0.3, -0.2, 0.1], chain.dim),
                  _pad([0.01, 0.0067, -0.005, 0.0033], chain.dim)),
    }
    m = girsanov_measure(cases, seed)
    extras = {name: {k: c[k] for k in ("mean", "se", "n")} for name, c in m.items()}
    return _outcome("girsanov-martingale", girsanov_rule(m), "toy2d+chain", seed, extras=extras)


def mixing_measure(cases, seed) -> dict:
    """``cases`` maps a name to ``(model, xa, xb)``; per case, the law
    distance of two uncoupled ensembles of 300 paths at t = 1..8, the
    two-sample noise floor at t = 8 and the distances' fitted rate."""
    times = list(range(1, 9))
    dt, n_side = 2e-3, 300
    out = {}
    for name, (model, xa, xb) in cases.items():
        ens_a = run_ensemble(model, xa, n_side, times[-1], dt, seed, stream0=0, w_sups=False)
        ens_b = run_ensemble(model, xb, n_side, times[-1], dt, seed, stream0=n_side, w_sups=False)
        values = [row["distance"] for row in est.mixing_distance_series(ens_a, ens_b, times)]
        floor = est.bootstrap_null_quantile(
            ens_a.states[-1], ens_b.states[-1], n_boot=12, cap=150, seed=seed
        )
        gamma = est.fit_contraction(times, values).gamma
        out[name] = {"times": times, "distances": values, "floor": floor, "gamma": gamma}
    return out


def mixing_rule(m: dict) -> list[CheckResult]:
    checks = []
    for name, s in m.items():
        values, floor, gamma = s["distances"], s["floor"], s["gamma"]
        monotone = all(values[i + 1] <= values[i] + floor for i in range(len(values) - 1))
        checks.append(CheckResult(f"decay-{name}", monotone and gamma > 0.0,
                                  f"distances {', '.join(f'{v:.3f}' for v in values)}; "
                                  f"noise floor {floor:.3f}; fitted rate {gamma:.3f}"))
    return checks


def mixing_distance(seed: int = 16) -> PresetOutcome:
    """Law distance between two starts decays with a positive rate for
    all four models (monotone up to the two-sample noise floor).

    Getting a measurable law difference inside the integer-time window
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
    gl = models.make_ginzburg_landau(
        modes=64, forced_modes=3, noise_coeffs=[2.2, 1.54, 1.54]
    )
    rd = models.make_reaction_diffusion(modes_per_component=16)
    rd_half = rd.dim // 2
    rd_amp = math.sqrt(3.0) * sqrt2pi
    rd_well = np.concatenate([_pad([rd_amp], rd_half), _pad([rd_amp], rd_half)])
    chain = models.make_chain(a_squared=0.0)
    cases = {
        "toy2d": (models.make_toy2d(), np.array([1.5, 1.5]), np.array([0.25, 0.25])),
        "ginzburg_landau": (
            gl,
            _pad([sqrt2pi, 0.4], gl.dim),
            _pad([-sqrt2pi, 0.0, 0.4], gl.dim),
        ),
        "reaction_diffusion": (rd, rd_well, np.zeros(rd.dim)),
        "chain": (chain, _pad([1.2, 0.4], chain.dim), _pad([-0.8, 0.2, 0.1], chain.dim)),
    }
    m = mixing_measure(cases, seed)
    return _outcome("mixing-distance", mixing_rule(m), "all", seed,
                    distances=[{"model": k, **v} for k, v in m.items()])


PRESETS = {
    "toy-contraction": (toy_contraction, "coupled toy model: exact zeta decay + difference rate"),
    "gl-gap": (gl_gap, "Ginzburg-Landau: pathwise contraction at the spectral gap"),
    "rd-zeta": (rd_zeta, "reaction-diffusion: damped-heat zeta decay + component bound"),
    "chain-cascade": (chain_cascade, "chain: cascade invariants and derived-force decay"),
    "girsanov-martingale": (girsanov_martingale, "mean path density equals one"),
    "mixing-distance": (mixing_distance, "law distance between two starts decays, all models"),
}


def run_preset(preset_id: str, seed: int | None = None) -> PresetOutcome:
    fn, _ = PRESETS[preset_id]
    return fn() if seed is None else fn(seed=seed)
