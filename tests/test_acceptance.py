"""Acceptance gate: one test per headline criterion, with PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria with stated runtime budgets assert them.
"""

import math
import time

import numpy as np
import pytest

import asymcouple as ac
from asymcouple.binding import chain_vector_field, make_binding
from asymcouple.engine import (
    NoisePath,
    integrate,
    integrate_coupled,
    run_coupled_ensemble,
    run_ensemble,
    sample_noise,
    shift_noise,
)
from asymcouple.estimators import axk_table, density_diagnostics, lyapunov_fit
from asymcouple.measures import (
    DiscreteMeasure,
    meet,
    overlap_chi2_bound,
    overlap_chi2_bound_sharp,
    overlap_lower_bound,
    pushforward,
    subtract,
)
from asymcouple.models import (
    make_chain,
    make_ginzburg_landau,
    make_reaction_diffusion,
    make_toy2d,
)
from asymcouple.polynomials import IndexedPolynomial, evaluate, lie_derivative
from asymcouple.presets import run_preset


def report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def run_preset_criterion(criterion, preset_id, budget=None):
    start = time.time()
    outcome = run_preset(preset_id)
    elapsed = time.time() - start
    for line in outcome.lines():
        print("  " + line)
    detail = f"preset {preset_id} in {elapsed:.1f}s"
    if budget is not None:
        detail += f" (budget {budget}s)"
        report(criterion, outcome.passed and elapsed < budget, detail)
    else:
        report(criterion, outcome.passed, detail)


ATOMS = list("abcdefghij")


def _random_dyadic_measure(rng, strictly_positive=False):
    size = rng.integers(1, 7)
    support = rng.choice(ATOMS, size=size, replace=False)
    lo = 1 if strictly_positive else 0
    weights = rng.integers(lo, 4097, size=size) / 1024.0
    return DiscreteMeasure({p: w for p, w in zip(support, weights)})


def test_criterion_1_measure_algebra_suite():
    """Exact lattice identities and overlap bounds on 10^4 random pairs."""
    start = time.time()
    rng = np.random.default_rng(2024)
    images = {a: rng.choice(["p", "q", "r"]) for a in ATOMS}
    relabel = {a: a.upper() for a in ATOMS}

    checked = 0
    for _ in range(10_000):
        mu = _random_dyadic_measure(rng)
        nu = _random_dyadic_measure(rng)
        # exact decomposition
        assert meet(mu, nu) + subtract(mu, nu) == mu
        # pushforward inequalities, with equality for injective maps
        f = images.get
        fm, fn = pushforward(f, mu), pushforward(f, nu)
        push_meet = pushforward(f, meet(mu, nu))
        push_sub = pushforward(f, subtract(mu, nu))
        for p in set(fm.support) | set(fn.support):
            assert push_meet.weight(p) <= min(fm.weight(p), fn.weight(p)) + 1e-12
            assert push_sub.weight(p) >= max(fm.weight(p) - fn.weight(p), 0.0) - 1e-12
        g = relabel.get
        assert pushforward(g, meet(mu, nu)) == meet(pushforward(g, mu), pushforward(g, nu))
        assert pushforward(g, subtract(mu, nu)) == subtract(
            pushforward(g, mu), pushforward(g, nu)
        )

        # overlap bounds on equivalent probability pairs over a shared support
        size = rng.integers(2, 7)
        support = [ATOMS[i] for i in range(size)]
        w1 = rng.integers(1, 1025, size=size).astype(float)
        w2 = rng.integers(1, 1025, size=size).astype(float)
        mu1 = DiscreteMeasure({p: w / w1.sum() for p, w in zip(support, w1)})
        mu2 = DiscreteMeasure({p: w / w2.sum() for p, w in zip(support, w2)})
        a_set = [p for p in support if rng.random() < 0.7]
        lhs, rhs = overlap_lower_bound(mu1, mu2, a_set)
        assert lhs >= rhs - 1e-12
        lhs_s, rhs_s, c = overlap_chi2_bound_sharp(mu1, mu2, a_set)
        assert lhs_s >= rhs_s - 1e-12
        lhs4, rhs4, c4 = overlap_chi2_bound(mu1, mu2, a_set)
        mass_a = sum(mu1.weight(p) for p in a_set)
        if 4.0 * c4 >= mass_a + math.sqrt(c4):
            assert lhs4 >= rhs4 - 1e-12
        checked += 1

    elapsed = time.time() - start
    report(
        1,
        checked == 10_000 and elapsed < 10.0,
        f"decomposition/pushforward/overlap bounds on {checked} random pairs "
        f"in {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_2_toy_model():
    run_preset_criterion(2, "toy-contraction", budget=60.0)


def test_criterion_3_ginzburg_landau():
    run_preset_criterion(3, "gl-gap", budget=60.0)


def test_criterion_4_reaction_diffusion():
    run_preset_criterion(4, "rd-zeta")


def test_criterion_5_chain_cascade():
    run_preset_criterion(5, "chain-cascade")


def test_criterion_6_girsanov_martingale():
    run_preset_criterion(6, "girsanov-martingale", budget=120.0)


def test_criterion_7_mixing_distance():
    run_preset_criterion(7, "mixing-distance")


def test_criterion_8_diagnostics_suite():
    details = []

    # Lyapunov drift: fitted slope below one for every model
    sqrt2pi = math.sqrt(2.0 * math.pi)
    cases = {
        "toy2d": (make_toy2d(), np.array([1.0, 0.7])),
        "ginzburg_landau": (make_ginzburg_landau(modes=32), None),
        "reaction_diffusion": (make_reaction_diffusion(modes_per_component=8), None),
        "chain": (make_chain(a_squared=2.0), None),
    }
    for name, (model, base) in cases.items():
        if base is None:
            base = np.zeros(model.dim)
            base[: min(3, model.dim)] = [0.8, -0.5, 0.4][: min(3, model.dim)]
        second = np.roll(base, 1)
        probes = [s * b for b in (base, second) for s in (0.0, 0.3, 0.8, 1.5, 2.5, 4.0, 5.5, 7.0, 8.5, 10.0)]
        fit = lyapunov_fit(model, probes, samples_per_probe=60, dt=2e-3, seed=31)
        assert fit.a < 1.0, f"{name}: fitted drift slope {fit.a:.3f}"
        details.append(f"{name} drift (a={fit.a:.3f}, b={fit.b:.2f})")

    # excursion-set frequencies: monotone in k and near one at k = 1e4
    for name, model, x0 in (
        ("toy2d", make_toy2d(), np.array([1.0, 0.5])),
        ("chain", make_chain(a_squared=2.0), None),
    ):
        if x0 is None:
            x0 = np.zeros(model.dim)
            x0[:2] = [0.6, 0.3]
        ens = run_ensemble(model, x0, 2000, 4, 2e-3, seed=32)
        rows = axk_table(model, ens, ks=[1e2, 1e3, 1e4], horizon=3)
        freqs = [r["frequency"] for r in rows]
        assert freqs == sorted(freqs), f"{name}: frequencies not monotone: {freqs}"
        assert freqs[-1] >= 0.99, f"{name}: frequency at k=1e4 is {freqs[-1]:.4f}"
        details.append(f"{name} excursion freq@1e4 = {freqs[-1]:.4f}")

    # density diagnostics on the toy model
    toy = make_toy2d()
    x0, y0 = np.array([1.0, 0.5]), np.array([1.3, 0.3])
    ens = run_coupled_ensemble(toy, make_binding(toy), x0, y0, 2000, 11, 2e-3, seed=33)
    diag = density_diagnostics(toy, ens, horizons=list(range(1, 11)))
    inv = np.array(diag.mean_inv_sq_good)
    bounded = np.mean(inv[-3:]) <= 2.0 * np.mean(inv[:3]) + 0.5
    assert bounded, f"inverse-square column grows: {inv}"
    assert diag.gamma2_hat is not None and diag.gamma2_hat > 0.0, (
        f"step-deviation decay rate not positive: {diag.gamma2_hat}"
    )
    details.append(
        f"toy2d inv-sq trend bounded ({inv[:3].mean():.3f} -> {inv[-3:].mean():.3f}), "
        f"gamma2-hat = {diag.gamma2_hat:.2f}"
    )
    report(8, True, "; ".join(details))


def test_criterion_9_numerics_suite():
    details = []

    # Lie derivative vs central differences at second order in h
    model = make_chain(a_squared=5.0)
    field = chain_vector_field(model)
    p = (
        IndexedPolynomial.variable("rho", 2) * IndexedPolynomial.variable("x", 2) ** 2
        + IndexedPolynomial.variable("rho", 1) * IndexedPolynomial.variable("x", 3)
    )
    lie = lie_derivative(p, field)
    rng = np.random.default_rng(41)
    order = tuple(field.rows)
    state = {v: rng.normal() for v in order}
    flow = {v: evaluate(field.rows[v], state) for v in order}

    def p_shift(eps):
        return evaluate(p, {v: state[v] + eps * flow[v] for v in order})

    exact = evaluate(lie, state)
    err_h = abs((p_shift(1e-4) - p_shift(-1e-4)) / 2e-4 - exact)
    err_h2 = abs((p_shift(5e-5) - p_shift(-5e-5)) / 1e-4 - exact)
    ratio = err_h / max(err_h2, 1e-300)
    assert 2.5 <= ratio <= 6.0, f"finite-difference error ratio {ratio:.2f} not ~ 4"
    details.append(f"Lie/FD error ratio at h, h/2: {ratio:.2f}")

    # strong-order Richardson on a frozen refined path
    toy = make_toy2d()
    dt_fine = 1.25e-4
    fine = sample_noise(toy, 8000, dt_fine, seed=42).increments

    def coarsen(incr, factor):
        return incr.reshape(-1, factor, incr.shape[1]).sum(axis=1)

    ends = {}
    for factor in (8, 4, 2):
        noise = NoisePath(dt=dt_fine * factor, increments=coarsen(fine, factor))
        ends[factor] = integrate(toy, np.array([0.5, -0.2]), noise, record_every=noise.steps).states[-1, 0]
    e1 = np.linalg.norm(ends[8] - ends[4])
    e2 = np.linalg.norm(ends[4] - ends[2])
    assert 1.4 <= e1 / e2 <= 5.0, f"Richardson ratio {e1 / e2:.2f} incompatible with order >= 1"
    details.append(f"Richardson dt-halving ratio {e1 / e2:.2f}")

    # noise shift round trip
    binding = make_binding(toy)
    noise = sample_noise(toy, 2000, 1e-3, seed=43)
    traj = integrate_coupled(toy, binding, np.array([1.0, 0.0]), np.array([0.2, 0.5]), noise)
    back = shift_noise(shift_noise(noise, traj, binding), traj, binding, inverse=True)
    round_trip = np.abs(back.increments - noise.increments).max()
    assert round_trip <= 1e-12, f"shift round trip error {round_trip:.2e}"
    details.append(f"shift round trip {round_trip:.1e}")

    # end-to-end byte determinism under fixed seeds
    import tempfile
    from pathlib import Path

    from asymcouple.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_text(
            "[model]\nid = toy2d\n\n[run]\ndt = 0.002\nunits = 2\nensemble = 10\n"
            "seed = 5\nbinding = on\nx0 = 1.0 0.5\ny0_offset = 0.3 -0.1\n\n"
            f"[output]\ndir = {tmp}/out\n"
        )
        blobs = []
        for _ in range(2):
            assert main(["run", "--config", str(cfg)]) == 0
            blobs.append(
                tuple(
                    (Path(tmp) / "out" / n).read_bytes()
                    for n in ("report.json", "trajectory.csv", "plot_data.csv")
                )
            )
        assert blobs[0] == blobs[1], "reruns with fixed seeds are not byte-identical"
    details.append("byte-identical reruns")
    report(9, True, "; ".join(details))
