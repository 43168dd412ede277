"""Binding forces: closed forms, diagonal vanishing, the chain cascade."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from asymcouple import binding as bnd
from asymcouple.binding import (
    BindingError,
    build_zeta_cascade,
    cascade_shape_ok,
    dump_cascade_text,
    gl_coupled_diagonal,
    make_binding,
)
from asymcouple.models import (
    LENGTH,
    chain_k_star,
    make_chain,
    make_ginzburg_landau,
    make_reaction_diffusion,
    make_toy2d,
)
from asymcouple.polynomials import IndexedPolynomial as P
from asymcouple.polynomials import lie_derivative
from oracles import constant_binding, coupled_chain_field, drift, evaluate, force_at, parse_cascade_dump


def coupled_cascade(model):
    """The coupled derivation: ``zeta_1 = rho_{k*-1}`` and ``zeta_{l+1} =
    L zeta_l + zeta_l`` along the oracle (x, rho) field over all of the
    chain's sites, closed by ``G = -zeta_{k*} - L zeta_{k*}``."""
    field, k_star = coupled_chain_field(model), model.params["k_star"]
    zetas = [P.variable("rho", k_star - 1)]
    for _ in range(1, k_star):
        zetas.append(lie_derivative(zetas[-1], field) + zetas[-1])
    return zetas, -zetas[-1] - lie_derivative(zetas[-1], field)


class TestToyBinding:
    def test_diagonal_vanishes(self):
        toy = make_toy2d()
        x = np.array([0.7, -0.3])
        assert np.all(force_at(toy, make_binding(toy), x, x) == 0.0)

    def test_reference_value(self):
        # x = 0, y = (0, 1): zeta = 3, parts give G = -13 + 3 = -10
        toy = make_toy2d()
        g = force_at(toy, make_binding(toy), np.array([0.0, 0.0]), np.array([0.0, 1.0]))
        assert g == pytest.approx([-10.0])

    def test_forces_linear_contraction_of_zeta(self):
        # algebraic identity: the combination rho_1 + 3 rho_2 must have
        # time derivative exactly -2 zeta once the force is added
        toy = make_toy2d()
        binding = make_binding(toy)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=2)
            y = rng.normal(size=2)
            g = force_at(toy, binding, x, y)
            rho_dot = drift(toy, y) - drift(toy, x) + np.array([g[0], 0.0])
            zeta = (y - x)[0] + 3.0 * (y - x)[1]
            assert binding.zeta_map(np.stack([x, y])) == pytest.approx([zeta], abs=0.0)
            assert rho_dot[0] + 3.0 * rho_dot[1] == pytest.approx(-2.0 * zeta, abs=1e-10)


class TestGLBinding:
    def test_diagonal_vanishes(self):
        gl = make_ginzburg_landau(modes=16)
        u = np.random.default_rng(1).normal(size=16)
        np.testing.assert_array_equal(force_at(gl, make_binding(gl), u, u), np.zeros(gl.n_noise))

    def test_mode_zero_formula(self):
        # lambda_0 = 0, q_0 = 1, rho_0 = 0.5 -> G_0 = -(2+0)/1 * 0.5
        gl = make_ginzburg_landau(modes=16)
        x = np.zeros(16)
        y = np.zeros(16)
        y[0] = 0.5
        assert force_at(gl, make_binding(gl), x, y)[0] == pytest.approx(-1.0)

    def test_coupled_diagonal_below_gap(self):
        gl = make_ginzburg_landau(modes=32, forced_modes=3)
        diag = gl_coupled_diagonal(gl, make_binding(gl))
        assert diag.max() <= -gl.params["gap"] + 1e-12

    def test_zero_noise_coefficient_rejected(self):
        gl = make_ginzburg_landau(modes=16)
        gl.noise_coeffs = np.array([1.0, 0.0, 1.0])
        with pytest.raises(BindingError, match="q = 0"):
            make_binding(gl)


class TestRDBinding:
    def test_diagonal_vanishes(self):
        rd = make_reaction_diffusion(modes_per_component=8)
        x = np.random.default_rng(2).normal(size=rd.dim)
        np.testing.assert_allclose(force_at(rd, make_binding(rd), x, x), np.zeros(rd.n_noise), atol=0.0)

    def test_forces_damped_heat_equation_for_zeta(self):
        # with the force included, d zeta/dt = (Δ - 1) zeta mode by mode
        rd = make_reaction_diffusion(modes_per_component=8)
        binding = make_binding(rd)
        half = rd.dim // 2
        lap = rd.params["laplacian"]
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=rd.dim) * 0.5
            y = rng.normal(size=rd.dim) * 0.5
            g = force_at(rd, binding, x, y)
            rho_dot = drift(rd, y) - drift(rd, x)
            rho_dot[:half] += g
            zeta = binding.zeta_map(np.stack([x, y]))
            np.testing.assert_array_equal(zeta, (y - x)[:half] + 3.0 * (y - x)[half:])
            zeta_dot = rho_dot[:half] + 3.0 * rho_dot[half:]
            np.testing.assert_allclose(zeta_dot, (lap - 1.0) * zeta, atol=1e-9)

    def test_constant_mode_reduces_to_scalar_formula(self):
        # on the constant mode the cubic stays in the mode, so the force
        # equals the two-component scalar construction with zero Laplacian
        rd = make_reaction_diffusion(modes_per_component=8)
        half = rd.dim // 2
        x = np.zeros(rd.dim)
        y = np.zeros(rd.dim)
        x[0], x[half] = 0.7, -0.4       # u1, v1 constants (coefficient scale)
        y[0], y[half] = 1.2, 0.3        # u2, v2
        amp = math.sqrt(2.0 * LENGTH)

        def scalar_force(u1, v1, u2, v2):
            ru, rv = u2 - u1, v2 - v1
            zeta = ru + 3.0 * rv
            du = 2.0 * ru + rv - ru * (u1**2 + u1 * u2 + u2**2)
            dv = 2.0 * rv + ru - rv * (v1**2 + v1 * v2 + v2**2)
            return -zeta - (du + 3.0 * dv)

        expected = scalar_force(x[0] / amp, x[half] / amp, y[0] / amp, y[half] / amp)
        got = force_at(rd, make_binding(rd), x, y)
        assert got[0] / amp == pytest.approx(expected, rel=1e-12)
        np.testing.assert_allclose(got[1:], 0.0, atol=1e-12)

    def test_single_mode_linear_reduction(self):
        # tiny amplitudes suppress the cubic; on one Fourier mode the force
        # reduces to the scalar formula with the Laplacian eigenvalue
        rd = make_reaction_diffusion(modes_per_component=8)
        half = rd.dim // 2
        lap = rd.params["laplacian"]
        j = 3
        eps = 1e-4
        x = np.zeros(rd.dim)
        y = np.zeros(rd.dim)
        x[j], x[half + j] = 0.9 * eps, -0.2 * eps
        y[j], y[half + j] = -0.3 * eps, 0.5 * eps
        ru = y[j] - x[j]
        rv = y[half + j] - x[half + j]
        zeta = ru + 3.0 * rv
        du = (lap[j] + 2.0) * ru + rv
        dv = (lap[j] + 2.0) * rv + ru
        expected = (lap[j] - 1.0) * zeta - (du + 3.0 * dv)
        assert force_at(rd, make_binding(rd), x, y)[j] == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("batch", [1, 7, 300])
    def test_one_stacked_call_equals_two_nonlinearity_calls(self, batch):
        # the force reads F(x) and F(y) from one call on the stacked rows
        rd = make_reaction_diffusion(modes_per_component=16)
        half = rd.dim // 2
        rng = np.random.default_rng(batch)
        x = rng.normal(size=(batch, rd.dim))
        y = x + 0.1 * rng.normal(size=(batch, rd.dim))
        rho = y - x
        zeta = rho[..., :half] + 3.0 * rho[..., half:]
        delta = rd.linear_spectrum * rho + rd.nonlinearity(y) - rd.nonlinearity(x)
        expected = (rd.params["laplacian"] - 1.0) * zeta - (delta[..., :half] + 3.0 * delta[..., half:])
        np.testing.assert_array_equal(force_at(rd, make_binding(rd), x, y), expected)


class TestZetaCascade:
    def test_zeta1_is_the_last_undamped_difference(self):
        for a2, k_star in ((0.0, 2), (2.0, 3), (5.0, 3)):
            cascade = build_zeta_cascade(make_chain(a_squared=a2))
            assert cascade.k_star == k_star
            assert cascade.zetas[0] == P.variable("rho", k_star - 1)

    def test_frozen_second_level_for_a2_5(self):
        # c1 = 5 - (3-1)² = 1, so zeta_2 = 2 rho_2 + rho_3 + rho_1
        #   - rho_2 (3 x_2² + 3 x_2 rho_2 + rho_2²)
        cascade = build_zeta_cascade(make_chain(a_squared=5.0))
        assert cascade.c1 == 1.0
        x2, r1, r2, r3 = (P.variable(f, i) for f, i in (("x", 2), ("rho", 1), ("rho", 2), ("rho", 3)))
        expected = 2 * r2 + r3 + r1 - r2 * (3 * x2**2 + 3 * x2 * r2 + r2**2)
        assert cascade.zetas[1] == expected

    def test_shape_invariants(self):
        for a2 in (0.0, 2.0, 5.0):
            cascade = build_zeta_cascade(make_chain(a_squared=a2))
            assert cascade_shape_ok(cascade) == []

    def test_shape_reports_a_bad_zeta_1_with_the_other_problems(self):
        cascade = build_zeta_cascade(make_chain(a_squared=5.0))
        cascade.zetas[0] = 2.0 * cascade.zetas[0]
        problems = cascade_shape_ok(cascade)
        assert problems[0] == "bad zeta_1"
        assert "zeta_1: leading rho[2] coefficient is 2.0" in problems

    @pytest.mark.parametrize("level", ["zeta", "Z", "G"])
    def test_shape_reports_a_mutated_level_zeta_or_force(self, level):
        cascade = build_zeta_cascade(make_chain(a_squared=5.0))
        x3 = P.variable("x", 3)
        if level == "zeta":
            cascade.zetas[1] = cascade.zetas[1] + P.variable("rho", 3) * x3
            expected = "zeta_2 != Z_2(x + rho) - Z_2(x)"
        elif level == "Z":
            cascade.levels[1] = cascade.levels[1] + x3**2
            expected = "Z_2 != L Z_1 + Z_1"
        else:
            cascade.g_poly = cascade.g_poly + 0.5 * P.variable("rho", 0)
            expected = "G != Z_4(x) - Z_4(x + rho)"
        assert expected in cascade_shape_ok(cascade)

    def test_level_recursion_is_lie_derivative_plus_identity(self):
        cascade = build_zeta_cascade(make_chain(a_squared=5.0))
        field = coupled_chain_field(make_chain(a_squared=5.0))
        for level in range(1, cascade.k_star):
            expected = (
                lie_derivative(cascade.zetas[level - 1], field)
                + cascade.zetas[level - 1]
            )
            assert cascade.zetas[level] == expected
        for level in range(1, cascade.k_star + 1):
            z = cascade.levels[level - 1]
            assert cascade.levels[level] == lie_derivative(z, cascade.field) + z

    def test_force_closes_the_cascade(self):
        # with the force added, the top variable satisfies d zeta/dt = -zeta:
        # evaluate both sides at random states (the force enters through the
        # rho_0 row with unit coefficient)
        model = make_chain(a_squared=5.0)
        cascade = build_zeta_cascade(model)
        field = coupled_chain_field(model)
        rng = np.random.default_rng(4)
        order = tuple(field.rows)
        for _ in range(20):
            values = rng.normal(size=len(order)) * 0.5
            assign = dict(zip(order, values))
            drift_part = evaluate(lie_derivative(cascade.zetas[-1], field), assign)
            g = evaluate(cascade.g_poly, assign)
            zeta = evaluate(cascade.zetas[-1], assign)
            assert drift_part + g == pytest.approx(-zeta, rel=1e-9, abs=1e-9)

    def test_chain_binding_diagonal_and_errors(self):
        model = make_chain(a_squared=5.0)
        binding = make_binding(model)
        x = np.random.default_rng(5).normal(size=model.dim)
        assert force_at(model, binding, x, x) == pytest.approx([0.0], abs=0.0)
        # the force reads the first 2 k* + 1 sites, yet a state narrower or
        # wider than the chain is rejected
        for width in (4, model.dim - 1, model.dim + 1):
            state = np.resize(x, width)
            with pytest.raises(BindingError, match=f"width {model.dim}, got {width}"):
                binding.force(np.stack([state, state]), None)
            with pytest.raises(BindingError, match=f"width {model.dim}, got {width}"):
                binding.zeta_map(np.stack([state, state]))

    @pytest.mark.parametrize("a2", [0.0, 2.0, 2.5, 5.0, 7.0, 14.0])
    def test_coupled_cascade_is_a_difference_of_single_chain_polynomials(self, a2):
        # the cascade is Z_l(x + rho) - Z_l(x) of the single-chain levels; the
        # Lie derivation along the coupled (x, rho) field is an independent
        # route to the same polynomials, and at these a² every coefficient
        # is a small dyadic rational, so the float polynomials agree exactly
        model = make_chain(a_squared=a2)
        cascade = build_zeta_cascade(model)
        zetas, g_poly = coupled_cascade(model)
        assert cascade.zetas == zetas
        assert cascade.g_poly == g_poly

    @pytest.mark.parametrize("a2", [0.0, 2.0, 5.0])
    def test_force_is_accurate_against_exact_rationals(self, a2):
        # the stepper carries (x, rho) and hands the force y = fl(x + rho);
        # the coupled G evaluated exactly at the stepper's own (x, rho) is
        # the reference, down to separations at the rounding of x
        from asymcouple.engine import run_coupled_ensemble

        model = make_chain(a_squared=a2)
        cascade = build_zeta_cascade(model)
        binding = make_binding(model)
        x0 = np.zeros(model.dim)
        x0[:5] = [0.4, 0.3, -0.2, 0.1, 0.05]
        y0 = x0.copy()
        y0[:5] += [0.2, 0.1, -0.08, 0.05, 0.03]
        ens = run_coupled_ensemble(model, binding, x0, y0, 3, 2, 1e-3, seed=31, record_every=250)
        x = ens.x.reshape(-1, model.dim)
        direction = ens.rho.reshape(-1, model.dim)
        direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
        worst = 0.0
        for size in (1e-2, 1e-6, 1e-10, 1e-14):
            rho = size * direction
            g = force_at(model, binding, x, x + rho)[:, 0]
            for xi, rhoi, gi in zip(x, rho, g):
                assign = {("x", i): Fraction(v) for i, v in enumerate(xi)}
                assign.update({("rho", i): Fraction(v) for i, v in enumerate(rhoi)})
                worst = max(worst, abs(gi - float(evaluate(cascade.g_poly, assign))))
        assert worst <= 1e-12

    def test_dump_round_trip(self):
        cascade = build_zeta_cascade(make_chain(a_squared=5.0))
        text = dump_cascade_text(cascade)
        parsed = parse_cascade_dump(text)
        for level, zeta in enumerate(cascade.zetas, start=1):
            assert parsed[f"zeta {level}"] == zeta
        assert parsed["G"] == cascade.g_poly
        assert f"k_star={cascade.k_star}" in text.splitlines()[0]

    def test_cascade_is_insensitive_to_extra_truncation(self):
        # the derivation only ever touches indices up to 2 k* - 1, so adding
        # strongly damped sites must leave every polynomial bit-identical
        small = build_zeta_cascade(make_chain(a_squared=5.0, truncation=12))
        large = build_zeta_cascade(make_chain(a_squared=5.0, truncation=18))
        assert small.g_poly == large.g_poly
        for z_small, z_large in zip(small.zetas, large.zetas):
            assert z_small == z_large

    @pytest.mark.parametrize("a2", [0.0, 2.0, 5.0])
    def test_the_cut_chain_derives_what_every_site_derives(self, a2):
        # the cascade is derived on the first 2 k* + 1 sites; the Lie
        # derivatives along the field over all M sites give the same polynomials
        k_star = chain_k_star(a2)
        for m in (2 * k_star, 2 * k_star + 2, 4 * k_star + 5):
            model = make_chain(a_squared=a2, truncation=m)
            zetas, g_poly = coupled_cascade(model)
            cascade = build_zeta_cascade(model)
            assert cascade.zetas == zetas
            assert cascade.g_poly == g_poly
            assert cascade.truncation == m
            assert cascade.field.truncation == min(m, 2 * k_star + 1)

    def test_awkward_coefficients_warn(self):
        for build in (build_zeta_cascade, make_binding):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                build(make_chain(a_squared=0.3))
            assert ["dyadic" in str(w.message) for w in caught] == [True], build.__name__

    @pytest.mark.parametrize("a2", [2.0, 33.0])
    def test_make_binding_derives_no_coupled_cascade(self, a2, monkeypatch):
        # the force and zeta map compile the single-chain levels alone
        model = make_chain(a_squared=a2)
        monkeypatch.setattr(bnd, "build_zeta_cascade", lambda *a, **k: pytest.fail("cascade derived"))
        monkeypatch.setattr(bnd, "_copy_difference", lambda *a, **k: pytest.fail("copies substituted"))
        binding = make_binding(model)
        xy = np.random.default_rng(9).normal(size=(2, 3, model.dim)) * 0.5
        assert binding.force(xy, None).shape == (3, 1)
        assert binding.zeta_map(xy).shape == (3, model.params["k_star"])

    def test_exact_coefficients_do_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_zeta_cascade(make_chain(a_squared=5.0))
        assert not caught


@pytest.mark.parametrize("model", [make_toy2d(), make_reaction_diffusion(modes_per_component=8)],
                         ids=["toy2d", "reaction_diffusion"])
def test_zeta_map_reads_the_stacked_copies(model):
    # zeta(xy) = rho[:k] + 3 rho[k:] with rho = y - x, row by row of a batch
    binding = make_binding(model)
    rng = np.random.default_rng(8)
    xy = rng.normal(size=(2, 5, model.dim))
    rho = xy[1] - xy[0]
    k = model.n_noise
    np.testing.assert_array_equal(binding.zeta_map(xy), rho[:, :k] + 3.0 * rho[:, k:])
    np.testing.assert_array_equal(binding.zeta_map(xy[:, 2]), binding.zeta_map(xy)[2])


class TestDiagonalVanishing:
    def test_all_models_vanish_on_the_diagonal(self):
        rng = np.random.default_rng(6)
        gl = make_ginzburg_landau(modes=16)
        rd = make_reaction_diffusion(modes_per_component=8)
        ch = make_chain(a_squared=5.0)
        for model in (make_toy2d(), gl, rd, ch):
            states = rng.normal(size=(1000, model.dim)) * rng.choice(
                [0.3, 1.0, 3.0], size=(1000, 1)
            )
            force = force_at(model, make_binding(model), states, states)
            assert np.all(force == 0.0)

    def test_growth_bound_exponents_per_model(self):
        # |G(x,y)|² <= C |x-y|^alpha (1 + V(x)+V(y))^beta: the separation
        # exponent sits near 2 for every construction (each force is linear
        # in the difference to leading order) and the amplitude exponent is
        # zero for the purely mode-wise force, positive for the others
        from asymcouple.estimators import binding_growth_exponents

        cases = {
            "toy2d": make_toy2d(),
            "ginzburg_landau": make_ginzburg_landau(modes=16),
            "reaction_diffusion": make_reaction_diffusion(modes_per_component=8),
            "chain": make_chain(a_squared=5.0),
        }
        for name, model in cases.items():
            fit = binding_growth_exponents(model, make_binding(model), seed=7)
            assert 1.4 <= fit["alpha"] <= 2.6, f"{name}: alpha={fit['alpha']:.2f}"
            assert fit["beta"] >= -0.3, f"{name}: beta={fit['beta']:.2f}"
        gl_fit = binding_growth_exponents(
            make_ginzburg_landau(modes=16), make_binding(make_ginzburg_landau(modes=16)), seed=7
        )
        assert abs(gl_fit["beta"]) <= 0.3


def test_null_binding_is_zero():
    toy = make_toy2d()
    spec = constant_binding(toy)
    assert np.all(spec.force(np.stack([np.ones(2), np.zeros(2)]), None) == 0.0)


def test_top_cascade_variable_satisfies_its_ode_along_paths():
    # finite-difference oracle: along an integrated coupled path, the
    # centred difference of zeta_k* matches -zeta_k* to first order in dt
    from asymcouple.engine import run_coupled_ensemble

    model = make_chain(a_squared=5.0)
    binding = make_binding(model)
    x0 = np.zeros(model.dim)
    x0[:5] = [0.4, 0.3, -0.2, 0.1, 0.05]
    y0 = x0.copy()
    y0[:5] += [0.2, 0.1, -0.08, 0.05, 0.03]
    dt = 1e-3
    ens = run_coupled_ensemble(model, binding, x0, y0, 1, 1, dt, seed=29, record_every=1)
    z = ens.zeta[:, 0, -1]
    fd = (z[2:] - z[:-2]) / (2.0 * dt)
    residual = np.abs(fd + z[1:-1]).max()
    assert residual <= 50.0 * dt * max(1.0, np.abs(z).max())


def test_cascade_levels_agree_with_their_differential_form():
    # each zeta_l evaluated along a simulated coupled path must match the
    # solution of d zeta_l/dt = -zeta_l + zeta_{l+1} driven by the recorded
    # next level (trapezoidal integration of the source)
    from asymcouple.engine import run_coupled_ensemble

    model = make_chain(a_squared=5.0)
    k_star = model.params["k_star"]
    binding = make_binding(model)
    x0 = np.zeros(model.dim)
    x0[:5] = [0.4, 0.3, -0.2, 0.1, 0.05]
    y0 = x0.copy()
    y0[:5] += [0.2, 0.1, -0.08, 0.05, 0.03]
    dt_rec = 0.01
    ens = run_coupled_ensemble(model, binding, x0, y0, 1, 2, 1e-3, seed=30, record_every=10)
    zeta = ens.zeta[:, 0, :]  # (records, k_star)
    decay = np.exp(-dt_rec)
    for level in range(k_star - 1):
        source = zeta[:, level + 1]
        integrated = np.empty(len(zeta))
        integrated[0] = zeta[0, level]
        for k in range(len(zeta) - 1):
            trapezoid = 0.5 * (source[k] * decay + source[k + 1])
            integrated[k + 1] = integrated[k] * decay + dt_rec * trapezoid
        err = np.abs(integrated - zeta[:, level]).max()
        scale = np.abs(zeta[:, level]).max()
        assert err <= 5e-4 * max(scale, 1.0), f"level {level + 1}: {err:.2e}"
