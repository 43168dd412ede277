"""Model definitions: drifts, Lyapunov functions, noise maps, validation."""

import math

import numpy as np
import pytest

from asymcouple.binding import chain_vector_field
from asymcouple.models import (
    ModelError,
    _in_row_blocks,
    apply_noise,
    chain_k_star,
    drift,
    lyapunov,
    make_chain,
    make_ginzburg_landau,
    make_model,
    make_reaction_diffusion,
    make_toy2d,
)
from asymcouple.polynomials import evaluate


def chain_drift_oracle(a2, x):
    """Straight-line per-site reimplementation of the chain drift."""
    m = len(x)
    out = np.zeros(m)
    for k in range(m):
        left = x[k - 1] if k >= 1 else 0.0
        right = x[k + 1] if k + 1 < m else 0.0
        out[k] = (a2 - k**2) * x[k] + left + right - x[k] ** 3
    return out


class TestToyDrift:
    def test_origin_is_fixed_point(self):
        toy = make_toy2d()
        np.testing.assert_array_equal(drift(toy, np.zeros(2)), np.zeros(2))

    def test_substitution(self):
        toy = make_toy2d()
        np.testing.assert_allclose(drift(toy, np.array([1.0, 1.0])), [2.0, 2.0])

    def test_non_finite_state_rejected(self):
        toy = make_toy2d()
        with pytest.raises(ModelError, match="non-finite"):
            drift(toy, np.array([np.nan, 0.0]))


class TestChain:
    def test_k_star(self):
        assert chain_k_star(0.0) == 2
        assert chain_k_star(2.0) == 3
        assert chain_k_star(5.0) == 3
        assert chain_k_star(9.0) == 4  # needs k² >= 12

    def test_drift_matches_site_oracle_on_basis_vector(self):
        model = make_chain(a_squared=5.0)
        e2 = np.zeros(model.dim)
        e2[2] = 1.0
        np.testing.assert_allclose(drift(model, e2), chain_drift_oracle(5.0, e2), atol=1e-14)
        assert drift(model, e2)[1] == 1.0

    def test_drift_matches_site_oracle_on_random_states(self):
        model = make_chain(a_squared=2.0)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=model.dim)
            np.testing.assert_allclose(drift(model, x), chain_drift_oracle(2.0, x), atol=1e-12)

    def test_drift_matches_polynomial_field(self):
        # two independent encodings of the same drift must agree
        model = make_chain(a_squared=5.0)
        field = chain_vector_field(model)
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(100, model.dim))
        assign = {("x", i): xs[:, i] for i in range(model.dim)}
        assign.update({("rho", i): np.zeros(100) for i in range(model.dim)})
        poly_drift = np.stack(
            [evaluate(field.rows[("x", i)], assign) for i in range(model.dim)], axis=-1
        )
        np.testing.assert_allclose(drift(model, xs), poly_drift, atol=1e-12)

    def test_truncation_validation(self):
        with pytest.raises(ModelError, match="too small"):
            make_chain(a_squared=5.0, truncation=4)
        with pytest.raises(ModelError, match="damped"):
            make_chain(a_squared=30.0, truncation=3)

    def test_truncation_insensitivity_of_low_sites(self):
        # sites beyond k* are strongly damped, so widening the truncation
        # barely moves the resolved part of a trajectory
        from asymcouple.engine import NoisePath, integrate

        paths = {}
        for m in (12, 18):
            model = make_chain(a_squared=5.0, truncation=m)
            x0 = np.zeros(m)
            x0[:5] = [0.6, 0.4, -0.3, 0.2, 0.1]
            noise = NoisePath(dt=1e-3, increments=np.zeros((2000, 1)))
            paths[m] = integrate(model, x0, noise, record_every=500).states[:, 0]
        err = np.abs(paths[12][:, :8] - paths[18][:, :8]).max()
        assert err < 1e-5


class TestLyapunov:
    def test_gl_zero(self):
        gl = make_ginzburg_landau(modes=16)
        assert lyapunov(gl, np.zeros(16)) == 0.0

    def test_rd_constant_functions(self):
        # u ≡ 2 and v ≡ -3 have sup norms 2 and 3
        rd = make_reaction_diffusion(modes_per_component=8)
        amp = math.sqrt(2.0 * rd.params["length"])
        state = np.zeros(rd.dim)
        state[0] = 2.0 * amp
        state[8] = -3.0 * amp
        assert lyapunov(rd, state) == pytest.approx(5.0, rel=1e-12)

    def test_chain_squared_norm(self):
        model = make_chain(a_squared=5.0, lyapunov_power=2.0)
        state = np.zeros(model.dim)
        state[0] = 1.0
        state[1] = 1.0
        assert lyapunov(model, state) == pytest.approx(2.0)

    def test_norm_domination(self):
        rng = np.random.default_rng(3)
        for model in (
            make_toy2d(),
            make_ginzburg_landau(modes=16),
            make_reaction_diffusion(modes_per_component=8),
            make_chain(a_squared=2.0),
        ):
            c = model.lyapunov_spec.norm_domination_c
            for _ in range(50):
                x = rng.normal(size=model.dim) * rng.choice([0.1, 1.0, 10.0])
                norm = np.linalg.norm(x)
                v = lyapunov(model, x)
                assert norm <= c * (1.0 + v) + 1e-9


class TestApplyNoise:
    def test_zero_increments(self):
        gl = make_ginzburg_landau(modes=16)
        np.testing.assert_array_equal(
            apply_noise(gl, np.zeros(gl.n_noise)), np.zeros(16)
        )

    def test_gl_two_forced_modes(self):
        gl = make_ginzburg_landau(
            modes=16, forced_modes=2, length=math.pi / 2, noise_coeffs=[1.0, 0.5]
        )
        out = apply_noise(gl, np.array([1.0, 1.0]))
        expected = np.zeros(16)
        expected[0] = 1.0
        expected[1] = 0.5
        np.testing.assert_array_equal(out, expected)

    def test_chain_single_site(self):
        model = make_chain(a_squared=5.0)
        out = apply_noise(model, np.array([0.3]))
        assert out[0] == 0.3
        assert np.all(out[1:] == 0.0)

    def test_length_mismatch(self):
        model = make_chain(a_squared=5.0)
        with pytest.raises(ModelError, match="length"):
            apply_noise(model, np.array([0.3, 0.1]))


class TestDissipativity:
    @pytest.mark.parametrize(
        "factory,r0",
        [
            (make_toy2d, 4.0),
            (lambda: make_ginzburg_landau(modes=32), 4.0),
            (lambda: make_reaction_diffusion(modes_per_component=8), 4.0),
            (lambda: make_chain(a_squared=5.0), 10.0),
        ],
    )
    def test_inward_drift_at_large_amplitude(self, factory, r0):
        model = factory()
        rng = np.random.default_rng(4)
        for _ in range(100):
            direction = rng.normal(size=model.dim)
            direction /= np.linalg.norm(direction)
            x = direction * r0 * rng.uniform(1.0, 2.0)
            assert float(x @ drift(model, x)) < 0.0


class TestSpectra:
    def test_gl_ordering(self):
        gl = make_ginzburg_landau(modes=32)
        spec = gl.linear_spectrum
        assert np.all(np.diff(spec) <= 0.0)
        assert spec[0] > spec[1]
        # frequency pairs strictly decrease (cos/sin eigenvalues tie in pairs)
        assert np.all(spec[3::2] < spec[1:-2:2])

    def test_gl_forcing_must_cover_expanding_modes(self):
        with pytest.raises(ModelError, match="contracting"):
            make_ginzburg_landau(modes=16, forced_modes=1)

    def test_gl_noise_coeffs_positive(self):
        with pytest.raises(ModelError, match="positive"):
            make_ginzburg_landau(modes=16, noise_coeffs=[1.0, 0.0, 1.0])

    def test_chain_spectrum(self):
        model = make_chain(a_squared=5.0)
        np.testing.assert_allclose(
            model.linear_spectrum, 5.0 - np.arange(model.dim, dtype=float) ** 2
        )

    def test_gl_cubic_projection_is_nonexpansive_inner_product(self):
        # the pseudo-spectral cubic must keep <u, u³> >= 0 exactly enough
        # for the difference-process contraction to be pathwise
        gl = make_ginzburg_landau(modes=32)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.normal(size=32)
            cube = -gl.nonlinearity(u)
            assert float(u @ cube) >= -1e-12


SPECTRAL = {
    "gl64": lambda: make_ginzburg_landau(modes=64),
    "gl32": lambda: make_ginzburg_landau(modes=32),
    "rd16": lambda: make_reaction_diffusion(modes_per_component=16),
}


def dense_cube(u, model):
    """The pseudo-spectral cube by plain matmuls and ``**3``: the slow oracle."""
    basis, weight = model.aux["basis"], model.aux["weight"]
    return ((u @ basis.T) ** 3) @ basis * weight


def assert_close_to_scale(actual, expected, rel=1e-12):
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(actual, expected, rtol=0.0, atol=rel * scale)


@pytest.mark.parametrize("batch", [1, 7, 300])
@pytest.mark.parametrize("factory", list(SPECTRAL.values()), ids=list(SPECTRAL))
def test_spectral_transforms_match_the_dense_oracle(factory, batch):
    model = factory()
    state = np.random.default_rng(batch).normal(size=(batch, model.dim))
    if model.id == "ginzburg_landau":
        assert_close_to_scale(model.nonlinearity(state), -dense_cube(state, model))
        return
    half = model.dim // 2
    u, v = state[:, :half], state[:, half:]
    expected = np.concatenate([v - dense_cube(u, model), u - dense_cube(v, model)], axis=-1)
    assert_close_to_scale(model.nonlinearity(state), expected)
    basis = model.aux["basis"]
    sup = np.abs(u @ basis.T).max(axis=-1) + np.abs(v @ basis.T).max(axis=-1)
    assert_close_to_scale(lyapunov(model, state), sup)


@pytest.mark.parametrize("offset", [0, 5])
@pytest.mark.parametrize("transform", ["synthesis", "projection"])
@pytest.mark.parametrize("factory", list(SPECTRAL.values()), ids=list(SPECTRAL))
def test_block_transforms_do_not_depend_on_the_batch(factory, transform, offset):
    # each row of a batch transformed in blocks equals that row transformed
    # alone, bit for bit, whatever the batch size and the row's position
    matrix = factory().aux["synthesis" if transform == "synthesis" else "basis"]
    rows = np.random.default_rng(offset).normal(size=(offset + 300, matrix.shape[0]))
    alone = np.array([_in_row_blocks(row, lambda b: b @ matrix) for row in rows])
    for batch in (1, 2, 7, 8, 9, 17, 300):
        chunk = rows[offset : offset + batch]
        np.testing.assert_array_equal(
            _in_row_blocks(chunk, lambda b: b @ matrix), alone[offset : offset + batch],
            err_msg=f"batch {batch}",
        )


def test_make_model_dispatch():
    assert make_model("toy2d").id == "toy2d"
    with pytest.raises(ModelError, match="unknown model"):
        make_model("pendulum")
