"""Integrator correctness: exactness, coupling semantics, Girsanov weights."""

import itertools
import math
import pickle
import re
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from asymcouple import engine
from asymcouple.binding import BindingSpec, make_binding
from asymcouple.engine import (
    BlowUpError,
    CoupledEnsembleResult,
    EngineError,
    EnsembleResult,
    NoisePath,
    integrate,
    integrate_coupled,
    run_coupled_ensemble,
    run_ensemble,
    sample_noise,
    shift_noise,
)
from asymcouple.models import (
    ModelSpec,
    lyapunov,
    make_chain,
    make_ginzburg_landau,
    make_reaction_diffusion,
    make_toy2d,
)
from oracles import (
    constant_binding,
    continuous_law,
    force_at,
    girsanov_sums,
    linear_law,
    linear_model,
    linear_step,
)

TOY = make_toy2d()

# per model: factory, head of x0, head of the offset y0 - x0
BOUND_PAIRS = {
    "toy2d": (lambda: TOY, [1.0, 0.5], [0.2, -0.1]),
    "ginzburg_landau": (lambda: make_ginzburg_landau(modes=16), [0.5, 0.4], [0.15, -0.1, 0.1]),
    "reaction_diffusion": (lambda: make_reaction_diffusion(modes_per_component=8), [0.4, 0.2], [0.1, -0.08]),
    "chain": (lambda: make_chain(a_squared=2.0), [0.4, 0.3], [0.008, 0.005]),
}


def bound_pair(model_id, model=None):
    factory, x_head, off_head = BOUND_PAIRS[model_id]
    model = model or factory()
    x0 = np.zeros(model.dim)
    x0[: len(x_head)] = x_head
    y0 = x0.copy()
    y0[: len(off_head)] += off_head
    return model, x0, y0


class TestSampleNoise:
    def test_deterministic_reconstruction(self):
        a = sample_noise(TOY, 50, 1e-3, seed=9, stream=3)
        b = sample_noise(TOY, 50, 1e-3, seed=9, stream=3)
        np.testing.assert_array_equal(a.increments, b.increments)

    def test_streams_differ(self):
        a = sample_noise(TOY, 50, 1e-3, seed=9, stream=3)
        b = sample_noise(TOY, 50, 1e-3, seed=9, stream=4)
        assert not np.array_equal(a.increments, b.increments)

    def test_moments(self):
        n = 100_000
        incr = sample_noise(TOY, n, 1e-3, seed=1).increments[:, 0]
        sigma = math.sqrt(1e-3)
        assert abs(incr.mean()) <= 4.0 * sigma / math.sqrt(n)
        var = incr.var()
        assert abs(var - 1e-3) <= 0.05 * 1e-3

    def test_bad_dt(self):
        with pytest.raises(EngineError):
            sample_noise(TOY, 10, 0.0, seed=1)

    def test_a_shorter_draw_is_a_prefix(self):
        model = bound_pair("ginzburg_landau")[0]
        long = sample_noise(model, 1000, 1e-3, seed=9, stream=2).increments
        assert long.shape == (1000, model.n_noise) and model.n_noise > 1
        for steps in (0, 1, 37, 500):
            short = sample_noise(model, steps, 1e-3, seed=9, stream=2).increments
            np.testing.assert_array_equal(short, long[:steps])


class TestIntegrate:
    def test_exact_linear_decay(self):
        model = linear_model([-1.0], [1.0])
        noise = NoisePath(dt=1e-3, increments=np.zeros((1000, 1)))
        traj = integrate(model, np.array([1.0]), noise, record_every=1000)
        assert traj.states[-1, 0, 0] == pytest.approx(math.exp(-1.0), abs=1e-13)

    def test_toy_deterministic_equilibrium(self):
        # symmetric starts flow to the root of 3x = x³
        noise = NoisePath(dt=1e-3, increments=np.zeros((8000, 1)))
        traj = integrate(TOY, np.array([0.1, 0.1]), noise, record_every=8000)
        np.testing.assert_allclose(traj.states[-1, 0], [math.sqrt(3.0)] * 2, rtol=1e-6)

    def test_strong_order_richardson(self):
        # refine one Brownian path: halving dt should shrink the endpoint
        # difference by about the strong order (>= 1)
        dt_fine = 1.25e-4
        fine = sample_noise(TOY, 8 * 1000, dt_fine, seed=3).increments

        def coarsen(incr, factor):
            return incr.reshape(-1, factor, incr.shape[1]).sum(axis=1)

        x0 = np.array([0.4, -0.2])
        ends = {}
        for factor in (8, 4, 2):
            noise = NoisePath(dt=dt_fine * factor, increments=coarsen(fine, factor))
            ends[factor] = integrate(TOY, x0, noise, record_every=noise.steps).states[-1, 0]
        e1 = np.linalg.norm(ends[8] - ends[4])
        e2 = np.linalg.norm(ends[4] - ends[2])
        assert 1.4 <= e1 / e2 <= 5.0

    def test_blow_up_records_time(self):
        model = make_chain(a_squared=5.0)
        x0 = np.zeros(model.dim)
        x0[0] = 60.0  # cubic explicit step is unstable this far out
        noise = NoisePath(dt=1e-3, increments=np.zeros((200, 1)))
        with pytest.raises(BlowUpError) as err:
            integrate(model, x0, noise)
        assert 0 < err.value.time <= 0.2

    def test_a_continued_run_blows_up_at_the_run_time(self):
        # from unit 2 on, a blow-up within the unit is reported after t = 2,
        # at a step counted from time 0
        model = make_chain(a_squared=5.0)
        x0 = np.zeros(model.dim)
        x0[0] = 60.0
        with pytest.raises(BlowUpError) as err:
            run_ensemble(model, x0, 1, 1, 1e-3, seed=1, start_unit=2)
        assert 2 < err.value.time <= 2.2
        assert err.value.time == pytest.approx(err.value.step * 1e-3)

    def test_blow_up_survives_a_pickle_round_trip(self):
        # a process pool sends a worker's exception back pickled
        err = pickle.loads(pickle.dumps(BlowUpError(0.123)))
        assert isinstance(err, BlowUpError)
        assert err.time == 0.123
        assert str(err) == "blow-up at t=0.123"
        err = pickle.loads(pickle.dumps(BlowUpError(0.123, stream=5, step=123, component=2)))
        assert (err.time, err.stream, err.step, err.component) == (0.123, 5, 123, 2)
        assert str(err) == "blow-up at t=0.123 on stream 5, step 123, component 2"

    def test_dt_must_divide_the_unit(self):
        noise = NoisePath(dt=3e-3, increments=np.zeros((10, 1)))
        with pytest.raises(EngineError, match="dt must divide the unit interval"):
            integrate(TOY, np.zeros(2), noise, record_every=1)
        with pytest.raises(EngineError, match="dt must divide the unit interval"):
            run_ensemble(TOY, np.zeros(2), 2, 1, 3e-3, seed=0)

    def test_record_every_must_divide(self):
        noise = NoisePath(dt=1e-3, increments=np.zeros((1000, 1)))
        with pytest.raises(EngineError, match="record_every"):
            integrate(TOY, np.zeros(2), noise, record_every=300)

    # spectrum 700 on the coordinates in ``unstable``: from 1e3 there a
    # step multiplies by e^7, and the state overflows at step 101
    @staticmethod
    def exploding(unstable):
        spectrum = np.full(4, -1.0)
        spectrum[list(unstable)] = 700.0
        return linear_model(spectrum, [1.0])

    def test_a_blow_up_names_its_stream_step_and_component(self):
        # paths 2 and 3 overflow in coordinate 2 at the first non-finite
        # step, path 1 (from 1, not 1e3) one step later: the lowest of the
        # first, on its stream, is reported
        model = self.exploding([2])
        starts = np.zeros((5, 4))
        starts[1, 2], starts[2:4, 2] = 1.0, 1e3
        with pytest.raises(BlowUpError) as err:
            run_ensemble(model, starts, 5, 2, 1e-2, seed=1, stream0=10, w_sups=False)
        assert (err.value.stream, err.value.step, err.value.component) == (12, 101, 2)
        assert err.value.time == pytest.approx(1.01)
        assert "on stream 12, step 101, component 2" in str(err.value)

    def test_a_blow_up_names_x_before_rho(self):
        # x overflows in coordinate 2 and rho in 1 at the same step: the
        # component is x's; where x stays finite, rho's is reported
        model = self.exploding([1, 2])
        binding = constant_binding(model)
        x0, offset = np.zeros(4), np.zeros(4)
        x0[2], offset[1] = 1e3, 1e3
        for starts, component in (((x0, x0 + offset), 2), ((np.zeros(4), offset), 1)):
            with pytest.raises(BlowUpError) as err:
                run_coupled_ensemble(model, binding, *starts, 3, 2, 1e-2, seed=1, stream0=4)
            assert (err.value.stream, err.value.step, err.value.component) == (4, 101, component)

    def test_w_sup_dominates_interval_start(self):
        noise = sample_noise(TOY, 3000, 1e-3, seed=4)
        traj = integrate(TOY, np.array([1.0, -0.5]), noise, record_every=1000)
        v_at_units = lyapunov(TOY, traj.states[:, 0])
        for n in range(3):
            assert traj.w_sup[n, 0] >= v_at_units[n] - 1e-12
            assert traj.w_sup[n, 0] >= v_at_units[n + 1] - 1e-12


class TestLinearLaw:
    # spectrum (-1, -0.5), B sends x0 into x1, noise on x0: the stepper is
    # the exact recursion x' = M x + N dω, so its law is known exactly
    MODEL = linear_model([-1.0, -0.5], [1.0], coupling=[[0.0, 0.0], [1.0, 0.0]])
    DT = 1e-3

    def test_the_noise_free_path_is_the_law_mean(self):
        steps, x0 = 4000, np.array([1.0, 0.5])
        noise = NoisePath(dt=self.DT, increments=np.zeros((steps, 1)))
        end = integrate(self.MODEL, x0, noise, record_every=steps).states[-1, 0]
        mean, _ = linear_law(self.MODEL, x0, self.DT, steps)
        np.testing.assert_allclose(end, mean, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("j", [0, 17, 399])
    def test_one_unit_increment_at_step_j_moves_the_path_by_m_power_n(self, j):
        steps = 400
        increments = np.zeros((steps, 1))
        increments[j] = 1.0
        end = integrate(self.MODEL, np.zeros(2), NoisePath(dt=self.DT, increments=increments),
                        record_every=steps).states[-1, 0]
        m, n = linear_step(self.MODEL, self.DT)
        np.testing.assert_allclose(end, np.linalg.matrix_power(m, steps - 1 - j) @ n[:, 0],
                                   rtol=1e-12, atol=0.0)

    def test_a_streamed_ensemble_matches_the_law(self):
        paths, units, dt, x0 = 4000, 2, 1e-2, np.array([1.0, -0.5])
        states = run_ensemble(self.MODEL, x0, paths, units, dt, seed=17).states[-1]
        mean, cov = linear_law(self.MODEL, x0, dt, round(units / dt))
        mean_se = np.sqrt(np.diag(cov) / paths)
        assert np.all(np.abs(states.mean(axis=0) - mean) <= 4.0 * mean_se), (states.mean(axis=0), mean)
        # a Gaussian sample covariance entry has variance (Σ_ii Σ_jj + Σ_ij²) / (n - 1)
        cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / (paths - 1))
        assert np.all(np.abs(np.cov(states.T) - cov) <= 4.0 * cov_se), (np.cov(states.T), cov)

    def test_the_weak_error_is_second_order(self):
        # the gap from the discrete law to the system's own, over dt = 1e-2,
        # 5e-3 and 2.5e-3, shrinks by the factor 4 of a second-order scheme
        t, x0 = 2.0, np.array([1.0, -0.5])
        mean, cov = continuous_law(self.MODEL, x0, t)
        gaps = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            mean_d, cov_d = linear_law(self.MODEL, x0, dt, round(t / dt))
            gaps.append([np.abs(mean_d - mean).max(), np.abs(cov_d - cov).max()])
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all((3.8 <= ratios) & (ratios <= 4.2)), (gaps, ratios)

    @pytest.mark.parametrize("dt", [1e-2, 5e-3, 2.5e-3])
    def test_the_stationary_variance_ratio(self, dt):
        # a forced mode of rate s alone: the scheme's stationary variance is
        # (2 / s dt) tanh(s dt / 2) = 1 - (s dt)²/12 + O(dt⁴) of the true one;
        # s = -62 is reaction-diffusion's fastest forced mode
        s, t = -62.0, 1.0
        model = linear_model([s], [1.0])
        _, discrete = linear_law(model, [0.0], dt, round(t / dt))
        _, exact = continuous_law(model, [0.0], t)
        ratio = discrete[0, 0] / exact[0, 0]
        h = s * dt
        assert ratio == pytest.approx(2.0 / h * math.tanh(h / 2.0), rel=1e-12)
        assert abs(ratio - (1.0 - h * h / 12.0)) <= h**4 / 100.0


class TestCoupled:
    def test_diagonal_invariance_is_exact(self):
        binding = make_binding(TOY)
        x0 = np.array([1.0, 0.5])
        for seed in (0, 1):
            noise = sample_noise(TOY, 2000, 1e-3, seed=seed)
            traj = integrate_coupled(TOY, binding, x0, x0, noise)
            assert np.all(traj.rho == 0.0)
            assert traj.log_density[-1, 0] == 0.0
            np.testing.assert_array_equal(traj.y, traj.x)

    def test_difference_contracts(self):
        binding = make_binding(TOY)
        noise = sample_noise(TOY, 5000, 1e-3, seed=5)
        traj = integrate_coupled(
            TOY, binding, np.array([1.0, 0.0]), np.array([0.0, 1.0]), noise, record_every=500
        )
        rho = np.linalg.norm(traj.rho[:, 0], axis=-1)
        # |rho(t)| <= C |rho(0)| e^{-t} with a moderate constant
        assert np.all(rho <= 6.0 * rho[0] * np.exp(-traj.times))
        assert rho[-1] < 0.05 * rho[0]

    def test_zeta_tracks_exponential(self):
        binding = make_binding(TOY)
        noise = sample_noise(TOY, 3000, 1e-3, seed=6)
        traj = integrate_coupled(
            TOY, binding, np.array([0.5, -0.5]), np.array([1.2, 0.3]), noise, record_every=100
        )
        zeta0 = traj.zeta[0, 0, 0]
        expected = zeta0 * np.exp(-2.0 * traj.times)
        np.testing.assert_allclose(traj.zeta[:, 0, 0], expected, rtol=10 * 1e-3)

    def test_y_reconstruction_invariant(self):
        binding = make_binding(TOY)
        noise = sample_noise(TOY, 1000, 1e-3, seed=7)
        traj = integrate_coupled(TOY, binding, np.array([1.0, 0.0]), np.array([0.2, 0.4]), noise)
        np.testing.assert_allclose(traj.y, traj.x + traj.rho, rtol=1e-9)


class TestGirsanov:
    def test_null_binding_density_one(self):
        binding = constant_binding(TOY)
        noise = sample_noise(TOY, 500, 1e-3, seed=8)
        traj = integrate_coupled(TOY, binding, np.zeros(2), np.ones(2), noise)
        assert traj.log_density[-1, 0] == 0.0

    def test_constant_force_closed_form(self):
        c = 0.7
        const = constant_binding(TOY, c)
        noise = sample_noise(TOY, 1000, 1e-3, seed=9)
        traj = integrate_coupled(TOY, const, np.zeros(2), np.zeros(2), noise)
        omega_1 = noise.increments[:, 0].sum()
        assert traj.log_density[-1, 0] == pytest.approx(c * omega_1 - c**2 / 2.0, rel=1e-12)

    def test_overflow_flagged(self):
        huge = constant_binding(TOY, 2000.0)
        noise = sample_noise(TOY, 1000, 1e-3, seed=10)
        traj = integrate_coupled(TOY, huge, np.zeros(2), np.zeros(2), noise)
        assert traj.overflow[-1, 0]

    def test_ensemble_mean_density_near_one(self):
        binding = make_binding(TOY)
        x0 = np.array([1.0, 0.5])
        y0 = x0 + np.array([0.2, -0.1])
        ens = run_coupled_ensemble(TOY, binding, x0, y0, 2000, 1, 1e-3, seed=11)
        dens = np.exp(ens.log_density[-1][~ens.overflow[-1]])
        se = dens.std(ddof=1) / math.sqrt(len(dens))
        assert abs(dens.mean() - 1.0) <= 3.0 * se

    def test_mean_density_near_one_for_every_model(self):
        for model_id in BOUND_PAIRS:
            model, x0, y0 = bound_pair(model_id)
            binding = make_binding(model)
            ens = run_coupled_ensemble(model, binding, x0, y0, 400, 1, 2e-3, seed=22)
            dens = np.exp(ens.log_density[-1][~ens.overflow[-1]])
            se = dens.std(ddof=1) / math.sqrt(len(dens))
            assert abs(dens.mean() - 1.0) <= 3.0 * se, (
                f"{model.id}: mean density {dens.mean():.4f} ± {se:.4f}"
            )


class TestShiftNoise:
    def test_zero_force_is_identity(self):
        binding = constant_binding(TOY)
        noise = sample_noise(TOY, 200, 1e-3, seed=12)
        traj = integrate_coupled(TOY, binding, np.zeros(2), np.ones(2), noise)
        shifted = shift_noise(TOY, noise, traj, binding)
        np.testing.assert_array_equal(shifted.increments, noise.increments)

    def test_round_trip(self):
        binding = make_binding(TOY)
        noise = sample_noise(TOY, 1000, 1e-3, seed=13)
        traj = integrate_coupled(TOY, binding, np.array([1.0, 0.0]), np.array([0.0, 0.5]), noise)
        back = shift_noise(TOY, shift_noise(TOY, noise, traj, binding), traj, binding, inverse=True)
        assert np.abs(back.increments - noise.increments).max() <= 1e-12

    def test_resimulation_reproduces_bound_copy(self):
        # integrating the second copy alone under the shifted noise must
        # reproduce the coupled y path up to scheme error
        binding = make_binding(TOY)
        noise = sample_noise(TOY, 2000, 1e-3, seed=14)
        x0, y0 = np.array([1.0, 0.0]), np.array([0.3, 0.6])
        traj = integrate_coupled(TOY, binding, x0, y0, noise)
        shifted = shift_noise(TOY, noise, traj, binding)
        replay = integrate(TOY, y0, shifted)
        err = np.abs(replay.states - traj.y).max()
        assert err <= 50 * 1e-3

    def test_length_mismatch(self):
        binding = make_binding(TOY)
        noise = sample_noise(TOY, 100, 1e-3, seed=15)
        traj = integrate_coupled(TOY, binding, np.zeros(2), np.ones(2), noise)
        other = sample_noise(TOY, 50, 1e-3, seed=15)
        with pytest.raises(EngineError, match="step counts"):
            shift_noise(TOY, other, traj, binding)

    def test_pair_recorded_every_second_step_rejected(self):
        binding = make_binding(TOY)
        noise = sample_noise(TOY, 100, 1e-3, seed=16)
        traj = integrate_coupled(TOY, binding, np.zeros(2), np.ones(2), noise, record_every=2)
        with pytest.raises(EngineError, match="every step"):
            shift_noise(TOY, noise, traj, binding)

    def test_two_paths_rejected(self):
        binding = make_binding(TOY)
        pairs = run_coupled_ensemble(TOY, binding, np.zeros(2), np.ones(2), 2, 1, 1e-2, seed=16,
                                     record_every=1)
        noise = sample_noise(TOY, 100, 1e-2, seed=16)
        with pytest.raises(EngineError, match="one path"):
            shift_noise(TOY, noise, pairs, binding)


@pytest.mark.parametrize("model_id", list(BOUND_PAIRS))
def test_shift_noise_applies_the_force_the_stepper_applied(model_id):
    # the stepper evaluates G at each step's left point, shifts the noise
    # of the bound copy by G dt, and sums G·Δω - |G|²dt/2 and |G|²dt
    # sequentially; the shift read back from the recorded pair must agree
    # bit for bit, so evaluating G anywhere else shows
    model, x0, y0 = bound_pair(model_id)
    binding = make_binding(model)
    noise = sample_noise(model, 200, 2e-3, seed=26)
    pair = integrate_coupled(model, binding, x0, y0, noise)
    force = force_at(model, binding, pair.x[:-1, 0], pair.x[:-1, 0] + pair.rho[:-1, 0])
    assert np.abs(force).max() > 0.0
    shifted = shift_noise(model, noise, pair, binding)
    np.testing.assert_array_equal(shifted.increments, noise.increments + force * noise.dt)
    log_density, g_l2, _ = girsanov_sums(force, noise.increments, noise.dt)
    np.testing.assert_array_equal(pair.log_density[:, 0], log_density)
    np.testing.assert_array_equal(pair.g_l2[:, 0], g_l2)


class TestEnsembles:
    def test_matches_single_trajectories_bitwise(self):
        ens = run_ensemble(TOY, np.array([0.5, -0.5]), 3, 2, 1e-3, seed=17, record_every=500,
                           w_sups=True)
        for i in range(3):
            noise = sample_noise(TOY, 2000, 1e-3, seed=17, stream=i)
            traj = integrate(TOY, np.array([0.5, -0.5]), noise, record_every=500)
            np.testing.assert_array_equal(ens.states[:, i], traj.states[:, 0])
            np.testing.assert_array_equal(ens.w_sup[:, i], traj.w_sup[:, 0])

    def test_coupled_matches_single(self):
        binding = make_binding(TOY)
        x0, y0 = np.array([1.0, 0.5]), np.array([0.6, 0.8])
        ens = run_coupled_ensemble(TOY, binding, x0, y0, 2, 1, 1e-3, seed=18, record_every=250)
        for i in range(2):
            noise = sample_noise(TOY, 1000, 1e-3, seed=18, stream=i)
            traj = integrate_coupled(TOY, binding, x0, y0, noise, record_every=250)
            np.testing.assert_array_equal(ens.x[:, i], traj.x[:, 0])
            np.testing.assert_array_equal(ens.rho[:, i], traj.rho[:, 0])
            np.testing.assert_array_equal(ens.log_density[:, i], traj.log_density[:, 0])

    def test_lyapunov_drift_contracts(self):
        # one-step conditional mean of V must sit below V at large amplitude
        ens = run_ensemble(TOY, np.array([4.0, -4.0]), 200, 1, 1e-3, seed=19)
        v1 = lyapunov(TOY, ens.states[-1]).mean()
        assert v1 < 0.9 * lyapunov(TOY, np.array([4.0, -4.0]))

    def test_w_sup_mean_bounded(self):
        x0 = np.array([2.0, 1.0])
        ens = run_ensemble(TOY, x0, 200, 1, 1e-3, seed=20, w_sups=True)
        v0 = lyapunov(TOY, x0)
        assert ens.w_sup[0].mean() <= 3.0 * v0 + 4.0


    def test_w_sups_are_the_running_max_of_the_model_lyapunov_map(self):
        # a model's own V, not a norm the engine picks, is what the W sups track
        model = ModelSpec(
            id="toy2d",
            dim=2,
            linear_spectrum=TOY.linear_spectrum,
            nonlinearity=TOY.nonlinearity,
            lyapunov=lambda x: 4.0 * (x * x).sum(-1),
            noise_coeffs=np.array([1.0]),
            params={},
        )
        x0, y0 = np.array([1.0, 0.5]), np.array([0.6, 0.8])
        ens = run_ensemble(model, x0, 3, 2, 1e-2, seed=21, record_every=1, w_sups=True)
        pair = run_coupled_ensemble(model, make_binding(model), x0, y0, 3, 2, 1e-2, seed=21,
                                    record_every=1, w_sups=True)
        for w_sup, states in ((ens.w_sup, ens.states), (pair.w_sup_x, pair.x),
                              (pair.w_sup_y, pair.y)):
            v = 4.0 * (states * states).sum(-1)
            running_max = np.stack([v[u * 100 : (u + 1) * 100 + 1].max(axis=0) for u in range(2)])
            np.testing.assert_array_equal(w_sup, running_max)

    def test_zero_units_keep_the_path_axis(self):
        x0 = np.array([1.0, 0.5])
        ens = run_ensemble(TOY, x0, 4, 0, 1e-3, seed=24, w_sups=True)
        pair = run_coupled_ensemble(TOY, make_binding(TOY), x0, x0 + 0.1, 4, 0, 1e-3, seed=24,
                                    w_sups=True)
        assert ens.w_sup.shape == pair.w_sup_x.shape == pair.w_sup_y.shape == (0, 4)
        assert ens.states.shape == pair.x.shape == (1, 4, 2)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(EngineError, match="n_traj"):
            run_ensemble(TOY, np.zeros(2), 0, 1, 1e-3, seed=25)
        with pytest.raises(EngineError, match="n_traj"):
            run_coupled_ensemble(TOY, make_binding(TOY), np.zeros(2), np.ones(2), 0, 1, 1e-3, seed=25)

    @pytest.mark.parametrize("run, match", [
        (lambda: run_ensemble(TOY, np.zeros(2), 2, -1, 0.01, 3), "units=-1"),
        (lambda: run_coupled_ensemble(TOY, make_binding(TOY), np.zeros(2), np.ones(2), 2, -1, 0.01, 3),
         "units=-1"),
        (lambda: run_ensemble(TOY, np.zeros(2), 2, 2, 0.01, 3, start_unit=-1), "start_unit=-1"),
        (lambda: run_ensemble(TOY, np.zeros(3), 2, 2, 0.01, 3), r"shape \(3,\)"),
        (lambda: run_ensemble(TOY, np.zeros((3, 2)), 2, 2, 0.01, 3), r"shape \(3, 2\)"),
        (lambda: run_coupled_ensemble(TOY, make_binding(TOY), np.zeros(2), np.ones(3), 2, 2, 0.01, 3),
         r"shape \(3,\)"),
        (lambda: run_coupled_ensemble(TOY, make_binding(TOY), np.zeros(2), np.ones((3, 2)), 2, 2,
                                      0.01, 3), r"shape \(3, 2\)"),
    ], ids=["negative-units", "negative-units-coupled", "negative-start-unit", "short-x0",
            "x0-per-path-miscounted", "short-y0", "y0-per-path-miscounted"])
    def test_bad_run_inputs_rejected(self, run, match):
        # each would otherwise run from a time whose noise was never
        # skipped, or die in indexing or in numpy broadcasting
        with pytest.raises(EngineError, match=match):
            run()


@pytest.mark.parametrize("coupled", [False, True])
def test_given_noise_starts_are_checked_as_an_ensemble_of_ones(coupled):
    # a (1, dim) start runs as the (dim,) start does; a (2, dim) one is
    # refused with the message run_ensemble gives for one path
    noise = sample_noise(TOY, 200, 1e-3, seed=2)
    binding = make_binding(TOY)

    def run(x0, y0):
        return integrate_coupled(TOY, binding, x0, y0, noise) if coupled else integrate(TOY, x0, noise)

    x0, y0 = np.array([1.0, 0.5]), np.array([0.7, 0.2])
    flat, rows = run(x0, y0), run(x0[None], y0[None])
    for field in fields(flat):
        np.testing.assert_array_equal(getattr(rows, field.name), getattr(flat, field.name))
    message = re.escape("initial condition has shape (2, 2), expected (2,) or (1, 2)")
    with pytest.raises(EngineError, match=message):
        run_ensemble(TOY, np.zeros((2, 2)), 1, 1, 1e-3, seed=0)
    bad = [(np.zeros((2, 2)), y0)] + ([(x0, np.zeros((2, 2)))] if coupled else [])
    for starts in bad:
        with pytest.raises(EngineError, match=message):
            run(*starts)


@pytest.mark.parametrize("n_traj", [1, 9])
@pytest.mark.parametrize("model_id", list(BOUND_PAIRS))
def test_uncoupled_run_is_the_x_half_of_the_coupled_run(model_id, n_traj):
    # the bound copy must not feed back into x: with the same noise, the
    # uncoupled paths equal the x half of the coupled ones bit for bit
    model, x0, y0 = bound_pair(model_id)
    binding = make_binding(model)
    ens = run_ensemble(model, x0, n_traj, 1, 2e-3, seed=23, record_every=50, w_sups=True)
    pair = run_coupled_ensemble(model, binding, x0, y0, n_traj, 1, 2e-3, seed=23, record_every=50,
                                w_sups=True)
    np.testing.assert_array_equal(ens.states, pair.x)
    np.testing.assert_array_equal(ens.w_sup, pair.w_sup_x)
    noise = sample_noise(model, 500, 2e-3, seed=23, stream=n_traj)
    traj = integrate(model, x0, noise, record_every=50)
    coupled = integrate_coupled(model, binding, x0, y0, noise, record_every=50)
    np.testing.assert_array_equal(traj.states, coupled.x)
    np.testing.assert_array_equal(traj.w_sup, coupled.w_sup_x)


# the sizes the CLI and the presets run: GL at 32 modes, RD at 16 per component
FULL_SIZE = {
    "toy2d": lambda: TOY,
    "ginzburg_landau": lambda: make_ginzburg_landau(modes=32),
    "reaction_diffusion": lambda: make_reaction_diffusion(modes_per_component=16),
    "chain": lambda: make_chain(a_squared=2.0),
}


@pytest.mark.parametrize("model_id", list(BOUND_PAIRS))
def test_a_shorter_run_is_the_head_of_a_longer_one(model_id):
    # the run command reads every horizon from one ensemble as long as the
    # longest: noise draws are sequential, and every per-record field, the
    # running ||G||² and the sticky overflow flag included, is as of its record
    model, x0, y0 = bound_pair(model_id)
    binding = make_binding(model)
    for record_every in (None, 50):
        pair = partial(run_coupled_ensemble, model, binding, x0, y0, 3, dt=2e-3, seed=30,
                       record_every=record_every)
        single = partial(run_ensemble, model, x0, 3, dt=2e-3, seed=30, record_every=record_every)
        for run, kind in ((pair, CoupledEnsembleResult), (single, EnsembleResult)):
            short, head = run(units=1), run(units=3).head(1)
            for field in fields(kind):
                np.testing.assert_array_equal(getattr(head, field.name), getattr(short, field.name),
                                              err_msg=f"record_every={record_every}: {field.name}")


def assert_batches_equal(got, expected, where):
    """Every field equal bit for bit, but the times, which may be summed
    in another order."""
    for field in fields(expected):
        value = getattr(expected, field.name)
        if field.name == "times":
            np.testing.assert_allclose(got.times, value, rtol=0, atol=1e-12, err_msg=where)
        else:
            np.testing.assert_array_equal(getattr(got, field.name), value,
                                          err_msg=f"{where}: {field.name}")


@pytest.mark.parametrize("model_id", list(BOUND_PAIRS))
def test_records_thin_out_and_a_run_continues_from_its_last_record(model_id):
    # the run command records densely only over the plotted units, and
    # carries the x paths on uncoupled past the bound pair's last reader
    model, x0, y0 = bound_pair(model_id)
    binding = make_binding(model)
    pair = partial(run_coupled_ensemble, model, binding, x0, y0, 3, dt=2e-3, seed=31,
                   record_every=50)
    dense, thin = pair(units=3), pair(units=3, dense_units=1)
    assert len(thin.times) == 10 + 2 + 1
    assert_batches_equal(thin.head(1), dense.head(1), "dense head")
    assert_batches_equal(thin.at_units(), dense.at_units(), "unit records")
    assert_batches_equal(run_ensemble(model, x0, 3, 3, 2e-3, seed=31), dense.x_half().at_units(),
                         "a run recorded once a unit")
    for couple_units in (1, 2):
        head = pair(units=couple_units, dense_units=1).x_half()
        later = run_ensemble(model, head.states[-1], 3, 3 - couple_units, 2e-3, seed=31,
                             record_every=50, dense_units=1, start_unit=couple_units)
        assert_batches_equal(head.then(later), thin.x_half(), f"continued at {couple_units}")
    with pytest.raises(EngineError, match="last record"):
        thin.x_half().then(later)


def assert_paths_equal(joined, whole, where, first=0):
    """Every field of ``joined`` equals that of the paths of ``whole`` from
    path ``first`` on."""
    for field in fields(whole):
        got, value = getattr(joined, field.name), getattr(whole, field.name)
        if field.name != "times" and value is not None:
            value = value[:, first : first + got.shape[1]]
        np.testing.assert_array_equal(got, value, err_msg=f"{where}: {field.name}")


@pytest.mark.parametrize("model_id", list(FULL_SIZE))
def test_paths_do_not_depend_on_the_batch_they_share(model_id):
    # the --jobs promise rests on this: a path's bits depend only on its
    # start and its noise stream, not on how many paths share its batch.
    # The far start has every component order one or more, so that V(x0),
    # the first W sup, sums terms of mixed size: summed in another order
    # (a batch copied in Fortran order), it rounds differently.  A coupled
    # batch of n paths makes 2n-row transforms: 9 and 17 paths cross the
    # 8-row block and the BLAS gemm blocking.  A lone uncoupled GL path
    # makes 1-row transforms, which a plain matmul runs as a gemv.
    model, x0, y0 = bound_pair(model_id, FULL_SIZE[model_id]())
    far = 3.0 * np.random.default_rng(3).normal(size=model.dim)
    binding = make_binding(model)
    for start, (a0, b0) in (("near", (x0, y0)), ("far", (far, far + (y0 - x0)))):
        run = partial(run_coupled_ensemble, model, binding, a0, b0, units=1, dt=2e-3, seed=29,
                      record_every=50)
        whole = run(17)
        batches = {
            "1 x 7": CoupledEnsembleResult.concat([run(1, stream0=i) for i in range(7)]),
            "3 + 4": CoupledEnsembleResult.concat([run(3), run(4, stream0=3)]),
            "9 + 8": CoupledEnsembleResult.concat([run(9), run(8, stream0=9)]),
        }
        for name, joined in batches.items():
            assert_paths_equal(joined, whole, f"{start} start, batches {name}")
        lone = EnsembleResult.concat([
            run_ensemble(model, a0, 1, 1, 2e-3, seed=29, stream0=i, record_every=50) for i in range(7)
        ])
        assert_paths_equal(lone, whole.x_half(), f"{start} start, uncoupled 1 x 7")
        noise = sample_noise(model, 500, 2e-3, seed=29, stream=4)
        traj = integrate_coupled(model, binding, a0, b0, noise, record_every=50)
        assert_paths_equal(traj, whole, f"{start} start, one path", first=4)


def block_rows(model, n_paths, rows):
    """A noise budget that holds ``rows`` steps of ``n_paths`` paths."""
    return 8 * n_paths * model.n_noise * rows


@pytest.mark.parametrize("budget_rows", [None, 7], ids=["unit-blocks", "7-step-blocks"])
@pytest.mark.parametrize("model_id", list(BOUND_PAIRS))
def test_streamed_runs_equal_the_one_draw_oracle(model_id, budget_rows, monkeypatch):
    # an ensemble draws its noise a block at a time; path i must be, bit for
    # bit, the given-noise integration of sample_noise's one draw of stream
    # i, also with blocks that cut across the unit intervals, and a run
    # continued at start_unit must carry on the oracle's path
    model, x0, y0 = bound_pair(model_id)
    binding = make_binding(model)
    n, units, dt = 3, 3, 2e-3
    spu = round(1 / dt)
    if budget_rows is not None:
        monkeypatch.setattr(engine, "_NOISE_BLOCK_BYTES", block_rows(model, n, budget_rows))
    ens = run_ensemble(model, x0, n, units, dt, seed=33, record_every=50, w_sups=True)
    pairs = run_coupled_ensemble(model, binding, x0, y0, n, units, dt, seed=33, record_every=50,
                                 w_sups=True)
    noises = [sample_noise(model, units * spu, dt, seed=33, stream=i) for i in range(n)]
    paths = [integrate(model, x0, noise, record_every=50) for noise in noises]
    assert_paths_equal(ens, EnsembleResult.concat(paths), "uncoupled run")
    coupled = [integrate_coupled(model, binding, x0, y0, noise, record_every=50) for noise in noises]
    assert_paths_equal(pairs, CoupledEnsembleResult.concat(coupled), "coupled run")
    for start_unit in (1, 2):
        first = 10 * start_unit  # the record at time start_unit
        starts = np.stack([path.states[first, 0] for path in paths])
        later = run_ensemble(model, starts, n, units - start_unit, dt, seed=33, record_every=50,
                             start_unit=start_unit, w_sups=True)
        for i, path in enumerate(paths):
            where = f"continued at {start_unit}, path {i}"
            np.testing.assert_allclose(later.times, path.times[first:], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(later.states[:, i], path.states[first:, 0], err_msg=where)
            np.testing.assert_array_equal(later.w_sup[:, i], path.w_sup[start_unit:, 0], err_msg=where)


@pytest.mark.parametrize("sizes, message", [
    ((4, 5), "covers 9 of the records' 10 steps"),
    ((6, 6), "more than the records' 10 steps"),
    ((10, 1), "more than the records' 10 steps"),
    ((), "covers 0 of the records' 10 steps"),
])
@pytest.mark.parametrize("coupled", [False, True])
def test_noise_must_cover_the_records_exactly(sizes, message, coupled):
    scheme = engine._Scheme(TOY, 1e-3)
    blocks = iter([np.zeros((k, 1, TOY.n_noise)) for k in sizes])
    binding, rho0 = (make_binding(TOY), np.full((1, 2), 0.1)) if coupled else (None, None)
    with pytest.raises(EngineError, match=re.escape(message)):
        engine._integrate_batch(TOY, scheme, np.ones((1, 2)), blocks, engine._records(1e-3, 1, 10),
                                binding, rho0)


@pytest.mark.parametrize("budget_rows", [None, 300])
def test_noise_blocks_stay_within_a_unit_and_the_budget(budget_rows, monkeypatch):
    # the noise of a 2000-path run is held a block at a time, in one buffer
    n, units, dt = 2000, 2, 2e-3
    spu = round(1 / dt)
    if budget_rows is not None:
        monkeypatch.setattr(engine, "_NOISE_BLOCK_BYTES", block_rows(TOY, n, budget_rows) + 8)
    blocks = []
    stepper = engine._integrate_batch

    def spy(model, scheme, x0, noise, *args):
        def seen():
            for block in noise:
                blocks.append((block.shape, block.nbytes, block.__array_interface__["data"][0]))
                yield block
        return stepper(model, scheme, x0, seen(), *args)

    monkeypatch.setattr(engine, "_integrate_batch", spy)
    run_ensemble(TOY, np.array([0.5, -0.5]), n, units, dt, seed=34, start_unit=1)
    shapes, sizes, buffers = zip(*blocks)
    assert sum(shape[0] for shape in shapes) == units * spu
    assert {shape[1:] for shape in shapes} == {(n, TOY.n_noise)}
    # unset, the budget rule sets the rows: 1 MiB // (8 * 2000 * 1) = 65
    budget_rule = engine._NOISE_BLOCK_BYTES // (8 * n * TOY.n_noise)
    assert max(shape[0] for shape in shapes) == min(spu, budget_rows or budget_rule)
    assert max(sizes) <= engine._NOISE_BLOCK_BYTES
    assert len(set(buffers)) == 1


def test_the_budget_holds_the_drawn_block_of_a_finer_noise(monkeypatch):
    # drawn at half the step, a block of the same bytes covers half the steps
    n, units, dt = 2000, 2, 2e-3
    rows = []
    stepper = engine._integrate_batch

    def spy(model, scheme, x0, noise, *args):
        def seen():
            for block in noise:
                rows.append(len(block))
                yield block
        return stepper(model, scheme, x0, seen(), *args)

    monkeypatch.setattr(engine, "_integrate_batch", spy)
    run_ensemble(TOY, np.array([0.5, -0.5]), n, units, dt, seed=34, start_unit=1, noise_dt=dt / 2)
    assert sum(rows) == units * round(1 / dt)
    # 1 MiB // (8 * 2 * 2000 * 1) = 32 steps of 2 drawn increments each
    assert max(rows) == engine._NOISE_BLOCK_BYTES // (8 * 2 * n * TOY.n_noise) == 32


def run_pair(model_id, coupled, **kwargs):
    """An ensemble of ``model_id``'s bound pair, or of its ``x`` alone."""
    model, x0, y0 = bound_pair(model_id)
    if coupled:
        return run_coupled_ensemble(model, make_binding(model), x0, y0, w_sups=True, **kwargs)
    return run_ensemble(model, x0, w_sups=True, **kwargs)


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("model_id", list(BOUND_PAIRS))
def test_noise_drawn_at_the_step_is_the_default_noise(model_id, coupled):
    run = partial(run_pair, model_id, coupled, n_traj=3, units=1, dt=2e-3, seed=36, record_every=50)
    assert_paths_equal(run(noise_dt=2e-3), run(), "noise_dt=dt")


@pytest.mark.parametrize("budget_rows", [None, 7], ids=["unit-blocks", "7-step-blocks"])
@pytest.mark.parametrize("model_id", list(BOUND_PAIRS))
def test_a_step_takes_the_sum_of_the_finer_increments_inside_it(model_id, budget_rows, monkeypatch):
    # a run at dt on noise drawn at dt/2 is, path by path, the given-noise
    # pair on that stream's one draw at dt/2 summed in pairs (two terms
    # have one sum), also with blocks that cut across the unit intervals
    model, x0, y0 = bound_pair(model_id)
    binding = make_binding(model)
    n, units, dt = 3, 2, 2e-3
    if budget_rows is not None:
        monkeypatch.setattr(engine, "_NOISE_BLOCK_BYTES", block_rows(model, n, budget_rows))
    pairs = run_coupled_ensemble(model, binding, x0, y0, n, units, dt, seed=37, record_every=50,
                                 w_sups=True, noise_dt=dt / 2)
    for i in range(n):
        fine = sample_noise(model, 2 * units * round(1 / dt), dt / 2, seed=37, stream=i)
        summed = NoisePath(dt, fine.increments[0::2] + fine.increments[1::2])
        pair = integrate_coupled(model, binding, x0, y0, summed, record_every=50)
        assert_paths_equal(pair, pairs, f"path {i}", first=i)


@pytest.mark.parametrize("model_id", ["toy2d", "chain"])
def test_a_run_on_finer_noise_continues_from_its_last_record(model_id, monkeypatch):
    # start_unit skips twice the draws per unit, as the longer run drew them
    model, x0, _ = bound_pair(model_id)
    monkeypatch.setattr(engine, "_NOISE_BLOCK_BYTES", block_rows(model, 3, 7))
    run = partial(run_ensemble, model, n_traj=3, dt=2e-3, seed=38, record_every=50, w_sups=True,
                  noise_dt=1e-3)
    whole, head = run(x0, units=3), run(x0, units=1)
    later = run(head.states[-1], units=2, start_unit=1)
    assert_batches_equal(head.then(later), whole, "continued at 1")


@pytest.mark.parametrize("noise_dt", [3e-3, 2e-2, 0.0], ids=["not-a-divisor", "coarser", "zero"])
@pytest.mark.parametrize("coupled", [False, True])
def test_a_noise_dt_that_does_not_divide_dt_is_refused(noise_dt, coupled):
    with pytest.raises(EngineError, match=f"noise_dt={noise_dt:g} must divide dt=0.01"):
        run_pair("toy2d", coupled, n_traj=2, units=1, dt=1e-2, seed=39, noise_dt=noise_dt)


UNIT_FIELDS = ("w_sup", "w_sup_x", "w_sup_y")


def assert_sups_off(off, on, where):
    """``off`` holds no W sups and every other field of ``on``, bit for bit."""
    for field in fields(on):
        if field.name in UNIT_FIELDS:
            assert getattr(off, field.name) is None, f"{where}: {field.name}"
        else:
            np.testing.assert_array_equal(getattr(off, field.name), getattr(on, field.name),
                                          err_msg=f"{where}: {field.name}")


@pytest.mark.parametrize("model_id", list(BOUND_PAIRS))
def test_runs_without_w_sups_change_nothing_else(model_id):
    # the W sups are read by axk and density alone: a run that skips them
    # makes the same paths, weights and flags bit for bit, and a run that
    # keeps them has, per unit, the running max of the model's V over
    # every step, on x and on y = x + rho
    model, x0, y0 = bound_pair(model_id)
    binding = make_binding(model)
    units, dt, spu = 2, 1e-2, 100
    for run in (partial(run_ensemble, model, x0), partial(run_coupled_ensemble, model, binding, x0, y0)):
        on, off = (run(3, units, dt, seed=43, record_every=1, w_sups=flag) for flag in (True, False))
        assert_sups_off(off, on, run.func.__name__)
        copies = ((on.w_sup, on.states),) if run.func is run_ensemble else (
            (on.w_sup_x, on.x), (on.w_sup_y, on.y))
        for w_sup, states in copies:
            v = lyapunov(model, states)
            running_max = np.stack([v[u * spu : (u + 1) * spu + 1].max(axis=0) for u in range(units)])
            np.testing.assert_array_equal(w_sup, running_max)


def test_a_run_without_w_sups_makes_no_lyapunov_call():
    calls = []

    def counted(x):
        calls.append(x.shape)
        return (x * x).sum(-1)

    model = ModelSpec(id="toy2d", dim=2, linear_spectrum=TOY.linear_spectrum,
                      nonlinearity=TOY.nonlinearity, lyapunov=counted,
                      noise_coeffs=np.array([1.0]), params={})
    binding = make_binding(model)
    x0, y0 = np.array([1.0, 0.5]), np.array([0.6, 0.8])
    for w_sups, per_run in ((False, []), (True, [(1, 3, 2)] * 201)):
        calls.clear()
        run_ensemble(model, x0, 3, 2, 1e-2, seed=44, w_sups=w_sups)
        uncoupled = list(calls)
        run_coupled_ensemble(model, binding, x0, y0, 3, 2, 1e-2, seed=44, w_sups=w_sups)
        assert uncoupled == per_run
        assert calls[len(uncoupled):] == [(2,) + shape[1:] for shape in per_run]


def test_batches_without_w_sups_carry_none_through():
    # head, at_units, x_half, then and concat hold None where the run kept
    # no sups, and every other field as with sups; parts that disagree on
    # the sups are refused
    model, x0, y0 = bound_pair("toy2d")
    binding = make_binding(model)

    def joined(w_sups):
        pair = partial(run_coupled_ensemble, model, binding, x0, y0, dt=2e-3, seed=45,
                       record_every=50, w_sups=w_sups)
        first, second = pair(3, 2), pair(2, 2, stream0=3)
        later = run_ensemble(model, first.x[-1], 3, 1, 2e-3, seed=45, record_every=50,
                             start_unit=2, w_sups=w_sups)
        return first, later, {
            "head": first.head(1),
            "at_units": first.at_units(),
            "x_half": first.x_half(),
            "then": first.x_half().then(later),
            "concat": CoupledEnsembleResult.concat([first, second]),
            "concat x halves": EnsembleResult.concat([first.x_half(), second.x_half()]),
        }

    on_first, on_later, on = joined(True)
    off_first, off_later, off = joined(False)
    for name, batch in off.items():
        assert_sups_off(batch, on[name], name)
    with pytest.raises(EngineError, match="w_sup_x is held by some of the batches only"):
        CoupledEnsembleResult.concat([on_first, off_first])
    with pytest.raises(EngineError, match="w_sup is held by some of the batches only"):
        off_first.x_half().then(on_later)
    with pytest.raises(EngineError, match="w_sup is held by some of the batches only"):
        EnsembleResult.concat([off_first.x_half(), on_first.x_half()])


def test_a_force_of_the_wrong_shape_is_refused():
    flat = BindingSpec(model_id="toy2d", force=lambda xy, f_xy: (xy[1] - xy[0])[..., 0])
    with pytest.raises(EngineError, match=re.escape("has shape (2,), expected (2, 1)")):
        run_coupled_ensemble(TOY, flat, np.zeros(2), np.ones(2), 2, 1, 1e-2, seed=1)


def fold_bytes(model, n_paths, rows):
    """A fold budget that holds ``rows`` steps of ``n_paths`` paths."""
    return 8 * n_paths * (3 * model.n_noise + 10) * rows


@pytest.mark.parametrize("model_id", [*BOUND_PAIRS, "constant"])
def test_girsanov_folds_equal_a_step_by_step_sum(model_id, monkeypatch):
    # the stepper buffers each step's force and folds the Girsanov sums at
    # each record, when its buffer (3 steps here) is full and at the end of
    # each noise block (7 steps here, cutting across records and unit
    # ends); the log weight, ||G||² dt and the sticky overflow flag written
    # into each record must be, bit for bit, the sums of a plain
    # step-by-step loop over the force at the pair recorded at every step.
    # The overflow bound is lowered so that the constant force's log
    # weight crosses it and comes back: the flag must stay set.  Dropping
    # the carry of any running sum or of the flag into a fold fails this test.
    if model_id == "constant":
        model, binding = TOY, constant_binding(TOY, 3.0)
        x0, y0 = np.array([1.0, 0.5]), np.array([1.2, 0.4])
    else:
        model, x0, y0 = bound_pair(model_id)
        binding = make_binding(model)
    units, dt, buffer, block = 2, 2e-3, 3, 7
    steps = units * round(1 / dt)
    monkeypatch.setattr(engine, "LOG_DENSITY_OVERFLOW", 1.0)
    folds = []
    fold = engine._fold_girsanov

    def spy(g, dw, *args):
        folds.append(dw.copy())
        return fold(g, dw, *args)

    monkeypatch.setattr(engine, "_fold_girsanov", spy)
    for record_every, n in itertools.product((1, 4), (1, 2)):
        monkeypatch.setattr(engine, "_FOLD_BYTES", fold_bytes(model, n, buffer))
        monkeypatch.setattr(engine, "_NOISE_BLOCK_BYTES", 8 * n * model.n_noise * block)
        folds.clear()
        pairs = run_coupled_ensemble(model, binding, x0, y0, n, units, dt, seed=41,
                                     record_every=record_every)
        # each fold ends at a record, a full buffer or a block end, takes
        # no record before its last step, and the folds take every step's
        # increments once, in order
        lengths = np.array([len(dw) for dw in folds])
        ends = np.cumsum(lengths)
        at_record, full, block_end = ends % record_every == 0, lengths == buffer, ends % block == 0
        assert (at_record | full | block_end).all()
        assert ((ends - 1) // record_every == (ends - lengths) // record_every).all()
        if record_every > 1:
            assert (full & ~at_record).any() and (block_end & ~full & ~at_record).any()
        noise = [sample_noise(model, steps, dt, seed=41, stream=i) for i in range(n)]
        np.testing.assert_array_equal(np.concatenate(folds),
                                      np.stack([path.increments for path in noise], axis=1))

        dense = pairs if record_every == 1 else run_coupled_ensemble(
            model, binding, x0, y0, n, units, dt, seed=41, record_every=1)
        for name in ("x", "rho", "log_density", "g_l2", "overflow"):
            np.testing.assert_array_equal(getattr(pairs, name),
                                          getattr(dense, name)[::record_every], err_msg=name)
        for i in range(n):
            force = force_at(model, binding, dense.x[:-1, i], dense.y[:-1, i])
            expected = girsanov_sums(force, noise[i].increments, dt)
            for name, values in zip(("log_density", "g_l2", "overflow"), expected):
                np.testing.assert_array_equal(getattr(dense, name)[:, i], values,
                                              err_msg=f"{n} paths, path {i}: {name}")
        if model_id == "constant":
            flagged_below = dense.overflow & (np.abs(dense.log_density) <= 1.0)
            assert flagged_below.any(axis=0).all()


@pytest.mark.parametrize("n_traj", [1, 3, 9])
@pytest.mark.parametrize("model_id", list(BOUND_PAIRS))
def test_the_force_reuses_the_stage_nonlinearity(model_id, n_traj, monkeypatch):
    # a coupled step evaluates the nonlinearity once per Heun stage on the
    # stacked (x, y) rows, and the binding force takes those values
    # instead of evaluating it again
    model, x0, y0 = bound_pair(model_id)
    binding = make_binding(model)
    nonlinearity, calls = model.nonlinearity, []

    def counted(state):
        calls.append(state.shape)
        return nonlinearity(state)

    monkeypatch.setattr(model, "nonlinearity", counted)
    run_coupled_ensemble(model, binding, x0, y0, n_traj, 1, 2e-3, seed=42)
    assert calls == [(2, n_traj, model.dim)] * 2 * 500
