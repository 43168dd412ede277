"""Integrator correctness: exactness, coupling semantics, Girsanov weights."""

import math
import pickle
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from asymcouple.binding import BindingSpec, make_binding, null_binding
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
    LyapunovSpec,
    ModelSpec,
    lyapunov,
    make_chain,
    make_ginzburg_landau,
    make_reaction_diffusion,
    make_toy2d,
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


def scalar_model(rate=-1.0):
    return ModelSpec(
        id="toy2d",
        dim=1,
        linear_spectrum=np.array([rate]),
        nonlinearity=lambda x: np.zeros_like(x),
        noise_dims=np.array([0]),
        noise_coeffs=np.array([1.0]),
        params={},
        lyapunov_spec=LyapunovSpec(name="l2_norm"),
    )


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
        model = scalar_model(-1.0)
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

    def test_blow_up_survives_a_pickle_round_trip(self):
        # a process pool sends a worker's exception back pickled
        err = pickle.loads(pickle.dumps(BlowUpError(0.123)))
        assert isinstance(err, BlowUpError)
        assert err.time == 0.123
        assert str(err) == "blow-up at t=0.123"

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

    def test_w_sup_dominates_interval_start(self):
        noise = sample_noise(TOY, 3000, 1e-3, seed=4)
        traj = integrate(TOY, np.array([1.0, -0.5]), noise, record_every=1000)
        v_at_units = lyapunov(TOY, traj.states[:, 0])
        for n in range(3):
            assert traj.w_sup[n, 0] >= v_at_units[n] - 1e-12
            assert traj.w_sup[n, 0] >= v_at_units[n + 1] - 1e-12


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
        binding = null_binding(TOY)
        noise = sample_noise(TOY, 500, 1e-3, seed=8)
        traj = integrate_coupled(TOY, binding, np.zeros(2), np.ones(2), noise)
        assert traj.log_density[-1, 0] == 0.0

    def test_constant_force_closed_form(self):
        c = 0.7
        const = BindingSpec(
            model_id="toy2d",
            force=lambda x, y: np.full(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (1,), c),
        )
        noise = sample_noise(TOY, 1000, 1e-3, seed=9)
        traj = integrate_coupled(TOY, const, np.zeros(2), np.zeros(2), noise)
        omega_1 = noise.increments[:, 0].sum()
        assert traj.log_density[-1, 0] == pytest.approx(c * omega_1 - c**2 / 2.0, rel=1e-12)

    def test_overflow_flagged(self):
        huge = BindingSpec(
            model_id="toy2d",
            force=lambda x, y: np.full(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (1,), 2000.0),
        )
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
        binding = null_binding(TOY)
        noise = sample_noise(TOY, 200, 1e-3, seed=12)
        traj = integrate_coupled(TOY, binding, np.zeros(2), np.ones(2), noise)
        shifted = shift_noise(noise, traj, binding)
        np.testing.assert_array_equal(shifted.increments, noise.increments)

    def test_round_trip(self):
        binding = make_binding(TOY)
        noise = sample_noise(TOY, 1000, 1e-3, seed=13)
        traj = integrate_coupled(TOY, binding, np.array([1.0, 0.0]), np.array([0.0, 0.5]), noise)
        back = shift_noise(shift_noise(noise, traj, binding), traj, binding, inverse=True)
        assert np.abs(back.increments - noise.increments).max() <= 1e-12

    def test_resimulation_reproduces_bound_copy(self):
        # integrating the second copy alone under the shifted noise must
        # reproduce the coupled y path up to scheme error
        binding = make_binding(TOY)
        noise = sample_noise(TOY, 2000, 1e-3, seed=14)
        x0, y0 = np.array([1.0, 0.0]), np.array([0.3, 0.6])
        traj = integrate_coupled(TOY, binding, x0, y0, noise)
        shifted = shift_noise(noise, traj, binding)
        replay = integrate(TOY, y0, shifted)
        err = np.abs(replay.states - traj.y).max()
        assert err <= 50 * 1e-3

    def test_length_mismatch(self):
        binding = make_binding(TOY)
        noise = sample_noise(TOY, 100, 1e-3, seed=15)
        traj = integrate_coupled(TOY, binding, np.zeros(2), np.ones(2), noise)
        other = sample_noise(TOY, 50, 1e-3, seed=15)
        with pytest.raises(EngineError, match="step counts"):
            shift_noise(other, traj, binding)

    def test_pair_recorded_every_second_step_rejected(self):
        binding = make_binding(TOY)
        noise = sample_noise(TOY, 100, 1e-3, seed=16)
        traj = integrate_coupled(TOY, binding, np.zeros(2), np.ones(2), noise, record_every=2)
        with pytest.raises(EngineError, match="every step"):
            shift_noise(noise, traj, binding)

    def test_two_paths_rejected(self):
        binding = make_binding(TOY)
        pairs = run_coupled_ensemble(TOY, binding, np.zeros(2), np.ones(2), 2, 1, 1e-2, seed=16,
                                     record_every=1)
        noise = sample_noise(TOY, 100, 1e-2, seed=16)
        with pytest.raises(EngineError, match="one path"):
            shift_noise(noise, pairs, binding)


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
    force = binding.force(pair.x[:-1, 0], pair.x[:-1, 0] + pair.rho[:-1, 0])
    assert np.abs(force).max() > 0.0
    shifted = shift_noise(noise, pair, binding)
    np.testing.assert_array_equal(shifted.increments, noise.increments + force * noise.dt)
    log_density, g_l2 = np.zeros(noise.steps), np.zeros(noise.steps)
    running_log, running_l2 = 0.0, 0.0
    for k in range(noise.steps):
        g_sq = float((force[k] ** 2).sum())
        running_log += float((force[k] * noise.increments[k]).sum()) - 0.5 * g_sq * noise.dt
        running_l2 += g_sq * noise.dt
        log_density[k], g_l2[k] = running_log, running_l2
    np.testing.assert_array_equal(pair.log_density[1:, 0], log_density)
    np.testing.assert_array_equal(pair.g_l2[1:, 0], g_l2)


class TestEnsembles:
    def test_matches_single_trajectories_bitwise(self):
        ens = run_ensemble(TOY, np.array([0.5, -0.5]), 3, 2, 1e-3, seed=17, record_every=500)
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
        ens = run_ensemble(TOY, x0, 200, 1, 1e-3, seed=20)
        v0 = lyapunov(TOY, x0)
        assert ens.w_sup[0].mean() <= 3.0 * v0 + 4.0


    def test_zero_units_keep_the_path_axis(self):
        x0 = np.array([1.0, 0.5])
        ens = run_ensemble(TOY, x0, 4, 0, 1e-3, seed=24)
        pair = run_coupled_ensemble(TOY, make_binding(TOY), x0, x0 + 0.1, 4, 0, 1e-3, seed=24)
        assert ens.w_sup.shape == pair.w_sup_x.shape == pair.w_sup_y.shape == (0, 4)
        assert ens.states.shape == pair.x.shape == (1, 4, 2)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(EngineError, match="n_traj"):
            run_ensemble(TOY, np.zeros(2), 0, 1, 1e-3, seed=25)
        with pytest.raises(EngineError, match="n_traj"):
            run_coupled_ensemble(TOY, make_binding(TOY), np.zeros(2), np.ones(2), 0, 1, 1e-3, seed=25)


@pytest.mark.parametrize("n_traj", [1, 9])
@pytest.mark.parametrize("model_id", list(BOUND_PAIRS))
def test_uncoupled_run_is_the_x_half_of_the_coupled_run(model_id, n_traj):
    # the bound copy must not feed back into x: with the same noise, the
    # uncoupled paths equal the x half of the coupled ones bit for bit
    model, x0, y0 = bound_pair(model_id)
    binding = make_binding(model)
    ens = run_ensemble(model, x0, n_traj, 1, 2e-3, seed=23, record_every=50)
    pair = run_coupled_ensemble(model, binding, x0, y0, n_traj, 1, 2e-3, seed=23, record_every=50)
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
        if field.name not in ("times", "dt") and value is not None:
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
