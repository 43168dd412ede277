"""Statistical layer: rate fits, the distance and its LP oracle, drift and
density diagnostics."""

import ast
import json
import math
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from asymcouple import estimators
from asymcouple.binding import make_binding
from asymcouple.engine import EngineError, run_coupled_ensemble, run_ensemble
from asymcouple.estimators import (
    DL_DEFAULT_CAP,
    DL_SPLIT_TOL,
    EstimatorError,
    EstimatorReport,
    axk_table,
    binding_growth_exponents,
    bootstrap_null_quantile,
    density_diagnostics,
    dual_lipschitz_distance,
    fit_contraction,
    lyapunov_fit,
    mean_density,
    mixing_distance_series,
)
from asymcouple.models import lyapunov, make_model, make_toy2d
from oracles import constant_binding, dirac_dl_distance, linear_model

TOY = make_toy2d()


def _lp_oracle(a, b):
    """Bounded-Lipschitz distance as one LP over test-function values g on
    the union u of the supports (meant for u <= 100 points):

        maximize  mean_a g - mean_b g
        s.t.      |g(p)| <= s,   |g(p) - g(q)| <= l d(p, q),   s + l <= 1.

    Feasible g on the support extend to the whole space with the same
    bounds, so the optimum is the distance itself.
    """
    union, inv = np.unique(np.vstack([a, b]), axis=0, return_inverse=True)
    u = len(union)
    w = np.bincount(inv[: len(a)], minlength=u) / len(a)
    w -= np.bincount(inv[len(a) :], minlength=u) / len(b)
    iu, ju = np.triu_indices(u, k=1)
    pair_d = np.linalg.norm(union[iu] - union[ju], axis=1)
    n_pairs = len(iu)
    # variables [g_0 .. g_{u-1}, s, l]; rows g_p - s, -g_p - s,
    # ±(g_p - g_q) - l d(p, q), all <= 0, and s + l <= 1
    idx, s_col, l_col = np.arange(u), np.full(u, u), np.full(n_pairs, u + 1)
    ones_u, ones_p = np.ones(u), np.ones(n_pairs)
    rows = [np.repeat(np.arange(2 * u + 2 * n_pairs), np.repeat([2, 3], [2 * u, 2 * n_pairs])),
            [2 * u + 2 * n_pairs] * 2]
    cols = [np.column_stack([idx, s_col]).ravel(), np.column_stack([idx, s_col]).ravel(),
            np.column_stack([iu, ju, l_col]).ravel(), np.column_stack([iu, ju, l_col]).ravel(),
            [u, u + 1]]
    data = [np.column_stack([ones_u, -ones_u]).ravel(), np.column_stack([-ones_u, -ones_u]).ravel(),
            np.column_stack([ones_p, -ones_p, -pair_d]).ravel(),
            np.column_stack([-ones_p, ones_p, -pair_d]).ravel(), [1.0, 1.0]]
    n_rows = 2 * u + 2 * n_pairs + 1
    a_ub = sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n_rows, u + 2))
    b_ub = np.zeros(n_rows)
    b_ub[-1] = 1.0
    bounds = [(None, None)] * u + [(0.0, None), (0.0, None)]
    res = linprog(np.concatenate([-w, [0.0, 0.0]]), A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                  method="highs")
    assert res.success, res.message
    return max(0.0, -res.fun)


def _oracle_samples(n, m, dim, duplicates, seed):
    """Two samples at order-one Euclidean distance in any dimension; with
    ``duplicates`` both draw rows from one small shared pool, so points
    repeat within and across the samples."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(dim)
    if duplicates:
        pool = rng.normal(size=(8, dim)) * scale
        return pool[rng.integers(0, 8, n)], pool[rng.integers(3, 8, m)]
    shift = np.full(dim, 0.5 * scale)
    return rng.normal(size=(n, dim)) * scale, rng.normal(size=(m, dim)) * scale + shift


def _golden_reference(a, b):
    """Bounded-Lipschitz distance of two equal-size samples by golden-section
    search over the split l, one assignment per evaluated l: slow, but exact
    to about 1e-11 in l at any size, since W(l) is concave."""
    dist = cdist(a, b)

    def value(split):
        cost = np.minimum(split * dist, 2.0 * (1.0 - split))
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].mean())

    golden = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    x1, x2 = hi - golden, lo + golden
    f1, f2 = value(x1), value(x2)
    while hi - lo > 1e-11:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = value(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = value(x1)
    return max(0.0, f1, f2)


@pytest.fixture
def assignments(monkeypatch):
    """The cost matrices of the assignment problems the distance solves."""
    costs = []

    def counted(cost):
        costs.append(cost)
        return linear_sum_assignment(cost)

    # the distance imports the solver from scipy.optimize at each call
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", counted)
    return costs


# the cutting planes certify their gap in a handful of assignments; a loop
# that drifts towards the cap means the upper model has stopped tightening
MAX_ASSIGNMENTS_SEEN = 15

ORACLE_CASES = [
    (40, 40, 2, False, 100),
    (30, 45, 2, False, 30),
    (36, 36, 2, True, 100),
    (24, 40, 3, True, 24),
    (1, 1, 2, False, 100),
    (1, 1, 64, False, 100),
    (45, 45, 1, False, 100),
    (40, 40, 24, False, 100),
    (40, 40, 64, False, 100),
    (20, 33, 64, False, 20),
    (90, 80, 2, False, 40),
    (90, 40, 5, False, 40),
    (70, 70, 24, True, 35),
]
ORACLE_IDS = ["equal", "unequal", "duplicates-equal", "duplicates-unequal", "one-vs-one",
              "one-vs-one-dim64", "dim1", "dim24", "dim64", "unequal-dim64", "cap-equal",
              "cap-unequal", "cap-duplicates"]


class TestFitContraction:
    def test_exact_log_linear(self):
        ts = np.linspace(0.0, 5.0, 11)
        fit = fit_contraction(ts, np.exp(-2.0 * ts))
        assert fit.c == pytest.approx(1.0, abs=1e-10)
        assert fit.gamma == pytest.approx(2.0, abs=1e-10)
        assert fit.residual < 1e-10

    def test_constant_series(self):
        fit = fit_contraction(range(6), np.full(6, 3.0))
        assert fit.gamma == pytest.approx(0.0, abs=1e-12)

    def test_non_positive_rejected(self):
        with pytest.raises(EstimatorError, match="non-positive"):
            fit_contraction([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(EstimatorError, match="1-D of one length"):
            fit_contraction([0.0, 1.0, 2.0], [1.0, 0.5])


class TestDualLipschitz:
    def test_identical_samples(self):
        pts = np.random.default_rng(0).normal(size=(40, 3))
        assert dual_lipschitz_distance(pts, pts) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("d", [0.25, 1.0, 3.0, 10.0])
    def test_dirac_pair_closed_form(self, d):
        a = np.zeros((1, 2))
        b = np.zeros((1, 2))
        b[0, 0] = d
        got = dual_lipschitz_distance(a, b)
        # independent oracle: sweep the sup-norm/Lipschitz budget split;
        # with g(a) = -g(b) the objective is min(2s, l d) at s + l = 1
        budget = np.linspace(0.0, 1.0, 200_001)
        brute = np.minimum(2.0 * budget, (1.0 - budget) * d).max()
        assert got == pytest.approx(brute, abs=1e-5)
        assert got == pytest.approx(dirac_dl_distance(d), abs=1e-9)
        assert got <= min(2.0, d) + 1e-9

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(30, 2))
        b = rng.normal(size=(30, 2)) + 0.5
        assert dual_lipschitz_distance(a, b) == pytest.approx(
            dual_lipschitz_distance(b, a), abs=1e-9
        )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.normal(size=(15, 2))
            b = rng.normal(size=(15, 2)) + rng.normal(size=2)
            c = rng.normal(size=(15, 2)) + rng.normal(size=2)
            dab = dual_lipschitz_distance(a, b)
            dbc = dual_lipschitz_distance(b, c)
            dac = dual_lipschitz_distance(a, c)
            assert dac <= dab + dbc + 1e-8

    def test_bounded_by_two(self):
        a = np.zeros((1, 1))
        b = np.full((1, 1), 1e6)
        assert dual_lipschitz_distance(a, b) <= 2.0 + 1e-9

    def test_subsampling_is_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(100, 2))
        b = rng.normal(size=(120, 2)) + 0.3
        d1 = dual_lipschitz_distance(a, b, cap=30, subsample_seed=7)
        d2 = dual_lipschitz_distance(a, b, cap=30, subsample_seed=7)
        assert d1 == d2

    def test_same_law_below_null_band(self):
        # two disjoint-seed ensembles from the same settled run should be
        # indistinguishable from a pooled re-split
        ens_a = run_ensemble(TOY, np.array([1.5, 1.5]), 80, 4, 2e-3, seed=4, stream0=0)
        ens_b = run_ensemble(TOY, np.array([1.5, 1.5]), 80, 4, 2e-3, seed=4, stream0=80)
        observed = dual_lipschitz_distance(ens_a.states[-1], ens_b.states[-1], cap=80)
        band = bootstrap_null_quantile(
            ens_a.states[-1], ens_b.states[-1], n_boot=40, cap=80, seed=5
        )
        assert observed <= band

    def test_empty_sample_rejected(self):
        with pytest.raises(EstimatorError, match="empty"):
            dual_lipschitz_distance(np.zeros((0, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_rejected(self, cap):
        pts = np.random.default_rng(4).normal(size=(5, 2))
        with pytest.raises(EstimatorError, match="cap"):
            dual_lipschitz_distance(pts, pts + 1.0, cap=cap)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["sample_a", "sample_b"])
    def test_non_finite_sample_rejected(self, bad, side):
        rng = np.random.default_rng(5)
        samples = {"sample_a": rng.normal(size=(6, 2)), "sample_b": rng.normal(size=(6, 2))}
        samples[side][2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimatorError, match=f"{side} holds non-finite"):
                dual_lipschitz_distance(**samples)

    @pytest.mark.parametrize("n, m, cap", [(30, 45, DL_DEFAULT_CAP), (90, 25, 40)])
    def test_unequal_sizes_rejected(self, n, m, cap):
        a, b = _oracle_samples(n, m, 2, False, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimatorError, match=f"got {min(n, cap)} and {min(m, cap)}"):
                dual_lipschitz_distance(a, b, cap=cap)

    # the *-unequal cases draw samples of different sizes that the cap
    # brings to one size, the only unequal inputs the distance accepts
    @pytest.mark.parametrize("n, m, dim, duplicates, cap", ORACLE_CASES, ids=ORACLE_IDS)
    def test_matches_lp_oracle(self, n, m, dim, duplicates, cap):
        a, b = _oracle_samples(n, m, dim, duplicates, seed=n * 1000 + m + dim)
        got = dual_lipschitz_distance(a, b, cap=cap, subsample_seed=11)
        # the documented subsampling rule, applied before the oracle
        rng = np.random.default_rng(11)
        if len(a) > cap:
            a = a[rng.choice(len(a), cap, replace=False)]
        if len(b) > cap:
            b = b[rng.choice(len(b), cap, replace=False)]
        assert len(np.unique(np.vstack([a, b]), axis=0)) <= 100
        assert got == pytest.approx(_lp_oracle(a, b), abs=1e-7)

    @pytest.mark.parametrize("n, m, dim, duplicates, cap", ORACLE_CASES, ids=ORACLE_IDS)
    def test_few_assignments_on_the_oracle_cases(self, n, m, dim, duplicates, cap, assignments):
        a, b = _oracle_samples(n, m, dim, duplicates, seed=n * 1000 + m + dim)
        dual_lipschitz_distance(a, b, cap=cap, subsample_seed=11)
        assert 1 <= len(assignments) <= MAX_ASSIGNMENTS_SEEN

    # past the LP's reach: the golden search over W, one assignment per l
    @pytest.mark.parametrize("n", [150, 300])
    @pytest.mark.parametrize("dim", [2, 64])
    def test_matches_golden_reference(self, n, dim, assignments):
        a, b = _oracle_samples(n, n, dim, False, seed=n + dim)
        got = dual_lipschitz_distance(a, b)
        assert 1 <= len(assignments) <= MAX_ASSIGNMENTS_SEEN
        reference = _golden_reference(a, b)
        assert abs(got - reference) <= 2.0 * DL_SPLIT_TOL * max(2.0, cdist(a, b).max())

    def test_the_gap_is_absolute_at_tiny_scales(self):
        # at scale 1e-9 the certified gap, DL_SPLIT_TOL * max(2, max d) =
        # 2e-11, is a few percent of the distance: at this seed the value is
        # 2 % below the golden reference, and still inside the absolute bound
        a, b = (sample * 1e-9 for sample in _oracle_samples(40, 40, 2, False, seed=40))
        got, reference = dual_lipschitz_distance(a, b), _golden_reference(a, b)
        assert 0.0 < got <= reference
        assert abs(got - reference) <= 2.0 * DL_SPLIT_TOL * max(2.0, cdist(a, b).max())

    def test_open_gap_raises(self, monkeypatch):
        a, b = _oracle_samples(40, 40, 2, False, seed=12)
        monkeypatch.setattr(estimators, "DL_MAX_ASSIGNMENTS", 1)
        with pytest.raises(EstimatorError, match="still open after 1 assignments"):
            dual_lipschitz_distance(a, b)

    @pytest.mark.parametrize(
        "sample_a, sample_b, side",
        [
            # n scalars are n points on the line, not one point in R^n
            ([0.0, 1.0], [1.0, 0.0], "sample_a"),
            (np.zeros((3, 2)), np.zeros(3), "sample_b"),
            (np.zeros((2, 3, 2)), np.zeros((2, 3, 2)), "sample_a"),
        ],
        ids=["one-dim", "one-dim-b", "three-dim"],
    )
    @pytest.mark.parametrize("routine", [dual_lipschitz_distance, bootstrap_null_quantile],
                             ids=["distance", "bootstrap"])
    def test_sample_shape_rejected(self, routine, sample_a, sample_b, side):
        with pytest.raises(EstimatorError, match=rf"{side} must be a \(points, dim\) array"):
            routine(sample_a, sample_b)

    def test_column_samples_are_points_on_the_line(self):
        assert dual_lipschitz_distance([[0.0], [1.0]], [[1.0], [0.0]]) == 0.0


FIT_MODEL_PARAMS = {
    "toy2d": {},
    "ginzburg_landau": {"modes": 32},
    "reaction_diffusion": {"modes_per_component": 16},
    "chain": {"a_squared": 2.0},
}


def probe_fit(model, probes, samples, dt, seed):
    """lyapunov_fit on one ensemble of the probes, probe i on streams i*S..(i+1)*S-1."""
    starts = np.repeat(np.array(probes, dtype=float), samples, axis=0)
    return lyapunov_fit(model, run_ensemble(model, starts, len(starts), 1, dt, seed), samples)


class TestLyapunovFit:
    def test_deterministic_linear_flow(self):
        # dx/dt = -x with V = |x|: the one-unit map scales V by e^{-1}
        model = linear_model([-1.0], [1e-12])
        probes = [np.array([v]) for v in (0.0, 0.5, 1.0, 2.0, 4.0)]
        fit = probe_fit(model, probes, 4, dt=1e-3, seed=6)
        assert fit.a == pytest.approx(math.exp(-1.0), abs=1e-6)
        assert fit.b <= 1e-6

    def test_toy_model_dissipative(self):
        probes = [np.array([s, s * 0.5]) for s in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        fit = probe_fit(TOY, probes, 60, dt=1e-3, seed=7)
        assert fit.a < 1.0
        # the origin probe forces a positive intercept: noise spreads mass
        assert fit.b >= fit.estimates[0] > 0.0

    def test_k0_from_fit(self):
        fit = probe_fit(TOY, [np.zeros(2), np.array([2.0, 1.0]), np.array([4.0, 2.0])], 40,
                        dt=1e-3, seed=8)
        assert fit.k0 == pytest.approx(4.0 * fit.b / (1.0 - fit.a))

    @pytest.mark.parametrize("model_id", list(FIT_MODEL_PARAMS))
    def test_one_ensemble_equals_the_per_probe_loop(self, model_id):
        # the fit reads every probe from one ensemble; probe i keeps streams
        # i*S .. (i+1)*S - 1, so its estimates are those of its own run
        model = make_model(model_id, **FIT_MODEL_PARAMS[model_id])
        base = np.linspace(0.5, -0.5, model.dim)
        probes = [base * s for s in (0.0, 1.0, 3.0)]
        samples = 5
        fit = probe_fit(model, probes, samples, dt=2e-3, seed=12)
        v0, means, ses = [], [], []
        for i, probe in enumerate(probes):
            ens = run_ensemble(model, probe, samples, units=1, dt=2e-3, seed=12,
                               stream0=i * samples)
            values = lyapunov(model, ens.states[-1])
            v0.append(float(lyapunov(model, probe)))
            means.append(float(values.mean()))
            ses.append(float(values.std(ddof=1) / math.sqrt(samples)))
        assert fit.probe_v == v0
        assert fit.estimates == means
        assert fit.standard_errors == ses


GROWTH_MODEL_PARAMS = {
    "toy2d": {},
    "ginzburg_landau": {"modes": 64, "forced_modes": 3, "noise_coeffs": [1.0, 0.6, 0.6]},
    "reaction_diffusion": {"modes_per_component": 16},
    "chain": {"a_squared": 5.0},
}


@pytest.mark.parametrize("model_id", list(GROWTH_MODEL_PARAMS))
def test_growth_fit_equals_the_per_pair_loop(model_id):
    # the fit evaluates its 300 pairs as one stacked batch; one force,
    # nonlinearity and Lyapunov call per pair, in the same draws, is its
    # oracle, bit for bit
    model = make_model(model_id, **GROWTH_MODEL_PARAMS[model_id])
    binding = make_binding(model)
    rng = np.random.default_rng(5)
    rows, values = [], []
    for _ in range(300):
        x = rng.normal(size=model.dim) * rng.choice([0.3, 1.0, 3.0])
        direction = rng.normal(size=model.dim)
        direction /= np.linalg.norm(direction)
        sep = 10.0 ** rng.uniform(-2.0, 0.5)
        y = x + sep * direction
        xy = np.stack([x, y])
        g_sq = float((binding.force(xy, model.nonlinearity(xy)) ** 2).sum())
        if g_sq <= 0.0:
            continue
        v_tot = float(lyapunov(model, x) + lyapunov(model, y))
        rows.append([1.0, math.log(sep), math.log1p(v_tot)])
        values.append(math.log(g_sq))
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(values), rcond=None)
    expected = {"c": float(np.exp(coef[0])), "alpha": float(coef[1]), "beta": float(coef[2])}
    assert binding_growth_exponents(model, binding, seed=5) == expected


def test_estimators_integrate_nothing():
    # the estimators read the ensembles they are given: the module names no
    # run_* or integrate* entry point of the engine
    tree = ast.parse(Path(estimators.__file__).read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(n for n in names if n.startswith(("run_", "integrate"))) == []


class TestAxk:
    def test_horizon_zero_is_certain(self):
        ens = run_ensemble(TOY, np.zeros(2), 10, 1, 2e-3, seed=8)
        rows = axk_table(TOY, ens, [1.0], horizon=0)
        assert rows[0]["frequency"] == 1.0
        # unsorted levels come back sorted, as at every other horizon
        rows = axk_table(TOY, ens, [1000.0, 10.0], horizon=0)
        assert [(row["k"], row["frequency"], row["bound"]) for row in rows] == [
            (10.0, 1.0, 1.0), (1000.0, 1.0, 1.0)]
        longer = run_ensemble(TOY, np.zeros(2), 10, 2, 2e-3, seed=8)
        assert [row["k"] for row in axk_table(TOY, longer, [1000.0, 10.0], horizon=1)] == [
            10.0, 1000.0]

    def test_monotone_in_k(self):
        x0 = np.array([1.0, 0.5])
        ens = run_ensemble(TOY, x0, 200, 3, 2e-3, seed=9)
        rows = axk_table(TOY, ens, ks=[0.5, 2.0, 10.0, 100.0], horizon=2)
        freqs = [r["frequency"] for r in rows]
        assert freqs == sorted(freqs)
        assert rows[0]["bound"] == pytest.approx(rows[0]["frequency"])
        with pytest.raises(EngineError, match="before 4"):
            axk_table(TOY, ens, ks=[1.0], horizon=3)

    def test_an_ensemble_without_w_sups_is_refused(self):
        ens = run_ensemble(TOY, np.zeros(2), 4, 2, 2e-3, seed=8, w_sups=False)
        with pytest.raises(EstimatorError, match="axk reads the W sups"):
            axk_table(TOY, ens, [1.0], horizon=1)

    def test_large_k_captures_almost_everything(self):
        x0 = np.array([1.0, 0.5])
        ens = run_ensemble(TOY, x0, 300, 3, 2e-3, seed=10)
        rows = axk_table(TOY, ens, ks=[1e4], horizon=2)
        assert rows[0]["frequency"] >= 0.999


def _coupled(binding, x0, y0, n_traj, units, seed, record_every=None, w_sups=True):
    return run_coupled_ensemble(TOY, binding, np.asarray(x0, float), np.asarray(y0, float),
                                n_traj, units, 2e-3, seed, record_every=record_every, w_sups=w_sups)


class TestDensityDiagnostics:
    def test_null_binding_is_exact(self):
        ens = _coupled(constant_binding(TOY), np.zeros(2), np.ones(2), 50, 4, seed=11)
        diag = density_diagnostics(TOY, ens, horizons=[1, 2, 3])
        assert diag.mean_density == [1.0, 1.0, 1.0]
        assert diag.mean_inv_sq_good == [1.0, 1.0, 1.0]
        assert diag.mean_step_dev_sq == [0.0, 0.0, 0.0]
        assert diag.n_overflow == 0

    def test_toy_columns_behave(self):
        x0 = np.array([1.0, 0.5])
        y0 = x0 + np.array([0.3, -0.2])
        ens = _coupled(make_binding(TOY), x0, y0, 300, 9, seed=12)
        diag = density_diagnostics(TOY, ens, horizons=list(range(1, 9)))
        assert diag.n_overflow == 0
        assert all(gf > 0.5 for gf in diag.good_fraction)
        inv = diag.mean_inv_sq_good
        assert np.mean(inv[-3:]) <= 2.0 * np.mean(inv[:3]) + 0.5
        assert diag.gamma2_hat is not None and diag.gamma2_hat > 0.0

    def test_pairs_without_w_sups_are_refused(self):
        ens = _coupled(constant_binding(TOY), np.zeros(2), np.ones(2), 5, 2, seed=0, w_sups=False)
        with pytest.raises(EstimatorError, match="density reads the W sups"):
            density_diagnostics(TOY, ens, horizons=[1])

    def test_bad_horizons(self):
        ens = _coupled(constant_binding(TOY), np.zeros(2), np.ones(2), 5, 1, seed=0)
        with pytest.raises(EstimatorError):
            density_diagnostics(TOY, ens, horizons=[0])
        with pytest.raises(EngineError, match="before 2"):
            density_diagnostics(TOY, ens, horizons=[1])

    @pytest.mark.parametrize("record_every", [None, 100])
    def test_longer_run_gives_the_same_diagnostics(self, record_every):
        # a constant force G = 22 takes G²/2 = 242 per unit off the log
        # weight, so every path passes |log D| = 700 near t = 2.9: overflows
        # after the horizon's last unit must not count
        const = constant_binding(TOY, 22.0)
        x0 = np.array([1.0, 0.5])
        run = partial(_coupled, const, x0, x0, 20, seed=14, record_every=record_every)
        short, long = run(2), run(4)
        assert not short.overflow.any() and long.overflow[-1].all()
        expected = density_diagnostics(TOY, short, horizons=[1])
        assert density_diagnostics(TOY, long, horizons=[1]) == expected
        assert expected.n_overflow == 0

    def test_mean_density_of_fewer_than_two_kept_paths(self):
        # one kept path has no standard error and none has no mean either,
        # with no numpy warning (the suite turns warnings into errors)
        log_density = np.array([np.log(2.0), 800.0])
        mean, se, n = mean_density(log_density, np.array([True, False]))
        assert (mean, n) == (2.0, 1) and math.isnan(se)
        mean, se, n = mean_density(log_density, np.zeros(2, dtype=bool))
        assert math.isnan(mean) and math.isnan(se) and n == 0


def test_mixing_series_shape():
    x0 = np.array([1.5, 1.5])
    ens = run_ensemble(TOY, x0, 40, 2, 2e-3, seed=13)
    alt = run_ensemble(TOY, np.array([0.3, 0.3]), 40, 2, 2e-3, seed=13, stream0=40)
    series = mixing_distance_series(ens, alt, times=[1, 2])
    assert [row["t"] for row in series] == [1.0, 2.0]
    assert all(0.0 <= row["distance"] <= 2.0 for row in series)
    with pytest.raises(EngineError, match="before 3"):
        mixing_distance_series(ens, alt, times=[3])


def test_report_json_round_trip():
    report = EstimatorReport(
        model_id="toy2d",
        config_fingerprint="abc",
        contraction={"c": 1.0, "gamma": 2.0, "residual": 0.0},
        distances=[{"t": 1.0, "distance": 0.5}],
    )
    back = EstimatorReport(**json.loads(report.to_json()))
    assert back == report


def test_report_json_writes_non_finite_values_as_null():
    report = EstimatorReport(
        model_id="toy2d",
        config_fingerprint="abc",
        contraction={"gamma": 2.0, "gamma_se": float("nan")},
        density={"mean_inv_sq_good": [1.5, float("inf"), np.float64("-inf")]},
    )
    back = json.loads(report.to_json(), parse_constant=lambda name: pytest.fail(name))
    assert back["contraction"] == {"gamma": 2.0, "gamma_se": None}
    assert back["density"]["mean_inv_sq_good"] == [1.5, None, None]
