"""Statistical verification layer: rates, distances, drift coefficients.

Turns trajectory ensembles into the quantities the contraction and
mixing statements are about: log-linear decay fits, the exact
dual-Lipschitz (bounded-Lipschitz) distance between empirical measures
as optimal transport under a truncated metric, Lyapunov drift
coefficients with confidence margins, excursion-set frequencies, and
Girsanov density diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .binding import BindingSpec
from .engine import CoupledEnsembleResult, EnsembleResult, run_ensemble
from .models import ModelSpec, lyapunov


class EstimatorError(ValueError):
    pass


# -- contraction fits -----------------------------------------------------------


@dataclass
class ContractionFit:
    c: float
    gamma: float
    residual: float
    gamma_se: float


def fit_contraction(series: Iterable[tuple[float, float]]) -> ContractionFit:
    """Least-squares fit of ``value = C exp(-gamma t)`` in log space.

    ``residual`` is the RMS of the log-residuals and ``gamma_se`` the
    usual regression standard error of the slope; non-positive values
    are rejected since the fit lives in log space.
    """
    pts = [(float(t), float(v)) for t, v in series]
    if len(pts) < 2:
        raise EstimatorError("need at least two points to fit a rate")
    times = np.array([t for t, _ in pts])
    values = np.array([v for _, v in pts])
    if np.any(values <= 0.0):
        raise EstimatorError("log of non-positive value in contraction fit")
    logs = np.log(values)
    slope, intercept = np.polyfit(times, logs, 1)
    fitted = slope * times + intercept
    rss = float(((logs - fitted) ** 2).sum())
    residual = math.sqrt(rss / len(pts))
    spread = float(((times - times.mean()) ** 2).sum())
    if len(pts) > 2 and spread > 0:
        gamma_se = math.sqrt(rss / (len(pts) - 2) / spread)
    else:
        gamma_se = float("nan")
    return ContractionFit(
        c=float(np.exp(intercept)), gamma=float(-slope), residual=residual, gamma_se=gamma_se
    )


# -- dual-Lipschitz distance ------------------------------------------------------

DL_DEFAULT_CAP = 300
# golden-section stopping width on the budget split l: the value at the best
# split is within max(max d, 2) * DL_SPLIT_TOL of the maximum
DL_SPLIT_TOL = 1e-11
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def dual_lipschitz_distance(
    sample_a: Sequence[np.ndarray],
    sample_b: Sequence[np.ndarray],
    cap: int = DL_DEFAULT_CAP,
    subsample_seed: int = 0,
) -> float:
    """Exact bounded-Lipschitz distance between two empirical measures.

    The distance is the supremum of ``mean_a f - mean_b f`` over test
    functions with ``|f| <= s``, ``Lip f <= l`` and ``s + l <= 1``, d the
    Euclidean distance.  At a fixed split ``s = 1 - l`` these f are, up to
    a constant the two means cancel, the 1-Lipschitz functions for the
    metric ``c_l = min(l d, 2 (1 - l))``, so Kantorovich-Rubinstein
    duality gives

        BL(mu, nu) = max_{0 <= l <= 1} W_{c_l}(mu, nu),

    the optimal transport cost under ``c_l``.  Each coupling's cost is
    concave in l, so their minimum W_{c_l} is too, and a golden-section
    search finds its maximum to ``DL_SPLIT_TOL`` in l.  Samples larger
    than ``cap`` are subsampled with the recorded seed, after which both
    must have the same size: between uniform samples of equal size some
    optimal coupling is a permutation, so each W is one assignment
    problem, duplicated points included.
    """
    a = np.atleast_2d(np.asarray(sample_a, dtype=float))
    b = np.atleast_2d(np.asarray(sample_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EstimatorError("empty sample")
    if a.shape[1] != b.shape[1]:
        raise EstimatorError("samples have different dimensions")
    if cap < 1:
        raise EstimatorError(f"cap must be at least 1, got {cap}")
    for name, sample in (("sample_a", a), ("sample_b", b)):
        if not np.isfinite(sample).all():
            raise EstimatorError(f"{name} holds non-finite values")
    rng = np.random.default_rng(subsample_seed)
    if len(a) > cap:
        a = a[rng.choice(len(a), cap, replace=False)]
    if len(b) > cap:
        b = b[rng.choice(len(b), cap, replace=False)]
    if len(a) != len(b):
        raise EstimatorError(
            f"samples must have equal sizes after capping at {cap}, got {len(a)} and {len(b)}"
        )

    dist = cdist(a, b)

    def value(split: float) -> float:
        cost = np.minimum(split * dist, 2.0 * (1.0 - split))
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].mean())

    lo, hi = 0.0, 1.0
    x1, x2 = hi - _GOLDEN, lo + _GOLDEN
    f1, f2 = value(x1), value(x2)
    while hi - lo > DL_SPLIT_TOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = value(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = value(x1)
    return max(0.0, f1, f2)


def dirac_dl_distance(separation: float) -> float:
    """Closed form for two point masses at Euclidean distance d: 2d/(2+d)."""
    return 2.0 * separation / (2.0 + separation)


def bootstrap_null_quantile(
    sample_a: np.ndarray,
    sample_b: np.ndarray,
    n_boot: int = 30,
    cap: int = 100,
    seed: int = 0,
    quantile: float = 0.95,
) -> float:
    """Null distribution of the two-sample distance under 'same law':
    pool the samples, re-split at random, and return the requested
    quantile of the resulting distances."""
    pool = np.vstack([np.atleast_2d(sample_a), np.atleast_2d(sample_b)])
    n_a = min(len(sample_a), cap)
    n_b = min(len(sample_b), cap)
    rng = np.random.default_rng(seed)
    values = []
    for i in range(n_boot):
        perm = rng.permutation(len(pool))
        values.append(
            dual_lipschitz_distance(
                pool[perm[:n_a]], pool[perm[n_a : n_a + n_b]], cap=cap, subsample_seed=i
            )
        )
    return float(np.quantile(values, quantile))


# -- Lyapunov drift fit ------------------------------------------------------------


@dataclass
class LyapunovFit:
    a: float
    b: float
    a_se: float
    b_se: float
    probe_v: list[float]
    estimates: list[float]
    standard_errors: list[float]

    @property
    def k0(self) -> float:
        """Radius of the attracting V-ball implied by the fit: 4b/(1-a)."""
        return 4.0 * self.b / (1.0 - self.a)


def lyapunov_fit(
    model: ModelSpec,
    probes: Sequence[np.ndarray],
    samples_per_probe: int = 100,
    dt: float = 1e-3,
    seed: int = 0,
) -> LyapunovFit:
    """Fit ``E V(time-1 state from x) <= a V(x) + b`` with ``a < 1``.

    Monte-Carlo estimates of the conditional mean are regressed on
    ``V(probe)``; the intercept is then lifted so the line dominates
    every estimate plus two standard errors.  Raises ``EstimatorError``
    ("no dissipative fit") when the regression slope reaches 1.
    """
    probes = [np.asarray(probe, dtype=float) for probe in probes]
    # one ensemble for all probes: probe i's paths are streams i*S .. (i+1)*S - 1
    starts = np.repeat(np.array(probes), samples_per_probe, axis=0)
    ens = run_ensemble(model, starts, len(starts), units=1, dt=dt, seed=seed)
    values = lyapunov(model, ens.states[-1]).reshape(len(probes), samples_per_probe)
    v0 = np.array([float(lyapunov(model, probe)) for probe in probes])
    means = np.array([float(row.mean()) for row in values])
    ses = np.array([float(row.std(ddof=1) / math.sqrt(samples_per_probe)) for row in values])
    slope, intercept = np.polyfit(v0, means, 1)
    if slope >= 1.0:
        raise EstimatorError(f"no dissipative fit: slope {slope:.4f} >= 1")
    if slope < 0.0:
        slope = 0.0
        intercept = float(means.max())
    # lift the intercept until the line dominates all estimates + 2 se
    shift = float(np.max(means + 2.0 * ses - (slope * v0 + intercept)))
    if shift > 0:
        intercept += shift
    resid = means - (slope * v0 + intercept)
    n = len(v0)
    denom = float(((v0 - v0.mean()) ** 2).sum())
    sigma2 = float((resid**2).sum() / max(n - 2, 1))
    a_se = math.sqrt(sigma2 / denom) if denom > 0 else float("nan")
    b_se = math.sqrt(sigma2 * (1.0 / n + v0.mean() ** 2 / denom)) if denom > 0 else float("nan")
    return LyapunovFit(
        a=float(slope), b=float(intercept), a_se=a_se, b_se=b_se,
        probe_v=[float(v) for v in v0],
        estimates=[float(m) for m in means],
        standard_errors=[float(s) for s in ses],
    )


# -- excursion-set frequencies ------------------------------------------------------


def axk_table(
    model: ModelSpec,
    ens: EnsembleResult,
    ks: Sequence[float],
    horizon: int,
) -> list[dict]:
    """Empirical frequency of the event that the per-unit-interval sup of V
    stays below ``k (V(x0) + n²)`` for every interval ``n = 1..horizon``,
    read from an ensemble started at one ``x0`` (its first record) that
    covers ``horizon + 1`` units.

    One ensemble is shared across all ``k`` (the events are nested, so
    the frequencies are monotone in ``k`` by construction).  The bound
    column ``1 - C/k`` is calibrated at the smallest ``k`` in the sweep.
    """
    if horizon < 0:
        raise EstimatorError("horizon must be non-negative")
    if horizon == 0:
        return [{"k": float(k), "frequency": 1.0, "bound": 1.0} for k in ks]
    v0 = float(lyapunov(model, ens.states[0, 0]))
    intervals = np.arange(1, horizon + 1)
    w = ens.head(horizon + 1).w_sup[1:]  # (horizon, n_traj)
    freqs = {}
    for k in ks:
        thresholds = k * (v0 + intervals.astype(float) ** 2)
        freqs[k] = float(np.all(w <= thresholds[:, None], axis=0).mean())
    k_min = min(ks)
    c_hat = (1.0 - freqs[k_min]) * k_min
    return [
        {"k": float(k), "frequency": freqs[k], "bound": 1.0 - c_hat / float(k)}
        for k in sorted(ks)
    ]


# -- density diagnostics --------------------------------------------------------------


@dataclass
class DensityDiagnostics:
    horizons: list[int]
    mean_density: list[float]
    mean_density_se: list[float]
    mean_inv_sq_good: list[float]
    mean_step_dev_sq: list[float]
    good_fraction: list[float]
    n_overflow: int
    gamma2_hat: float | None
    k_good: float


def density_diagnostics(
    model: ModelSpec,
    ens: CoupledEnsembleResult,
    horizons: Sequence[int],
    k_good: float = 20.0,
) -> DensityDiagnostics:
    """Girsanov-weight diagnostics along a coupled ensemble started at one
    ``(x0, y0)`` (its first record, ``y0 = x0 + rho0``) that covers
    ``max(horizons) + 1`` units.

    Per horizon n: the plain mean of the density (a martingale check),
    the mean of density^-2 restricted to the "good" event where the
    summed per-interval sup of V stays below ``k_good (V(x0)+V(y0)+m²)``
    (this should stay bounded in n), and the mean of
    ``(1 - single-step density at time n)²`` on the good event (this
    should decay); a log-linear rate is fitted to the last column after
    the first three horizons are dropped, where the decay regime starts.
    Trajectories that overflowed by time ``max(horizons) + 1`` are
    excluded and counted.
    """
    horizons = sorted(int(n) for n in horizons)
    if not horizons or horizons[0] < 1:
        raise EstimatorError("horizons must be positive integers")
    units = horizons[-1] + 1
    ens = ens.head(units).at_units()
    log_density = ens.log_density  # row n: time n
    ok = ~ens.overflow[-1]
    n_overflow = int(ens.overflow[-1].sum())
    if not np.any(ok):
        raise EstimatorError("all trajectories overflowed the density accumulator")
    x0, rho0 = ens.x[0, 0], ens.rho[0, 0]
    v_tot = float(lyapunov(model, x0) + lyapunov(model, x0 + rho0))
    w_joint = ens.w_sup_x + ens.w_sup_y  # (units, n_traj)
    m_idx = np.arange(1, units + 1, dtype=float)
    within = w_joint <= k_good * (v_tot + m_idx[:, None] ** 2)
    good_up_to = np.cumprod(within, axis=0).astype(bool)  # row n-1: good through n units

    rows = {k: [] for k in ("md", "se", "inv", "step", "gf")}
    for n in horizons:
        ld_n = log_density[n][ok]
        dens = np.exp(ld_n)
        rows["md"].append(float(dens.mean()))
        rows["se"].append(float(dens.std(ddof=1) / math.sqrt(len(dens))))
        good = good_up_to[n - 1] & ok
        rows["gf"].append(float(good.mean()))
        if np.any(good):
            rows["inv"].append(float(np.exp(-2.0 * log_density[n][good]).mean()))
            step = np.exp(log_density[n + 1][good] - log_density[n][good])
            rows["step"].append(float(((1.0 - step) ** 2).mean()))
        else:
            rows["inv"].append(float("nan"))
            rows["step"].append(float("nan"))

    gamma2_hat = None
    tail = [(n, v) for n, v in zip(horizons[3:], rows["step"][3:]) if v > 0 and math.isfinite(v)]
    if len(tail) >= 2:
        gamma2_hat = fit_contraction(tail).gamma
    return DensityDiagnostics(
        horizons=horizons,
        mean_density=rows["md"],
        mean_density_se=rows["se"],
        mean_inv_sq_good=rows["inv"],
        mean_step_dev_sq=rows["step"],
        good_fraction=rows["gf"],
        n_overflow=n_overflow,
        gamma2_hat=gamma2_hat,
        k_good=k_good,
    )


# -- binding growth exponents ------------------------------------------------------------


def binding_growth_exponents(
    model: ModelSpec,
    binding: BindingSpec,
    n_pairs: int = 300,
    seed: int = 0,
) -> dict:
    """Fit the force-growth shape ``|G(x,y)|² ≈ C |x-y|^alpha (1+V(x)+V(y))^beta``.

    Random pairs sweep separations across three decades and amplitudes
    across one; the exponents come from least squares in log space.
    Zero-force pairs are skipped (they carry no growth information).
    """
    rng = np.random.default_rng(seed)
    rows, values = [], []
    for _ in range(n_pairs):
        x = rng.normal(size=model.dim) * rng.choice([0.3, 1.0, 3.0])
        direction = rng.normal(size=model.dim)
        direction /= np.linalg.norm(direction)
        sep = 10.0 ** rng.uniform(-2.0, 0.5)
        y = x + sep * direction
        g_sq = float((binding.force(x, y) ** 2).sum())
        if g_sq <= 0.0:
            continue
        v_tot = float(lyapunov(model, x) + lyapunov(model, y))
        rows.append([1.0, math.log(sep), math.log1p(v_tot)])
        values.append(math.log(g_sq))
    if len(rows) < 10:
        raise EstimatorError("not enough informative pairs for a growth fit")
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(values), rcond=None)
    return {"c": float(np.exp(coef[0])), "alpha": float(coef[1]), "beta": float(coef[2])}


# -- law-distance series ---------------------------------------------------------------


def mixing_distance_series(
    ens_a: EnsembleResult,
    ens_b: EnsembleResult,
    times: Sequence[int],
    cap: int = DL_DEFAULT_CAP,
) -> list[dict]:
    """Dual-Lipschitz distance between the laws of two ensembles, on
    disjoint noise streams, at the requested integer times."""
    times = sorted(int(t) for t in times)
    states_a, states_b = (ens.head(times[-1]).at_units().states for ens in (ens_a, ens_b))
    out = []
    for t in times:
        value = dual_lipschitz_distance(states_a[t], states_b[t], cap=cap, subsample_seed=t)
        out.append({"t": float(t), "distance": value, "n_a": len(states_a[t]),
                    "n_b": len(states_b[t])})
    return out


# -- report ------------------------------------------------------------------------------


@dataclass
class EstimatorReport:
    """Container for everything a run measured, JSON-serializable."""

    model_id: str
    config_fingerprint: str
    contraction: dict | None = None
    distances: list = field(default_factory=list)
    lyapunov: dict | None = None
    axk: list = field(default_factory=list)
    density: dict | None = None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EstimatorReport":
        return cls(**json.loads(text))
