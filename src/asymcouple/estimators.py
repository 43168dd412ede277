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
from typing import Sequence

import numpy as np

from .binding import BindingSpec
from .engine import CoupledEnsembleResult, EnsembleResult
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


def fit_contraction(times: np.ndarray, values: np.ndarray) -> ContractionFit:
    """Least-squares fit of ``values = C exp(-gamma times)`` in log space,
    from two 1-D arrays of one length.

    ``residual`` is the RMS of the log-residuals and ``gamma_se`` the
    usual regression standard error of the slope; non-positive values
    are rejected since the fit lives in log space.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape:
        raise EstimatorError(
            f"times and values must be 1-D of one length, got {times.shape} and {values.shape}"
        )
    if len(times) < 2:
        raise EstimatorError("need at least two points to fit a rate")
    if np.any(values <= 0.0):
        raise EstimatorError("log of non-positive value in contraction fit")
    logs = np.log(values)
    slope, intercept = np.polyfit(times, logs, 1)
    fitted = slope * times + intercept
    rss = float(((logs - fitted) ** 2).sum())
    residual = math.sqrt(rss / len(times))
    spread = float(((times - times.mean()) ** 2).sum())
    if len(times) > 2 and spread > 0:
        gamma_se = math.sqrt(rss / (len(times) - 2) / spread)
    else:
        gamma_se = float("nan")
    return ContractionFit(
        c=float(np.exp(intercept)), gamma=float(-slope), residual=residual, gamma_se=gamma_se
    )


def mean_rho_rate(ens: CoupledEnsembleResult) -> ContractionFit | None:
    """Fitted decay of the path mean of ``|rho|``; ``None`` if that mean is 0 at a record."""
    mean = np.linalg.norm(ens.rho, axis=-1).mean(axis=1)
    return fit_contraction(ens.times, mean) if np.all(mean > 0) else None


# -- dual-Lipschitz distance ------------------------------------------------------

DL_DEFAULT_CAP = 300
# certified accuracy of the distance: the cutting-plane loop stops once the
# upper model's maximum is within DL_SPLIT_TOL * max(2, max d) of the best
# transport cost found, d the Euclidean distance
DL_SPLIT_TOL = 1e-11
# assignments after which the cutting-plane loop gives up on an open gap
DL_MAX_ASSIGNMENTS = 57


def _point_samples(sample_a, sample_b) -> tuple[np.ndarray, np.ndarray]:
    """Both samples as finite ``(points, dim)`` arrays of one dimension."""
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    for name, sample in (("sample_a", a), ("sample_b", b)):
        if sample.ndim != 2:
            raise EstimatorError(
                f"{name} must be a (points, dim) array, got shape {sample.shape}"
            )
    if a.size == 0 or b.size == 0:
        raise EstimatorError("empty sample")
    if a.shape[1] != b.shape[1]:
        raise EstimatorError("samples have different dimensions")
    for name, sample in (("sample_a", a), ("sample_b", b)):
        if not np.isfinite(sample).all():
            raise EstimatorError(f"{name} holds non-finite values")
    return a, b


def _coupling_planes(matched: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and intercepts of the n + 1 lines whose minimum is a coupling's
    cost ``mean_i min(l d_i, 2 (1 - l))``: with the d_i sorted and S_m the sum
    of the m smallest, line m is ``(S_m - 2 (n - m)) / n * l + 2 (n - m) / n``."""
    n = len(matched)
    sums = np.concatenate([[0.0], np.cumsum(np.sort(matched))])
    flat = 2.0 * (n - np.arange(n + 1))
    return (sums - flat) / n, flat / n


def _envelope_max(slopes: np.ndarray, intercepts: np.ndarray) -> tuple[float, float]:
    """A maximiser on [0, 1] of ``U(l) = min_j (slopes_j l + intercepts_j)``
    and an upper bound on max U, equal to U there.

    Starts from lines p and q active at 0 and 1.  U lies below both, so its
    maximum is at most their crossing value; the line active at the crossing
    either attains it or is flat (the crossing is a maximiser), or it
    replaces p or q by the sign of its slope.  No line enters twice.
    """
    p = int(np.argmin(intercepts))
    if slopes[p] <= 0.0:
        return 0.0, float(intercepts[p])
    q = int(np.argmin(slopes + intercepts))
    if slopes[q] >= 0.0:
        return 1.0, float(slopes[q] + intercepts[q])
    for _ in range(len(slopes)):
        split = (intercepts[q] - intercepts[p]) / (slopes[p] - slopes[q])
        split = min(1.0, max(0.0, float(split)))
        values = slopes * split + intercepts
        bound = float(min(values[p], values[q]))
        j = int(np.argmin(values))
        if values[j] >= bound or slopes[j] == 0.0:
            return split, float(values[j])
        if slopes[j] > 0.0:
            p = j
        else:
            q = j
    return split, bound


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

        BL(mu, nu) = max_{0 <= l <= 1} W(l),   W(l) = W_{c_l}(mu, nu),

    the optimal transport cost under ``c_l``.  Samples larger than ``cap``
    are subsampled with the recorded seed, after which both must be
    ``(points, dim)`` arrays of the same size: between uniform samples of
    equal size some optimal coupling is a permutation, so each W(l) is one
    assignment problem, duplicated points included.

    The maximum is found by Kelley's cutting planes (J. SIAM 8, 1960).
    Each assignment, solved at a split l_k, gives a coupling whose cost
    ``C_k(l)`` is concave in l and at least W everywhere, so the upper
    model ``U = min_k C_k`` is a minimum of lines.  The next assignment is
    solved where U is largest; the loop stops once ``max U`` is within
    ``DL_SPLIT_TOL * max(2, max d)`` of the best W found, or when the
    coupling at that split is one already held (then W = U there), and it
    returns that best W.  A gap still open after ``DL_MAX_ASSIGNMENTS``
    assignments raises ``EstimatorError``.

    The certified gap is absolute: the value is within
    ``DL_SPLIT_TOL * max(2, max d)`` (2e-11 for samples whose points are
    less than 2 apart) of the distance, not within a fraction of it.
    Distances near 1e-9 can come out a few percent low.
    """
    # scipy loads at the first distance, not with the package
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    a, b = _point_samples(sample_a, sample_b)
    if cap < 1:
        raise EstimatorError(f"cap must be at least 1, got {cap}")
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
    tol = DL_SPLIT_TOL * max(2.0, float(dist.max()))
    slopes, intercepts = np.empty(0), np.empty(0)
    held: set[bytes] = set()
    best, split = 0.0, 0.5
    for _ in range(DL_MAX_ASSIGNMENTS):
        cost = np.minimum(split * dist, 2.0 * (1.0 - split))
        rows, cols = linear_sum_assignment(cost)
        best = max(best, float(cost[rows, cols].mean()))
        key = cols.tobytes()
        if key in held:
            return best
        held.add(key)
        line_slopes, line_intercepts = _coupling_planes(dist[rows, cols])
        slopes = np.concatenate([slopes, line_slopes])
        intercepts = np.concatenate([intercepts, line_intercepts])
        split, bound = _envelope_max(slopes, intercepts)
        if bound - best <= tol:
            return best
    raise EstimatorError(
        f"bounded-Lipschitz gap {bound - best:.3g} still open after "
        f"{DL_MAX_ASSIGNMENTS} assignments"
    )


def bootstrap_null_quantile(
    sample_a: np.ndarray,
    sample_b: np.ndarray,
    n_boot: int = 30,
    cap: int = 100,
    seed: int = 0,
) -> float:
    """Null distribution of the two-sample distance under 'same law':
    pool the samples, re-split at random, and return the 95% quantile
    of the resulting distances."""
    sample_a, sample_b = _point_samples(sample_a, sample_b)
    pool = np.vstack([sample_a, sample_b])
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
    return float(np.quantile(values, 0.95))


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


def lyapunov_fit(model: ModelSpec, ens: EnsembleResult, samples_per_probe: int) -> LyapunovFit:
    """Fit ``E V(time-1 state from x) <= a V(x) + b`` with ``a < 1`` from an
    ensemble over at least one unit whose paths ``i*S..(i+1)*S-1``, ``S =
    samples_per_probe``, start at probe ``i`` (its first record).

    Monte-Carlo estimates of the conditional mean are regressed on
    ``V(probe)``; the intercept is then lifted so the line dominates
    every estimate plus two standard errors.  Raises ``EstimatorError``
    ("no dissipative fit") when the regression slope reaches 1.
    """
    probes = ens.states[0, ::samples_per_probe]
    values = lyapunov(model, ens.head(1).states[-1]).reshape(len(probes), samples_per_probe)
    v0 = lyapunov(model, probes)
    means = values.mean(axis=1)
    ses = values.std(axis=1, ddof=1) / math.sqrt(samples_per_probe)
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
        probe_v=v0.tolist(), estimates=means.tolist(), standard_errors=ses.tolist(),
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
    if ens.w_sup is None:
        raise EstimatorError("axk reads the W sups: the ensemble must be run with w_sups=True")
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


def mean_density(log_density: np.ndarray, keep: np.ndarray) -> tuple[float, float, int]:
    """The mean of the density ``exp(log_density)`` over the paths
    ``keep`` (NaN if none), its standard error (NaN below two paths) and
    the number of paths kept."""
    dens = np.exp(log_density[keep])
    n = len(dens)
    se = float(dens.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return float(dens.mean()) if n else math.nan, se, n

# the good event's bound on the summed sups of V, in units of V(x0)+V(y0)+m²
K_GOOD = 20.0


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
) -> DensityDiagnostics:
    """Girsanov-weight diagnostics along a coupled ensemble started at one
    ``(x0, y0)`` (its first record, ``y0 = x0 + rho0``) that covers
    ``max(horizons) + 1`` units.

    Per horizon n: the plain mean of the density (a martingale check),
    the mean of density^-2 restricted to the "good" event where the
    summed per-interval sup of V stays below ``K_GOOD (V(x0)+V(y0)+m²)``
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
    if ens.w_sup_x is None:
        raise EstimatorError("density reads the W sups: the pairs must be run with w_sups=True")
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
    within = w_joint <= K_GOOD * (v_tot + m_idx[:, None] ** 2)
    good_up_to = np.cumprod(within, axis=0).astype(bool)  # row n-1: good through n units

    rows = {k: [] for k in ("md", "se", "inv", "step", "gf")}
    for n in horizons:
        mean, se, _ = mean_density(log_density[n], ok)
        rows["md"].append(mean)
        rows["se"].append(se)
        good = good_up_to[n - 1] & ok
        rows["gf"].append(float(good.mean()))
        if np.any(good):
            with np.errstate(over="ignore"):  # past the float range: inf, written as null
                rows["inv"].append(float(np.exp(-2.0 * log_density[n][good]).mean()))
            step = np.exp(log_density[n + 1][good] - log_density[n][good])
            rows["step"].append(float(((1.0 - step) ** 2).mean()))
        else:
            rows["inv"].append(float("nan"))
            rows["step"].append(float("nan"))

    gamma2_hat = None
    tail_t, tail_v = np.array(horizons[3:], dtype=float), np.array(rows["step"][3:])
    tail = (tail_v > 0) & np.isfinite(tail_v)
    if tail.sum() >= 2:
        gamma2_hat = fit_contraction(tail_t[tail], tail_v[tail]).gamma
    return DensityDiagnostics(
        horizons=horizons,
        mean_density=rows["md"],
        mean_density_se=rows["se"],
        mean_inv_sq_good=rows["inv"],
        mean_step_dev_sq=rows["step"],
        good_fraction=rows["gf"],
        n_overflow=n_overflow,
        gamma2_hat=gamma2_hat,
        k_good=K_GOOD,
    )


# -- binding growth exponents ------------------------------------------------------------


def binding_growth_exponents(
    model: ModelSpec,
    binding: BindingSpec,
    seed: int = 0,
) -> dict:
    """Fit the force-growth shape ``|G(x,y)|² ≈ C |x-y|^alpha (1+V(x)+V(y))^beta``.

    300 random pairs sweep separations across three decades and amplitudes
    across one; the exponents come from least squares in log space.
    Zero-force pairs are skipped (they carry no growth information).
    """
    rng = np.random.default_rng(seed)
    xy, seps = np.empty((2, 300, model.dim)), np.empty(300)
    for i in range(300):
        x = rng.normal(size=model.dim) * rng.choice([0.3, 1.0, 3.0])
        direction = rng.normal(size=model.dim)
        direction /= np.linalg.norm(direction)
        seps[i] = 10.0 ** rng.uniform(-2.0, 0.5)
        xy[:, i] = x, x + seps[i] * direction
    g_sq = (binding.force(xy, model.nonlinearity(xy)) ** 2).sum(axis=-1)
    v = lyapunov(model, xy)
    v_tot = v[0] + v[1]
    keep = g_sq > 0.0
    if keep.sum() < 10:
        raise EstimatorError("not enough informative pairs for a growth fit")
    rows = [[1.0, math.log(sep), math.log1p(vt)] for sep, vt in zip(seps[keep], v_tot[keep])]
    values = [math.log(g) for g in g_sq[keep]]
    coef, *_ = np.linalg.lstsq(np.array(rows), np.array(values), rcond=None)
    return {"c": float(np.exp(coef[0])), "alpha": float(coef[1]), "beta": float(coef[2])}


# -- law-distance series ---------------------------------------------------------------


def mixing_distance_series(
    ens_a: EnsembleResult,
    ens_b: EnsembleResult,
    times: Sequence[int],
) -> list[dict]:
    """Dual-Lipschitz distance between the laws of two ensembles, on
    disjoint noise streams, at the requested integer times; samples
    larger than ``DL_DEFAULT_CAP`` are subsampled with seed ``t``."""
    times = sorted(int(t) for t in times)
    states_a, states_b = (ens.head(times[-1]).at_units().states for ens in (ens_a, ens_b))
    out = []
    for t in times:
        value = dual_lipschitz_distance(states_a[t], states_b[t], subsample_seed=t)
        out.append({"t": float(t), "distance": value, "n_a": len(states_a[t]),
                    "n_b": len(states_b[t])})
    return out


# -- report ------------------------------------------------------------------------------


def _finite_or_null(value):
    """``value`` with every NaN or infinite float, however nested, as ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


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
        """Strict JSON (RFC 8259): a non-finite float is written as null."""
        return json.dumps(_finite_or_null(asdict(self)), sort_keys=True, indent=2, allow_nan=False)
