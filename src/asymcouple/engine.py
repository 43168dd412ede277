"""Time integration on a fixed grid with shared-noise coupling semantics.

The scheme is exponential-in-the-diagonal with a two-stage (Heun)
treatment of the remainder: the diagonal linear part is integrated
exactly through ``exp(s dt)``, the nonlinearity and binding drift get
trapezoidal stage weights, and the Gaussian increment enters once per
step with the averaged linear filter weight ``(exp(s dt) - 1)/(s dt)``.

Coupled pairs integrate the difference ``rho = y - x`` pathwise (the
shared noise cancels in ``rho`` identically, and integrating ``rho``
directly avoids cancellation once it is exponentially small); ``y`` is
reconstructed as ``x + rho``.  Because the binding force enters ``rho``
with weight ``W1 = Wn * dt``, re-integrating the second copy alone under
the shifted increments ``dω + G dt`` reproduces ``y`` up to scheme
error.

The log Girsanov weight accumulates the left-point (Ito) sums
``G · Δω - ||G||² dt / 2``; left-point evaluation keeps the exponential
exactly mean-one over fresh noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .binding import BindingSpec
from .models import ModelSpec, apply_noise, lyapunov

LOG_DENSITY_OVERFLOW = 700.0


class EngineError(ValueError):
    pass


class BlowUpError(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, time: float):
        super().__init__(f"blow-up at t={time:.6g}")
        self.time = time

    def __reduce__(self):
        # rebuild from the time, not the message, when crossing a process pool
        return type(self), (self.time,)


@dataclass
class NoisePath:
    """Grid Brownian increments, each row distributed N(0, dt)."""

    dt: float
    increments: np.ndarray  # (steps, n_noise)

    @property
    def steps(self) -> int:
        return self.increments.shape[0]


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


def sample_noise(model: ModelSpec, steps: int, dt: float, seed: int, stream: int = 0) -> NoisePath:
    """Draw a reproducible noise path; identical (seed, stream) pairs give
    bit-identical increment matrices, distinct streams are independent."""
    if dt <= 0:
        raise EngineError("dt must be positive")
    if steps < 0:
        raise EngineError("steps must be non-negative")
    rng = _rng_for(seed, stream)
    increments = rng.normal(0.0, math.sqrt(dt), size=(steps, model.n_noise))
    return NoisePath(dt=dt, increments=increments)


# times closer than this are one time; records are at least one step apart
_TIME_TOL = 1e-9


class _PathBatch:
    """A batch of paths.  Per-path arrays carry the record (for the W sups,
    the unit interval) on axis 0 and the path on axis 1; ``times`` and
    ``dt`` are shared by all paths.  Records may be denser over the first
    units than over the rest."""

    _UNIT_FIELDS = ("w_sup", "w_sup_x", "w_sup_y")

    def _take(self, rows, units=None):
        """The records at ``rows`` and the W sups of the first ``units`` intervals."""
        cut = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "dt" or value is None:
                cut[field.name] = value
            else:
                cut[field.name] = value[:units] if field.name in self._UNIT_FIELDS else value[rows]
        return type(self)(**cut)

    def head(self, units: int):
        """The batch over its first ``units`` time units: records up to
        time ``units`` and the W sups of those intervals.  Integration is
        sequential, so this is bit for bit the shorter run."""
        if units > round(float(self.times[-1])):
            raise EngineError(f"the batch ends at t={float(self.times[-1]):g}, before {units}")
        stop = int(np.searchsorted(self.times, units + _TIME_TOL, side="right"))
        return self._take(slice(stop), units)

    def at_units(self):
        """The batch at the integer times alone: record ``t`` is time ``t``."""
        rows = np.flatnonzero(np.abs(self.times - np.rint(self.times)) < _TIME_TOL)
        if not np.array_equal(np.rint(self.times[rows]), np.arange(len(rows))):
            raise EngineError("records must include every integer time")
        return self._take(rows)

    def then(self, later):
        """This batch followed by ``later``, a run of the same paths from
        this batch's last record on: the record they share is kept once."""
        if abs(float(later.times[0]) - float(self.times[-1])) > _TIME_TOL:
            raise EngineError("the later batch must start at this batch's last record")
        joined = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "dt" or value is None:
                joined[field.name] = value
            else:
                more = getattr(later, field.name)
                more = more if field.name in self._UNIT_FIELDS else more[1:]
                joined[field.name] = np.concatenate([value, more])
        return type(self)(**joined)

    @classmethod
    def concat(cls, parts):
        """Join batches in order along the path axis."""
        merged = {}
        for field in fields(cls):
            value = getattr(parts[0], field.name)
            if field.name in ("times", "dt") or value is None:
                merged[field.name] = value
            else:
                merged[field.name] = np.concatenate([getattr(p, field.name) for p in parts], axis=1)
        return cls(**merged)


@dataclass
class EnsembleResult(_PathBatch):
    times: np.ndarray
    states: np.ndarray        # (records, n_traj, dim)
    w_sup: np.ndarray         # (units, n_traj)
    dt: float


@dataclass
class CoupledEnsembleResult(_PathBatch):
    times: np.ndarray
    x: np.ndarray             # (records, n_traj, dim)
    rho: np.ndarray
    zeta: np.ndarray | None   # (records, n_traj, n_zeta)
    log_density: np.ndarray   # (records, n_traj)
    w_sup_x: np.ndarray       # (units, n_traj)
    w_sup_y: np.ndarray
    g_l2: np.ndarray          # (records, n_traj) running sum of ||G||² dt
    overflow: np.ndarray      # (records, n_traj) bool, sticky
    dt: float

    @property
    def y(self) -> np.ndarray:
        return self.x + self.rho

    def x_half(self) -> EnsembleResult:
        """The ``x`` paths alone: bit for bit the uncoupled run on the same streams."""
        return EnsembleResult(times=self.times, states=self.x, w_sup=self.w_sup_x, dt=self.dt)


class _Scheme:
    """Per-(model, dt) step weights for the exponential two-stage scheme,
    and the steps per unit interval, over which the W sups are taken."""

    def __init__(self, model: ModelSpec, dt: float):
        if dt <= 0:
            raise EngineError("dt must be positive")
        s = model.linear_spectrum
        self.dt = dt
        self.exp_factor = np.exp(s * dt)
        self.w1 = np.where(s != 0.0, np.expm1(s * dt) / np.where(s != 0.0, s, 1.0), dt)
        self.w_noise = self.w1 / dt
        self.steps_per_unit = round(1.0 / dt)
        if abs(self.steps_per_unit * dt - 1.0) >= 1e-9:
            raise EngineError("dt must divide the unit interval for W tracking")


def _records(dt: float, record_every: int, stop: int, unit: int | None = None, start: int = 0,
             dense_stop: int | None = None):
    """Record steps, counted from step ``start``, and record times of a run
    over the grid steps ``start..stop``: every ``record_every`` steps up to
    step ``dense_stop``, every ``unit`` steps after.  ``unit`` (the whole
    run if None) is a multiple of ``record_every``, and ``start``, ``stop``
    and ``dense_stop`` (``stop`` if None) are multiples of ``unit``."""
    unit = stop if unit is None else unit
    if record_every < 1 or unit % record_every:
        raise EngineError(f"record_every={record_every} must divide the step count {unit}")
    dense_stop = min(max(stop if dense_stop is None else dense_stop, start), stop)
    dense = np.arange(start // record_every, dense_stop // record_every + 1)
    tail = np.arange(dense_stop // unit + 1, stop // unit + 1) if stop > dense_stop else dense[:0]
    steps = np.concatenate([dense * record_every, tail * unit]) - start
    return steps, np.concatenate([dense * (record_every * dt), tail * (unit * dt)])


def _integrate_batch(model, scheme, x0, increments, records, binding=None, rho0=None):
    """The batch stepper.

    Always steps ``x`` under the increments, recording at the steps and
    times ``records`` (step 0 and the last step among them).  Given a
    binding it also steps the difference ``rho`` from ``rho0`` with the
    binding drift and tracks the Girsanov log weight, ``||G||²``, the
    overflow flag, ``zeta`` and the W sups of ``y``; the weight,
    ``||G||²`` and the flag are recorded as of each record.  Returns an
    :class:`EnsembleResult` or a :class:`CoupledEnsembleResult`.
    """
    steps = increments.shape[0]
    record_steps, times = records
    if record_steps[0] != 0 or record_steps[-1] != steps:
        raise EngineError("records must start at step 0 and end at the last step")
    next_records = iter(int(s) for s in record_steps[1:])
    next_record = next(next_records, None)
    spu = scheme.steps_per_unit
    e, w1, wn, dt = scheme.exp_factor, scheme.w1, scheme.w_noise, scheme.dt
    f = model.nonlinearity
    coupled = binding is not None
    # the copies' rows at the step start (x, then y = x + rho) and at the
    # predictor stage, so that one nonlinearity call per stage serves both;
    # C order keeps every row reduction in one summation order
    cur = np.empty((2 if coupled else 1,) + np.shape(x0))
    pred = np.empty_like(cur)
    x = cur[0]
    x[...] = x0
    n = x.shape[0]
    x_records = [x.copy()]
    vx = lyapunov(model, x)
    wx_cur = vx.copy()
    w_sup_x = []
    if coupled:
        rho = np.array(rho0, dtype=float, order="C")
        y = np.add(x, rho, out=cur[1])
        log_density = np.zeros(n)
        g_l2 = np.zeros(n)
        overflow = np.zeros(n, dtype=bool)
        zeta_fn = binding.zeta_map
        rho_records = [rho.copy()]
        zeta_records = [zeta_fn(x, y)] if zeta_fn is not None else None
        logdens_records = [log_density.copy()]
        g_l2_records = [g_l2.copy()]
        overflow_records = [overflow.copy()]
        vy = lyapunov(model, y)
        wy_cur = vy.copy()
        w_sup_y = []

    # blow-ups are detected and reported, not raised by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            dw = increments[step]
            forcing = wn * apply_noise(model, dw)
            f1 = f(cur)
            np.add(e * x + w1 * f1[0], forcing, out=pred[0])
            if coupled:
                g1 = binding.force(x, y)
                nr1 = f1[1] - f1[0] + apply_noise(model, g1)
                rho_pred = e * rho + w1 * nr1
                np.add(pred[0], rho_pred, out=pred[1])
            f2 = f(pred)
            if coupled:
                g2 = binding.force(pred[0], pred[1])
                nr2 = f2[1] - f2[0] + apply_noise(model, g2)
                rho = e * rho + 0.5 * w1 * (nr1 + nr2)
            np.add(e * x + 0.5 * w1 * (f1[0] + f2[0]), forcing, out=x)

            if not np.all(np.isfinite(x)) or (coupled and not np.all(np.isfinite(rho))):
                raise BlowUpError((step + 1) * dt)

            vx = lyapunov(model, x)
            np.maximum(wx_cur, vx, out=wx_cur)
            if coupled:
                np.add(x, rho, out=y)
                g_sq = (g1**2).sum(axis=-1)
                log_density += (g1 * dw).sum(axis=-1) - 0.5 * g_sq * dt
                g_l2 += g_sq * dt
                overflow |= np.abs(log_density) > LOG_DENSITY_OVERFLOW
                vy = lyapunov(model, y)
                np.maximum(wy_cur, vy, out=wy_cur)
            if (step + 1) % spu == 0:
                w_sup_x.append(wx_cur)
                wx_cur = vx.copy()
                if coupled:
                    w_sup_y.append(wy_cur)
                    wy_cur = vy.copy()
            if step + 1 == next_record:
                next_record = next(next_records, None)
                x_records.append(x.copy())
                if coupled:
                    rho_records.append(rho.copy())
                    logdens_records.append(log_density.copy())
                    g_l2_records.append(g_l2.copy())
                    overflow_records.append(overflow.copy())
                    if zeta_records is not None:
                        zeta_records.append(zeta_fn(x, y))

    # reshape keeps the path axis when no unit interval completed
    w_sup_x = np.array(w_sup_x).reshape(-1, n)
    if not coupled:
        return EnsembleResult(times=times, states=np.array(x_records), w_sup=w_sup_x, dt=dt)
    return CoupledEnsembleResult(
        times=times,
        x=np.array(x_records),
        rho=np.array(rho_records),
        zeta=np.array(zeta_records) if zeta_records is not None else None,
        log_density=np.array(logdens_records),
        w_sup_x=w_sup_x,
        w_sup_y=np.array(w_sup_y).reshape(-1, n),
        g_l2=np.array(g_l2_records),
        overflow=np.array(overflow_records),
        dt=dt,
    )


def _check_path_inputs(model: ModelSpec, noise: NoisePath, *starts: np.ndarray):
    for start in starts:
        if start.shape != (model.dim,):
            raise EngineError(f"initial condition has shape {start.shape}, expected ({model.dim},)")
    if not np.all(np.isfinite(noise.increments)):
        raise EngineError("noise path has non-finite increments")


def integrate(model: ModelSpec, x0: np.ndarray, noise: NoisePath, record_every: int = 1) -> EnsembleResult:
    """Integrate one path: an ensemble of one, recorded at every
    ``record_every``-th grid time (the spacing must divide the step count)."""
    x0 = np.asarray(x0, dtype=float)
    _check_path_inputs(model, noise, x0)
    return _integrate_batch(
        model, _Scheme(model, noise.dt), x0[None, :], noise.increments[:, None, :],
        _records(noise.dt, record_every, noise.steps),
    )


def integrate_coupled(
    model: ModelSpec,
    binding: BindingSpec,
    x0: np.ndarray,
    y0: np.ndarray,
    noise: NoisePath,
    record_every: int = 1,
) -> CoupledEnsembleResult:
    """Integrate one bound pair, an ensemble of one: ``x`` under the given
    noise, the difference ``rho`` pathwise with the binding drift,
    ``y = x + rho``.

    For ``y0 = x0`` the difference stays exactly zero, the force is
    exactly zero and the Girsanov weight stays exactly one.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    _check_path_inputs(model, noise, x0, y0)
    return _integrate_batch(
        model, _Scheme(model, noise.dt), x0[None, :], noise.increments[:, None, :],
        _records(noise.dt, record_every, noise.steps), binding, (y0 - x0)[None, :],
    )


def shift_noise(noise: NoisePath, pair: CoupledEnsembleResult, binding: BindingSpec,
                inverse: bool = False) -> NoisePath:
    """Binding image of a noise path: increments shifted by the force at
    each step's left point, ``Δω + G dt`` (or ``Δω - G dt`` for the
    inverse map).  ``pair`` is the one bound pair run under ``noise`` with
    ``binding``, recorded at every step."""
    if pair.x.shape[1] != 1 or len(pair.times) != noise.steps + 1:
        raise EngineError("pair and noise path have different step counts: "
                          "the pair must be one path recorded at every step")
    force = binding.force(pair.x[:-1, 0], pair.y[:-1, 0])
    sign = -1.0 if inverse else 1.0
    return NoisePath(dt=noise.dt, increments=noise.increments + sign * force * noise.dt)


# -- ensembles ----------------------------------------------------------------

_CHUNK_BYTES = 1 << 26


def _chunks(n_traj: int, steps: int, n_noise: int):
    per_traj = max(1, steps * n_noise * 8)
    chunk = max(1, min(n_traj, _CHUNK_BYTES // per_traj))
    start = 0
    while start < n_traj:
        stop = min(n_traj, start + chunk)
        yield start, stop
        start = stop


def _stack_noise(model, steps, dt, seed, streams, skip=0):
    """The streams' increments from step ``skip`` on, ``steps`` of them."""
    cols = [sample_noise(model, skip + steps, dt, seed, s).increments[skip:] for s in streams]
    return np.stack(cols, axis=1)  # (steps, n_chunk, n_noise)


def _run_chunked(model, x0, n_traj, units, dt, seed, stream0, record_every, dense_units,
                 start_unit=0, binding=None, y0=None):
    """Integrate ``n_traj`` paths in chunks that bound the noise memory,
    path ``i`` on noise stream ``stream0 + i``, and join the chunks."""
    if n_traj < 1:
        raise EngineError("n_traj must be positive")
    scheme = _Scheme(model, dt)
    spu = scheme.steps_per_unit
    skip, steps = start_unit * spu, units * spu
    records = _records(dt, record_every or spu, skip + steps, spu, skip,
                       None if dense_units is None else dense_units * spu)
    x0 = np.asarray(x0, dtype=float)
    xs = np.broadcast_to(x0, (n_traj, model.dim))
    rhos = None
    if binding is not None:
        rhos = np.broadcast_to(np.asarray(y0, dtype=float) - x0, (n_traj, model.dim))
    parts = []
    for lo, hi in _chunks(n_traj, skip + steps, model.n_noise):
        incr = _stack_noise(model, steps, dt, seed, range(stream0 + lo, stream0 + hi), skip=skip)
        rho0 = rhos[lo:hi] if rhos is not None else None
        parts.append(_integrate_batch(model, scheme, xs[lo:hi], incr, records, binding, rho0))
    return type(parts[0]).concat(parts)


def run_ensemble(
    model: ModelSpec,
    x0: np.ndarray,
    n_traj: int,
    units: int,
    dt: float,
    seed: int,
    stream0: int = 0,
    record_every: int | None = None,
    dense_units: int | None = None,
    start_unit: int = 0,
) -> EnsembleResult:
    """Integrate ``n_traj`` independent paths from ``x0`` for ``units``
    time units; trajectory ``i`` uses noise stream ``stream0 + i``.

    ``x0`` is one start ``(dim,)`` shared by every path, or one start per
    path ``(n_traj, dim)``.  States are recorded every ``record_every``
    steps (once a unit if None) up to time ``dense_units`` (the end if
    None) and once a unit after.  With ``start_unit`` the paths start at
    that time: they take their streams' noise from there on, so a run
    continued from the last record of an earlier run over ``start_unit``
    units carries on as one longer run would."""
    return _run_chunked(model, x0, n_traj, units, dt, seed, stream0, record_every, dense_units,
                        start_unit)


def run_coupled_ensemble(
    model: ModelSpec,
    binding: BindingSpec,
    x0: np.ndarray,
    y0: np.ndarray,
    n_traj: int,
    units: int,
    dt: float,
    seed: int,
    stream0: int = 0,
    record_every: int | None = None,
    dense_units: int | None = None,
) -> CoupledEnsembleResult:
    """Integrate ``n_traj`` bound pairs from ``(x0, y0)`` for ``units``
    time units; pair ``i`` uses noise stream ``stream0 + i``.

    ``x0`` and ``y0`` are each one start ``(dim,)`` shared by every pair,
    or one start per pair ``(n_traj, dim)``.  Records are kept as for
    :func:`run_ensemble`."""
    return _run_chunked(model, x0, n_traj, units, dt, seed, stream0, record_every, dense_units,
                        binding=binding, y0=y0)
