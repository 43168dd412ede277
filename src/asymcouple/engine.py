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
exactly mean-one over fresh noise.  Each step's ``G`` waits in one
buffer, bounded by ``_FOLD_BYTES`` with the fold's temporaries, and the
sums are folded over it at each record, when it is full and at the end
of each noise block: cumulative sums down the steps, carried on from
the last fold, add in the order of a step-by-step sum.

The noise forces the first ``n_noise`` coordinates, so the increment
and the shift ``Q G`` are added to that block alone.

The sups of the Lyapunov function over each unit interval (the W sups)
are read only by the excursion and density estimators, so a run tracks
them, one Lyapunov call on both copies per step, only when asked
(``w_sups``); otherwise it makes no Lyapunov call and its W-sup fields
are None.

A step reads only its own increment, so an ensemble runs as one batch
whose noise is drawn a block of at most one unit of steps and at most
``_NOISE_BLOCK_BYTES`` (1 MiB) at a time into one reused buffer: the
noise held is paths × noise dims × block steps × 8 bytes, whatever the
run's length.  Blocks this small are cheap because the stepper's
largest per-step workspace, a compiled polynomial's, is itself evaluated
in fixed path blocks (``polynomials.PATH_BLOCK``).  A run given a finer
``noise_dt`` draws its increments at that step and sums them to its own;
the cap holds the drawn block, which then covers that many fewer steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .binding import BindingSpec
from .models import ModelSpec, lyapunov

LOG_DENSITY_OVERFLOW = 700.0


class EngineError(ValueError):
    pass


class BlowUpError(RuntimeError):
    """Integration produced a non-finite state: at ``time``, grid step
    ``step`` counted from time 0, on noise stream ``stream`` (the lowest
    of the paths non-finite at that step; 0 for a given noise path),
    whose first non-finite coordinate of ``x``, or else of ``rho``, is
    ``component``."""

    def __init__(self, time: float, stream: int | None = None, step: int | None = None,
                 component: int | None = None):
        where = "" if stream is None else f" on stream {stream}, step {step}, component {component}"
        super().__init__(f"blow-up at t={time:.6g}{where}")
        self.time, self.stream, self.step, self.component = time, stream, step, component

    def __reduce__(self):
        # rebuild from the fields, not the message, when crossing a process pool
        return type(self), (self.time, self.stream, self.step, self.component)


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
    the unit interval) on axis 0 and the path on axis 1; ``times`` is
    shared by all paths.  Records may be denser over the first
    units than over the rest."""

    _UNIT_FIELDS = ("w_sup", "w_sup_x", "w_sup_y")

    @classmethod
    def _join(cls, parts, per_record, per_unit, shared=()):
        """One batch built field by field from ``parts``: ``per_record`` or
        ``per_unit`` (for the W sups) maps the parts' arrays to the new
        one; the ``shared`` fields and the absent ones are the first part's.
        A field absent from some parts only is refused."""
        out = {}
        for field in fields(cls):
            values = [getattr(part, field.name) for part in parts]
            absent = sum(value is None for value in values)
            if 0 < absent < len(values):
                raise EngineError(f"{field.name} is held by some of the batches only")
            if field.name in shared or absent:
                out[field.name] = values[0]
            else:
                out[field.name] = (per_unit if field.name in cls._UNIT_FIELDS else per_record)(values)
        return cls(**out)

    def _take(self, rows, units=None):
        """The records at ``rows`` and the W sups of the first ``units`` intervals."""
        return self._join([self], lambda v: v[0][rows], lambda v: v[0][:units])

    def head(self, units: int):
        """The batch over its first ``units`` time units: records up to
        time ``units`` and the W sups of those intervals (None if the
        run did not track them).  Integration is sequential, so this is
        bit for bit the shorter run."""
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
        return self._join([self, later], lambda v: np.concatenate([v[0], v[1][1:]]), np.concatenate)

    @classmethod
    def concat(cls, parts):
        """Join batches in order along the path axis; one batch is returned as it is."""
        if len(parts) == 1:
            return parts[0]
        along_paths = partial(np.concatenate, axis=1)
        return cls._join(parts, along_paths, along_paths, shared=("times",))


@dataclass
class EnsembleResult(_PathBatch):
    times: np.ndarray
    states: np.ndarray        # (records, n_traj, dim)
    w_sup: np.ndarray | None  # (units, n_traj), None unless tracked


@dataclass
class CoupledEnsembleResult(_PathBatch):
    times: np.ndarray
    x: np.ndarray             # (records, n_traj, dim)
    rho: np.ndarray
    zeta: np.ndarray | None   # (records, n_traj, n_zeta)
    log_density: np.ndarray   # (records, n_traj)
    w_sup_x: np.ndarray | None  # (units, n_traj), None unless tracked
    w_sup_y: np.ndarray | None
    g_l2: np.ndarray          # (records, n_traj) running sum of ||G||² dt
    overflow: np.ndarray      # (records, n_traj) bool, sticky

    @property
    def y(self) -> np.ndarray:
        return self.x + self.rho

    def x_half(self) -> EnsembleResult:
        """The ``x`` paths alone: bit for bit the uncoupled run on the same streams."""
        return EnsembleResult(times=self.times, states=self.x, w_sup=self.w_sup_x)


class _Scheme:
    """Per-(model, dt) step weights for the exponential two-stage scheme,
    and the steps per unit interval, which ``dt`` must divide."""

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
            raise EngineError("dt must divide the unit interval (unit records, noise blocks)")


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


def _blocks_of(blocks, steps: int):
    """The increment blocks, checked to cover exactly ``steps`` steps."""
    taken = 0
    for block in blocks:
        taken += len(block)
        if taken > steps:
            raise EngineError(f"the noise covers more than the records' {steps} steps")
        yield block
    if taken < steps:
        raise EngineError(f"the noise covers {taken} of the records' {steps} steps")


# the most bytes of one Girsanov fold, its buffer of forces and the fold's
# temporaries (per path and step: the force, two products of it and about
# ten path-sized sums and flags), unless one step alone needs more
_FOLD_BYTES = 1 << 16


def _fold_girsanov(g, dw, dt, last):
    """The log weight, ``||G||² dt`` and the overflow flag after the last
    of the buffered steps with forces ``g`` and increments ``dw``,
    carried on from ``last``, their values before the first of them:
    the last rows of cumulative sums, which add in the order of a
    step-by-step sum (``np.sum`` adds pairwise)."""
    g_sq = (g**2).sum(axis=-1)
    log_density = (g * dw).sum(axis=-1) - 0.5 * g_sq * dt
    g_l2 = g_sq * dt
    log_density[0] += last[0]
    g_l2[0] += last[1]
    log_density = np.cumsum(log_density, axis=0)
    overflow = last[2] | (np.abs(log_density) > LOG_DENSITY_OVERFLOW).any(axis=0)
    return log_density[-1], np.cumsum(g_l2, axis=0)[-1], overflow


def _first_record(value, records: int) -> np.ndarray:
    """An array for ``records`` records of ``value``, holding it as record 0."""
    out = np.empty((records,) + value.shape, value.dtype)
    out[0] = value
    return out


def _blow_up(time: float, step: int, x, rho) -> BlowUpError:
    """The error of a step that left ``x`` or ``rho`` (None if uncoupled)
    non-finite: its lowest such path, and that path's first non-finite
    coordinate of ``x``, or else of ``rho``."""
    bad = [~np.isfinite(a) for a in (x, rho) if a is not None]
    path = int(np.flatnonzero(np.logical_or.reduce([b.any(axis=-1) for b in bad]))[0])
    component = next(int(np.flatnonzero(b[path])[0]) for b in bad if b[path].any())
    return BlowUpError(time, path, step, component)


def _integrate_batch(model, scheme, x0, blocks, records, binding=None, rho0=None, w_sups=True):
    """The batch stepper.

    Always steps ``x`` under the increments, which ``blocks`` yields as
    consecutive ``(block, paths, n_noise)`` arrays that together cover
    the records exactly, recording at the steps and times ``records``
    (step 0 and the last step among them).  Given a binding it also
    steps the difference ``rho`` from ``rho0`` with the binding drift and
    tracks the Girsanov log weight, ``||G||²``, the overflow flag and
    ``zeta``; each record, the first three folded up to it, is written
    at its step.  With ``w_sups`` it tracks the W sups of ``x`` (and ``y``).
    Returns an :class:`EnsembleResult` or a
    :class:`CoupledEnsembleResult`.  A blow-up raises a
    :class:`BlowUpError` whose stream is the path's index in the batch.
    """
    record_steps, times = records
    if record_steps[0] != 0:
        raise EngineError("records must start at step 0")
    record_steps = record_steps.tolist()
    spu = scheme.steps_per_unit
    e, w1, half_w1, dt = scheme.exp_factor, scheme.w1, 0.5 * scheme.w1, scheme.dt
    k, q, wq = model.n_noise, model.noise_coeffs, scheme.w_noise[: model.n_noise]
    f = model.nonlinearity
    coupled = binding is not None
    # the copies' rows at the step start (x, then y = x + rho) and at the
    # predictor stage, so that one nonlinearity call per stage, and one
    # Lyapunov call per step when the W sups are tracked, serves both;
    # C order keeps every row reduction in one summation order
    cur = np.empty((2 if coupled else 1,) + np.shape(x0))
    pred = np.empty_like(cur)
    x = cur[0]
    x[...] = x0
    # noise enters the first n_noise coordinates only
    x_forced, pred_forced = x[..., :k], pred[0, ..., :k]
    n = x.shape[0]
    # every record goes into arrays sized for all of them, so none is held
    # twice: record 0 now, record ``r`` at its step
    x_records = _first_record(x, len(times))
    r = 0
    if coupled:
        rho = np.array(rho0, dtype=float, order="C")
        y = np.add(x, rho, out=cur[1])
        zeta_fn = binding.zeta_map
        rho_records = _first_record(rho, len(times))
        zeta_records = _first_record(zeta_fn(cur), len(times)) if zeta_fn is not None else None
        # each step's force waits in one buffer for the fold that sums it, at
        # the next record, or sooner if the buffer fills or its block ends
        forces = np.empty((max(1, _FOLD_BYTES // (8 * n * (3 * k + 10))), n, k))
        held = 0
        last = (np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool))
        girsanov_records = tuple(_first_record(value, len(times)) for value in last)
    sups = (None, None)
    if w_sups:
        w_cur = lyapunov(model, cur).copy()
        # the sup of V over each unit interval, written at the unit's end
        sups = np.empty((len(cur), record_steps[-1] // spu, n))
    step0 = round(float(times[0]) / dt)

    # blow-ups are detected and reported, not raised by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        step = 0
        for block in _blocks_of(blocks, record_steps[-1]):
            for j, dw in enumerate(block):
                forcing = wq * (q * dw)
                f1 = f(cur)
                ex = e * x
                np.add(ex, w1 * f1[0], out=pred[0])
                pred_forced += forcing
                if coupled:
                    g1 = binding.force(cur, f1)
                    if g1.shape != forces.shape[1:]:
                        raise EngineError(f"the binding force has shape {g1.shape}, "
                                          f"expected {forces.shape[1:]}")
                    forces[held] = g1
                    held += 1
                    nr1 = f1[1] - f1[0]
                    nr1[..., :k] += q * g1
                    erho = e * rho
                    np.add(pred[0], erho + w1 * nr1, out=pred[1])
                f2 = f(pred)
                if coupled:
                    g2 = binding.force(pred, f2)
                    nr2 = f2[1] - f2[0]
                    nr2[..., :k] += q * g2
                    rho = erho + half_w1 * (nr1 + nr2)
                np.add(ex, half_w1 * (f1[0] + f2[0]), out=x)
                x_forced += forcing
                step += 1

                if not np.isfinite(x).all() or (coupled and not np.isfinite(rho).all()):
                    # the time of the run, which a continued run starts after 0
                    raise _blow_up(float(times[0]) + step * dt, step0 + step, x,
                                   rho if coupled else None)

                if coupled:
                    np.add(x, rho, out=y)
                if w_sups:
                    v = lyapunov(model, cur)
                    np.maximum(w_cur, v, out=w_cur)
                    if step % spu == 0:
                        sups[:, step // spu - 1] = w_cur
                        w_cur[...] = v
                record = step == record_steps[r + 1]
                if coupled and (record or held == len(forces) or j + 1 == len(block)):
                    last = _fold_girsanov(forces[:held], block[j + 1 - held : j + 1], dt, last)
                    held = 0
                if record:
                    r += 1
                    x_records[r] = x
                    if coupled:
                        rho_records[r] = rho
                        if zeta_records is not None:
                            zeta_records[r] = zeta_fn(cur)
                        for out, value in zip(girsanov_records, last):
                            out[r] = value

    if not coupled:
        return EnsembleResult(times=times, states=x_records, w_sup=sups[0])
    log_density, g_l2, overflow = girsanov_records
    return CoupledEnsembleResult(
        times=times,
        x=x_records,
        rho=rho_records,
        zeta=zeta_records,
        log_density=log_density,
        w_sup_x=sups[0],
        w_sup_y=sups[1],
        g_l2=g_l2,
        overflow=overflow,
    )


def _starts(model: ModelSpec, n_traj: int, starts):
    """The batch's starts of ``x`` and, given a pair ``(x0, y0)``, of
    ``rho = y0 - x0`` (else None), broadcast to ``(n_traj, dim)``.  Each
    of ``starts`` is one ``(dim,)`` shared by every path or one
    ``(n_traj, dim)`` per path."""
    shape = (n_traj, model.dim)
    starts = [np.asarray(start, dtype=float) for start in starts]
    for start in starts:
        if start.shape not in ((model.dim,), shape):
            raise EngineError(f"initial condition has shape {start.shape}, "
                              f"expected ({model.dim},) or ({n_traj}, {model.dim})")
    rhos = np.broadcast_to(starts[1] - starts[0], shape) if len(starts) == 2 else None
    return np.broadcast_to(starts[0], shape), rhos


def _integrate_given(model, starts, noise: NoisePath, record_every, binding=None):
    """One path, or one pair, from ``starts`` under the given noise."""
    xs, rhos = _starts(model, 1, starts)
    if not np.all(np.isfinite(noise.increments)):
        raise EngineError("noise path has non-finite increments")
    return _integrate_batch(
        model, _Scheme(model, noise.dt), xs, [noise.increments[:, None, :]],
        _records(noise.dt, record_every, noise.steps), binding, rhos,
    )


def integrate(model: ModelSpec, x0: np.ndarray, noise: NoisePath, record_every: int = 1) -> EnsembleResult:
    """Integrate one path: an ensemble of one, recorded at every
    ``record_every``-th grid time (the spacing must divide the step count).
    ``x0`` is ``(dim,)`` or ``(1, dim)``."""
    return _integrate_given(model, (x0,), noise, record_every)


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
    exactly zero and the Girsanov weight stays exactly one.  ``x0`` and
    ``y0`` are each ``(dim,)`` or ``(1, dim)``.
    """
    return _integrate_given(model, (x0, y0), noise, record_every, binding)


def shift_noise(model: ModelSpec, noise: NoisePath, pair: CoupledEnsembleResult,
                binding: BindingSpec, inverse: bool = False) -> NoisePath:
    """Binding image of a noise path: increments shifted by the force at
    each step's left point, ``Δω + G dt`` (or ``Δω - G dt`` for the
    inverse map).  ``pair`` is the one bound pair of ``model`` run under
    ``noise`` with ``binding``, recorded at every step."""
    if pair.x.shape[1] != 1 or len(pair.times) != noise.steps + 1:
        raise EngineError("pair and noise path have different step counts: "
                          "the pair must be one path recorded at every step")
    xy = np.stack([pair.x[:-1, 0], pair.y[:-1, 0]])
    force = binding.force(xy, model.nonlinearity(xy))
    sign = -1.0 if inverse else 1.0
    return NoisePath(dt=noise.dt, increments=noise.increments + sign * force * noise.dt)


# -- ensembles ----------------------------------------------------------------

# the most bytes of one block of a run's noise, all paths over at most a
# unit; 2000 one-noise paths get 65-step blocks
_NOISE_BLOCK_BYTES = 1 << 20


def _noise_blocks(model, dt, seed, streams, spu, skip, steps, factor=1):
    """The streams' increments from step ``skip`` (whole units, drawn and
    dropped a unit at a time) on, ``steps`` of them, as ``(block, paths,
    n_noise)`` views of one reused buffer.  Each is the sum of ``factor``
    increments drawn at ``dt``, so a step is ``factor`` times ``dt``, and a
    unit ``spu`` steps.  Draws are sequential, so each stream's drawn rows
    are those of its one :func:`sample_noise` draw at ``dt``."""
    rngs = [_rng_for(seed, s) for s in streams]
    shape, scale = (len(rngs), model.n_noise), math.sqrt(dt)
    for rng in rngs:
        for _ in range(skip // spu):
            rng.normal(0.0, scale, (spu * factor, shape[1]))
    block = max(1, min(spu, steps, _NOISE_BLOCK_BYTES // max(1, 8 * factor * math.prod(shape))))
    buffer = np.empty((block * factor,) + shape)
    summed = np.empty((block,) + shape) if factor > 1 else None
    for lo in range(0, steps, block):
        rows = buffer[: min(block, steps - lo) * factor]
        for i, rng in enumerate(rngs):
            rows[:, i] = rng.normal(0.0, scale, (len(rows), shape[1]))
        if factor > 1:
            rows = np.sum(rows.reshape((-1, factor) + shape), axis=1,
                          out=summed[: len(rows) // factor])
        yield rows


def _factor(dt: float, noise_dt: float | None) -> int:
    """How many increments drawn at ``noise_dt`` make one step of ``dt``."""
    if noise_dt is None:
        return 1
    factor = round(dt / noise_dt) if noise_dt > 0 else 0
    if factor < 1 or abs(factor * noise_dt - dt) > 1e-9 * dt:
        raise EngineError(f"noise_dt={noise_dt:g} must divide dt={dt:g}")
    return factor


def _run(model, starts, n_traj, units, dt, seed, stream0, record_every, dense_units,
         start_unit=0, binding=None, w_sups=True, noise_dt=None):
    """Integrate ``n_traj`` paths (pairs, given a binding) from ``starts``
    as one batch, path ``i`` on noise stream ``stream0 + i``, its noise
    drawn a block at a time (at ``noise_dt`` and summed to steps of
    ``dt``, if given); the W sups are tracked if ``w_sups``."""
    if n_traj < 1:
        raise EngineError("n_traj must be positive")
    if units < 0 or start_unit < 0:
        raise EngineError(f"units={units} and start_unit={start_unit} must be non-negative")
    xs, rhos = _starts(model, n_traj, starts)
    scheme = _Scheme(model, dt)
    factor = _factor(dt, noise_dt)
    spu = scheme.steps_per_unit
    skip, steps = start_unit * spu, units * spu
    records = _records(dt, record_every or spu, skip + steps, spu, skip,
                       None if dense_units is None else dense_units * spu)
    blocks = _noise_blocks(model, noise_dt or dt, seed, range(stream0, stream0 + n_traj), spu,
                           skip, steps, factor)
    try:
        return _integrate_batch(model, scheme, xs, blocks, records, binding, rhos, w_sups)
    except BlowUpError as exc:
        raise BlowUpError(exc.time, stream0 + exc.stream, exc.step, exc.component) from None


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
    w_sups: bool = True,
    noise_dt: float | None = None,
) -> EnsembleResult:
    """Integrate ``n_traj`` independent paths from ``x0`` for ``units``
    time units; trajectory ``i`` uses noise stream ``stream0 + i``.

    ``x0`` is one start ``(dim,)`` shared by every path, or one start per
    path ``(n_traj, dim)``.  States are recorded every ``record_every``
    steps (once a unit if None) up to time ``dense_units`` (the end if
    None) and once a unit after.  With ``start_unit`` the paths start at
    that time: they take their streams' noise from there on, so a run
    continued from the last record of an earlier run over ``start_unit``
    units carries on as one longer run would.  All paths step as one
    batch; their noise is drawn a block of at most one unit of steps at a
    time, so its memory does not grow with ``units``.  The W sups are
    tracked, one Lyapunov call per step, only if ``w_sups``: otherwise
    ``w_sup`` is None.  Given ``noise_dt``, which must divide ``dt``, each
    stream's increments are drawn at ``noise_dt`` and each step takes the
    sum of the ``dt / noise_dt`` inside it, so runs at several ``dt`` share
    one Brownian path per stream; without it they are drawn at ``dt``.  A
    blow-up raises a :class:`BlowUpError` that names the stream."""
    return _run(model, (x0,), n_traj, units, dt, seed, stream0, record_every, dense_units,
                start_unit, w_sups=w_sups, noise_dt=noise_dt)


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
    w_sups: bool = True,
    noise_dt: float | None = None,
) -> CoupledEnsembleResult:
    """Integrate ``n_traj`` bound pairs from ``(x0, y0)`` for ``units``
    time units; pair ``i`` uses noise stream ``stream0 + i``.

    ``x0`` and ``y0`` are each one start ``(dim,)`` shared by every pair,
    or one start per pair ``(n_traj, dim)``.  Records, the W sups and the
    noise at ``noise_dt`` are as for :func:`run_ensemble`."""
    return _run(model, (x0, y0), n_traj, units, dt, seed, stream0, record_every, dense_units,
                binding=binding, w_sups=w_sups, noise_dt=noise_dt)
