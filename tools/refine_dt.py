"""Refinement budget of the presets' step size: the numbers each gate
checks, at dt, dt/2 and dt/4 on one set of Brownian paths.

    python tools/refine_dt.py [PRESET ...]

It runs every preset but mixing-distance unless some are named, and
prints one table per run of a gate (chain-cascade has two, its ``run``
and its ``rates``) and the dt each run may take.

Common noise.  Every path's noise is drawn at ``FINE_DT`` from the
gate's own seed and the path's stream, as the gate's ensemble draws it.
A level dt = 2^j ``FINE_DT`` takes each of its increments as the sum of
2^j fine ones, as criterion 9's Richardson check does: each level is the
gate's own ensemble call (``presets._coupled``, or the mixing gate's two
``run_ensemble`` calls) given ``noise_dt=FINE_DT``, one batch at the
gate's record spacing.  At ``FINE_DT`` itself it is the gate's run, bit
for bit.  The levels thus differ by the step alone.  ``PATHS`` says how
many paths each gate gets here; the gate's own count may be larger.

The numbers are the gate's own, computed with the helpers its
measurement uses (``presets._zeta_decay_deviation``,
``_envelope_margin`` and ``_rho_v_bound_margin``, ``mean_rho_rate``,
``mean_density``, ``mixing_distance_series`` and
``bootstrap_null_quantile``).  Each has a resolution, and the budget is
a fraction of it:

- A statistical number (a fitted rate, an ensemble mean or ratio) is
  resolved to its path standard error at the gate's own path count: a
  bootstrap over this tool's paths, scaled by the square root of the
  ratio of path counts.  A step that moves it by a tenth of that moves
  the verdict's odds by about a tenth of a standard error, below what
  the pinned seed can show.  Fraction 1/10.
- A pathwise check holds a tolerance: the bound combinations' relative
  deviation from their exact decay, ``presets.ZETA_DECAY_TOL``, and the
  envelopes' allowance ``1 + ENVELOPE_SLOPE t``, read per record as the
  margin's room ``1 - 1/(1 + ENVELOPE_SLOPE t)``.  The scheme may use a
  quarter of it; three quarters stay for what the check is there to
  catch.  Fraction 1/4.
- The mixing gate's law distances are resolved to its own two-sample
  noise floor, the scale on which its rule compares them.  Fraction
  1/10, as for a statistical number.  Its fitted rate is printed, not
  budgeted: it is a function of the distances.
- The chain's rates run checks the Richardson value of its fitted rate,
  ``R(dt) = v(dt/2) + (v(dt/2) - v(dt))/3``, which reads two levels.
  A statistic, budgeted as one: ``R(dt)`` against ``R(dt/2)``.  The
  rate at each level is printed, not budgeted.

The difference is taken from dt to dt/2 (``d1``); the one from dt/2 to
dt/4 (``d2``) shows whether it shrinks at the scheme's order.  The
bootstrap standard error of each statistical difference, on the same
resampled paths at both levels, shows whether this many paths resolve
it.

The Girsanov weight has no dt budget on its mean.  The force ``g_n`` of
step n is taken at the step's left point, so it is fixed by the noise
before the step, and the increment ``Δω_n`` is a centred Gaussian of
covariance ``dt I`` independent of it.  The Gaussian moment generating
function gives ``E[exp(g_n·Δω_n - |g_n|² dt / 2) | past] = 1`` exactly,
so the discrete weight ``exp(Σ_n g_n·Δω_n - |g_n|² dt / 2)`` is a
mean-one martingale of the discrete chain at every dt: the step moves
no mean, only the spread of the weights.  The girsanov budget therefore
covers what the step can move: no path may overflow at any level, and
the standard error, the check's resolution, may move from dt to dt/2 by
a tenth of itself.  The means are printed beside it; their differences
are sampling noise of mean zero.

A candidate is one of ``CANDIDATES`` that divides the unit and the
run's record spacing, so every record stays at its time, and whose
finest level read is no finer than ``FINE_DT``.  The largest
within budget on every number is proposed, with the candidates tried
from the largest down; a level that blows up is out of budget.  If none
is within budget, the run keeps its dt.
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

if __name__ == "__main__":  # run as a script from a source checkout
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from asymcouple import presets  # noqa: E402
from asymcouple import estimators as est  # noqa: E402
from asymcouple.engine import BlowUpError, EngineError, run_ensemble  # noqa: E402

FINE_DT = 6.25e-4
CANDIDATES = (2e-2, 1e-2, 5e-3, 2.5e-3)
PATHS = {"toy-contraction": 100, "gl-gap": 50, "rd-zeta": 50, "chain-cascade": 20,
         "girsanov-martingale": 200, "mixing-distance": 300}
FRACTION = {"statistic": 0.1, "pathwise": 0.25, "se": 0.1, "floor": 0.1}
BOOTSTRAP = 200


def _on_paths(ens, idx):
    """``ens`` (or each of a tuple of levels) on the paths ``idx``."""
    if isinstance(ens, tuple):
        return tuple(_on_paths(e, idx) for e in ens)
    return replace(ens, **{f.name: getattr(ens, f.name)[:, idx] for f in fields(ens)
                           if f.name != "times" and getattr(ens, f.name) is not None})


# -- each run's levels ------------------------------------------------------------------

class _Levels:
    """A run's cases and sizes, and its measured level per dt, made on
    first use: each case's ensemble (the mixing numbers for the mixing
    gate) on the noise drawn at ``FINE_DT``, or None if a path blows up."""

    def __init__(self, gate_id: str, key: str | None, seed_offset: int, last_only: bool):
        gate = presets._GATES[gate_id]
        cases = gate.cases()
        self.cases = dict([list(cases.items())[-1]]) if last_only else cases
        self.seed = gate.seed + seed_offset
        self.cache = {}
        self.mixing = key is None  # its sizes are the run's; records at integer times
        self.sizes = gate.sizes if self.mixing else gate.sizes[key]
        self.n_gate = self.sizes["n_traj"]
        self.n_traj = min(PATHS[gate_id], self.n_gate)
        if self.mixing:
            self.units, self.spacing = max(self.sizes["times"]), 1.0
        else:
            self.units, self.spacing = self.sizes["units"], self.sizes["spacing"]

    def _measure(self, case, dt):
        if not self.mixing:
            run = {**self.sizes, "dt": dt, "n_traj": self.n_traj}
            return presets._coupled(case, run, self.seed, noise_dt=FINE_DT)
        model, xa, xb = case
        n, times = self.n_traj, list(self.sizes["times"])
        ens_a, ens_b = (run_ensemble(model, x0, n, self.units, dt, self.seed, stream0=stream0,
                                     w_sups=False, noise_dt=FINE_DT)
                        for x0, stream0 in ((xa, 0), (xb, n)))
        distances = [row["distance"] for row in est.mixing_distance_series(ens_a, ens_b, times)]
        floor = est.bootstrap_null_quantile(ens_a.states[-1], ens_b.states[-1], seed=self.seed,
                                            n_boot=self.sizes["n_boot"], cap=self.sizes["boot_cap"])
        return {"distances": distances, "floor": floor,
                "gamma": est.fit_contraction(times, distances).gamma}

    def __call__(self, dt: float):
        factor = round(dt / FINE_DT)
        if factor not in self.cache:
            try:
                self.cache[factor] = {name: self._measure(case, dt)
                                      for name, case in self.cases.items()}
            except BlowUpError:
                self.cache[factor] = None
        return self.cache[factor]


# -- the numbers ------------------------------------------------------------------------

class Number(NamedTuple):
    """One dt-sensitive number of a run.  ``value(level, case)`` reads it
    from a case's measured level, or, if it ``reads`` 2, from the tuple of
    that level and the next finer one; ``kind`` says how it is resolved (a
    ``FRACTION`` key, ``count`` for one that must stay 0 at every level,
    ``shown`` for one not budgeted); ``resolution(level, case)`` gives a
    pathwise tolerance or the mixing floor."""

    name: str
    kind: str
    value: Callable
    resolution: Callable | None = None
    reads: int = 1


def _zeta(index, rate):
    return lambda e, case: presets._zeta_decay_deviation(e.zeta[:, :, index], e.times, rate)


def _zeta_tol(e, case):
    return presets.ZETA_DECAY_TOL


def _rate(e, case):
    fit = est.mean_rho_rate(e)
    return math.nan if fit is None else fit.gamma


def _extrapolated_rate(pair, case):
    return presets._extrapolated(*(_rate(e, case) for e in pair))


def _margins(values, scale, rate, times):
    """The gate's envelope margin at each record after the first (at 0 it
    is 1 by construction)."""
    return np.array([presets._envelope_margin(values[i:i + 1], scale, rate, times[i:i + 1])
                     for i in range(1, len(times))])


def _envelope_room(e, case):
    return 1.0 - 1.0 / (1.0 + presets.ENVELOPE_SLOPE * e.times[1:])


def _gl_envelope(e, case):
    model, _, _, rho0 = case
    return _margins(np.linalg.norm(e.rho, axis=-1), float(np.linalg.norm(rho0)),
                    model.params["gap"], e.times)


def _rd_envelope(e, case):
    zeta_sq = (e.zeta**2).sum(axis=-1)
    return _margins(zeta_sq, float(zeta_sq[0, 0]), 1.0, e.times)


def _rd_bound(e, case):
    model, _, _, rho0 = case
    return presets._rho_v_bound_margin(e, rho0, model.dim // 2)


def _density(field):
    def read(e, case):
        mean, se, _ = est.mean_density(e.log_density[-1], ~e.overflow[-1])
        return {"mean": mean, "se": se}[field]
    return read


def _overflowed(e, case):
    return int(e.overflow[-1].sum())


def _mixing(field):
    return lambda m, case: m[field]


class Run(NamedTuple):
    """A run of a gate: its key in the gate's sizes (None: the sizes are
    the run's), its numbers, the seed offset its measurement adds and
    whether it integrates the last case alone."""

    gate: str
    key: str | None
    numbers: tuple
    seed_offset: int = 0
    last_only: bool = False


RUNS = (
    Run("toy-contraction", "run", (
        Number("zeta deviation", "pathwise", _zeta(0, 2.0), _zeta_tol),
        Number("mean |rho| rate", "statistic", _rate))),
    Run("gl-gap", "run", (
        Number("envelope margin", "pathwise", _gl_envelope, _envelope_room),
        Number("mean |rho| rate", "statistic", _rate))),
    Run("rd-zeta", "run", (
        Number("zeta envelope margin", "pathwise", _rd_envelope, _envelope_room),
        Number("rho_v bound ratio", "statistic", _rd_bound))),
    Run("chain-cascade", "run", (
        Number("zeta_k* deviation", "pathwise", _zeta(-1, 1.0), _zeta_tol),), last_only=True),
    Run("chain-cascade", "rates", (
        Number("extrapolated rate", "statistic", _extrapolated_rate, reads=2),
        Number("mean |rho| rate", "shown", _rate)), seed_offset=1),
    Run("girsanov-martingale", "run", (
        Number("density se", "se", _density("se")),
        Number("overflowed", "count", _overflowed),
        Number("mean density", "shown", _density("mean")))),
    Run("mixing-distance", None, (
        Number("distances t=1..8", "floor", _mixing("distances"), _mixing("floor")),
        Number("noise floor", "shown", _mixing("floor")),
        Number("fitted rate", "shown", _mixing("gamma")))),
)


# -- the budget -------------------------------------------------------------------------

def _on_grid(dt: float, spacing: float) -> bool:
    try:
        presets._record_every({"dt": dt, "spacing": spacing})
    except EngineError:
        return False
    return True


def _row(number: Number, levels: _Levels, measured, case, rng) -> dict:
    """``number`` of one case at dt, dt/2 and dt/4, read from the
    ``measured`` levels dt, dt/2, ..."""
    at = [measured[j] if number.reads == 1 else tuple(measured[j:j + number.reads])
          for j in range(3)]
    values = [number.value(e, case) for e in at]
    row = {}
    if number.kind == "se":  # at the gate's own path count
        values = [v * math.sqrt(levels.n_traj / levels.n_gate) for v in values]
    if number.kind == "count":
        row["within"] = all(v == 0 for v in values)
    elif number.kind == "shown":
        row["within"] = True
    else:
        diffs = [np.abs(np.subtract(values[j], values[j + 1])) for j in range(2)]
        if number.kind == "se":
            resolution = values[1]
        elif number.kind == "statistic":
            n = levels.n_traj
            idx = rng.integers(0, n, size=(BOOTSTRAP, n))
            boot = np.array([[number.value(_on_paths(e, i), case) for e in at[:2]] for i in idx])
            resolution = float(boot[:, 0].std(ddof=1)) * math.sqrt(n / levels.n_gate)
            row["diff_se"] = float(np.diff(boot, axis=1).std(ddof=1))
        else:
            resolution = number.resolution(at[0], case)
        used = [float(np.max(d / resolution)) for d in diffs]
        row.update(resolution=float(np.min(resolution)), used=used,
                   within=used[0] <= FRACTION[number.kind])
    return {**row, "values": [float(np.max(v)) for v in values]}


def _fmt(x) -> str:
    return "-" if x is None or not math.isfinite(x) else f"{x:.4g}"


def budget(run: Run, out=print) -> float | None:
    """Print ``run``'s table, candidates from the largest down, and return
    the largest candidate within budget (None if none is)."""
    levels = _Levels(run.gate, run.key, run.seed_offset, run.last_only)
    rng = np.random.default_rng(0)
    out(f"\n{run.gate}/{run.key or 'run'}: {levels.n_traj} of {levels.n_gate} paths, "
        f"{levels.units} units, records every {levels.spacing:g}, seed {levels.seed}, "
        f"gate dt {levels.sizes['dt']:g}")
    out(f"  {'dt':<8} {'number (case)':<42} " + "".join(
        f"{title:<11}" for title in ("v(dt)", "v(dt/2)", "v(dt/4)", "resolution", "d1/res",
                                      "d2/res", "d1 se")) + "within")
    # the finest level read is dt / 2**depth, which the fine noise must reach
    depth = 1 + max(number.reads for number in run.numbers)
    for dt in (c for c in CANDIDATES
               if _on_grid(c, levels.spacing) and c / 2**depth >= FINE_DT * (1 - 1e-9)):
        measured = [levels(dt / 2**j) for j in range(depth + 1)]
        within = True
        for number in run.numbers:
            for name, case in levels.cases.items():
                row = ({"values": [None] * 3, "within": False} if None in measured else
                       _row(number, levels, [m[name] for m in measured], case, rng))
                used = row.get("used", [None, None])
                within &= row["within"]
                cells = [*row["values"], row.get("resolution"), *used, row.get("diff_se")]
                out(f"  {dt:<8g} {f'{number.name} ({name})':<42} "
                    + "".join(f"{_fmt(v):<11}" for v in cells) + ("yes" if row["within"] else "NO"))
        if within:
            out(f"  -> dt = {dt:g} is within budget")
            return dt
    out(f"  -> no candidate is within budget: the run keeps dt = {levels.sizes['dt']:g}")
    return None


def main(argv=None) -> int:
    wanted = sys.argv[1:] if argv is None else argv
    unknown = set(wanted) - {run.gate for run in RUNS}
    if unknown:
        raise SystemExit(f"error: not a preset: {', '.join(sorted(unknown))}")
    print(f"fine dt {FINE_DT:g}; candidates {CANDIDATES}; fractions of the resolution "
          f"{FRACTION}; {BOOTSTRAP} bootstrap resamples")
    for run in RUNS:
        if (run.gate in wanted) if wanted else run.gate != "mixing-distance":
            budget(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
