"""Test oracles: slow, plain references for the library's fast paths.

Each is written the obvious way and read only by the tests:

- ``drift``: the full drift ``A x + F(x)``, which the stepper never
  forms (it integrates the linear part exactly); it states what a
  binding force or a dissipativity bound means.
- ``parse_polynomial`` and ``parse_cascade_dump``: read back the dumps
  the library writes but never reads (``format_polynomial``,
  ``dump_cascade_text``), to check that the text is lossless.
- ``evaluate``: term-by-term evaluation of a symbolic polynomial, in
  floats or exactly in fractions; it pins ``CompiledPolynomial.evaluate``
  (and with it the chain's force and zeta maps, also against exact
  rationals) and, through finite differences, ``lie_derivative``.
- ``dirac_dl_distance``: the closed form for two point masses; it pins
  ``dual_lipschitz_distance``.
- ``force_at``: a binding force at the copies ``(x, y)``, as the stepper
  evaluates it; it pins ``shift_noise`` and the stepper's Girsanov sums.
- ``girsanov_sums``: the log weight, ``||G||² dt`` and the overflow flag
  summed step by step; it pins the stepper's folded sums.
- ``constant_binding``: a force that is one constant everywhere.  Its
  zero case unbinds the pair (the copies share the noise and nothing
  joins them): the presets' negative controls and the density-one
  checks.  A nonzero constant gives a closed-form log weight.
- ``linear_model``, ``linear_step`` and ``linear_law``: a linear system
  ``A x + B x`` with ``A`` diagonal, on which the stepper is an exact
  linear recursion, and the exact Gaussian law of that recursion; they
  pin the stepper and ``lyapunov_fit``.  ``continuous_law`` is the exact
  Gaussian law of the system itself; its gap to ``linear_law`` is the
  scheme's weak error on the linear part.
- ``coupled_chain_field``: the force-free drift of the coupled chain in
  ``(x, rho)``; Lie derivatives along it are the coupled cascade that
  ``build_zeta_cascade`` computes by substitution instead.
- ``chain_nonlinearity``: the chain's nonlinearity as two sliced
  neighbour sums; it pins the contiguous passes of ``make_chain``'s.
- ``DiscreteMeasure`` and its lattice algebra (``meet``, ``subtract``,
  ``leq``, ``pushforward``, ``dirac``): finitely supported measures as
  exact dictionary arithmetic on point weights.  ``overlap_ingredients``
  takes two of them to the exact meet mass on a set and the ingredients
  of the paper's overlap lemmas, whose right-hand sides are
  ``overlap_bound`` and ``inverse_square_overlap_bound``.
"""

import math
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple

import numpy as np
from scipy.linalg import expm

from asymcouple import engine
from asymcouple.binding import BindingSpec
from asymcouple.models import ModelError, ModelSpec
from asymcouple.polynomials import IndexedPolynomial, PolynomialError, PolyVectorField


def drift(model: ModelSpec, state: np.ndarray) -> np.ndarray:
    """Full deterministic drift ``A x + F(x)``."""
    state = np.asarray(state, dtype=float)
    if state.shape[-1] != model.dim:
        raise ModelError(f"state has length {state.shape[-1]}, expected {model.dim}")
    if not np.all(np.isfinite(state)):
        raise ModelError("non-finite state")
    return model.linear_spectrum * state + model.nonlinearity(state)


def linear_model(spectrum, noise_coeffs, coupling=None) -> ModelSpec:
    """``dx = (A + B) x dt + Q dω`` with ``A = diag(spectrum)``, the
    coupling ``B`` (zero if None) as the nonlinearity ``F(x) = B x``,
    noise on the first ``len(noise_coeffs)`` coordinates and ``V = |x|``."""
    spectrum = np.asarray(spectrum, dtype=float)
    coupling = None if coupling is None else np.asarray(coupling, dtype=float)
    return ModelSpec(
        id="linear",
        dim=len(spectrum),
        linear_spectrum=spectrum,
        nonlinearity=lambda x: np.zeros_like(x) if coupling is None else x @ coupling.T,
        lyapunov=lambda x: np.sqrt((x * x).sum(-1)),
        noise_coeffs=np.asarray(noise_coeffs, dtype=float),
        params={},
    )


def linear_step(model: ModelSpec, dt: float):
    """``(M, N)`` of the stepper's step ``x' = M x + N Δω`` on a linear
    model: ``M = E + ½ W1 B (I + E + W1 B)`` and ``N = (I + ½ W1 B) W1/dt
    diag(q)`` on the forced coordinates, with ``E = diag(e^{s dt})`` and
    ``W1 = diag((e^{s dt} - 1)/s)``."""
    s, dim, k = model.linear_spectrum, model.dim, model.n_noise
    coupling = model.nonlinearity(np.eye(dim)).T
    e = np.diag(np.exp(s * dt))
    w1 = np.diag(np.where(s != 0.0, np.expm1(s * dt) / np.where(s != 0.0, s, 1.0), dt))
    half = np.eye(dim) + 0.5 * w1 @ coupling
    m = e + 0.5 * w1 @ coupling @ (np.eye(dim) + e + w1 @ coupling)
    return m, half @ (w1 / dt)[:, :k] * model.noise_coeffs


def linear_law(model: ModelSpec, x0, dt: float, steps: int):
    """The exact mean ``Mⁿ x0`` and covariance ``Σ_k M^k N Nᵀ (M^k)ᵀ dt``
    of the stepper's state after ``steps`` steps from ``x0``."""
    m, n = linear_step(model, dt)
    mean, cov, power = np.asarray(x0, dtype=float), np.zeros((model.dim,) * 2), np.eye(model.dim)
    for _ in range(steps):
        mean = m @ mean
        cov += power @ n @ n.T @ power.T * dt
        power = m @ power
    return mean, cov


def continuous_law(model: ModelSpec, x0, t: float):
    """The exact mean ``e^{Ct} x0`` and covariance ``∫_0^t e^{Cs} S Sᵀ e^{Cᵀs} ds``
    of ``dx = C x dt + S dω`` at time ``t``, with ``C = A + B`` and ``S`` the
    noise coefficients on the forced coordinates; the covariance from Van
    Loan's block exponential of ``[[-C, S Sᵀ], [0, Cᵀ]] t``."""
    dim, k = model.dim, model.n_noise
    c = np.diag(model.linear_spectrum) + model.nonlinearity(np.eye(dim)).T
    s = np.zeros((dim, k))
    s[:k] = np.diag(model.noise_coeffs)
    block = expm(np.block([[-c, s @ s.T], [np.zeros((dim, dim)), c.T]]) * t)
    return expm(c * t) @ np.asarray(x0, dtype=float), block[dim:, dim:].T @ block[:dim, dim:]


def coupled_chain_field(model: ModelSpec) -> PolyVectorField:
    """Joint force-free drift of the coupled chain in the variables
    ``(x_i, rho_i)``: the second copy is eliminated through ``y = x + rho``
    and the boundary is closed with ``x_M = rho_M = 0``."""
    a2 = model.params["a_squared"]
    m = model.dim
    xv = [IndexedPolynomial.variable("x", i) for i in range(m)]
    rv = [IndexedPolynomial.variable("rho", i) for i in range(m)]
    zero = IndexedPolynomial()
    rows = {}
    for i in range(m):
        left_x = xv[i - 1] if i >= 1 else zero
        right_x = xv[i + 1] if i + 1 < m else zero
        rows[("x", i)] = (a2 - i**2) * xv[i] + left_x + right_x - xv[i] ** 3
        left_r = rv[i - 1] if i >= 1 else zero
        right_r = rv[i + 1] if i + 1 < m else zero
        # rho * (x² + x y + y²) with y = x + rho
        cubic = rv[i] * (3 * xv[i] ** 2 + 3 * xv[i] * rv[i] + rv[i] ** 2)
        rows[("rho", i)] = (a2 - i**2) * rv[i] + left_r + right_r - cubic
    return PolyVectorField(rows=rows, truncation=m)


def chain_nonlinearity(x: np.ndarray) -> np.ndarray:
    """``-x_k³ + x_{k-1} + x_{k+1}`` with ``x_{-1} = x_M = 0``: the left
    neighbours added first, then the right ones."""
    out = -(x * x * x)
    out[..., 1:] += x[..., :-1]
    out[..., :-1] += x[..., 1:]
    return out


def constant_binding(model: ModelSpec, value: float = 0.0) -> BindingSpec:
    """The force ``G = value`` on every forced coordinate, at every pair."""
    return BindingSpec(
        model_id=model.id,
        force=lambda xy, f_xy: np.full(xy.shape[1:-1] + (model.n_noise,), value),
    )


def force_at(model: ModelSpec, binding: BindingSpec, x, y) -> np.ndarray:
    """The binding force at the copies ``(x, y)``, as the stepper
    evaluates it: on the stacked copies and the nonlinearity there."""
    xy = np.stack(np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))
    return binding.force(xy, model.nonlinearity(xy))


def girsanov_sums(force: np.ndarray, increments: np.ndarray, dt: float):
    """The log weight ``Σ G·Δω - |G|² dt/2``, the running ``Σ |G|² dt`` and
    the sticky flag ``|log weight| > engine.LOG_DENSITY_OVERFLOW``, summed
    in a plain loop over the steps' forces ``(steps, n_noise)`` and
    increments; each array holds its value before the first step as
    record 0."""
    running_log, running_l2, flag = 0.0, 0.0, False
    log_density, g_l2, overflow = [0.0], [0.0], [False]
    for g, dw in zip(force, increments):
        g_sq = float((g**2).sum())
        running_log += float((g * dw).sum()) - 0.5 * g_sq * dt
        running_l2 += g_sq * dt
        flag = flag or abs(running_log) > engine.LOG_DENSITY_OVERFLOW
        log_density.append(running_log)
        g_l2.append(running_l2)
        overflow.append(flag)
    return np.array(log_density), np.array(g_l2), np.array(overflow)


def evaluate(p: IndexedPolynomial, assignment):
    """Evaluate by direct summation of monomials.

    Values may be scalars or numpy arrays of a common broadcastable
    shape.  On :class:`fractions.Fraction` values the evaluation is
    exact: the coefficients are taken as fractions too.  Raises
    :class:`PolynomialError` on unbound variables.
    """
    missing = p.variables() - set(assignment)
    if missing:
        raise PolynomialError(f"unbound variable(s): {sorted(missing)}")
    exact = any(isinstance(value, Fraction) for value in assignment.values())
    total = Fraction(0) if exact else 0.0
    for mono, coef in p.terms.items():
        term = Fraction(coef) if exact else coef
        for var, power in mono:
            term = term * assignment[var] ** power
        total = total + term
    return total


def dirac_dl_distance(separation: float) -> float:
    """Closed form for two point masses at Euclidean distance d: 2d/(2+d)."""
    return 2.0 * separation / (2.0 + separation)


def parse_polynomial(text: str) -> IndexedPolynomial:
    """One ``coef * x[3]*rho[2]^2`` term per line, a bare ``coef`` the
    constant term, ``0`` the zero polynomial; ``#`` lines are skipped."""
    total = IndexedPolynomial()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "0":
            continue
        coef_part, _, body = line.partition("*")
        coef = float(coef_part.strip())
        terms = []
        if body.strip():
            for factor in body.split("*"):
                factor = factor.strip()
                name, _, rest = factor.partition("[")
                idx_part, _, pow_part = rest.partition("]")
                power = 1
                if pow_part.startswith("^"):
                    power = int(pow_part[1:])
                terms.append(((name, int(idx_part)), power))
        total = total + IndexedPolynomial({tuple(terms): coef})
    return total


def parse_cascade_dump(text: str) -> dict[str, IndexedPolynomial]:
    """Parse a cascade dump back into named polynomials ('zeta 1', 'Q 2', 'G')."""
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = sections.setdefault(stripped[1:-1], [])
        elif current is not None and stripped and not stripped.startswith("#"):
            current.append(stripped)
    return {name: parse_polynomial("\n".join(body)) for name, body in sections.items()}


# -- finitely supported measures ---------------------------------------------
#
# Support points are opaque hashable atoms compared by exact equality;
# every operation is pure.

Point = Hashable

# Weights below this are pruned after every operation so that supports
# stay canonical and measures built along different routes compare equal.
PRUNE_EPS = 1e-15

# Mass tolerance for "is a probability measure".
PROB_TOL = 1e-12


class MeasureError(ValueError):
    """Raised for invalid weights, partial maps, or measures an overlap
    bound cannot take."""


class DiscreteMeasure:
    """Non-negative measure with finite support.

    Parameters
    ----------
    weights:
        Mapping or iterable of ``(point, weight)`` pairs.  Duplicate
        points are summed, negative weights are rejected, and weights
        at or below :data:`PRUNE_EPS` are dropped.
    """

    __slots__ = ("_w",)

    def __init__(self, weights: Mapping[Point, float] | Iterable[tuple[Point, float]] | None = None):
        acc: dict[Point, float] = {}
        if weights is not None:
            items = weights.items() if isinstance(weights, Mapping) else weights
            for point, value in items:
                value = float(value)
                if math.isnan(value) or value < 0.0:
                    raise MeasureError(f"invalid weight {value!r} at point {point!r}")
                acc[point] = acc.get(point, 0.0) + value
        self._w = {p: v for p, v in acc.items() if v > PRUNE_EPS}

    # -- basic queries ----------------------------------------------------

    @property
    def support(self) -> tuple[Point, ...]:
        return tuple(self._w)

    def weight(self, point: Point) -> float:
        return self._w.get(point, 0.0)

    def items(self):
        return self._w.items()

    def mass(self) -> float:
        return math.fsum(self._w.values())

    def is_probability(self) -> bool:
        return abs(self.mass() - 1.0) <= PROB_TOL

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self._w == other._w

    def __repr__(self) -> str:
        inner = ", ".join(f"{p!r}: {v:.6g}" for p, v in self._w.items())
        return f"DiscreteMeasure({{{inner}}})"

    def __add__(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        acc = dict(self._w)
        for p, v in other.items():
            acc[p] = acc.get(p, 0.0) + v
        return DiscreteMeasure(acc)


def dirac(point: Point) -> DiscreteMeasure:
    return DiscreteMeasure({point: 1.0})


def meet(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Pointwise minimum ``mu ∧ nu``."""
    out = {}
    for p, v in mu.items():
        w = min(v, nu.weight(p))
        if w > 0.0:
            out[p] = w
    return DiscreteMeasure(out)


def subtract(mu: DiscreteMeasure, nu: DiscreteMeasure) -> DiscreteMeasure:
    """Truncated difference ``mu ∖ nu``: pointwise ``max(mu − nu, 0)``.

    ``meet(mu, nu) + subtract(mu, nu)`` recovers ``mu`` (exactly when the
    weights are exactly representable, e.g. dyadic rationals).
    """
    out = {}
    for p, v in mu.items():
        w = nu.weight(p)
        if v > w:
            out[p] = v - w
    return DiscreteMeasure(out)


def leq(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    """Pointwise ``mu ≤ nu`` on the union of supports."""
    return all(v <= nu.weight(p) for p, v in mu.items())


def pushforward(f: Callable[[Point], Point], mu: DiscreteMeasure) -> DiscreteMeasure:
    """Image measure of ``mu`` under ``f``; colliding images sum weights.

    Raises
    ------
    MeasureError
        If ``f`` is undefined (raises, or returns ``None``) on a support
        point: pushforward of a partial map is not a measure.
    """
    out: dict[Point, float] = {}
    for p, v in mu.items():
        try:
            q = f(p)
        except Exception as exc:  # noqa: BLE001 - any failure means "undefined here"
            raise MeasureError(f"partial map: {p!r} has no image ({exc})") from exc
        if q is None:
            raise MeasureError(f"partial map: {p!r} has no image")
        out[q] = out.get(q, 0.0) + v
    return DiscreteMeasure(out)


class Overlap(NamedTuple):
    """Both sides of the overlap lemmas on a set A: the exact left-hand
    side ``(mu1 ∧ mu2)(A)`` and the right-hand sides' ingredients
    ``mu1(A)``, ``eps2 = ∫_A (1 - D)² dmu1`` and ``c = ∫_A D⁻² dmu1``,
    ``D = dmu2/dmu1``."""
    meet_mass: float
    mass_a: float
    eps2: float
    c: float


def overlap_ingredients(mu1: DiscreteMeasure, mu2: DiscreteMeasure, a: Iterable[Point]) -> Overlap:
    """:class:`Overlap` of two probability measures on the points ``a``.

    Raises :class:`MeasureError` if either measure is not a probability
    measure, if ``mu2`` charges a point of A that ``mu1`` does not (eps2
    needs ``mu2 << mu1`` on A), or if ``mu2`` vanishes at a point of A
    that ``mu1`` charges (c needs ``D > 0`` there)."""
    if not mu1.is_probability() or not mu2.is_probability():
        raise MeasureError("overlap lemmas take probability measures")
    a_set = set(a)
    eps2_terms, c_terms = [], []
    for p in a_set:
        w1, w2 = mu1.weight(p), mu2.weight(p)
        if w1 == 0.0:
            if w2 > 0.0:
                raise MeasureError(f"not absolutely continuous on A at {p!r}")
            continue
        if w2 == 0.0:
            raise MeasureError(f"density vanishes on A at {p!r}; inverse moment undefined")
        eps2_terms.append((1.0 - w2 / w1) ** 2 * w1)
        c_terms.append((w1 / w2) ** 2 * w1)
    return Overlap(
        meet_mass=math.fsum(w for p, w in meet(mu1, mu2).items() if p in a_set),
        mass_a=math.fsum(mu1.weight(p) for p in a_set),
        eps2=math.fsum(eps2_terms),
        c=math.fsum(c_terms),
    )


def overlap_bound(mass_a: float, eps2: float) -> float:
    """``mu1(A) - sqrt(eps2)``, the right-hand side of the overlap lemma
    ``(mu1 ∧ mu2)(A) >= 1 - eps1 - sqrt(eps2)`` for probability measures
    with ``mu2 << mu1`` on A, ``D = dmu2/dmu1``, ``eps1 = 1 - mu1(A)`` and
    ``eps2 = ∫_A (1 - D)² dmu1``.  With A the good event,
    ``density_diagnostics`` estimates them per unit: ``eps1 = 1 -
    good_fraction`` and ``eps2 = good_fraction × mean_step_dev_sq``."""
    return mass_a - math.sqrt(eps2)


def inverse_square_overlap_bound(mass_a: float, c: float) -> float:
    """``mu1(A)² / (mu1(A) + sqrt(c))``, 0 where both are 0: the
    right-hand side of the overlap lemma ``(mu1 ∧ mu2)(A) >= mu1(A)² /
    (mu1(A) + sqrt(c))`` for probability measures with ``D = dmu2/dmu1 >
    0`` wherever mu1 charges A and ``c = ∫_A D⁻² dmu1``."""
    denom = mass_a + math.sqrt(c)
    return mass_a**2 / denom if denom > 0.0 else 0.0
