"""Lattice algebra and overlap bounds for finitely supported measures.

Measures here are non-negative with finite support, so the meet, the
truncated difference and pushforwards all reduce to
exact dictionary arithmetic on point weights.  Support points are opaque
hashable atoms compared by exact equality; there is no geometric
tolerance.  Everything is pure: no operation mutates its inputs.
"""

from __future__ import annotations

import math
from typing import Callable, Hashable, Iterable, Mapping

Point = Hashable

# Weights below this are pruned after every operation so that supports
# stay canonical and measures built along different routes compare equal.
PRUNE_EPS = 1e-15

# Mass tolerance for "is a probability measure".
PROB_TOL = 1e-12


class MeasureError(ValueError):
    """Raised for invalid weights, partial maps, or measures an overlap bound
    cannot take."""


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

    def __len__(self) -> int:
        return len(self._w)

    def __bool__(self) -> bool:
        return bool(self._w)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self._w == other._w

    def __hash__(self):
        return hash(frozenset(self._w.items()))

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


def overlap_lower_bound(
    mu1: DiscreteMeasure,
    mu2: DiscreteMeasure,
    a: Iterable[Point],
) -> tuple[float, float]:
    """Overlap bound ``(mu1 ∧ mu2)(A) ≥ 1 − eps1 − sqrt(eps2)``.

    ``eps1 = 1 − mu1(A)`` and ``eps2 = ∫_A (1 − D)² dmu1`` with
    ``D = dmu2/dmu1``.  Returns ``(lhs, rhs)``; the caller asserts
    ``lhs ≥ rhs``.

    Raises
    ------
    MeasureError
        If either measure is not a probability measure, or if ``mu2``
        charges a point of ``A`` that ``mu1`` does not (the density is
        undefined there).
    """
    if not mu1.is_probability() or not mu2.is_probability():
        raise MeasureError("overlap bounds require probability measures")
    a_set = set(a)
    eps2_terms = []
    for p in a_set:
        w1 = mu1.weight(p)
        w2 = mu2.weight(p)
        if w1 == 0.0:
            if w2 > 0.0:
                raise MeasureError(f"not absolutely continuous on A at {p!r}")
            continue
        dens = w2 / w1
        eps2_terms.append((1.0 - dens) ** 2 * w1)
    mass_a = math.fsum(mu1.weight(p) for p in a_set)
    eps1 = 1.0 - mass_a
    eps2 = math.fsum(eps2_terms)
    lhs = math.fsum(w for p, w in meet(mu1, mu2).items() if p in a_set)
    rhs = 1.0 - eps1 - math.sqrt(eps2)
    return lhs, rhs


def overlap_chi2_bound_sharp(
    mu1: DiscreteMeasure,
    mu2: DiscreteMeasure,
    a: Iterable[Point],
) -> tuple[float, float, float]:
    """Overlap bound from the inverse-square density integral.

    With ``c = ∫_A D⁻² dmu1`` and ``D = dmu2/dmu1`` this returns
    ``(lhs, rhs, c)`` where ``lhs = (mu1 ∧ mu2)(A)`` and
    ``rhs = mu1(A)² / (mu1(A) + sqrt(c))``; the caller asserts
    ``lhs ≥ rhs``.  The bound holds for every ``c``.  Where
    ``4c ≥ mu1(A) + sqrt(c)`` it is at least the ``mu1(A)² / (4c)`` form.

    Raises
    ------
    MeasureError
        If either measure is not a probability measure, or if ``mu2``
        vanishes at a point of ``A`` that ``mu1`` charges (the inverse
        moment is undefined there).
    """
    if not mu1.is_probability() or not mu2.is_probability():
        raise MeasureError("overlap bounds require probability measures")
    a_set = set(a)
    c_terms = []
    for p in a_set:
        w1 = mu1.weight(p)
        if w1 == 0.0:
            continue
        w2 = mu2.weight(p)
        if w2 == 0.0:
            raise MeasureError(f"density vanishes on A at {p!r}; inverse moment undefined")
        c_terms.append((w1 / w2) ** 2 * w1)
    c = math.fsum(c_terms)
    mass_a = math.fsum(mu1.weight(p) for p in a_set)
    lhs = math.fsum(w for p, w in meet(mu1, mu2).items() if p in a_set)
    denom = mass_a + math.sqrt(c)
    rhs = 0.0 if denom == 0.0 else mass_a**2 / denom
    return lhs, rhs, c
