"""Sparse multivariate polynomials over indexed variable families.

A variable is a pair ``(family, index)`` such as ``("x", 3)`` or
``("rho", 0)``; a monomial is a product of such variables with positive
integer powers; a polynomial stores ``monomial -> coefficient`` with no
zero coefficients and canonically sorted monomial keys.  On top of the
ring operations the module provides Lie derivatives along polynomial
vector fields, a lossless plain-text dump format and compilation to fast
vectorized evaluators.

All values are immutable in practice: operations build new polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

Var = tuple[str, int]
Monomial = tuple[tuple[Var, int], ...]


class PolynomialError(ValueError):
    pass


def _canon(monomial: Iterable[tuple[Var, int]]) -> Monomial:
    acc: dict[Var, int] = {}
    for var, power in monomial:
        if power < 0:
            raise PolynomialError(f"negative power {power} on {var}")
        if power:
            acc[var] = acc.get(var, 0) + power
    return tuple(sorted(acc.items()))


def _sorted_terms(acc: dict[Monomial, float]) -> dict[Monomial, float]:
    """The nonzero terms of ``acc`` in graded lexicographic order: total
    degree first, then the variable tuple."""
    order = sorted(acc, key=lambda mono: (sum(p for _, p in mono), mono))
    return {m: acc[m] for m in order if acc[m] != 0.0}


class IndexedPolynomial:
    """Polynomial with real coefficients over indexed variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, float] | None = None):
        acc: dict[Monomial, float] = {}
        if terms:
            for mono, coef in terms.items():
                mono = _canon(mono)
                coef = float(coef)
                acc[mono] = acc.get(mono, 0.0) + coef
        self._terms = _sorted_terms(acc)

    @classmethod
    def _of(cls, acc: dict[Monomial, float]) -> "IndexedPolynomial":
        # terms whose monomials are canonical already
        poly = cls.__new__(cls)
        poly._terms = _sorted_terms(acc)
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "IndexedPolynomial":
        return cls({(): float(value)})

    @classmethod
    def variable(cls, family: str, index: int) -> "IndexedPolynomial":
        return cls({(((family, int(index)), 1),): 1.0})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, float]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def variables(self) -> set[Var]:
        return {v for mono in self._terms for v, _ in mono}

    def max_index(self) -> int | None:
        return max((i for _, i in self.variables()), default=None)

    def min_index(self) -> int | None:
        return min((i for _, i in self.variables()), default=None)

    def coefficient(self, monomial: Iterable[tuple[Var, int]]) -> float:
        return self._terms.get(_canon(monomial), 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IndexedPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def __repr__(self) -> str:
        return f"IndexedPolynomial({format_polynomial(self)!r})"

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "IndexedPolynomial":
        other = _as_poly(other)
        acc = dict(self._terms)
        for mono, coef in other._terms.items():
            acc[mono] = acc.get(mono, 0.0) + coef
        return IndexedPolynomial._of(acc)

    __radd__ = __add__

    def __neg__(self) -> "IndexedPolynomial":
        return IndexedPolynomial._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "IndexedPolynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "IndexedPolynomial":
        return _as_poly(other) - self

    def __mul__(self, other) -> "IndexedPolynomial":
        if isinstance(other, (int, float)):
            return IndexedPolynomial._of({m: c * float(other) for m, c in self._terms.items()})
        other = _as_poly(other)
        acc: dict[Monomial, float] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _canon(m1 + m2)
                acc[mono] = acc.get(mono, 0.0) + c1 * c2
        return IndexedPolynomial._of(acc)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "IndexedPolynomial":
        if not isinstance(power, int) or power < 0:
            raise PolynomialError("powers must be non-negative integers")
        result = IndexedPolynomial.constant(1.0)
        for _ in range(power):
            result = result * self
        return result

    # -- calculus ------------------------------------------------------------

    def partial(self, var: Var) -> "IndexedPolynomial":
        acc: dict[Monomial, float] = {}
        for mono, coef in self._terms.items():
            for i, (v, p) in enumerate(mono):
                if v == var:
                    rest = mono[:i] + (((v, p - 1),) if p > 1 else ()) + mono[i + 1 :]
                    acc[rest] = acc.get(rest, 0.0) + coef * p
                    break
        return IndexedPolynomial._of(acc)


def _as_poly(value) -> IndexedPolynomial:
    if isinstance(value, IndexedPolynomial):
        return value
    if isinstance(value, (int, float)):
        return IndexedPolynomial.constant(value)
    raise PolynomialError(f"cannot coerce {value!r} to a polynomial")


@dataclass(frozen=True)
class PolyVectorField:
    """Time derivatives of indexed variables, with an explicit truncation.

    ``rows[(family, i)]`` gives the drift polynomial of that variable;
    every row may only reference indices below ``truncation``.
    """

    rows: Mapping[Var, IndexedPolynomial]
    truncation: int

    def __post_init__(self):
        for var, rhs in self.rows.items():
            top = rhs.max_index()
            if top is not None and top >= self.truncation:
                raise PolynomialError(
                    f"field row {var} references index {top} >= truncation {self.truncation}"
                )

    def row(self, var: Var) -> IndexedPolynomial:
        family, index = var
        if index >= self.truncation:
            raise PolynomialError(
                f"truncation overflow: variable {var} lies outside truncation {self.truncation}"
            )
        try:
            return self.rows[var]
        except KeyError:
            raise PolynomialError(f"field has no row for variable {var}") from None


def lie_derivative(p: IndexedPolynomial, f: PolyVectorField) -> IndexedPolynomial:
    """Directional derivative of ``p`` along ``f``: sum of (dp/dv) * f(v)."""
    acc: dict[Monomial, float] = {}
    for var in sorted(p.variables()):
        for mono, coef in (p.partial(var) * f.row(var))._terms.items():
            acc[mono] = acc.get(mono, 0.0) + coef
    return IndexedPolynomial._of(acc)


# -- text dump format ---------------------------------------------------------
#
# One term per line: "coef * x[3]*rho[2]^2"; a bare "coef" line is the
# constant term; the zero polynomial prints as "0".  Coefficients use
# repr() so that parsing is lossless.


def _format_var(var: Var, power: int) -> str:
    family, index = var
    head = f"{family}[{index}]"
    return head if power == 1 else f"{head}^{power}"


def format_polynomial(p: IndexedPolynomial) -> str:
    if p.is_zero():
        return "0"
    lines = []
    for mono, coef in p._terms.items():
        if mono:
            body = "*".join(_format_var(v, pw) for v, pw in mono)
            lines.append(f"{coef!r} * {body}")
        else:
            lines.append(f"{coef!r}")
    return "\n".join(lines)


# -- compiled evaluation -------------------------------------------------------


# the most path columns one trie walk takes at a time: a node table and
# term gather of a few hundred nodes stay within about 1 MB at any batch
PATH_BLOCK = 256


@dataclass
class CompiledPolynomial:
    """Prefix-trie form for fast vectorized evaluation.

    Monomials become words of variable indices (powers expanded into
    repetition) and share the products of common prefixes.  Node 0 is 1;
    level ``d`` of the trie holds the length-``d`` prefixes, each a level
    ``d - 1`` node (``parents[d - 1]``) times a variable
    (``factors[d - 1]``).  Evaluation runs node rows by path columns, one
    multiply per level, then a row-wise ``vecdot`` of the contiguous
    ``(paths, terms)`` products with ``coeffs``, so each path's value
    depends on that path alone.  The paths go through in blocks of at
    most ``PATH_BLOCK`` columns, so the workspace does not grow with the
    batch, and the values are those of one walk over all of them.
    ``evaluate(values)`` takes an array whose last axis enumerates
    ``var_order`` and keeps the other axes.
    """

    var_order: tuple[Var, ...]
    coeffs: np.ndarray                  # (terms,)
    parents: tuple[np.ndarray, ...]     # per level: node of each prefix minus its last letter
    factors: tuple[np.ndarray, ...]     # per level: variable of each prefix's last letter
    term_nodes: np.ndarray              # (terms,) node holding each monomial's product

    def evaluate(self, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != len(self.var_order):
            raise PolynomialError(
                f"expected {len(self.var_order)} variable values, got {values.shape[-1]}"
            )
        rows = values.reshape(-1, values.shape[-1])
        out = np.empty(len(rows))
        for start in range(0, len(rows), PATH_BLOCK):
            columns = np.ascontiguousarray(rows[start : start + PATH_BLOCK].T)
            nodes = np.empty((1 + sum(map(len, self.parents)), columns.shape[1]))
            nodes[0] = 1.0
            lo = 1
            for parent, factor in zip(self.parents, self.factors):
                hi = lo + len(parent)
                np.multiply(nodes.take(parent, axis=0), columns.take(factor, axis=0), out=nodes[lo:hi])
                lo = hi
            products = np.ascontiguousarray(nodes.take(self.term_nodes, axis=0).T)
            out[start : start + PATH_BLOCK] = np.vecdot(products, self.coeffs)
        return out.reshape(values.shape[:-1])


def compile_polynomial(p: IndexedPolynomial, var_order: Iterable[Var]) -> CompiledPolynomial:
    order = tuple(var_order)
    lookup = {v: i for i, v in enumerate(order)}
    missing = p.variables() - set(lookup)
    if missing:
        raise PolynomialError(f"unbound variable(s) in compile: {sorted(missing)}")
    words = [tuple(lookup[v] for v, power in mono for _ in range(power)) for mono in p._terms]
    node_of: dict[tuple[int, ...], int] = {(): 0}
    parents, factors = [], []
    for depth in range(1, max(map(len, words), default=0) + 1):
        level = sorted({w[:depth] for w in words if len(w) >= depth})
        for prefix in level:
            node_of[prefix] = len(node_of)
        parents.append(np.array([node_of[w[:-1]] for w in level], dtype=np.intp))
        factors.append(np.array([w[-1] for w in level], dtype=np.intp))
    coeffs = np.array(list(p._terms.values()), dtype=float)
    term_nodes = np.array([node_of[w] for w in words], dtype=np.intp)
    return CompiledPolynomial(order, coeffs, tuple(parents), tuple(factors), term_nodes)
