"""Binding drifts that pull the second copy of a coupled pair onto the first.

For each model the binding force ``G`` lives in noise space (it is
multiplied by the noise map ``Q`` inside the integrator) and vanishes
identically on the diagonal ``x = y``: every term carries a factor of
``rho = y - x``.  Every force reads the stacked copies ``xy = (x, y)``
and the model's nonlinearity ``f_xy`` on them, the values the stepper
has already evaluated for its stage.

The toy and reaction-diffusion systems share one construction
(:func:`zeta_binding`): the force makes the linear combination
``zeta = rho_u + 3 rho_v`` of the difference obey an explicit linear
contraction.  Ginzburg-Landau cancels the non-contracting linear rates
mode by mode.  The chain derives its scalar force symbolically, by
cascading Lie derivatives ``L`` along the chain down the
nearest-neighbour structure until the forced site is reached: one
derivation gives the levels ``Z_l = (1 + L)^(l-1) x_{k*-1}``.  The
force-free coupled field is the chain's own field on each copy, so the
cascade variables are ``zeta_l = Z_l(y) - Z_l(x)`` and the force is
``G = Z_{k*+1}(x) - Z_{k*+1}(y)``; the force and zeta map evaluate the
``Z_l`` on the stacked copies (28 terms at a² = 2 and 479 at k* = 6,
against the 130 and 8337 of the expanded coupled ``G``).  The levels are
derived for the same truncated system the integrator runs, so their
identities hold for the simulated dynamics by construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import ModelSpec, make_chain
from .polynomials import (
    IndexedPolynomial,
    PolyVectorField,
    compile_polynomial,
    format_polynomial,
    lie_derivative,
)


class BindingError(ValueError):
    pass


@dataclass
class BindingSpec:
    """A binding force plus its diagnostic contraction variables.

    Both callables take the stacked copies ``xy = (x, y)`` of shape
    ``(2, ..., dim)``.  ``force(xy, f_xy)`` also takes the model's
    nonlinearity ``f_xy`` evaluated on them and returns the force
    ``(..., n_noise)``; a force that does not read the nonlinearity
    ignores ``f_xy``.  ``zeta_map(xy)`` returns the contraction variables
    ``(..., n_zeta)``.
    """

    model_id: str
    force: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (2, ..., dim)² -> (..., n_noise)
    zeta_map: Callable[[np.ndarray], np.ndarray] | None = None  # (2, ..., dim) -> (..., n_zeta)


# -- toy model and reaction-diffusion ------------------------------------------


def zeta_binding(model: ModelSpec, rates: float | np.ndarray) -> BindingSpec:
    """Force making ``zeta = rho[:k] + 3 rho[k:]`` obey ``dzeta/dt = rates · zeta``.

    The state is two blocks of ``k = n_noise`` coordinates, the forced one
    first.  With ``delta = s rho + f(y) - f(x)`` the force-free drift of
    the difference, the force is ``G = rates · zeta - (delta[:k] +
    3 delta[k:])``.  The toy model takes ``rates = -2`` (k = 1);
    reaction-diffusion takes ``Δ - 1`` mode by mode, a damped heat
    equation for ``zeta``.
    """
    k = model.n_noise
    s = model.linear_spectrum

    def zeta(v):
        return v[..., :k] + 3.0 * v[..., k:]

    def force(xy, f_xy):
        rho = xy[1] - xy[0]
        return rates * zeta(rho) - zeta(s * rho + f_xy[1] - f_xy[0])

    return BindingSpec(model_id=model.id, force=force,
                       zeta_map=lambda xy: zeta(xy[1] - xy[0]))


# -- Ginzburg-Landau -----------------------------------------------------------


def gl_binding(model: ModelSpec) -> BindingSpec:
    """Mode-wise force ``G_k = -(2 + λ_k)/q_k · rho_k`` on the forced modes.

    The coupled linear operator then has diagonal entry -1 on every
    forced mode, so the full diagonal is bounded by ``-gap``.
    """
    k = model.n_noise
    lam = model.linear_spectrum[:k] - 1.0
    gain = -(2.0 + lam) / model.noise_coeffs
    return BindingSpec(model_id=model.id,
                       force=lambda xy, f_xy: gain * (xy[1, ..., :k] - xy[0, ..., :k]))


def gl_coupled_diagonal(model: ModelSpec, binding: BindingSpec) -> np.ndarray:
    """Diagonal of the difference's linear operator under ``binding``: the spectrum
    plus ``q_k`` times the force's slope along ``rho_k``, read at the copies ``(0, e_k)``."""
    k = model.n_noise
    xy = np.stack([np.zeros((k, model.dim)), np.eye(k, model.dim)])
    diag = model.linear_spectrum.copy()
    diag[:k] += model.noise_coeffs * np.diagonal(binding.force(xy, model.nonlinearity(xy)))
    return diag


# -- chain cascade -------------------------------------------------------------


def chain_vector_field(model: ModelSpec) -> PolyVectorField:
    """Drift field of the chain in its site variables ``x_i``, with the
    boundary closed by ``x_M = 0``."""
    a2 = model.params["a_squared"]
    m = model.dim
    # xv[-1] = xv[m] = 0 closes both ends
    xv = [IndexedPolynomial.variable("x", i) for i in range(m)] + [IndexedPolynomial()]
    return PolyVectorField(
        rows={("x", i): (a2 - i**2) * xv[i] + xv[i - 1] + xv[i + 1] - xv[i] ** 3 for i in range(m)},
        truncation=m,
    )


def _chain_levels(model: ModelSpec) -> tuple[list[IndexedPolynomial], PolyVectorField]:
    """``Z_1 .. Z_{k*+1}``, by ``Z_{l+1} = L Z_l + Z_l`` from ``Z_1 = x_{k*-1}``,
    and the field of the chain cut at ``2 k* + 1`` sites that ``L`` runs along.

    ``Z_{k*}`` reaches site ``2 k* - 2`` and ``L`` one site further, so the
    cut chain gives the polynomials of all ``M`` sites at a cost that does
    not grow with ``M``.  Warns if a coefficient is not a multiple of 2⁻¹⁶
    or exceeds 2⁴⁰.
    """
    if model.id != "chain":
        raise BindingError("the zeta cascade requires a chain model")
    k_star, m = model.params["k_star"], model.dim
    if m < k_star + 2:
        raise BindingError(f"truncation overflow: need at least {k_star + 2} sites, have {m}")
    fld = chain_vector_field(make_chain(model.params["a_squared"], truncation=min(m, 2 * k_star + 1)))
    levels = [IndexedPolynomial.variable("x", k_star - 1)]
    for _ in range(k_star):
        levels.append(lie_derivative(levels[-1], fld) + levels[-1])
    awkward = [c for z in levels for c in z.terms.values()
               if abs(c) > 2.0**40 or c * 2.0**16 != round(c * 2.0**16)]
    if awkward:
        warnings.warn(f"cascade coefficient {awkward[0]!r} is not a small dyadic rational; "
                      "symbolic identities may carry rounding error", stacklevel=3)
    return levels, fld


@functools.cache
def _splits(i: int, p: int) -> tuple:
    """``(C(p, k), rho_i^k, x_i^(p-k))`` for ``k = 0..p``, as monomial parts."""
    return tuple((math.comb(p, k), ((("rho", i), k),) if k else (),
                  ((("x", i), p - k),) if p > k else ()) for k in range(p + 1))


def _copy_difference(level: IndexedPolynomial) -> dict:
    """The terms of ``level(x + rho) - level(x)``: each ``x_i^p`` of a
    monomial splits into ``C(p, k) rho_i^k x_i^(p-k)``, and the split with
    every ``k = 0``, ``level(x)``, cancels.  No two split terms share a
    monomial, so each coefficient is one product of its source's with an
    integer."""
    terms = {}
    for mono, coef in level.terms.items():
        splits = itertools.product(*(_splits(i, p) for (_, i), p in mono))
        for split in itertools.islice(splits, 1, None):
            weight, rho, x = 1, (), ()
            for factor_weight, factor_rho, factor_x in split:
                weight *= factor_weight
                rho += factor_rho
                x += factor_x
            terms[rho + x] = coef * weight
    return terms


@dataclass
class ZetaCascade:
    """The chain's contraction variables and force, as symbolic polynomials
    in the sites ``x_i`` and the differences ``rho_i = y_i - x_i``.

    ``levels`` holds ``Z_1 .. Z_{k*+1}``, derived along ``field``, the
    chain cut at ``min(truncation, 2 k* + 1)`` sites.  ``zetas[l-1]`` is
    ``zeta_l = Z_l(x + rho) - Z_l(x) = rho_{k*-l} + Q_l`` for ``l = 1..k*``;
    ``q_polys`` holds ``Q_1 = 0 .. Q_{k*}`` and the closing ``Q_{k*+1} =
    zeta_{k*+1} - zeta_{k*}``; ``g_poly`` is ``G = -zeta_{k*+1}``.  The
    cascade evaluates nothing: ``dump-cascade`` prints it and
    :func:`cascade_shape_ok` checks it; :func:`make_binding` compiles the
    same levels.
    """

    a_squared: float
    truncation: int
    k_star: int
    c1: float
    levels: list[IndexedPolynomial]
    zetas: list[IndexedPolynomial]
    q_polys: dict[int, IndexedPolynomial]
    g_poly: IndexedPolynomial
    field: PolyVectorField


def build_zeta_cascade(model: ModelSpec) -> ZetaCascade:
    """Derive the chain's contraction variables and its binding force.

    The force-free coupled field is the chain's field on each copy, so
    ``zeta_l = Z_l(x + rho) - Z_l(x)`` obeys ``zeta_{l+1} = L zeta_l +
    zeta_l`` along it, and the force ``G = -zeta_{k*} - L zeta_{k*} =
    -zeta_{k*+1}`` gives ``d zeta_{k*}/dt = -zeta_{k*}``.
    """
    levels, fld = _chain_levels(model)
    k, a2 = model.params["k_star"], model.params["a_squared"]
    *zetas, top = [IndexedPolynomial(_copy_difference(z)) for z in levels]
    q_polys = {level: zeta - IndexedPolynomial.variable("rho", k - level)
               for level, zeta in enumerate(zetas, start=1)}
    q_polys[k + 1] = top - zetas[-1]
    return ZetaCascade(a_squared=a2, truncation=model.dim, k_star=k, c1=a2 - (k - 1) ** 2,
                       levels=levels, zetas=zetas, q_polys=q_polys, g_poly=-top, field=fld)


def cascade_shape_ok(cascade: ZetaCascade) -> list[str]:
    """Check the structural invariants of a built cascade.

    Returns a list of violation messages (empty when everything holds):
    ``zeta_1 = rho_{k*-1}``, unit leading coefficient on ``rho_{k*-l}``,
    remainder supported on indices ``>= k*-l+1``, a ``rho`` factor in
    every remainder term and in ``G``, the level recursion ``Z_{l+1} =
    L Z_l + Z_l``, and each stored ``zeta_l`` and ``G`` as its level's
    difference at the two copies.
    """
    problems = []
    k, levels = cascade.k_star, cascade.levels
    if cascade.zetas[0] != IndexedPolynomial.variable("rho", k - 1):
        problems.append("bad zeta_1")
    for level, zeta in enumerate(cascade.zetas, start=1):
        lead = zeta.coefficient(((("rho", k - level), 1),))
        if lead != 1.0:
            problems.append(f"zeta_{level}: leading rho[{k - level}] coefficient is {lead}")
        min_idx = cascade.q_polys[level].min_index()
        if min_idx is not None and min_idx < k - level + 1:
            problems.append(f"Q_{level} touches index {min_idx} < {k - level + 1}")
        if lie_derivative(levels[level - 1], cascade.field) + levels[level - 1] != levels[level]:
            problems.append(f"Z_{level + 1} != L Z_{level} + Z_{level}")
        if zeta.terms != _copy_difference(levels[level - 1]):
            problems.append(f"zeta_{level} != Z_{level}(x + rho) - Z_{level}(x)")
    if cascade.g_poly.terms != {mono: -coef for mono, coef in _copy_difference(levels[k]).items()}:
        problems.append(f"G != Z_{k + 1}(x) - Z_{k + 1}(x + rho)")
    remainders = [(f"Q_{level}", cascade.q_polys[level]) for level in range(1, k + 1)]
    for name, poly in remainders + [("G", cascade.g_poly)]:
        for mono in poly.terms:
            if not any(fam == "rho" for (fam, _), _ in mono):
                problems.append(f"{name} has a term without a rho factor: {mono}")
    return problems


# -- cascade text dump -----------------------------------------------------------


def dump_cascade_text(cascade: ZetaCascade) -> str:
    lines = [
        f"# zeta cascade: a_squared={cascade.a_squared!r} k_star={cascade.k_star} "
        f"truncation={cascade.truncation} c1={cascade.c1!r}"
    ]
    for level, zeta in enumerate(cascade.zetas, start=1):
        lines.append(f"[zeta {level}]")
        lines.append(format_polynomial(zeta))
        lines.append(f"[Q {level}]")
        lines.append(format_polynomial(cascade.q_polys[level]))
    lines.append(f"[Q {cascade.k_star + 1}]")
    lines.append(format_polynomial(cascade.q_polys[cascade.k_star + 1]))
    lines.append("[G]")
    lines.append(format_polynomial(cascade.g_poly))
    return "\n".join(lines) + "\n"


# -- assembly ---------------------------------------------------------------------


def make_binding(model: ModelSpec) -> BindingSpec:
    """Build the model's binding; raises if the construction is ill-posed."""
    if np.any(model.noise_coeffs == 0.0):
        raise BindingError("binding force undefined: a forced mode has q = 0")
    if model.id == "toy2d":
        return zeta_binding(model, -2.0)
    if model.id == "ginzburg_landau":
        return gl_binding(model)
    if model.id == "reaction_diffusion":
        return zeta_binding(model, model.params["laplacian"] - 1.0)
    if model.id == "chain":
        levels, fld = _chain_levels(model)
        sites = fld.truncation
        order = tuple(("x", i) for i in range(sites))
        levels = [compile_polynomial(z, order) for z in levels]

        def rise(level, xy):
            # Z(y) - Z(x) for one compiled level, read on the stacked copies
            if xy.shape[-1] != model.dim:
                raise BindingError(f"expected states of width {model.dim}, got {xy.shape[-1]}")
            z = level.evaluate(xy[..., :sites])
            return z[1] - z[0]

        return BindingSpec(model_id=model.id,
                           force=lambda xy, f_xy: -rise(levels[-1], xy)[..., None],
                           zeta_map=lambda xy: np.stack([rise(z, xy) for z in levels[:-1]], axis=-1))
    raise BindingError(f"no binding construction for model {model.id!r}")

