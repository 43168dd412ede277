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
mode by mode; the chain derives its scalar force symbolically by
cascading Lie derivatives down the nearest-neighbour structure until the
forced site is reached.  The cascade is built for the same truncated
system the integrator runs, so its identities hold for the simulated
dynamics by construction.

The force-free coupled field is the chain's own field on each copy, so
every cascade variable is the difference of one single-chain polynomial
at the two copies: with ``L`` the Lie derivative along the chain and
``Z_l = (1 + L)^(l-1) x_{k*-1}``, ``zeta_l = Z_l(y) - Z_l(x)`` and
``G = Z_{k*+1}(x) - Z_{k*+1}(y)``.  The chain's force and zeta map
evaluate these ``Z_l`` on the stacked copies (28 terms at a² = 2 and
479 at k* = 6, against the 130 and 8337 of the coupled ``G``).
"""

from __future__ import annotations

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
    """Joint drift field of the coupled chain in the variables (x_i, rho_i).

    The second copy is eliminated through ``y = x + rho``; the binding
    force is left out (it is what the cascade will construct), and the
    boundary is closed with ``x_M = rho_M = 0``.
    """
    if model.id != "chain":
        raise BindingError("chain_vector_field requires a chain model")
    a2 = model.params["a_squared"]
    m = model.dim
    xv = [IndexedPolynomial.variable("x", i) for i in range(m)]
    rv = [IndexedPolynomial.variable("rho", i) for i in range(m)]
    zero = IndexedPolynomial()
    rows: dict[tuple[str, int], IndexedPolynomial] = {}
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


@dataclass
class ZetaCascade:
    """Recursively derived contraction variables for the chain, as
    symbolic polynomials in the variables ``var_order`` (the ``x_i``, then
    the ``rho_i``).

    ``zetas[l-1]`` is ``zeta_l = rho_{k*-l} + Q_l`` for ``l = 1..k*``;
    ``q_polys[l]`` holds ``Q_l`` (``Q_1 = 0``) together with the closing
    ``Q_{k*+1}``; ``g_poly`` is the force with
    ``d zeta_{k*}/dt = -zeta_{k*}`` along the coupled flow, ``field`` the
    flow's first ``min(truncation, 2 k* + 1)`` sites.  The cascade
    evaluates nothing.  Its coupled polynomials are what ``dump-cascade``
    prints and :func:`cascade_shape_ok` checks; :func:`make_binding`
    compiles instead the single-chain ``Z_l`` along ``field``'s x rows,
    of which they are the differences at the two copies.
    """

    a_squared: float
    truncation: int
    k_star: int
    c1: float
    zetas: list[IndexedPolynomial]
    q_polys: dict[int, IndexedPolynomial]
    g_poly: IndexedPolynomial
    field: PolyVectorField
    var_order: tuple


def _warn_on_awkward_coefficients(polys):
    """Warn once if a coefficient is not a multiple of 2⁻¹⁶ or exceeds 2⁴⁰."""
    scale = float(1 << 16)
    for poly in polys:
        for coef in poly.terms.values():
            if abs(coef) > 2.0**40 or coef * scale != round(coef * scale):
                warnings.warn(
                    f"cascade coefficient {coef!r} is not a small dyadic rational; "
                    "symbolic identities may carry rounding error",
                    stacklevel=3,
                )
                return


def build_zeta_cascade(model: ModelSpec) -> ZetaCascade:
    """Derive the chain's contraction variables and its binding force.

    Starting from ``zeta_1 = rho_{k*-1}`` each level adds the Lie
    derivative along the force-free coupled field, which shifts the
    leading difference component one site closer to the forced end:
    ``zeta_{l+1} = L zeta_l + zeta_l``.  At the last level the force is
    read off as ``G = -zeta_{k*} - L zeta_{k*}``.

    ``zeta_{k*}`` reaches site ``2 k* - 2`` and ``L`` one site further,
    so the derivatives are taken on the chain cut at ``2 k* + 1`` sites:
    the same polynomials as on all ``M`` sites, at a cost that does not
    grow with ``M``.
    """
    if model.id != "chain":
        raise BindingError("build_zeta_cascade requires a chain model")
    k_star = model.params["k_star"]
    m = model.dim
    if m < k_star + 2:
        raise BindingError(f"truncation overflow: need at least {k_star + 2} sites, have {m}")
    a2 = model.params["a_squared"]
    fld = chain_vector_field(make_chain(a2, truncation=min(m, 2 * k_star + 1)))
    c1 = a2 - (k_star - 1) ** 2

    zetas = [IndexedPolynomial.variable("rho", k_star - 1)]
    for _ in range(1, k_star):
        zetas.append(lie_derivative(zetas[-1], fld) + zetas[-1])
    q_polys = {
        level: zetas[level - 1] - IndexedPolynomial.variable("rho", k_star - level)
        for level in range(1, k_star + 1)
    }
    q_polys[k_star + 1] = lie_derivative(zetas[-1], fld)
    g_poly = -zetas[-1] - q_polys[k_star + 1]
    _warn_on_awkward_coefficients(zetas + [g_poly])

    var_order = tuple(("x", i) for i in range(m)) + tuple(("rho", i) for i in range(m))
    return ZetaCascade(
        a_squared=a2,
        truncation=m,
        k_star=k_star,
        c1=c1,
        zetas=zetas,
        q_polys=q_polys,
        g_poly=g_poly,
        field=fld,
        var_order=var_order,
    )


def cascade_shape_ok(cascade: ZetaCascade) -> list[str]:
    """Check the structural invariants of a built cascade.

    Returns a list of violation messages (empty when everything holds):
    ``zeta_1 = rho_{k*-1}``, unit leading coefficient on ``rho_{k*-l}``,
    remainder supported on indices ``>= k*-l+1``, a ``rho`` factor in
    every remainder term, and the stored level-to-level consistency.
    """
    problems = []
    k = cascade.k_star
    if cascade.zetas[0] != IndexedPolynomial.variable("rho", k - 1):
        problems.append("bad zeta_1")
    for level, zeta in enumerate(cascade.zetas, start=1):
        lead = zeta.coefficient(((("rho", k - level), 1),))
        if lead != 1.0:
            problems.append(f"zeta_{level}: leading rho[{k - level}] coefficient is {lead}")
        q = cascade.q_polys[level]
        min_idx = q.min_index()
        if min_idx is not None and min_idx < k - level + 1:
            problems.append(f"Q_{level} touches index {min_idx} < {k - level + 1}")
        for mono in q.terms:
            if not any(fam == "rho" for (fam, _), _ in mono):
                problems.append(f"Q_{level} has a term without a rho factor: {mono}")
    for level in range(1, k):
        expected = lie_derivative(cascade.zetas[level - 1], cascade.field) + cascade.zetas[level - 1]
        if expected != cascade.zetas[level]:
            problems.append(f"zeta_{level + 1} != L zeta_{level} + zeta_{level}")
    for mono in cascade.g_poly.terms:
        if not any(fam == "rho" for (fam, _), _ in mono):
            problems.append(f"G has a term without a rho factor: {mono}")
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


def make_binding(model: ModelSpec, cascade: ZetaCascade | None = None) -> BindingSpec:
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
        if cascade is None:
            cascade = build_zeta_cascade(model)
        if cascade.truncation != model.dim or cascade.a_squared != model.params["a_squared"]:
            raise BindingError("cascade was built for different chain parameters")
        # Z_1 .. Z_{k*+1} of the module docstring; they read only x rows
        sites = cascade.field.truncation
        levels = [IndexedPolynomial.variable("x", cascade.k_star - 1)]
        for _ in range(cascade.k_star):
            levels.append(lie_derivative(levels[-1], cascade.field) + levels[-1])
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

