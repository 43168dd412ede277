"""Finite-dimensional model definitions.

A model is its linear spectrum, its noise map, the ``params`` other
layers read, and two batched maps: the nonlinearity ``F`` and the
Lyapunov function ``V``.  Four systems are provided, all in the shape
``dx = (A x + F(x)) dt + Q dω`` with ``A`` diagonal in the chosen basis:

* ``toy2d``        two coupled double-well modes, noise on the first only,
  Lyapunov function ``|x|²``;
* ``ginzburg_landau``  spectral truncation of a 1d stochastic Ginzburg-Landau
  equation on ``[-π, π]`` with periodic boundary, noise on the first
  ``N`` Fourier modes, Lyapunov function ``|x|``;
* ``reaction_diffusion``  a two-component system on the same domain
  where only the first component is forced (mode-wise white noise
  across its truncation), Lyapunov function ``sup|u| + sup|v|``;
* ``chain``        nearest-neighbour chain with noise on site 0 only,
  Lyapunov function ``|x|²``.

States are coefficient vectors in the diagonalizing basis; both maps
take a batch of states ``(..., dim)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ModelError(ValueError):
    pass


# half-length L of the periodic domain [-L, L] of the Fourier models
LENGTH = math.pi


@dataclass
class ModelSpec:
    """A model: its linear spectrum, noise map and ``params``, and two
    batched maps over states ``(..., dim)``, the nonlinearity and the
    Lyapunov function V."""

    id: str
    dim: int
    linear_spectrum: np.ndarray
    nonlinearity: Callable[[np.ndarray], np.ndarray]  # (..., dim) -> (..., dim)
    lyapunov: Callable[[np.ndarray], np.ndarray]  # (..., dim) -> (...)
    noise_coeffs: np.ndarray  # q_i of coordinate i: the noise forces the first n_noise
    params: dict  # what other layers read: GL's gap, RD's laplacian, the chain's a_squared and k_star

    @property
    def n_noise(self) -> int:
        return len(self.noise_coeffs)


def lyapunov(model: ModelSpec, state: np.ndarray) -> np.ndarray:
    """Evaluate the model's Lyapunov function V on a (batch of) state(s)."""
    return model.lyapunov(np.asarray(state, dtype=float))


def _squared_norm(x: np.ndarray) -> np.ndarray:
    """V = |x|², the toy's and the chain's Lyapunov function."""
    return np.sqrt((x * x).sum(-1)) ** 2.0


# -- toy model ------------------------------------------------------------


def make_toy2d() -> ModelSpec:
    """Two modes, both linearly unstable, nudged toward each other;
    Brownian forcing on the first coordinate only."""

    def nonlin(x):
        out = np.empty_like(x)
        x0, x1 = x[..., 0], x[..., 1]
        out[..., 0] = x1 - x0 * x0 * x0
        out[..., 1] = x0 - x1 * x1 * x1
        return out

    return ModelSpec(
        id="toy2d",
        dim=2,
        linear_spectrum=np.array([2.0, 2.0]),
        nonlinearity=nonlin,
        lyapunov=_squared_norm,
        noise_coeffs=np.array([1.0]),
        params={},
    )


# -- real Fourier basis on [-L, L], L = LENGTH -------------------------------


def _fourier_basis(n_modes: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Orthonormal real Fourier basis sampled on a uniform periodic grid.

    Mode ordering: index 0 is the constant, index 2m-1 is cos(m pi x / L),
    index 2m is sin(m pi x / L).  Returns (basis matrix of shape
    (n_grid, n_modes), Laplacian eigenvalues per mode, quadrature weight).
    The grid is fine enough that projections of cubes of band-limited
    functions are exact (no aliasing back into the retained modes).
    """
    m_max = (n_modes + 1) // 2
    n_grid = 4 * m_max + 4
    x = -LENGTH + (2.0 * LENGTH / n_grid) * np.arange(n_grid)
    basis = np.empty((n_grid, n_modes))
    eigs = np.empty(n_modes)
    basis[:, 0] = 1.0 / math.sqrt(2.0 * LENGTH)
    eigs[0] = 0.0
    for idx in range(1, n_modes):
        m = (idx + 1) // 2
        # m * pi / pi is not m in floating point for some m: keep the quotient
        freq = m * math.pi / LENGTH
        phase = np.cos(freq * x) if idx % 2 == 1 else np.sin(freq * x)
        basis[:, idx] = phase / math.sqrt(LENGTH)
        eigs[idx] = -(freq**2)
    weight = 2.0 * LENGTH / n_grid
    return basis, eigs, weight


# rows per gemm block of the coefficient/grid transforms
ROW_BLOCK = 8


def _in_row_blocks(rows: np.ndarray, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``fn`` applied to the rows of ``rows`` packed, zero-padded, into a
    contiguous ``(blocks, ROW_BLOCK, k)`` buffer; returns the rows of its
    result in the leading shape of ``rows``.

    Every matmul ``fn`` makes on the buffer is then a stack of gemm calls
    of one shape and stride, so a row's bits depend on that row alone,
    not on how many rows share its batch (a plain ``rows @ matrix`` is
    one gemm whose blocking, and so rounding, follows the batch size).
    """
    lead = rows.shape[:-1]
    n = math.prod(lead)
    k = rows.shape[-1]
    blocks = np.zeros((-(-n // ROW_BLOCK), ROW_BLOCK, k))
    blocks.reshape(-1, k)[:n] = rows.reshape(n, k)
    out = fn(blocks)
    return out.reshape(-1, out.shape[-1])[:n].reshape(lead + out.shape[-1:])


def _spectral_cube(rows: np.ndarray, synthesis: np.ndarray, basis: np.ndarray,
                   weight: float) -> np.ndarray:
    """Projection of the grid cube of each coefficient row."""

    def cube(blocks):
        grid = blocks @ synthesis
        return (grid * grid * grid) @ basis

    return _in_row_blocks(rows, cube) * weight


def _component_rows(state: np.ndarray) -> np.ndarray:
    """A two-component state ``(..., 2k)`` as its ``(..., 2, k)`` u and v rows."""
    return state.reshape(state.shape[:-1] + (2, state.shape[-1] // 2))


def make_ginzburg_landau(
    modes: int = 64,
    forced_modes: int = 3,
    noise_coeffs=None,
) -> ModelSpec:
    """Spectral Ginzburg-Landau truncation ``du = (Δu + u - u³)dt + Q dω``
    on ``[-π, π]``.

    ``forced_modes`` must cover every mode whose linear rate ``λ_k + 1``
    is non-negative, so that the unforced remainder is uniformly
    contracting; the resulting gap ``a = min(1, -(λ_N + 1))`` is stored
    in ``params["gap"]``.
    """
    if modes < 2:
        raise ModelError("need at least two modes")
    if not 1 <= forced_modes < modes:
        raise ModelError("forced_modes must lie in [1, modes)")
    basis, eigs, weight = _fourier_basis(modes)
    spectrum = eigs + 1.0
    if spectrum[forced_modes] >= 0.0:
        raise ModelError(
            "unforced modes must be contracting: increase forced_modes "
            f"(mode {forced_modes} has linear rate {spectrum[forced_modes]:+.3f})"
        )
    if noise_coeffs is None:
        noise_coeffs = np.ones(forced_modes)
    noise_coeffs = np.asarray(noise_coeffs, dtype=float)
    if noise_coeffs.shape != (forced_modes,) or np.any(noise_coeffs <= 0.0):
        raise ModelError("noise_coeffs must be positive, one per forced mode")
    gap = min(1.0, -spectrum[forced_modes])

    synthesis = np.ascontiguousarray(basis.T)

    def nonlin(u):
        return -_spectral_cube(u, synthesis, basis, weight)

    return ModelSpec(
        id="ginzburg_landau",
        dim=modes,
        linear_spectrum=spectrum,
        nonlinearity=nonlin,
        lyapunov=lambda u: np.sqrt((u * u).sum(-1)),
        noise_coeffs=noise_coeffs,
        params={"gap": gap},
    )


def make_reaction_diffusion(modes_per_component: int = 16) -> ModelSpec:
    """Two-component reaction-diffusion truncation on ``[-π, π]``.

    The state stacks the mode coefficients of ``u`` then ``v``:

        du = (Δu + 2u + v - u³) dt + dω,    dv = (Δv + 2v + u - v³) dt,

    with one independent Brownian increment per retained ``u`` mode (the
    finite-dimensional stand-in for space-time white noise on ``u``).
    """
    if modes_per_component < 1:
        raise ModelError("need at least one mode per component")
    basis, eigs, weight = _fourier_basis(modes_per_component)
    half = modes_per_component
    spectrum = np.concatenate([eigs + 2.0, eigs + 2.0])

    synthesis = np.ascontiguousarray(basis.T)

    def nonlin(state):
        # (v - u³, u - v³): both cubes in one call
        uv = _component_rows(state)
        return (uv[..., ::-1, :] - _spectral_cube(uv, synthesis, basis, weight)).reshape(state.shape)

    def sup_norms(state):
        # sup |u| + sup |v|: u and v rows synthesized in one call
        grid = _in_row_blocks(_component_rows(state), lambda blocks: blocks @ synthesis)
        sup = np.abs(grid).max(axis=-1)
        return sup[..., 0] + sup[..., 1]

    return ModelSpec(
        id="reaction_diffusion",
        dim=2 * half,
        linear_spectrum=spectrum,
        nonlinearity=nonlin,
        lyapunov=sup_norms,
        noise_coeffs=np.ones(half),
        params={"laplacian": eigs},
    )


# -- nearest-neighbour chain -------------------------------------------------

# the largest k* a chain may have: the derived force grows about fourfold
# with each level of the cascade (8337 terms at k* = 6, 31288 at 7), so
# a² is capped at K_STAR_MAX² - 3 = 33, the last a² with k* = K_STAR_MAX
K_STAR_MAX = 6


def chain_k_star(a_squared: float) -> int:
    """First site index whose linear damping clears the margin:
    smallest k > 0 with k² - a² >= 3."""
    k = math.isqrt(max(0, math.ceil(a_squared + 3.0) - 1)) + 1
    while k**2 - a_squared < 3.0:
        k += 1
    while k > 1 and (k - 1) ** 2 - a_squared >= 3.0:
        k -= 1
    return k


def make_chain(a_squared: float = 5.0, truncation: int | None = None) -> ModelSpec:
    """Chain ``dx_0 = (a² x_0 + x_1 - x_0³)dt + dω`` with
    ``dx_k = ((a² - k²) x_k + x_{k-1} + x_{k+1} - x_k³)dt`` for ``k >= 1``
    and closure ``x_M = 0`` at the truncation boundary; its Lyapunov
    function is ``|x|²``.  ``a_squared`` lies in ``[0, K_STAR_MAX² - 3]``."""
    if not math.isfinite(a_squared):
        raise ModelError(f"a_squared must be finite, got {a_squared}")
    if a_squared < 0:
        raise ModelError("a_squared must be non-negative")
    if a_squared > K_STAR_MAX**2 - 3.0:
        raise ModelError(f"a_squared must be at most {K_STAR_MAX**2 - 3} (k* at most {K_STAR_MAX}), "
                         f"got {a_squared}")
    k_star = chain_k_star(a_squared)
    if truncation is None:
        truncation = 4 * k_star
    if a_squared >= (truncation - 1) ** 2:
        raise ModelError("truncation boundary must be strongly damped: a² < (M-1)²")
    if truncation < k_star + 2:
        raise ModelError(f"truncation {truncation} too small; need at least {k_star + 2}")
    sites = np.arange(truncation)
    spectrum = a_squared - sites.astype(float) ** 2

    def nonlin(x):
        x = np.ascontiguousarray(x)
        out = x * x
        out *= x
        np.negative(out, out=out)
        # out[..., 1:] += x[..., :-1], then out[..., :-1] += x[..., 1:], each
        # as one contiguous pass over the rows laid end to end; a pass also
        # adds across the row ends, into its edge column, which is put back
        flat_out, flat_x = out.ravel(), x.ravel()
        kept = out[..., 0].copy()
        flat_out[1:] += flat_x[:-1]
        out[..., 0] = kept
        kept = out[..., -1].copy()
        flat_out[:-1] += flat_x[1:]
        out[..., -1] = kept
        return out

    return ModelSpec(
        id="chain",
        dim=truncation,
        linear_spectrum=spectrum,
        nonlinearity=nonlin,
        lyapunov=_squared_norm,
        noise_coeffs=np.array([1.0]),
        params={"a_squared": a_squared, "k_star": k_star},
    )


_FACTORIES = {
    "toy2d": make_toy2d,
    "ginzburg_landau": make_ginzburg_landau,
    "reaction_diffusion": make_reaction_diffusion,
    "chain": make_chain,
}


def make_model(model_id: str, **params) -> ModelSpec:
    try:
        factory = _FACTORIES[model_id]
    except KeyError:
        raise ModelError(
            f"unknown model {model_id!r}; valid ids: {sorted(_FACTORIES)}"
        ) from None
    return factory(**params)
