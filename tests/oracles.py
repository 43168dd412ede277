"""Test oracles: a model's full drift, and parsers of the polynomial and
cascade text dumps.

The stepper integrates the linear part exactly and never forms the
drift ``A x + F(x)``; the tests use it to state what a binding force or
a dissipativity bound means.  The library writes the dumps
(``format_polynomial``, ``dump_cascade_text``) but never reads them; the
tests parse them back to check that the text is lossless.
"""

import numpy as np

from asymcouple.models import ModelError, ModelSpec
from asymcouple.polynomials import IndexedPolynomial


def drift(model: ModelSpec, state: np.ndarray) -> np.ndarray:
    """Full deterministic drift ``A x + F(x)``."""
    state = np.asarray(state, dtype=float)
    if state.shape[-1] != model.dim:
        raise ModelError(f"state has length {state.shape[-1]}, expected {model.dim}")
    if not np.all(np.isfinite(state)):
        raise ModelError("non-finite state")
    return model.linear_spectrum * state + model.nonlinearity(state)


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
