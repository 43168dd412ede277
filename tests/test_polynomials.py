"""Sparse indexed polynomials: arithmetic, Lie derivatives, text format."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcouple.binding import build_zeta_cascade, make_binding
from asymcouple.models import make_chain
from oracles import coupled_chain_field, evaluate, parse_polynomial
from asymcouple.polynomials import (
    IndexedPolynomial as P,
)
from asymcouple.polynomials import (
    PATH_BLOCK,
    PolynomialError,
    PolyVectorField,
    compile_polynomial,
    format_polynomial,
    lie_derivative,
)

X0 = P.variable("x", 0)
RHO1 = P.variable("rho", 1)
RHO2 = P.variable("rho", 2)


class TestCombine:
    def test_add_cancels(self):
        assert (X0 + -X0).is_zero()

    def test_mul_square(self):
        sq = RHO1 * RHO1
        assert sq == RHO1**2
        assert sq.coefficient(((("rho", 1), 2),)) == 1.0

    def test_scale_builds_bound_combination(self):
        zeta = RHO1 + RHO2 * 3.0
        assert zeta == RHO1 + 3 * RHO2
        assert evaluate(zeta, {("rho", 1): 1.0, ("rho", 2): 2.0}) == 7.0


class TestEvaluate:
    def test_zero_polynomial(self):
        assert evaluate(P(), {}) == 0.0

    def test_direct_substitution(self):
        y0 = P.variable("y", 0)
        rho0 = P.variable("rho", 0)
        p = rho0 * (X0**2 + X0 * y0 + y0**2)
        val = evaluate(p, {("rho", 0): 1.0, ("x", 0): 1.0, ("y", 0): 2.0})
        assert val == 7.0

    def test_unbound_variable(self):
        with pytest.raises(PolynomialError, match="unbound"):
            evaluate(X0 + RHO1, {("x", 0): 1.0})

    def test_array_broadcast(self):
        p = X0**2 + 2 * X0
        xs = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(evaluate(p, {("x", 0): xs}), xs**2 + 2 * xs)


class TestQueries:
    def test_index_ranges(self):
        p = RHO1 * P.variable("x", 4) + RHO2
        assert p.min_index() == 1
        assert p.max_index() == 4

    def test_empty_ranges(self):
        assert P.constant(3.0).max_index() is None


class TestLieDerivative:
    def test_chain_rule_on_square(self):
        field = PolyVectorField(rows={("x", 0): -X0}, truncation=1)
        assert lie_derivative(X0**2, field) == -2 * X0**2

    def test_constant_has_zero_derivative(self):
        field = PolyVectorField(rows={("x", 0): -X0}, truncation=1)
        assert lie_derivative(P.constant(5.0), field).is_zero()

    def test_truncation_overflow(self):
        field = PolyVectorField(rows={("x", 0): -X0}, truncation=1)
        with pytest.raises(PolynomialError, match="truncation overflow"):
            lie_derivative(P.variable("x", 3), field)

    def test_first_cascade_step_matches_chain_structure(self):
        # a² = 5 gives k* = 3 and c1 = a² - (k*-1)² = 1; the derivative of
        # rho[2] along the coupled chain field must produce exactly
        # c1 rho[2] + rho[3] + rho[1] - rho[2](3x² + 3x rho + rho²) at site 2
        model = make_chain(a_squared=5.0)
        field = coupled_chain_field(model)
        x2 = P.variable("x", 2)
        got = lie_derivative(P.variable("rho", 2), field)
        expected = (
            1.0 * RHO2
            + P.variable("rho", 3)
            + RHO1
            - RHO2 * (3 * x2**2 + 3 * x2 * RHO2 + RHO2**2)
        )
        assert got == expected


small_coef = st.integers(min_value=-4, max_value=4).filter(lambda n: n != 0)
variables = st.sampled_from([("x", 0), ("x", 1), ("rho", 0), ("rho", 1)])
monomials = st.dictionaries(variables, st.integers(min_value=1, max_value=2), max_size=2).map(
    lambda d: tuple(sorted(d.items()))
)
polys = st.dictionaries(monomials, small_coef, max_size=3).map(P)


@settings(max_examples=150)
@given(polys, polys)
def test_leibniz_rule(p, q):
    # integer coefficients keep every product/sum exact, so the identity
    # can be asserted as dict equality
    rows = {
        ("x", 0): P.variable("x", 1) - X0**2,
        ("x", 1): 2 * X0,
        ("rho", 0): P.variable("rho", 1) + X0 * P.variable("rho", 0),
        ("rho", 1): -3 * P.variable("rho", 1),
    }
    field = PolyVectorField(rows=rows, truncation=2)
    lhs = lie_derivative(p * q, field)
    rhs = p * lie_derivative(q, field) + q * lie_derivative(p, field)
    assert lhs == rhs


def test_lie_derivative_matches_finite_differences():
    model = make_chain(a_squared=5.0)
    field = coupled_chain_field(model)
    rng = np.random.default_rng(3)
    p = (
        P.variable("rho", 2) * P.variable("x", 2) ** 2
        + 2 * P.variable("rho", 3)
        - P.variable("x", 1) * P.variable("rho", 1)
    )
    lie = lie_derivative(p, field)
    order = tuple(field.rows)
    state = {v: rng.normal() for v in order}
    flow = {v: evaluate(field.rows[v], state) for v in order}

    def p_at(eps):
        return evaluate(p, {v: state[v] + eps * flow[v] for v in order})

    exact = evaluate(lie, state)
    errors = []
    for h in (1e-4, 5e-5):
        fd = (p_at(h) - p_at(-h)) / (2 * h)
        errors.append(abs(fd - exact))
    assert errors[0] < 1e-6
    # halving h divides the central-difference error by about 4
    assert errors[1] < errors[0] / 2.5


def test_index_locality_of_chain_field():
    model = make_chain(a_squared=5.0)
    field = coupled_chain_field(model)
    p = P.variable("rho", 2) + P.variable("x", 3) * P.variable("rho", 3)
    lie = lie_derivative(p, field)
    assert lie.min_index() >= p.min_index() - 1
    assert lie.max_index() <= p.max_index() + 1


class TestTextFormat:
    def test_zero(self):
        assert format_polynomial(P()) == "0"
        assert parse_polynomial("0").is_zero()

    def test_format_shape(self):
        text = format_polynomial(3.0 * X0 * RHO2**2)
        assert text == "3.0 * rho[2]^2*x[0]"

    @given(polys)
    def test_round_trip(self, p):
        assert parse_polynomial(format_polynomial(p)) == p


@given(polys)
def test_compiled_matches_direct(p):
    order = (("x", 0), ("x", 1), ("rho", 0), ("rho", 1))
    compiled = compile_polynomial(p, order)
    values = np.random.default_rng(0).normal(size=(5, len(order)))
    assign = {v: values[:, i] for i, v in enumerate(order)}
    direct = evaluate(p, assign)
    np.testing.assert_allclose(compiled.evaluate(values), direct, rtol=1e-12, atol=1e-12)


def _coupled_order(sites):
    """The coupled cascade's variables: the ``x_i``, then the ``rho_i``."""
    return tuple(("x", i) for i in range(sites)) + tuple(("rho", i) for i in range(sites))


@pytest.mark.parametrize("a_squared", [0.0, 2.0, 5.0, 14.0, 33.0])
def test_compiled_cascade_matches_symbolic_evaluation(a_squared):
    # the chain binding's force and zeta map run through compiled
    # polynomials; symbolic term-by-term evaluation is their oracle
    model = make_chain(a_squared=a_squared)
    cascade = build_zeta_cascade(model)
    binding = make_binding(model)
    rng = np.random.default_rng(12)
    x = rng.normal(size=(40, model.dim)) * 0.8
    y = x + rng.normal(size=(40, model.dim)) * 0.3
    xy = np.stack([x, y])
    assign = dict(zip(_coupled_order(model.dim), np.concatenate([x, y - x], axis=-1).T))
    expected = np.stack(
        [evaluate(cascade.g_poly, assign)] + [evaluate(z, assign) for z in cascade.zetas], axis=-1
    )
    actual = np.concatenate([binding.force(xy, None), binding.zeta_map(xy)], axis=-1)
    scale = np.maximum(np.max(np.abs(expected), axis=0), 1.0)
    np.testing.assert_array_less(np.abs(actual - expected) / scale, 1e-12)


@pytest.mark.parametrize("paths", [1, PATH_BLOCK - 1, PATH_BLOCK, PATH_BLOCK + 1, 3 * PATH_BLOCK + 7])
@pytest.mark.parametrize("which", ["force", "zeta"])
def test_path_blocks_give_each_path_its_own_value(which, paths):
    # a batch goes through in blocks of PATH_BLOCK paths; each path's value
    # is bit for bit that path evaluated alone, whatever the batch's width
    cascade = build_zeta_cascade(make_chain(a_squared=2.0))
    poly = cascade.g_poly if which == "force" else cascade.zetas[-1]
    order = _coupled_order(cascade.truncation)
    compiled = compile_polynomial(poly, order)
    values = np.random.default_rng(paths).normal(size=(paths, len(order))) * 0.8
    alone = np.concatenate([compiled.evaluate(row[None]) for row in values])
    np.testing.assert_array_equal(compiled.evaluate(values), alone)
    np.testing.assert_array_equal(compiled.evaluate(np.stack([values, values[::-1]])),
                                  np.stack([alone, alone[::-1]]))


def test_a_chain_force_call_works_in_a_fixed_space():
    # the trie's node table and term products are held for one path block
    # at a time, so a wider batch adds only its inputs and outputs; one
    # block's workspace stays small up to the largest cascade, k* = 6
    for a_squared in (2.0, 33.0):
        model = make_chain(a_squared=a_squared)
        binding = make_binding(model)
        rng = np.random.default_rng(7)
        peaks = {}
        for paths in (PATH_BLOCK, 2000, 8000):
            xy = rng.normal(size=(2, paths, model.dim)) * 0.5
            binding.force(xy, None)
            tracemalloc.start()
            try:
                binding.force(xy, None)
                peaks[paths] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[PATH_BLOCK] <= 8 * 2**20, f"a² = {a_squared}: {peaks[PATH_BLOCK]} B"
        assert (peaks[8000] - peaks[2000]) / 6000 < 1024, f"a² = {a_squared}"
