"""The oracles' lattice algebra on finitely supported measures, and the
paper's overlap lemmas: their right-hand sides against the exact meet
mass."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    DiscreteMeasure,
    MeasureError,
    dirac,
    inverse_square_overlap_bound,
    leq,
    meet,
    overlap_bound,
    overlap_ingredients,
    pushforward,
    subtract,
)

ATOMS = list("abcdefgh")

# dyadic weights keep every min/max/sum exact, so the decomposition
# identity can be asserted bit-for-bit
dyadic = st.integers(min_value=0, max_value=1 << 14).map(lambda n: n / 4096.0)
measures = st.dictionaries(st.sampled_from(ATOMS), dyadic, max_size=6).map(DiscreteMeasure)
positive_weights = st.lists(
    st.integers(min_value=1, max_value=1 << 12).map(lambda n: n / 4096.0),
    min_size=2,
    max_size=6,
)


class TestBasics:
    def test_negative_weight_rejected(self):
        with pytest.raises(MeasureError):
            DiscreteMeasure({"a": -0.1})

    def test_duplicates_sum(self):
        mu = DiscreteMeasure([("a", 0.25), ("a", 0.25)])
        assert mu.weight("a") == 0.5

    def test_mass_and_probability(self):
        mu = DiscreteMeasure({"a": 0.5, "b": 0.5})
        assert mu.mass() == 1.0
        assert mu.is_probability()
        assert not DiscreteMeasure({"a": 0.9}).is_probability()

    def test_prune(self):
        mu = DiscreteMeasure({"a": 1e-16, "b": 1.0})
        assert mu.support == ("b",)


class TestMeet:
    def test_pointwise_min(self):
        mu = DiscreteMeasure({"a": 0.5, "b": 0.5})
        nu = DiscreteMeasure({"a": 0.3, "b": 0.7})
        assert meet(mu, nu) == DiscreteMeasure({"a": 0.3, "b": 0.5})

    def test_idempotent(self):
        mu = DiscreteMeasure({"a": 0.4, "c": 0.6})
        assert meet(mu, mu) == mu

    def test_disjoint_supports(self):
        assert meet(dirac("a"), dirac("b")).mass() == 0.0


class TestSubtract:
    def test_pointwise_clamped_difference(self):
        mu = DiscreteMeasure({"a": 0.5, "b": 0.5})
        nu = DiscreteMeasure({"a": 0.3, "b": 0.7})
        assert subtract(mu, nu) == DiscreteMeasure({"a": 0.2})

    def test_self_is_empty(self):
        mu = DiscreteMeasure({"a": 0.5, "b": 0.5})
        assert subtract(mu, mu) == DiscreteMeasure()

    def test_subtract_empty(self):
        mu = DiscreteMeasure({"a": 0.5, "b": 0.5})
        assert subtract(mu, DiscreteMeasure()) == mu


@given(measures, measures)
def test_decomposition_exact(mu, nu):
    assert meet(mu, nu) + subtract(mu, nu) == mu


@given(measures, measures)
def test_meet_commutes_and_bounds(mu, nu):
    assert meet(mu, nu) == meet(nu, mu)
    assert leq(meet(mu, nu), mu)
    assert leq(meet(mu, nu), nu)


class TestPushforward:
    def test_identity(self):
        mu = DiscreteMeasure({"a": 0.4, "b": 0.6})
        assert pushforward(lambda p: p, mu) == mu

    def test_constant_map(self):
        mu = DiscreteMeasure({"a": 0.4, "b": 0.6})
        assert pushforward(lambda p: "c", mu) == DiscreteMeasure({"c": 1.0})

    def test_collision_sums(self):
        mu = DiscreteMeasure({"a": 0.4, "b": 0.6})
        out = pushforward({"a": "c", "b": "c"}.get, mu)
        assert out == DiscreteMeasure({"c": 1.0})

    def test_partial_map_rejected(self):
        mu = DiscreteMeasure({"a": 1.0})
        with pytest.raises(MeasureError, match="partial map"):
            pushforward({"b": "c"}.get, mu)
        with pytest.raises(MeasureError, match="partial map"):
            pushforward(lambda p: {}[p], mu)


@given(measures, measures, st.lists(st.sampled_from("pqr"), min_size=len(ATOMS), max_size=len(ATOMS)))
def test_pushforward_lattice_inequalities(mu, nu, images):
    f = dict(zip(ATOMS, images)).get
    assert leq(pushforward(f, meet(mu, nu)), meet(pushforward(f, mu), pushforward(f, nu)))
    assert leq(subtract(pushforward(f, mu), pushforward(f, nu)), pushforward(f, subtract(mu, nu)))


@given(measures, measures)
def test_pushforward_equalities_for_injective_maps(mu, nu):
    f = {a: a.upper() for a in ATOMS}.get
    assert pushforward(f, meet(mu, nu)) == meet(pushforward(f, mu), pushforward(f, nu))
    assert pushforward(f, subtract(mu, nu)) == subtract(pushforward(f, mu), pushforward(f, nu))


class TestOverlapLowerBound:
    def test_equal_measures_full_set(self):
        mu = DiscreteMeasure({"a": 0.5, "b": 0.5})
        exact = overlap_ingredients(mu, mu, ["a", "b"])
        assert exact.meet_mass == pytest.approx(1.0)
        assert overlap_bound(exact.mass_a, exact.eps2) == pytest.approx(1.0)
        assert inverse_square_overlap_bound(exact.mass_a, exact.c) == pytest.approx(0.5)

    def test_direct_evaluation(self):
        # lhs = min(.5,.6)+min(.5,.4) = 0.9; eps2 = .04 so rhs = 1 - 0.2;
        # c = .5 (.5/.6)² + .5 (.5/.4)² = 1.128..., so rhs = 1 / (1 + sqrt(c))
        mu1 = DiscreteMeasure({"a": 0.5, "b": 0.5})
        mu2 = DiscreteMeasure({"a": 0.6, "b": 0.4})
        exact = overlap_ingredients(mu1, mu2, ["a", "b"])
        assert exact.meet_mass == pytest.approx(0.9)
        assert exact.eps2 == pytest.approx(0.04)
        assert overlap_bound(exact.mass_a, exact.eps2) == pytest.approx(0.8)
        c = 0.5 * (0.5 / 0.6) ** 2 + 0.5 * (0.5 / 0.4) ** 2
        assert exact.c == pytest.approx(c)
        sharp = inverse_square_overlap_bound(exact.mass_a, exact.c)
        assert sharp == pytest.approx(1.0 / (1.0 + math.sqrt(c)))
        assert exact.meet_mass >= overlap_bound(exact.mass_a, exact.eps2)
        assert exact.meet_mass >= sharp

    def test_empty_set(self):
        mu = DiscreteMeasure({"a": 0.5, "b": 0.5})
        exact = overlap_ingredients(mu, mu, [])
        assert exact == (0.0, 0.0, 0.0, 0.0)
        assert overlap_bound(exact.mass_a, exact.eps2) <= 0.0
        assert inverse_square_overlap_bound(exact.mass_a, exact.c) == 0.0

    def test_absolute_continuity_required(self):
        mu1 = DiscreteMeasure({"a": 1.0})
        mu2 = DiscreteMeasure({"a": 0.5, "b": 0.5})
        with pytest.raises(MeasureError, match="absolutely continuous"):
            overlap_ingredients(mu1, mu2, ["a", "b"])

    def test_positive_density_required(self):
        mu1 = DiscreteMeasure({"a": 0.5, "b": 0.5})
        with pytest.raises(MeasureError, match="density vanishes"):
            overlap_ingredients(mu1, dirac("a"), ["a", "b"])

    def test_requires_probabilities(self):
        with pytest.raises(MeasureError):
            overlap_ingredients(DiscreteMeasure({"a": 0.5}), dirac("a"), ["a"])


def _prob_pair(weights1, weights2):
    support = ATOMS[: len(weights1)]
    m1 = sum(weights1)
    m2 = sum(weights2[: len(weights1)]) or 1.0
    mu1 = DiscreteMeasure({p: w / m1 for p, w in zip(support, weights1)})
    mu2 = DiscreteMeasure(
        {p: w / m2 for p, w in zip(support, weights2[: len(weights1)])}
    )
    return mu1, mu2


@settings(max_examples=200)
@given(positive_weights, positive_weights, st.integers(min_value=0, max_value=255))
def test_overlap_bounds_on_random_pairs(w1, w2, mask):
    if len(w2) < len(w1):
        w1 = w1[: len(w2)]
    mu1, mu2 = _prob_pair(w1, w2)
    a = [p for i, p in enumerate(mu1.support) if mask & (1 << i)]
    exact = overlap_ingredients(mu1, mu2, a)
    assert exact.meet_mass >= overlap_bound(exact.mass_a, exact.eps2) - 1e-12

    sharp = inverse_square_overlap_bound(exact.mass_a, exact.c)
    assert exact.meet_mass >= sharp - 1e-12
    mass_a, c = exact.mass_a, exact.c
    if mass_a > 0.0 and 4.0 * c >= mass_a + math.sqrt(c):  # where the 1/(4c) form is valid
        assert sharp >= mass_a**2 / (4.0 * c) - 1e-12
