"""Preset rules: negative controls that must FAIL, and every threshold pinned.

A control is a set of cases passed to a gate's own measurement, at the
gate's own pinned seed and sizes.  Each control here runs the gate's
cases, or other starts, with the binding force switched off (the zero
force of ``oracles.constant_binding``; the model's own zeta map is kept
so the zeta checks still read).  The copies then share the noise and
nothing binds them, so a check of the paper's contraction mechanism must
FAIL.

Not pinned here, because they PASS or barely FAIL unbound at the
presets' own starts: toy-contraction's ``mean-difference-rate`` from its
in-well pair (where dissipation alone joins the copies; the pair from
opposite wells is pinned instead) and chain-cascade's ``rho-decay-rates``
(only its a² = 2 rate goes negative).

The threshold tests feed each rule hand-built numbers at its bound and
one ``np.nextafter`` step past it, so no threshold can move silently.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from asymcouple import presets
from asymcouple.binding import BindingSpec
from asymcouple.presets import (
    chain_measure,
    chain_rule,
    girsanov_rule,
    gl_measure,
    gl_rule,
    mixing_rule,
    rd_measure,
    rd_rule,
    toy_measure,
    toy_rule,
)
from oracles import constant_binding


def unbound(cases):
    """``cases`` with every binding force replaced by zero."""
    return {name: (model, BindingSpec(model.id, constant_binding(model).force, binding.zeta_map),
                   *starts)
            for name, (model, binding, *starts) in cases.items()}


def opposite_wells(cases):
    """The toy pair from x0 = (1.0, 0.5) and y0 = (-1.0, -0.5).

    The starts lie in the basins of the opposite wells ±(√3, √3) of
    U(x) = -(x0² + x1²) - x0 x1 + (x0⁴ + x1⁴)/4.  The barrier between them
    is ΔU = 4, so unbound copies under shared noise stay apart for about
    e⁸ time units, far beyond the gate's 5-unit horizon.
    """
    ((model, binding, _, _),) = cases.values()
    return {model.id: (model, binding, np.array([1.0, 0.5]), np.array([-2.0, -1.0]))}


# a control's other starts, by the name after its preset id
OTHER_STARTS = {"opposite-wells": opposite_wells}


def measured(gate, cases):
    """The verdicts of ``gate``'s rule on its measurement of ``cases``."""
    return verdicts(gate.rule(gate.measure(cases, gate.sizes, gate.seed)))


def verdicts(checks):
    return {c.name: (c.passed, c.detail) for c in checks}


@pytest.mark.parametrize(
    "control, measure, rule, failing",
    [
        ("toy-contraction", toy_measure, toy_rule, ["zeta-exponential-decay"]),
        ("gl-gap", gl_measure, gl_rule,
         ["coupled-diagonal", "pathwise-contraction", "measured-rate"]),
        ("rd-zeta", rd_measure, rd_rule, ["zeta-l2-pathwise", "rho-v-ensemble-bound"]),
        ("chain-cascade", chain_measure, chain_rule, ["zeta-kstar-decay"]),
        ("toy-contraction/opposite-wells", toy_measure, toy_rule,
         ["zeta-exponential-decay", "mean-difference-rate"]),
    ],
)
def test_unbound_control_fails(control, measure, rule, failing):
    preset_id, _, starts = control.partition("/")
    gate = presets._GATES[preset_id]
    assert (gate.measure, gate.rule) == (measure, rule)
    cases = OTHER_STARTS[starts](gate.cases()) if starts else gate.cases()
    checks = measured(gate, unbound(cases))
    for name in failing:
        passed, detail = checks[name]
        assert not passed, f"{control}/{name} passes with the binding off: {detail}"


def test_opposite_wells_pass_bound():
    # the same starts with the binding on: the control tests the binding, not the start
    gate = presets._GATES["toy-contraction"]
    checks = measured(gate, opposite_wells(gate.cases()))
    assert {name: passed for name, (passed, _) in checks.items()} == {
        "zeta-exponential-decay": True, "mean-difference-rate": True,
    }, checks


def up(x):
    return float(np.nextafter(x, np.inf))


def down(x):
    return float(np.nextafter(x, -np.inf))


class TestThresholds:
    def test_toy(self):
        allowed = 10.0 * 1e-3
        at = verdicts(toy_rule({"zeta_rel_err_max": allowed, "dt": 1e-3,
                                "contraction": {"gamma": 0.9}}))
        past = verdicts(toy_rule({"zeta_rel_err_max": up(allowed), "dt": 1e-3,
                                  "contraction": {"gamma": down(0.9)}}))
        assert at == {
            "zeta-exponential-decay": (True, "max relative deviation of zeta(t)/zeta(0) "
                                             "from exp(-2t): 1.000e-02 (allowed 1.0e-02)"),
            "mean-difference-rate": (True, "fitted decay rate of mean |rho|: 0.900 (needs >= 0.9)"),
        }
        assert [passed for passed, _ in past.values()] == [False, False]

    def test_gl(self):
        numbers = {"gap": 1.0, "diagonal_max": -1.0 + 1e-12, "pathwise_margin": 1.0 + 1e-9,
                   "contraction": {"gamma": 1.0}}
        at = verdicts(gl_rule(numbers))
        past = verdicts(gl_rule({
            "gap": 1.0,
            "diagonal_max": up(-1.0 + 1e-12),
            "pathwise_margin": up(1.0 + 1e-9),
            "contraction": {"gamma": down(1.0)},
        }))
        assert at == {
            "coupled-diagonal": (True, "max diagonal entry of the bound difference operator: "
                                       "-1.000 (needs <= -1.000)"),
            "pathwise-contraction": (True, "max |rho(t)| over trajectories relative to "
                                           "exp(-1.00 t) envelope: 1.000000"),
            "measured-rate": (True, "fitted decay rate 1.000 vs configured gap 1.000"),
        }
        assert [passed for passed, _ in past.values()] == [False, False, False]

    def test_rd(self):
        at = verdicts(rd_rule({"zeta_pathwise_margin": 1.0 + 1e-9, "rho_v_bound_margin": 1.0}))
        past = verdicts(rd_rule({"zeta_pathwise_margin": up(1.0 + 1e-9),
                                 "rho_v_bound_margin": up(1.0)}))
        assert at == {
            "zeta-l2-pathwise": (True, "max |zeta(t)|^2 relative to |zeta(0)|^2 exp(-t) "
                                       "envelope: 1.000000"),
            "rho-v-ensemble-bound": (True, "max ensemble-mean |rho_v(t)|^2 relative to its "
                                           "decay bound: 1.0000"),
        }
        assert [passed for passed, _ in past.values()] == [False, False]

    @staticmethod
    def chain_numbers(**changes):
        numbers = {
            "k_star": {0.0: 2, 2.0: 3, 5.0: 3},
            "shape": {0.0: [], 2.0: [], 5.0: []},
            "zeta_kstar0": up(0.1),
            "zeta_rel_err_max": 10.0 * 1e-3,
            "dt": 1e-3,
            "decay_rates": {0.0: up(0.0), 2.0: 1.0, 5.0: 1.0},
        }
        return verdicts(chain_rule({**numbers, **changes}))

    def test_chain(self):
        assert self.chain_numbers() == {
            "k-star-values": (True, "first damped site index per a²: {0.0: 2, 2.0: 3, 5.0: 3}"),
            "cascade-shape": (True, "leading terms, index ranges, rho factors, and level "
                                    "recursion all hold for a² in {0, 2, 5}"),
            "zeta-kstar-decay": (True, "zeta_k*(0)=0.100; max relative deviation from exp(-t): "
                                       "1.000e-02 (allowed 1.0e-02)"),
            "rho-decay-rates": (True, "fitted decay rates of mean |rho|: a²=0.0: 0.000, "
                                      "a²=2.0: 1.000, a²=5.0: 1.000"),
        }
        for changes, name in [
            ({"k_star": {0.0: 2, 2.0: 2, 5.0: 3}}, "k-star-values"),
            ({"zeta_kstar0": 0.1}, "zeta-kstar-decay"),
            ({"zeta_kstar0": -0.1}, "zeta-kstar-decay"),
            ({"zeta_rel_err_max": up(10.0 * 1e-3)}, "zeta-kstar-decay"),
            ({"decay_rates": {0.0: 0.0, 2.0: 1.0, 5.0: 1.0}}, "rho-decay-rates"),
        ]:
            failed = [n for n, (passed, _) in self.chain_numbers(**changes).items() if not passed]
            assert failed == [name], changes

    def test_chain_shape_reports_every_problem(self):
        shape = {0.0: [], 2.0: ["bad zeta_1"], 5.0: ["bad zeta_1", "Q_2 touches index 0 < 1"]}
        assert self.chain_numbers(shape=shape)["cascade-shape"] == (
            False, "a²=2.0: bad zeta_1; a²=5.0: bad zeta_1, Q_2 touches index 0 < 1"
        )

    def test_girsanov(self):
        def case(mean, overflowed=0):
            return {"mean": mean, "se": 0.25, "n": 2000 - overflowed, "overflowed": overflowed}

        checks = verdicts(girsanov_rule({
            "at-high": case(1.75), "at-low": case(0.25),
            # one step past 3 se = 0.75 below 1: 0.25 - ulp would round back to it
            "past-high": case(up(1.75)), "past-low": case(1.0 - up(0.75)),
            "overflowed": case(1.0, overflowed=1),
        }))
        assert checks["mean-density-at-high"] == (
            True, "mean density 1.7500 ± 0.2500 over 2000 paths (0 overflowed)"
        )
        assert checks["mean-density-overflowed"] == (
            False, "mean density 1.0000 ± 0.2500 over 1999 paths (1 overflowed)"
        )
        assert {name: passed for name, (passed, _) in checks.items()} == {
            "mean-density-at-high": True, "mean-density-at-low": True,
            "mean-density-past-high": False, "mean-density-past-low": False,
            "mean-density-overflowed": False,
        }

    def test_mixing(self):
        def series(distances, gamma):
            return {"times": [1, 2], "distances": distances, "floor": 0.25, "gamma": gamma}

        checks = verdicts(mixing_rule({
            "at": series([0.5, 0.75], up(0.0)),
            "rising": series([0.5, up(0.75)], 1.0),
            "flat": series([0.5, 0.5], 0.0),
        }))
        assert checks == {
            "decay-at": (True, "distances 0.500, 0.750; noise floor 0.250; fitted rate 0.000"),
            "decay-rising": (False, "distances 0.500, 0.750; noise floor 0.250; fitted rate 1.000"),
            "decay-flat": (False, "distances 0.500, 0.500; noise floor 0.250; fitted rate 0.000"),
        }


def test_no_preset_tracks_the_w_sups():
    # no preset reads a W sup, so each of its three ensemble calls (the one
    # that every coupled run goes through, and mixing's two starts) runs without them
    tree = ast.parse(Path(presets.__file__).read_text())
    runs = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("run_ensemble", "run_coupled_ensemble")]
    flags = [next((ast.literal_eval(k.value) for k in node.keywords if k.arg == "w_sups"), None)
             for node in runs]
    assert flags == [False] * 3
