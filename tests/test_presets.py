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
opposite wells is pinned instead) and chain-cascade's ``rho-decay-rates``.
Unbound, every chain rate but a² = 2's is positive, and that one is
bimodal over the noise: about +2.7 when every pair joins under the
shared noise, slightly negative when some stay apart.  At the pinned
seed it reads +2.72, so the check PASSes unbound; it needs starts that
an unbound copy cannot join.

The threshold tests feed each rule hand-built numbers at its bound and
one ``np.nextafter`` step past it, so no threshold can move silently; the
zeta tolerance and the envelopes are held whatever a run's dt.  The
record tests pin every coupled run's record times, which a change of dt
must keep.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from asymcouple import presets
from asymcouple.binding import BindingSpec
from asymcouple.engine import EngineError, run_coupled_ensemble
from asymcouple.estimators import mean_rho_rate
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
    # no threshold moves with a run's dt: 1e-3, 5e-3 and 2e-2 span the
    # presets' steps
    DTS = (1e-3, 5e-3, 2e-2)

    def test_toy(self):
        allowed = 1e-2
        for dt in self.DTS:
            at = verdicts(toy_rule({"zeta_rel_err_max": allowed, "dt": dt,
                                    "contraction": {"gamma": 0.9}}))
            past = verdicts(toy_rule({"zeta_rel_err_max": up(allowed), "dt": dt,
                                      "contraction": {"gamma": down(0.9)}}))
            assert at == {
                "zeta-exponential-decay": (True, "max relative deviation of zeta(t)/zeta(0) "
                                                 "from exp(-2t): 1.000e-02 (allowed 1.0e-02)"),
                "mean-difference-rate": (True, "fitted decay rate of mean |rho|: 0.900 "
                                               "(needs >= 0.9)"),
            }, dt
            assert [passed for passed, _ in past.values()] == [False, False], dt

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

    def test_envelope(self):
        # the envelope at t is 1 + 0.01 t; no run's dt enters it
        times = np.linspace(0.0, 3.0, 121)
        envelope = 2.0 * np.exp(-1.5 * times) * (1.0 + 0.01 * times)
        values = np.repeat(envelope[:, None], 3, axis=1)
        assert presets._envelope_margin(values, 2.0, 1.5, times) == 1.0
        values[-1, 1] = up(values[-1, 1])
        assert presets._envelope_margin(values, 2.0, 1.5, times) > 1.0

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
    def chain_numbers(dt=5e-3, **changes):
        numbers = {
            "k_star": {0.0: 2, 2.0: 3, 5.0: 3},
            "shape": {0.0: [], 2.0: [], 5.0: []},
            "zeta_kstar0": up(0.1),
            "zeta_rel_err_max": 1e-2,
            "dt": dt,
            "decay_rates": {0.0: up(0.0), 2.0: 1.0, 5.0: 1.0},
        }
        return verdicts(chain_rule({**numbers, **changes}))

    def test_chain(self):
        for dt in self.DTS:
            assert self.chain_numbers(dt) == {
                "k-star-values": (True, "first damped site index per a²: "
                                        "{0.0: 2, 2.0: 3, 5.0: 3}"),
                "cascade-shape": (True, "leading terms, index ranges, rho factors, and level "
                                        "recursion all hold for a² in {0, 2, 5}"),
                "zeta-kstar-decay": (True, "zeta_k*(0)=0.100; max relative deviation from "
                                           "exp(-t): 1.000e-02 (allowed 1.0e-02)"),
                "rho-decay-rates": (True, "fitted decay rates of mean |rho|: a²=0.0: 0.000, "
                                          "a²=2.0: 1.000, a²=5.0: 1.000"),
            }, dt
            for changes, name in [
                ({"k_star": {0.0: 2, 2.0: 2, 5.0: 3}}, "k-star-values"),
                ({"zeta_kstar0": 0.1}, "zeta-kstar-decay"),
                ({"zeta_kstar0": -0.1}, "zeta-kstar-decay"),
                ({"zeta_rel_err_max": up(1e-2)}, "zeta-kstar-decay"),
                ({"decay_rates": {0.0: 0.0, 2.0: 1.0, 5.0: 1.0}}, "rho-decay-rates"),
            ]:
                failed = [n for n, (passed, _) in self.chain_numbers(dt, **changes).items()
                          if not passed]
                assert failed == [name], (dt, changes)

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


# every coupled run's record times as (units, spacing), which a change of dt must keep
RECORDS = {
    ("toy-contraction", "run"): (5, 0.05),
    ("gl-gap", "run"): (3, 0.025),
    ("rd-zeta", "run"): (3, 0.025),
    ("chain-cascade", "run"): (2, 0.025),
    ("chain-cascade", "rates"): (10, 1.0),
    ("girsanov-martingale", "run"): (2, 1.0),
}


# runs also made at dt/2 for a Richardson value, whose records must stay there too
HALVED = {("chain-cascade", "rates")}


def test_every_coupled_run_is_pinned():
    runs = {(pid, key) for pid, gate in presets._GATES.items()
            for key, run in gate.sizes.items() if isinstance(run, dict)}
    assert runs == set(RECORDS)


@pytest.mark.parametrize("preset_id, key", RECORDS)
def test_records_stay_at_their_times(preset_id, key):
    gate = presets._GATES[preset_id]
    run = gate.sizes[key]
    units, spacing = RECORDS[preset_id, key]
    assert (run["units"], run["spacing"]) == (units, spacing)
    *_, case = gate.cases().values()
    halved = [{**run, "dt": run["dt"] / 2}] if (preset_id, key) in HALVED else []
    for level in [run, *halved]:
        dt, every = level["dt"], presets._record_every(level)
        assert abs(round(1.0 / dt) * dt - 1.0) < 1e-12 and abs(every * dt - spacing) < 1e-12
        times = presets._coupled(case, {**level, "n_traj": 1}, gate.seed).times
        np.testing.assert_allclose(times, spacing * np.arange(round(units / spacing) + 1),
                                   rtol=0.0, atol=1e-12, err_msg=f"dt={dt:g}")


def test_the_chain_rate_is_the_richardson_value_of_its_two_runs():
    # the rate checked is r_f + (r_f - r_c)/3 of the pair run at dt on the
    # noise drawn at dt/2 (r_c) and the pair run at dt/2 (r_f); both are reported
    gate = presets._GATES["chain-cascade"]
    cases = {0.0: gate.cases()[0.0]}
    sizes = {"run": {**gate.sizes["run"], "n_traj": 1, "units": 1},
             "rates": {**gate.sizes["rates"], "n_traj": 2, "units": 2}}
    m = chain_measure(cases, sizes, gate.seed)
    model, binding, x0, rho0 = cases[0.0]
    dt = sizes["rates"]["dt"]
    r_c, r_f = (mean_rho_rate(run_coupled_ensemble(
        model, binding, x0, x0 + rho0, 2, 2, level, gate.seed + 1, record_every=round(1 / level),
        noise_dt=dt / 2)).gamma for level in (dt, dt / 2))
    assert r_c != r_f
    assert m["level_rates"] == {0.0: {f"{dt:g}": r_c, f"{dt / 2:g}": r_f}}
    assert m["decay_rates"] == {0.0: r_f + (r_f - r_c) / 3}


@pytest.mark.parametrize("dt, spacing", [(1e-2, 0.025), (3e-3, 1.0), (5e-3, 0.0)])
def test_a_dt_off_the_record_grid_is_refused(dt, spacing):
    with pytest.raises(EngineError, match="must divide the record spacing"):
        presets._record_every({"dt": dt, "spacing": spacing})


def test_no_preset_tracks_the_w_sups():
    # no preset reads a W sup, so each of its three ensemble calls (the one
    # that every coupled run goes through, and mixing's two starts) runs without them
    tree = ast.parse(Path(presets.__file__).read_text())
    runs = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("run_ensemble", "run_coupled_ensemble")]
    flags = [next((ast.literal_eval(k.value) for k in node.keywords if k.arg == "w_sups"), None)
             for node in runs]
    assert flags == [False] * 3
