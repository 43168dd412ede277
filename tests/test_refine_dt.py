"""``tools/refine_dt.py`` refines the gates' own noise: at coarsening
factor 1 its joined ensemble is ``run_coupled_ensemble``'s, bit for bit."""

import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np

from asymcouple import presets
from asymcouple.engine import run_coupled_ensemble

TOOL = Path(__file__).resolve().parents[1] / "tools" / "refine_dt.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("refine_dt", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_factor_one_is_the_ensemble_on_the_same_streams():
    tool = load_tool()
    gate = presets._GATES["toy-contraction"]
    (case,) = gate.cases().values()
    model, binding, x0, rho0 = case
    spacing = gate.sizes["run"]["spacing"]
    joined = tool.joined(case, tool.fine_noises(model, 1, gate.seed, 2), 1, spacing)
    every = round(spacing / tool.FINE_DT)
    ens = run_coupled_ensemble(model, binding, x0, x0 + rho0, 2, 1, tool.FINE_DT, gate.seed,
                               record_every=every)
    assert len(ens.times) == 21
    for field in fields(ens):
        np.testing.assert_array_equal(getattr(joined, field.name), getattr(ens, field.name),
                                      err_msg=field.name, strict=True)
