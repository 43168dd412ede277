"""``tools/refine_dt.py`` refines the gates' own noise: at coarsening
factor 1 its level is ``run_coupled_ensemble``'s on the same streams,
bit for bit.  That a coarser level sums the same draws is the engine's
``noise_dt`` (``tests/test_engine.py``)."""

import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np

from asymcouple.engine import run_coupled_ensemble

TOOL = Path(__file__).resolve().parents[1] / "tools" / "refine_dt.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("refine_dt", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_factor_one_is_the_ensemble_on_the_same_streams():
    tool = load_tool()
    levels = tool._Levels("toy-contraction", "run", 0, False)
    levels.sizes, levels.n_traj = {**levels.sizes, "units": 1}, 2
    ((name, case),) = levels.cases.items()
    model, binding, x0, rho0 = case
    every = round(levels.spacing / tool.FINE_DT)
    ens = run_coupled_ensemble(model, binding, x0, x0 + rho0, 2, 1, tool.FINE_DT, levels.seed,
                               record_every=every, w_sups=False)
    level = levels(tool.FINE_DT)[name]
    assert len(ens.times) == 21
    for field in fields(ens):
        np.testing.assert_array_equal(getattr(level, field.name), getattr(ens, field.name),
                                      err_msg=field.name, strict=True)
