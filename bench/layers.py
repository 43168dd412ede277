"""Per-layer tracing: wrap each module's public callables, then turn the
recorded spans into per-layer metrics.

The layers are the modules of ``asymcouple``.  ``Instrumentation``
replaces each listed callable, in every module that holds a reference to
it, with a wrapper that opens a span named ``<layer>.<callable>`` (with
``:<model id>`` where the call is about one model).  Closures that the
factories return are wrapped on the returned object: each model's
nonlinearity and each binding's force and ``zeta`` map.  Nothing in
``src/`` is edited; ``uninstall`` puts every original back.

Work done inside worker processes of a pool is not traced: from the
parent, waiting on the pool is time of the caller (``cli``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math

import numpy as np

from spans import SpanRecorder, self_times

PACKAGE = "asymcouple"
MODEL_IDS = ("toy2d", "ginzburg_landau", "reaction_diffusion", "chain")
LAYERS = ("models", "binding", "polynomials", "engine", "estimators", "config", "presets", "cli")

# public callables whose calls open a span; a name a module no longer has is skipped
WRAPPED = {
    "models": ("make_model", "drift", "lyapunov", "apply_noise", "chain_k_star"),
    "binding": ("build_zeta_cascade", "cascade_shape_ok", "dump_cascade_text",
                "gl_coupled_diagonal", "null_binding"),
    "polynomials": ("compile_polynomial", "lie_derivative", "format_polynomial",
                    "parse_polynomial", "evaluate"),
    "engine": ("integrate", "integrate_coupled", "run_ensemble", "run_coupled_ensemble",
               "sample_noise", "shift_noise", "girsanov_density"),
    "estimators": ("fit_contraction", "dirac_dl_distance", "bootstrap_null_quantile",
                   "lyapunov_fit", "axk_table", "density_diagnostics",
                   "binding_growth_exponents", "mixing_distance_series"),
    "config": ("load_config",),
    "presets": ("run_preset",),
    "cli": ("main",),
}
MODEL_FACTORIES = ("make_toy2d", "make_ginzburg_landau", "make_reaction_diffusion", "make_chain")
# engine entry points that integrate paths (single paths take a noise path,
# ensembles a path count, a horizon and a step)
PATH_STEP_FUNCS = ("integrate", "integrate_coupled", "run_ensemble", "run_coupled_ensemble")


def _rows(values) -> int:
    shape = values.shape if hasattr(values, "shape") else np.shape(values)
    return math.prod(shape[:-1])


class Instrumentation:
    """Installs span-recording wrappers around the package's layers."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        pkg = importlib.import_module(PACKAGE)
        mods = [pkg] + [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        return mods

    def _replace(self, orig, wrapper):
        """Point every module attribute and module-level dict entry that
        refers to ``orig`` at ``wrapper``."""
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, key, orig))
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            self._undo.append((value, k, orig))
                            value[k] = wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("instrumentation is already installed")
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        for layer, names in WRAPPED.items():
            for name in names:
                orig = getattr(mods[layer], name, None)
                if callable(orig):
                    self._replace(orig, self._wrap(layer, name, orig))
        for name in MODEL_FACTORIES:
            orig = getattr(mods["models"], name, None)
            if callable(orig):
                self._replace(orig, self._model_factory(name, orig))
        for layer, name, factory in (
            ("binding", "make_binding", self._binding_factory),
            ("estimators", "dual_lipschitz_distance", self._distance),
            ("engine", "trajectory_csv_lines", self._csv_lines),
        ):
            orig = getattr(mods[layer], name, None)
            if callable(orig):
                self._replace(orig, factory(orig))
        compiled = getattr(mods["polynomials"], "CompiledPolynomial", None)
        if compiled is not None and "evaluate" in vars(compiled):
            orig = vars(compiled)["evaluate"]
            self._undo.append((compiled, "evaluate", orig))
            compiled.evaluate = self._compiled_evaluate(orig)

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn, *args, **kwargs):
        idx = self.rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.rec.finish(idx)

    def _wrap(self, layer, name, fn):
        if layer == "engine":
            return self._engine(name, fn)
        span = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(span, fn, *args, **kwargs)

        return wrapper

    def _engine(self, name, fn):
        rec = self.rec
        sig = inspect.signature(fn)
        counts_steps = name in PATH_STEP_FUNCS
        blowup = getattr(importlib.import_module(f"{PACKAGE}.engine"), "BlowUpError", ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = args[0] if args else None
            span = f"engine.{name}:{model.id}" if hasattr(model, "id") else f"engine.{name}"
            try:
                result = self._span(span, fn, *args, **kwargs)
            except blowup:
                rec.count("engine.blowups")
                raise
            if counts_steps:
                steps = _path_steps(sig.bind(*args, **kwargs).arguments)
                rec.count("engine.path_steps", steps)
                rec.count(f"engine.path_steps:{model.id}", steps)
            overflow = getattr(result, "overflow", None)
            if overflow is None and hasattr(result, "girsanov"):
                overflow = result.girsanov.overflow
            if overflow is not None:
                rec.count("engine.overflow_paths", int(np.sum(overflow)))
            return result

        return wrapper

    def _model_factory(self, name, fn):
        span = f"models.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            model = self._span(span, fn, *args, **kwargs)
            model.nonlinearity = self._nonlinearity(model.nonlinearity, model.id)
            return model

        return wrapper

    def _nonlinearity(self, fn, model_id):
        rec, span = self.rec, f"models.nonlinearity:{model_id}"

        def nonlinearity(x):
            idx = rec.begin(span)
            try:
                return fn(x)
            finally:
                rec.finish(idx)
                rec.count("models.nonlinearity_rows", _rows(x))

        return nonlinearity

    def _binding_factory(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spec = self._span("binding.make_binding", fn, *args, **kwargs)
            spec.force = self._closure(spec.force, f"binding.force:{spec.model_id}")
            if spec.zeta_map is not None:
                spec.zeta_map = self._closure(spec.zeta_map, "binding.zeta_map")
            return spec

        return wrapper

    def _closure(self, fn, span):
        def traced(*args, **kwargs):
            return self._span(span, fn, *args, **kwargs)

        return traced

    def _compiled_evaluate(self, fn):
        rec = self.rec

        @functools.wraps(fn)
        def evaluate(poly, values):
            idx = rec.begin("polynomials.CompiledPolynomial.evaluate")
            try:
                return fn(poly, values)
            finally:
                rec.finish(idx)
                rec.count("polynomials.evaluate_calls")
                rec.count("polynomials.term_rows", poly.coeffs.size * _rows(values))

        return evaluate

    def _csv_lines(self, fn):
        # the original is a generator; materialise it inside the span so the
        # formatting work is charged to the engine, not to whoever joins it
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span("engine.trajectory_csv_lines", lambda: list(fn(*args, **kwargs)))

        return wrapper

    def _distance(self, fn):
        rec = self.rec
        sig = inspect.signature(fn)
        error = getattr(importlib.import_module(f"{PACKAGE}.estimators"), "EstimatorError", ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = self._span("estimators.dual_lipschitz_distance", fn, *args, **kwargs)
            except error:
                rec.count("estimators.distance_failed")
                raise
            finally:
                rec.count("estimators.distance_calls")
            idx = rec.begin("trace.bookkeeping")
            try:
                u = _union_size(sig.bind(*args, **kwargs))
                rec.count("estimators.distance_points_total", u)
                rec.count("estimators.distance_lp_rows_total", 2 * u + u * (u - 1) + 1)
            finally:
                rec.finish(idx)
            return result

        return wrapper


def _path_steps(args: dict) -> int:
    if "noise" in args:
        return args["noise"].steps
    if all(k in args for k in ("n_traj", "units", "dt")):
        return args["n_traj"] * args["units"] * round(1.0 / args["dt"])
    return 0


def _union_size(bound: inspect.BoundArguments) -> int:
    """Number of distinct support points the distance LP is built on,
    following the subsampling rule of ``dual_lipschitz_distance``."""
    bound.apply_defaults()
    args = bound.arguments
    a = np.atleast_2d(np.asarray(args["sample_a"], dtype=float))
    b = np.atleast_2d(np.asarray(args["sample_b"], dtype=float))
    cap = args.get("cap", len(a) + len(b))
    rng = np.random.default_rng(args.get("subsample_seed", 0))
    if len(a) > cap:
        a = a[rng.choice(len(a), cap, replace=False)]
    if len(b) > cap:
        b = b[rng.choice(len(b), cap, replace=False)]
    return len(np.unique(np.vstack([a, b]), axis=0))


# -- per-layer metrics ------------------------------------------------------------

S, COUNT = "s", "count"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, in report order, with its unit."""
    names = [(f"models.nonlinearity_s.{m}", S) for m in MODEL_IDS]
    names += [("models.nonlinearity_rows", COUNT), ("models.lyapunov_s", S),
              ("models.apply_noise_s", S), ("models.self_s", S)]
    names += [(f"binding.force_s.{m}", S) for m in MODEL_IDS]
    names += [("binding.zeta_map_s", S), ("binding.build_zeta_cascade_s", S), ("binding.self_s", S)]
    names += [("polynomials.evaluate_s", S), ("polynomials.evaluate_calls", COUNT),
              ("polynomials.term_rows", COUNT), ("polynomials.self_s", S)]
    names += [("engine.busy_s", S), ("engine.self_s", S), ("engine.path_steps", COUNT)]
    names += [(f"engine.path_steps_per_s.{m}", "1/s") for m in MODEL_IDS]
    names += [("engine.sample_noise_s", S), ("engine.overflow_paths", COUNT),
              ("engine.blowups", COUNT)]
    names += [("estimators.distance_s", S), ("estimators.distance_calls", COUNT),
              ("estimators.distance_points", COUNT), ("estimators.distance_lp_rows", COUNT),
              ("estimators.distance_failed", COUNT), ("estimators.bootstrap_s", S),
              ("estimators.fit_s", S), ("estimators.growth_fit_s", S),
              ("estimators.density_diagnostics_s", S), ("estimators.lyapunov_fit_s", S),
              ("estimators.axk_table_s", S), ("estimators.self_s", S)]
    names += [("config.load_config_s", S), ("cli.self_s", S), ("presets.self_s", S),
              ("cli.artifact_bytes", COUNT), ("cli.jobs_mismatch", COUNT)]
    names += [("harness.self_s", S), ("trace.bookkeeping_s", S), ("trace.unattributed_s", S),
              ("trace.wall_s", S), ("trace.overhead_s", S), ("trace.spans", COUNT)]
    return names


# per-layer metric -> span name (without model suffix) whose self time it sums
_SELF_OF = {
    "models.lyapunov_s": "models.lyapunov",
    "models.apply_noise_s": "models.apply_noise",
    "binding.zeta_map_s": "binding.zeta_map",
    "binding.build_zeta_cascade_s": "binding.build_zeta_cascade",
    "polynomials.evaluate_s": "polynomials.CompiledPolynomial.evaluate",
    "engine.sample_noise_s": "engine.sample_noise",
    "estimators.distance_s": "estimators.dual_lipschitz_distance",
    "estimators.bootstrap_s": "estimators.bootstrap_null_quantile",
    "estimators.fit_s": "estimators.fit_contraction",
    "estimators.growth_fit_s": "estimators.binding_growth_exponents",
    "estimators.density_diagnostics_s": "estimators.density_diagnostics",
    "estimators.lyapunov_fit_s": "estimators.lyapunov_fit",
    "estimators.axk_table_s": "estimators.axk_table",
    "config.load_config_s": "config.load_config",
}


# already per call or per second, so not divided by the round count
_NOT_PER_ROUND = {"estimators.distance_points", "estimators.distance_lp_rows"} | {
    f"engine.path_steps_per_s.{m}" for m in MODEL_IDS}


def layer_metrics(rec: SpanRecorder, wall_s: float, untraced_round_s: float,
                  rounds: int = 1) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per round, from the spans of a traced window of
    ``wall_s`` seconds that ran ``rounds`` rounds; ``untraced_round_s`` is
    one round of the same work timed without tracing."""
    arr = rec.arrays()
    own = self_times(arr["start"], arr["end"], arr["parent"])
    n_names = len(rec.names)
    self_by_name = np.bincount(arr["name_id"], weights=own, minlength=n_names)
    full_names = rec.names
    base = [n.split(":")[0] for n in full_names]
    layer = [n.split(".")[0] for n in full_names]

    def self_sum(pred) -> float:
        return float(sum(self_by_name[i] for i in range(n_names) if pred(i)))

    counts = rec.counts
    out: dict[str, float] = {}
    for m in MODEL_IDS:
        out[f"models.nonlinearity_s.{m}"] = self_sum(lambda i: full_names[i] == f"models.nonlinearity:{m}")
        out[f"binding.force_s.{m}"] = self_sum(lambda i: full_names[i] == f"binding.force:{m}")
    for metric, span in _SELF_OF.items():
        out[metric] = self_sum(lambda i: base[i] == span)
    for lay in ("models", "binding", "polynomials", "engine", "estimators", "cli", "presets", "harness"):
        out[f"{lay}.self_s"] = self_sum(lambda i: layer[i] == lay)
    out["trace.bookkeeping_s"] = self_sum(lambda i: layer[i] == "trace")

    # engine busy time: engine spans with no engine span above them
    is_engine = np.array([lay == "engine" for lay in layer], dtype=bool)
    busy_by_model: dict[str, float] = {}
    busy = 0.0
    for i in np.flatnonzero(is_engine[arr["name_id"]]).tolist():
        p = int(arr["parent"][i])
        while p >= 0 and not is_engine[arr["name_id"][p]]:
            p = int(arr["parent"][p])
        if p >= 0:
            continue
        dur = float(arr["end"][i] - arr["start"][i])
        busy += dur
        name = full_names[arr["name_id"][i]]
        model = name.split(":")[1] if ":" in name else "-"
        busy_by_model[model] = busy_by_model.get(model, 0.0) + dur
    out["engine.busy_s"] = busy
    for m in MODEL_IDS:
        steps = counts.get(f"engine.path_steps:{m}", 0.0)
        out[f"engine.path_steps_per_s.{m}"] = steps / busy_by_model[m] if busy_by_model.get(m) else 0.0

    calls = counts.get("estimators.distance_calls", 0.0)
    out["estimators.distance_calls"] = calls
    out["estimators.distance_points"] = counts.get("estimators.distance_points_total", 0.0) / calls if calls else 0.0
    out["estimators.distance_lp_rows"] = counts.get("estimators.distance_lp_rows_total", 0.0) / calls if calls else 0.0
    for key in ("models.nonlinearity_rows", "polynomials.evaluate_calls", "polynomials.term_rows",
                "engine.path_steps", "engine.overflow_paths", "engine.blowups",
                "estimators.distance_failed", "cli.artifact_bytes", "cli.jobs_mismatch"):
        out[key] = counts.get(key, 0.0)

    roots = arr["parent"] < 0
    covered = float((arr["end"][roots] - arr["start"][roots]).sum())
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - covered
    out["trace.spans"] = float(len(rec))
    for name in out:
        if name not in _NOT_PER_ROUND:
            out[name] /= rounds
    out["trace.overhead_s"] = wall_s / rounds - untraced_round_s
    return {name: (out[name], unit) for name, unit in per_layer_names()}
