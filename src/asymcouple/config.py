"""Experiment configuration: sectioned key=value files, validation, fingerprints.

The format is INI-style (configparser) with four sections::

    [model]
    id = chain
    a_squared = 5.0

    [run]
    dt = 0.001
    units = 3
    ensemble = 50
    seed = 7
    binding = on
    x0 = 0.5 0.3
    y0_offset = 0.8 0.4

    [estimators]
    contraction = on

    [output]
    dir = out/chain

This module alone knows the schema: a key -> parser table per section,
``ESTIMATOR_DEFAULTS``, and the ``ExperimentConfig`` field defaults.
Unknown sections and keys are errors.

Times are nondimensional (key names carry no units on purpose).  Every
artifact written from a config embeds the config fingerprint, a sha256
over the canonical parsed content, so outputs of one run can be checked
for consistency.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .models import ModelError, ModelSpec, make_model


def _float(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"must be finite, got {text!r}")
    return val


def _floats(text: str) -> list[float]:
    return [_float(tok) for tok in text.split()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split()]


def _bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("on", "true", "yes", "1"):
        return True
    if val in ("off", "false", "no", "0"):
        return False
    raise ValueError(f"expected on/off, got {text!r}")


# [model] keys besides ``id``, per model; its keys are the valid model ids
_MODEL_KEYS = {
    "toy2d": {},
    "ginzburg_landau": {"modes": int, "forced_modes": int, "noise_coeffs": _floats},
    "reaction_diffusion": {"modes_per_component": int},
    "chain": {"a_squared": _float, "truncation": int},
}
_RUN_KEYS = {"dt": _float, "units": int, "ensemble": int, "seed": int, "binding": _bool,
             "record_every": int, "jobs": int, "x0": _floats, "y0_offset": _floats}
_ESTIMATOR_KEYS = {"contraction": _bool, "mixing": _bool, "mixing_times": _ints,
                   "mixing_alt_x0": _floats, "lyapunov": _bool, "axk": _bool, "axk_ks": _floats,
                   "axk_horizon": int, "density": _bool, "density_horizons": _ints}
_OUTPUT_KEYS = {"dir": str}
ESTIMATOR_DEFAULTS = {"contraction": True, "mixing": False, "mixing_times": [1, 2, 3],
                      "mixing_alt_x0": None, "lyapunov": False, "axk": False,
                      "axk_ks": [100.0, 1000.0, 10000.0], "axk_horizon": 3, "density": False,
                      "density_horizons": [1, 2, 3, 4]}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    model_id: str
    model_params: dict = field(default_factory=dict)
    dt: float = 1e-3
    units: int = 3
    ensemble: int = 50
    seed: int = 0
    binding: bool = True
    record_every: int = 0  # 0 means "one record per unit interval"
    jobs: int = 1
    x0: list[float] = field(default_factory=list)
    y0_offset: list[float] = field(default_factory=list)
    estimators: dict = field(default_factory=dict)
    out_dir: str = "out"

    def fingerprint(self) -> str:
        """sha256 prefix over every parsed field except ``jobs`` and ``out_dir``."""
        fields = {k: v for k, v in asdict(self).items() if k not in ("jobs", "out_dir")}
        return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()[:16]

    def build_model(self) -> ModelSpec:
        """The config's model, built once per process (it is not pickled)."""
        if "_model" not in vars(self):
            try:
                self._model = make_model(self.model_id, **self.model_params)
            except ModelError as exc:
                raise ConfigError(f"[model] {exc}") from exc
        return self._model

    def __getstate__(self):
        # a model holds closures: a pool worker builds its own
        return {k: v for k, v in vars(self).items() if k != "_model"}

    def initial_conditions(self, model: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
        x0 = _pad(self.x0, model.dim, "[run] x0")
        y0 = x0 + _pad(self.y0_offset, model.dim, "[run] y0_offset")
        return x0, y0

    def estimator(self, key: str):
        """An ``[estimators]`` setting: the file's value, else the default."""
        return self.estimators.get(key, ESTIMATOR_DEFAULTS[key])

    def mixing_alt_x0(self, model: ModelSpec) -> np.ndarray:
        """The second start of the mixing estimator, padded to the model."""
        alt = self.estimator("mixing_alt_x0")
        if alt is None:
            raise ConfigError("[estimators] mixing requires mixing_alt_x0")
        return _pad(alt, model.dim, "[estimators] mixing_alt_x0")


def _pad(values: list[float], dim: int, where: str) -> np.ndarray:
    if len(values) > dim:
        raise ConfigError(f"{where}: {len(values)} entries exceed model dimension {dim}")
    out = np.zeros(dim)
    out[: len(values)] = values
    return out


def _parse_section(section: configparser.SectionProxy, table: dict) -> dict:
    """Parse the keys a section sets through its key -> parser table."""
    values = {}
    for key, raw in section.items():
        if key not in table:
            raise ConfigError(f"[{section.name}] {key}: unknown key; valid: {', '.join(table)}")
        try:
            values[key] = table[key](raw)
        except ValueError as exc:
            raise ConfigError(f"[{section.name}] {key}: {exc}") from exc
    return values


def load_config(path, *, seed: int | None = None, jobs: int | None = None) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError with the
    offending section/key (or parser line) in the message.  ``seed`` and
    ``jobs``, when given, override ``[run]`` before validation."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    if not parser.has_option("model", "id"):
        raise ConfigError("[model] section with an 'id' key is required")
    model_id = parser.get("model", "id").strip()
    if model_id not in _MODEL_KEYS:
        raise ConfigError(f"[model] id: unknown model {model_id!r}; valid: {tuple(_MODEL_KEYS)}")
    tables = {"model": {"id": str, **_MODEL_KEYS[model_id]}, "run": _RUN_KEYS,
              "estimators": _ESTIMATOR_KEYS, "output": _OUTPUT_KEYS}
    parsed = {"run": {}, "estimators": {}, "output": {}}
    for name in parser.sections():
        if name not in tables:
            raise ConfigError(f"[{name}] section: unknown section; valid: {', '.join(tables)}")
        parsed[name] = _parse_section(parser[name], tables[name])
    del parsed["model"]["id"]

    cfg = ExperimentConfig(model_id, parsed["model"], **parsed["run"],
                           estimators=parsed["estimators"])
    cfg.out_dir = parsed["output"].get("dir", cfg.out_dir)
    if seed is not None:
        cfg.seed = seed
    if jobs is not None:
        cfg.jobs = jobs
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.dt <= 0:
        raise ConfigError(f"[run] dt: must be positive, got {cfg.dt}")
    spu = round(1.0 / cfg.dt)
    if abs(spu * cfg.dt - 1.0) > 1e-9:
        raise ConfigError(f"[run] dt: must divide the unit time interval, got {cfg.dt}")
    if cfg.units < 1:
        raise ConfigError("[run] units: need at least one time unit")
    if cfg.ensemble < 1:
        raise ConfigError("[run] ensemble: need at least one trajectory")
    if cfg.seed < 0:
        raise ConfigError("[run] seed: must be non-negative")
    if cfg.record_every < 0:
        raise ConfigError("[run] record_every: must be non-negative")
    if cfg.record_every and spu % cfg.record_every:
        raise ConfigError(
            f"[run] record_every: must divide the {spu} steps of a unit interval"
        )
    if cfg.jobs < 1:
        raise ConfigError("[run] jobs: must be at least 1")
    if cfg.ensemble < 2 and (cfg.estimator("lyapunov") or cfg.estimator("density")):
        raise ConfigError("[run] ensemble: lyapunov and density need at least two trajectories")
    for key, least in (("mixing_times", 0), ("density_horizons", 1)):
        if not cfg.estimator(key) or min(cfg.estimator(key)) < least:
            raise ConfigError(f"[estimators] {key}: need at least one value, all >= {least}")
    if cfg.estimator("axk_horizon") < 0:
        raise ConfigError("[estimators] axk_horizon: must be non-negative")
    ks = cfg.estimator("axk_ks")
    if not ks or not all(k > 0 for k in ks):
        raise ConfigError("[estimators] axk_ks: need at least one level, all > 0")
    for key in ("mixing_times", "density_horizons", "axk_ks"):
        if len(set(cfg.estimator(key))) < len(cfg.estimator(key)):
            raise ConfigError(f"[estimators] {key}: values must be distinct")
    # building the model performs the structural validation
    model = cfg.build_model()
    if model.id == "chain" and model.dim < 4 * model.params["k_star"]:
        raise ConfigError(
            f"[model] truncation: chain runs require at least 4 k* = {4 * model.params['k_star']} sites"
        )
    cfg.initial_conditions(model)
    if cfg.estimator("mixing"):
        cfg.mixing_alt_x0(model)

