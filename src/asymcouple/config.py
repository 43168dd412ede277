"""Experiment configuration: sectioned key=value files, validation, fingerprints.

The format is INI-style (configparser) with three sections::

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

Times are nondimensional (key names carry no units on purpose).  Every
artifact written from a config embeds the config fingerprint, a sha256
over the canonical parsed content, so outputs of one run can be checked
for consistency.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .models import ModelError, ModelSpec, chain_k_star, make_model

VALID_MODELS = ("toy2d", "ginzburg_landau", "reaction_diffusion", "chain")

_MODEL_PARAM_TYPES = {
    "ginzburg_landau": {
        "modes": int,
        "forced_modes": int,
        "length": float,
        "noise_coeffs": "floats",
    },
    "reaction_diffusion": {"modes_per_component": int, "length": float},
    "chain": {"a_squared": float, "truncation": int, "lyapunov_power": float},
    "toy2d": {},
}


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
        payload = json.dumps(
            {
                "model_id": self.model_id,
                "model_params": self.model_params,
                "dt": self.dt,
                "units": self.units,
                "ensemble": self.ensemble,
                "seed": self.seed,
                "binding": self.binding,
                "record_every": self.record_every,
                "x0": self.x0,
                "y0_offset": self.y0_offset,
                "estimators": self.estimators,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def build_model(self) -> ModelSpec:
        try:
            return make_model(self.model_id, **self.model_params)
        except ModelError as exc:
            raise ConfigError(f"[model] {exc}") from exc

    def initial_conditions(self, model: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
        x0 = _pad(self.x0, model.dim, "[run] x0")
        y0 = x0 + _pad(self.y0_offset, model.dim, "[run] y0_offset")
        return x0, y0

    def mixing_alt_x0(self, model: ModelSpec) -> np.ndarray:
        """The second start of the mixing estimator, padded to the model."""
        alt = self.estimators.get("mixing_alt_x0")
        if alt is None:
            raise ConfigError("[estimators] mixing requires mixing_alt_x0")
        return _pad(alt, model.dim, "[estimators] mixing_alt_x0")


def _pad(values: list[float], dim: int, where: str) -> np.ndarray:
    if len(values) > dim:
        raise ConfigError(f"{where}: {len(values)} entries exceed model dimension {dim}")
    out = np.zeros(dim)
    out[: len(values)] = values
    return out


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split()]


def _bool(text: str, where: str) -> bool:
    val = text.strip().lower()
    if val in ("on", "true", "yes", "1"):
        return True
    if val in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"{where}: expected on/off, got {text!r}")


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError with the
    offending section/key (or parser line) in the message."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    if not parser.has_section("model") or not parser.has_option("model", "id"):
        raise ConfigError("[model] section with an 'id' key is required")
    model_id = parser.get("model", "id").strip()
    if model_id not in VALID_MODELS:
        raise ConfigError(f"[model] id: unknown model {model_id!r}; valid: {VALID_MODELS}")

    params = {}
    types = _MODEL_PARAM_TYPES[model_id]
    for key in parser.options("model"):
        if key == "id":
            continue
        if key not in types:
            raise ConfigError(f"[model] {key}: not a parameter of {model_id}")
        raw = parser.get("model", key)
        try:
            params[key] = _floats(raw) if types[key] == "floats" else types[key](raw)
        except ValueError as exc:
            raise ConfigError(f"[model] {key}: {exc}") from exc

    cfg = ExperimentConfig(model_id=model_id, model_params=params)

    run = parser["run"] if parser.has_section("run") else {}
    try:
        cfg.dt = float(run.get("dt", cfg.dt))
        cfg.units = int(run.get("units", cfg.units))
        cfg.ensemble = int(run.get("ensemble", cfg.ensemble))
        cfg.seed = int(run.get("seed", cfg.seed))
        cfg.record_every = int(run.get("record_every", cfg.record_every))
        cfg.jobs = int(run.get("jobs", cfg.jobs))
        if "binding" in run:
            cfg.binding = _bool(run["binding"], "[run] binding")
        cfg.x0 = _floats(run.get("x0", ""))
        cfg.y0_offset = _floats(run.get("y0_offset", ""))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[run] section: {exc}") from exc

    est: dict = {}
    if parser.has_section("estimators"):
        sec = parser["estimators"]
        for toggle in ("contraction", "mixing", "lyapunov", "axk", "density"):
            if toggle in sec:
                est[toggle] = _bool(sec[toggle], f"[estimators] {toggle}")
        try:
            if "mixing_times" in sec:
                est["mixing_times"] = [int(t) for t in sec["mixing_times"].split()]
            if "mixing_alt_x0" in sec:
                est["mixing_alt_x0"] = _floats(sec["mixing_alt_x0"])
            if "axk_ks" in sec:
                est["axk_ks"] = _floats(sec["axk_ks"])
            if "axk_horizon" in sec:
                est["axk_horizon"] = int(sec["axk_horizon"])
            if "density_horizons" in sec:
                est["density_horizons"] = [int(t) for t in sec["density_horizons"].split()]
        except ValueError as exc:
            raise ConfigError(f"[estimators] section: {exc}") from exc
    cfg.estimators = est

    if parser.has_section("output") and parser.has_option("output", "dir"):
        cfg.out_dir = parser.get("output", "dir")

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
    if cfg.record_every < 0:
        raise ConfigError("[run] record_every: must be non-negative")
    if cfg.record_every and spu % cfg.record_every:
        raise ConfigError(
            f"[run] record_every: must divide the {spu} steps of a unit interval"
        )
    if cfg.jobs < 1:
        raise ConfigError("[run] jobs: must be at least 1")
    if cfg.model_id == "chain":
        a2 = cfg.model_params.get("a_squared", 5.0)
        k_star = chain_k_star(a2)
        truncation = cfg.model_params.get("truncation", 4 * k_star)
        if truncation < 4 * k_star:
            raise ConfigError(
                f"[model] truncation: chain runs require at least 4 k* = {4 * k_star} sites"
            )
    # building the model performs the remaining structural validation
    model = cfg.build_model()
    cfg.initial_conditions(model)
    if cfg.estimators.get("mixing", False):
        cfg.mixing_alt_x0(model)

