"""Flat sectioned key-value run configuration.

The format is INI-style text with sections ``model``, ``global-maps``,
``numerics``, ``section``, ``scan`` and ``diophantine``; keys are
case-sensitive and unknown keys are rejected with the offending name, so
configs double as reviewable fixtures.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

from .errors import ValidationError
from .params import DiophantineCheckSpec, ModelParams

__all__ = ["NumericsConfig", "ScanSpec", "RunConfig",
           "parse_config", "parse_config_text", "dump_config"]


@dataclass(frozen=True)
class NumericsConfig:
    """The run numerics: the flow's tolerances and step cap (``integrate``,
    ``section_returns``), the random seed, the certificate horizon and the
    density scan's sizes (``density_scan``)."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = math.inf
    seed: int = 0
    horizon: int = 1000
    iterations: int = 20000
    series_len: int = 2000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValidationError("tolerances must be positive and finite")
        if not self.max_step > 0.0:
            raise ValidationError(
                f"max_step must be > 0 (inf leaves steps uncapped), got {self.max_step}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.horizon < 1 or self.iterations < 1 or self.series_len < 1:
            raise ValidationError("horizon, iterations, series_len must be >= 1")


@dataclass(frozen=True)
class ScanSpec:
    lo: float = 1e-6
    hi: float = 0.05
    steps: int = 200
    log: bool = True

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi < math.inf):
            raise ValidationError("scan range must satisfy 0 < from < to < inf")
        if self.steps < 1:
            raise ValidationError("scan steps must be >= 1")

    def grid(self):
        import numpy as np
        if self.log:
            return np.geomspace(self.lo, self.hi, self.steps)
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    numerics: NumericsConfig = NumericsConfig()
    scan: ScanSpec | None = None
    diophantine: DiophantineCheckSpec | None = None


_MODEL_KEYS = {"c", "e", "gamma", "omega"}
_GLOBAL_KEYS = {"mu", "mu1", "mu2", "mu3", "mu4", "mu5",
                "Delta1", "Delta2", "Delta3"}
_NUMERICS_KEYS = {f.name for f in fields(NumericsConfig)}
_SECTION_KEYS = {"eps_tilde"}
_SCAN_KEYS = {"from", "to", "steps", "log"}
_DIO_KEYS = {"d1", "d2", "n_max"}
_SECTIONS = {
    "model": _MODEL_KEYS,
    "global-maps": _GLOBAL_KEYS,
    "numerics": _NUMERICS_KEYS,
    "section": _SECTION_KEYS,
    "scan": _SCAN_KEYS,
    "diophantine": _DIO_KEYS,
}
_INT_KEYS = {"seed", "horizon", "iterations", "series_len", "steps", "n_max"}
_BOOL_KEYS = {"log"}


def _convert(key, raw):
    raw = raw.strip()
    if key in _BOOL_KEYS:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ValidationError(f"key {key!r}: expected a boolean, got {raw!r}")
    try:
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError:
        kind = "an integer" if key in _INT_KEYS else "a number"
        raise ValidationError(f"key {key!r}: expected {kind}, got {raw!r}") from None


def parse_config_text(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"malformed config: {exc}") from None
    values: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        values[section] = {}
        for key, raw in cp.items(section):
            if key not in allowed:
                raise ValidationError(f"unknown key {key!r} in section [{section}]")
            values[section][key] = _convert(key, raw)

    model = values.get("model", {})
    if "c" not in model or "e" not in model:
        raise ValidationError("config must provide model.c and model.e")
    pkw = dict(model)
    pkw.update(values.get("global-maps", {}))
    pkw.update(values.get("section", {}))
    params = ModelParams(**pkw)
    numerics = NumericsConfig(**values.get("numerics", {}))

    scan = None
    if "scan" in values:
        skw = dict(values["scan"])
        if "from" in skw:
            skw["lo"] = skw.pop("from")
        if "to" in skw:
            skw["hi"] = skw.pop("to")
        scan = ScanSpec(**skw)

    dio = None
    if "diophantine" in values:
        dio = DiophantineCheckSpec(**values["diophantine"])

    return RunConfig(params=params, numerics=numerics, scan=scan, diophantine=dio)


def parse_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def dump_config(cfg: RunConfig) -> str:
    p, n = cfg.params, cfg.numerics
    out = io.StringIO()
    out.write("[model]\n")
    for k in ("c", "e", "gamma", "omega"):
        out.write(f"{k} = {getattr(p, k)!r}\n")
    out.write("\n[global-maps]\n")
    for k in sorted(_GLOBAL_KEYS):
        out.write(f"{k} = {getattr(p, k)!r}\n")
    out.write("\n[section]\n")
    out.write(f"eps_tilde = {p.eps_tilde!r}\n")
    out.write("\n[numerics]\n")
    for k in sorted(_NUMERICS_KEYS):
        out.write(f"{k} = {getattr(n, k)!r}\n")
    if cfg.scan is not None:
        s = cfg.scan
        out.write("\n[scan]\n")
        out.write(f"from = {s.lo!r}\nto = {s.hi!r}\n")
        out.write(f"steps = {s.steps}\nlog = {str(s.log).lower()}\n")
    if cfg.diophantine is not None:
        d = cfg.diophantine
        out.write("\n[diophantine]\n")
        out.write(f"d1 = {d.d1!r}\nd2 = {d.d2!r}\nn_max = {d.n_max}\n")
    return out.getvalue()
