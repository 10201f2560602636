"""Flat sectioned key-value run configuration.

INI-style text whose keys are the fields of the run's records, grouped in
sections by ``_SECTIONS``; keys are case-sensitive and unknown ones are
rejected by name, so configs double as reviewable fixtures.
"""

from __future__ import annotations

import configparser
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


def _same(names):
    return {name: name for name in names}


_MODEL = ("c", "e", "gamma", "omega")
# section -> (record it fills, {config key: field name}), in dump order; each
# key's type is its field's annotation
_SECTIONS = {
    "model": (ModelParams, _same(_MODEL)),
    "global-maps": (ModelParams, _same(sorted(
        {f.name for f in fields(ModelParams)} - {*_MODEL, "eps_tilde"}))),
    "section": (ModelParams, _same(["eps_tilde"])),
    "numerics": (NumericsConfig, _same(sorted(f.name for f in fields(NumericsConfig)))),
    "scan": (ScanSpec, {"from": "lo", "to": "hi", "steps": "steps", "log": "log"}),
    "diophantine": (DiophantineCheckSpec, _same(f.name for f in fields(DiophantineCheckSpec))),
}


def _convert(key, kind, raw):
    """``raw`` as ``kind``, the field's annotation: "int", "float" or "bool"."""
    raw = raw.strip()
    if kind == "bool":
        states = configparser.ConfigParser.BOOLEAN_STATES   # true/false, yes/no, on/off, 1/0
        if raw.lower() not in states:
            raise ValidationError(f"key {key!r}: expected a boolean, got {raw!r}")
        return states[raw.lower()]
    try:
        return int(raw) if kind == "int" else float(raw)
    except ValueError:
        what = "an integer" if kind == "int" else "a number"
        raise ValidationError(f"key {key!r}: expected {what}, got {raw!r}") from None


def parse_config_text(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"malformed config: {exc}") from None
    values: dict[type, dict] = {}         # record -> its fields' values
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"unknown config section [{section}]")
        record, keys = _SECTIONS[section]
        kinds = {f.name: f.type for f in fields(record)}
        kw = values.setdefault(record, {})
        for key, raw in cp.items(section):
            if key not in keys:
                raise ValidationError(f"unknown key {key!r} in section [{section}]")
            kw[keys[key]] = _convert(key, kinds[keys[key]], raw)

    model = values.get(ModelParams, {})
    if "c" not in model or "e" not in model:
        raise ValidationError("config must provide model.c and model.e")
    dio = values.get(DiophantineCheckSpec)
    if dio is not None and (missing := [k for k in ("d1", "d2") if k not in dio]):
        raise ValidationError(
            "config must provide " + " and ".join(f"diophantine.{k}" for k in missing))
    params = ModelParams(**model)
    numerics = NumericsConfig(**values.get(NumericsConfig, {}))
    scan, dio = (record(**values[record]) if record in values else None
                 for record in (ScanSpec, DiophantineCheckSpec))
    return RunConfig(params=params, numerics=numerics, scan=scan, diophantine=dio)


def parse_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def dump_config(cfg: RunConfig) -> str:
    """The config as text in section-table order; ``[scan]`` and
    ``[diophantine]`` only when set."""
    records = {type(r): r for r in (cfg.params, cfg.numerics, cfg.scan, cfg.diophantine)}
    blocks = []
    for section, (record, keys) in _SECTIONS.items():
        if record in records:
            block = f"[{section}]\n"
            for key, name in keys.items():
                value = getattr(records[record], name)
                text = str(value).lower() if isinstance(value, bool) else repr(value)
                block += f"{key} = {text}\n"
            blocks.append(block)
    return "\n".join(blocks)
