"""Flat sectioned key=value experiment configs.

One section per subcommand; unknown keys are rejected so typos fail loudly.
Every run writes its resolved config (defaults filled in, keys sorted)
next to the outputs, and that file re-runs to identical results.

A section maps each key to (parser, default). A key that a field of a run
class backs (`TrainConfig`, `Schedule`, `LatentOptConfig`, `FinetuneConfig`
and the objectives' width, mix and evade) reads both off that field; only
the keys no class takes declare their default here.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from .drivers import FinetuneConfig, LatentOptConfig
from .model import TrainConfig
from .objectives import ClassifierMargin, Composite, RbfReward
from .reporting import fmt
from .schedule import Schedule


class ConfigError(ValueError):
    pass


_REQUIRED = object()  # the default of a key that must be present


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _step_count(text: str) -> int:
    """A step grid's N, which must be >= 1."""
    n = int(text)
    if n < 1:
        raise ValueError(f"a step grid needs N >= 1, got {n}")
    return n


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _tuple(parse):
    """A parser of comma-separated values, each read by `parse`."""
    return lambda text: tuple(parse(x) for x in text.split(",") if x.strip())


def _optional(parse):
    """A parser of `none` or of a value read by `parse`."""
    return lambda text: None if text.strip().lower() == "none" else parse(text)


_floats, _ints = _tuple(_finite), _tuple(int)
_step_counts, _strings = _tuple(_step_count), _tuple(str.strip)

# The parser of each annotation that a run-class field carries.
_PARSERS = {"int": int, "float": _finite, "str": str, "bool": _bool,
            "tuple[int, ...]": _ints, "int | None": _optional(int),
            "float | None": _optional(_finite)}


def _field(cls, name: str, parser=None) -> tuple:
    """(parser, default) of the dataclass field `name` of `cls`: the parser
    that the field's annotation names, unless one is given."""
    field = cls.__dataclass_fields__[name]
    return parser or _PARSERS[field.type], field.default


def _fields(cls) -> dict:
    """key -> (parser, default) of each field of `cls` that has a default."""
    return {f.name: _field(cls, f.name) for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


SCHEMAS: dict[str, dict] = {
    "train": {
        "dataset": (str, _REQUIRED),
        "dataset_seed": (int, 0),
        "modes": (int, 8),
        "radius": (_finite, 1.0),
        "noise": (_finite, 0.1),
        "gap": (_finite, 0.3),
        "schedule": _field(Schedule, "kind"),
        "n_steps": _field(Schedule, "n_steps", _step_count),
        "beta_min": _field(Schedule, "beta_min"),
        "beta_max": _field(Schedule, "beta_max"),
        **_fields(TrainConfig),
        "checkpoint": (str, "model.ckpt"),
    },
    "verify": {
        "checkpoint": (str, ""),
        "n_steps": (_step_count, 50),
        "tolerance": (_finite, 1e-10),
        "seed": (int, 0),
    },
    "bench": {
        "checkpoint": (str, _REQUIRED),
        "n_list": (_step_counts, (10, 25, 50, 100)),
        "estimators": (_strings, ("bptt", "sdo", "sdo-full")),
        "draws": (int, 1),
        "reps": (int, 5),
        "objective": (str, "quadratic-target"),
        "target": (_floats, (1.0, 0.0)),
        "center": (_floats, (1.0, 0.0)),
        "width": _field(RbfReward, "width"),
        "seed": (int, 0),
    },
    "optimize": {
        "checkpoint": (str, _REQUIRED),
        "objective": (str, "quadratic-target"),
        "target": (_floats, (0.0, 0.0)),
        "center": (_floats, (0.0, 0.0)),
        "width": _field(RbfReward, "width"),
        "mix": _field(Composite, "mix"),
        "reference": (_floats, (0.0, 0.0)),
        "classifier": (str, ""),
        "label": (int, 0),
        "evade": _field(ClassifierMargin, "evade"),
        **_fields(LatentOptConfig),
        "seed": (int, 0),
    },
    "finetune": {
        "checkpoint": (str, _REQUIRED),
        "objective": (str, "rbf-reward"),
        "center": (_floats, (1.0, 0.0)),
        "width": _field(RbfReward, "width"),
        **_fields(FinetuneConfig),
        "out_checkpoint": (str, "finetuned.ckpt"),
    },
}


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = {}
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = value
    return sections


def resolve_section(subcommand: str, raw: dict[str, str]) -> dict:
    if subcommand not in SCHEMAS:
        raise ConfigError(f"unknown subcommand section [{subcommand}]")
    schema = SCHEMAS[subcommand]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"[{subcommand}] has unknown keys: {', '.join(unknown)}")
    out = {}
    for key, (parser, default) in schema.items():
        if key in raw:
            try:
                out[key] = parser(raw[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"[{subcommand}] bad value for {key!r}: {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"[{subcommand}] missing required key {key!r}")
        else:
            out[key] = default
    return out


def load_config(path, subcommand: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    sections = parse_config_text(text)
    if subcommand not in sections:
        raise ConfigError(f"config has no [{subcommand}] section "
                          f"(found {sorted(sections) or 'none'})")
    return resolve_section(subcommand, sections[subcommand])


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return fmt(value)


def resolved_text(subcommand: str, resolved: dict) -> str:
    lines = [f"[{subcommand}]"]
    for key in sorted(resolved):
        lines.append(f"{key} = {_format_value(resolved[key])}")
    return "\n".join(lines) + "\n"
