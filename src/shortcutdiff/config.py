"""Flat sectioned key=value experiment configs.

One section per subcommand; unknown keys are rejected so typos fail loudly.
Every run writes its resolved config (defaults filled in, keys sorted)
next to the outputs, and that file re-runs to identical results.
"""

from __future__ import annotations

from pathlib import Path

from .reporting import fmt


class ConfigError(ValueError):
    pass


# Per-section schema: key -> (parser, default). `required` sentinel means
# the key must be present.
_REQUIRED = object()


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _grid(text: str) -> int:
    """A step grid's N, which must be >= 1."""
    n = int(text)
    if n < 1:
        raise ValueError(f"a step grid needs N >= 1, got {n}")
    return n


def _grids(text: str) -> tuple[int, ...]:
    return tuple(_grid(x) for x in text.split(",") if x.strip())


def _strings(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _opt_float(text: str):
    return None if text.strip().lower() == "none" else float(text)


def _opt_int(text: str):
    return None if text.strip().lower() == "none" else int(text)


SCHEMAS: dict[str, dict] = {
    "train": {
        "dataset": (str, _REQUIRED),
        "dataset_seed": (int, 0),
        "modes": (int, 8),
        "radius": (float, 1.0),
        "noise": (float, 0.1),
        "gap": (float, 0.3),
        "schedule": (str, "vp-linear"),
        "beta_min": (float, 0.1),
        "beta_max": (float, 20.0),
        "n_steps": (_grid, 50),
        "hidden": (_ints, (64, 64)),
        "parameterization": (str, "epsilon"),
        "steps": (int, 5000),
        "batch": (int, 64),
        "lr": (float, 2e-3),
        "t_min": (float, 1e-3),
        "data_size": (int, 4096),
        "seed": (int, 0),
        "checkpoint": (str, "model.ckpt"),
    },
    "verify": {
        "checkpoint": (str, ""),
        "n_steps": (_grid, 50),
        "tolerance": (float, 1e-10),
        "seed": (int, 0),
    },
    "bench": {
        "checkpoint": (str, _REQUIRED),
        "n_list": (_grids, (10, 25, 50, 100)),
        "estimators": (_strings, ("bptt", "sdo", "sdo-full")),
        "draws": (int, 1),
        "reps": (int, 5),
        "objective": (str, "quadratic-target"),
        "target": (_floats, (1.0, 0.0)),
        "center": (_floats, (1.0, 0.0)),
        "width": (float, 0.5),
        "seed": (int, 0),
    },
    "optimize": {
        "checkpoint": (str, _REQUIRED),
        "objective": (str, "quadratic-target"),
        "target": (_floats, (0.0, 0.0)),
        "center": (_floats, (0.0, 0.0)),
        "width": (float, 0.5),
        "mix": (float, 0.5),
        "reference": (_floats, (0.0, 0.0)),
        "classifier": (str, ""),
        "label": (int, 0),
        "evade": (_bool, False),
        "m": (_opt_int, None),
        "estimator": (str, "sdo"),
        "lr": (float, 0.05),
        "steps": (int, 200),
        "tau": (_opt_float, None),
        "track_best": (_bool, True),
        "clamp_samples": (_bool, False),
        "seed": (int, 0),
    },
    "finetune": {
        "checkpoint": (str, _REQUIRED),
        "objective": (str, "rbf-reward"),
        "center": (_floats, (1.0, 0.0)),
        "width": (float, 0.5),
        "estimator": (str, "sdo"),
        "batch": (int, 8),
        "steps": (int, 40),
        "lr": (float, 5e-4),
        "grad_clip": (_opt_float, None),
        "eval_every": (int, 10),
        "eval_batch": (int, 32),
        "clamp_samples": (_bool, False),
        "seed": (int, 0),
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
