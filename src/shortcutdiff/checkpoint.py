"""Binary checkpoint format.

Layout: 8-byte magic "SDOCKPT1", little-endian u64 length of a UTF-8 JSON
metadata block, the metadata, then each parameter array as raw
little-endian float64 in declaration order. Load failures report the byte
position of the problem or the metadata key at fault: the activation must
be tanh, the shapes the layout `Denoiser.create` builds for the recorded
data_dim, hidden, time_features and layer_sizes, every weight finite.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .model import PARAMETERIZATIONS, TIME_FEATURES, Denoiser, weight_shapes
from .schedule import Schedule

MAGIC = b"SDOCKPT1"
ACTIVATION = "tanh"  # the network's only nonlinearity


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, denoiser: Denoiser, schedule: Schedule) -> None:
    meta = {
        "layer_sizes": denoiser.layer_sizes(),
        "hidden": list(denoiser.hidden),
        "activation": ACTIVATION,
        "parameterization": denoiser.parameterization,
        "data_dim": denoiser.data_dim,
        "time_features": TIME_FEATURES,
        "schedule_kind": schedule.kind,
        "beta_min": schedule.beta_min,
        "beta_max": schedule.beta_max,
        "n_steps": schedule.n_steps,
        "param_shapes": [list(w.shape) for w in denoiser.weights],
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for w in denoiser.weights:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[Denoiser, Schedule]:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 8:
        raise CheckpointError(f"truncated header: file has {len(raw)} bytes")
    if raw[:8] != MAGIC:
        raise CheckpointError(f"bad magic at byte 0: {raw[:8]!r}")
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    body = 16 + meta_len
    if len(raw) < body:
        raise CheckpointError(f"metadata truncated: need {body} bytes, have {len(raw)}")
    try:
        meta = json.loads(raw[16:body].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"bad metadata block at byte 16: {exc}") from exc

    try:
        shapes = [tuple(int(n) for n in s) for s in meta["param_shapes"]]
        data_dim = int(meta["data_dim"])
        hidden = tuple(int(h) for h in meta["hidden"])
        layer_sizes = [int(n) for n in meta["layer_sizes"]]
        time_features = int(meta["time_features"])
        parameterization = meta["parameterization"]
        activation = meta["activation"]
        schedule = Schedule(kind=meta["schedule_kind"], n_steps=int(meta["n_steps"]),
                            beta_min=float(meta["beta_min"]),
                            beta_max=float(meta["beta_max"]))
    except KeyError as exc:
        raise CheckpointError(f"missing metadata key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid metadata: {exc}") from exc
    if activation != ACTIVATION:
        raise CheckpointError(f"metadata key 'activation' is {activation!r}; "
                              f"the network uses {ACTIVATION!r}")
    _check_layout(shapes, data_dim, hidden, layer_sizes, time_features,
                  parameterization)

    pos = body
    weights = []
    for i, shape in enumerate(shapes):
        size = int(np.prod(shape)) if shape else 1
        end = pos + 8 * size
        if len(raw) < end:
            raise CheckpointError(f"parameter data truncated at byte {pos}: "
                                  f"need {end - len(raw)} more bytes")
        w = np.frombuffer(raw[pos:end], dtype="<f8").reshape(shape).copy()
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise CheckpointError(f"non-finite weight {w.flat[bad[0]]} in parameter "
                                  f"{i} at byte {pos + 8 * int(bad[0])}")
        weights.append(w)
        pos = end
    if pos != len(raw):
        raise CheckpointError(f"{len(raw) - pos} trailing bytes at byte {pos}")
    return Denoiser(data_dim, hidden, parameterization, weights), schedule


def _check_layout(shapes, data_dim, hidden, layer_sizes, time_features,
                  parameterization) -> None:
    """The metadata must describe the network `Denoiser.create` builds."""
    if data_dim < 1:
        raise CheckpointError(f"metadata key 'data_dim' must be >= 1, got {data_dim}")
    if not hidden or min(hidden) < 1:
        raise CheckpointError(f"metadata key 'hidden' must list positive widths, "
                              f"got {list(hidden)}")
    if time_features != TIME_FEATURES:
        raise CheckpointError(f"metadata key 'time_features' is {time_features}; "
                              f"the network uses {TIME_FEATURES}")
    if parameterization not in PARAMETERIZATIONS:
        raise CheckpointError(f"metadata key 'parameterization' is "
                              f"{parameterization!r}; expected one of {PARAMETERIZATIONS}")
    expected_sizes = [data_dim + TIME_FEATURES, *hidden, data_dim]
    if layer_sizes != expected_sizes:
        raise CheckpointError(f"metadata key 'layer_sizes' is {layer_sizes}; data_dim "
                              f"and hidden give {expected_sizes}")
    expected_shapes = weight_shapes(data_dim, hidden)
    if shapes != expected_shapes:
        raise CheckpointError(f"metadata key 'param_shapes' is "
                              f"{[list(s) for s in shapes]}; data_dim and hidden "
                              f"give {[list(s) for s in expected_shapes]}")
