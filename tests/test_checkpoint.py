import json
import struct

import numpy as np
import pytest

from shortcutdiff.checkpoint import (MAGIC, CheckpointError, load_checkpoint,
                                     save_checkpoint)
from shortcutdiff.model import Denoiser
from shortcutdiff.schedule import Schedule


def make_model(seed=5):
    rng = np.random.default_rng(seed)
    return Denoiser.create(rng, hidden=(6, 4)), Schedule("vp-linear", 25)


def test_roundtrip_is_bit_exact(tmp_path):
    d, s = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, d, s)
    d2, s2 = load_checkpoint(path)
    np.testing.assert_array_equal(d.flatten(), d2.flatten())
    assert d2.hidden == d.hidden
    assert d2.parameterization == d.parameterization
    assert s2 == s


def test_corrupted_magic_rejected(tmp_path):
    d, s = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, d, s)
    raw = bytearray(path.read_bytes())
    raw[3] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_file_rejected_with_position(tmp_path):
    d, s = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, d, s)
    raw = path.read_bytes()
    path.write_bytes(raw[:-9])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    d, s = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, d, s)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_load_then_sample_reproduces_trajectory(tmp_path):
    from shortcutdiff.model import DenoiserField
    from shortcutdiff.sampler import sample_sequential
    from shortcutdiff.seeding import stream_rng

    d, s = make_model()
    noise = stream_rng(3, "noise").standard_normal(2)
    before = sample_sequential(DenoiserField(d, s), s, noise).states
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, d, s)
    d2, s2 = load_checkpoint(path)
    after = sample_sequential(DenoiserField(d2, s2), s2, noise).states
    np.testing.assert_array_equal(before, after)


def test_corrupt_metadata_rejected(tmp_path):
    d, s = make_model()
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, d, s)
    raw = bytearray(path.read_bytes())
    raw[20] = 0xFF  # inside the JSON block
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def write_with_meta(path, edit, weights=None):
    """Save the test model, then rewrite its metadata block with edit(meta)."""
    d, s = make_model()
    if weights is not None:
        d = Denoiser(d.data_dim, d.hidden, d.parameterization, weights)
    save_checkpoint(path, d, s)
    raw = path.read_bytes()
    (meta_len,) = struct.unpack("<Q", raw[8:16])
    meta = json.loads(raw[16:16 + meta_len])
    edit(meta)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + raw[16 + meta_len:])
    return 16 + len(blob)


@pytest.mark.parametrize("edit, key", [
    ({"param_shapes": [[6, 2], [6, 3], [6], [4, 6], [4], [2, 4], [3]]}, "param_shapes"),
    ({"data_dim": 3, "layer_sizes": [6, 6, 4, 3]}, "param_shapes"),
    ({"hidden": [6, 5], "layer_sizes": [5, 6, 5, 2]}, "param_shapes"),
    ({"layer_sizes": [5, 6, 4, 3]}, "layer_sizes"),
    ({"data_dim": 0}, "data_dim"),
    ({"hidden": []}, "hidden"),
    ({"time_features": 4}, "time_features"),
    ({"parameterization": "score"}, "parameterization"),
    ({"activation": "relu"}, "activation"),
])
def test_metadata_inconsistent_with_the_layout_rejected_by_key(tmp_path, edit, key):
    path = tmp_path / "m.ckpt"
    write_with_meta(path, lambda meta: meta.update(edit))
    with pytest.raises(CheckpointError, match=f"metadata key '{key}'"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["beta_min", "beta_max"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_an_infinite_beta_is_invalid_metadata_named(tmp_path, key, bad):
    path = tmp_path / "m.ckpt"
    write_with_meta(path, lambda meta: meta.update({key: bad}))
    assert "Infinity" in path.read_bytes().decode("utf-8", "replace")
    with pytest.raises(CheckpointError,
                       match=f"^invalid metadata: vp-linear requires a finite {key}, got "):
        load_checkpoint(path)


def test_missing_metadata_key_named(tmp_path):
    path = tmp_path / "m.ckpt"
    write_with_meta(path, lambda meta: meta.pop("layer_sizes"))
    with pytest.raises(CheckpointError, match="missing metadata key 'layer_sizes'"):
        load_checkpoint(path)


def test_missing_activation_named(tmp_path):
    path = tmp_path / "m.ckpt"
    write_with_meta(path, lambda meta: meta.pop("activation"))
    with pytest.raises(CheckpointError, match="missing metadata key 'activation'"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_weight_rejected_with_byte_position(tmp_path, bad):
    d, _ = make_model()
    weights = [np.array(w) for w in d.weights]
    weights[3][1, 2] = bad  # W2, shape (4, 6)
    path = tmp_path / "m.ckpt"
    body = write_with_meta(path, lambda meta: None, weights)
    offset = sum(w.size for w in weights[:3]) + 1 * 6 + 2
    with pytest.raises(CheckpointError,
                       match=f"non-finite weight .* parameter 3 at byte {body + 8 * offset}$"):
        load_checkpoint(path)
