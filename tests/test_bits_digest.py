import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bits_digest.py"
DIGEST = ROOT / "tests" / "bits_digest.json"
_spec = importlib.util.spec_from_file_location("bits_digest", SCRIPT)
bits_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bits_digest)


def test_the_program_reproduces_its_recorded_bits():
    # the block contractions move in their last bits with the BLAS thread
    # count, which only a fresh process can set
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, str(SCRIPT), "--check", str(DIGEST)],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, f"{run.stdout}{run.stderr}"


# 40 steps of ring8's training config at batch 96, run in a fresh process at
# one BLAS thread: a sha256 of the losses' and then the weights' float64 bytes
TRAIN_RING8_40 = """
import hashlib
import numpy as np
from shortcutdiff import Dataset2D, Schedule, TrainConfig, train_denoiser
from shortcutdiff.cli import _from_section, _kind_params
from shortcutdiff.config import load_config
cfg = {**load_config("configs/train_ring8.cfg", "train"), "steps": 40}
kind, params = _kind_params(cfg, "train", "dataset")
denoiser, losses = train_denoiser(_from_section(
    TrainConfig, cfg, dataset=Dataset2D(kind, cfg["dataset_seed"], params),
    schedule=_from_section(Schedule, cfg, kind=cfg["schedule"])))
print(hashlib.sha256(np.asarray(losses).tobytes() + denoiser.flatten().tobytes()).hexdigest())
"""
TRAIN_RING8_40_SHA256 = "81f7ab03bc919f139aaf0dd4d179dd8c26c9fcb442a4e1e774196d789677cd56"


def test_training_reproduces_its_recorded_bits():
    # the digest runs no training; this pins the steps that make the
    # shipped checkpoints, recorded with the tape's score-matching step
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", TRAIN_RING8_40], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == TRAIN_RING8_40_SHA256


def test_differences_name_every_entry_and_version_that_differs():
    versions = {"python": "3.11.7", "numpy": "2.4.6", "blas": "openblas 0.3",
                "OPENBLAS_NUM_THREADS": "1"}
    recorded = {"versions": versions,
                "entries": {"engines/a": "1", "engines/b": "2", "outputs/c/x.csv": "3"}}
    now = {"versions": {**versions, "numpy": "2.5.0", "OPENBLAS_NUM_THREADS": None},
           "entries": {"engines/a": "1", "engines/b": "9", "outputs/d/y.csv": "4"}}
    assert bits_digest.differences(recorded, now) == [
        "engines/b: differs",
        "outputs/c/x.csv: missing now",
        "outputs/d/y.csv: not in the recorded digest",
        "version OPENBLAS_NUM_THREADS: recorded 1, now None",
        "version numpy: recorded 2.4.6, now 2.5.0",
    ]
    assert bits_digest.differences(recorded, recorded) == []


def test_the_digest_covers_every_engine_entry_and_output_file():
    entries = json.loads(DIGEST.read_text(encoding="utf-8"))["entries"]
    kinds = {key.split("/", 1)[0] for key in entries}
    assert kinds == {"engines", "outputs"}
    assert sum(key.startswith("engines/") for key in entries) == 1176
    configs = {key.split("/")[1] for key in entries if key.startswith("outputs/")}
    assert configs == {name for _, name in bits_digest.CONFIGS}
