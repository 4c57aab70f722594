"""The shipped experiment configs must parse cleanly, point at shipped
assets and round-trip through their resolved text, so config rot fails
fast."""

from pathlib import Path

import pytest

from shortcutdiff.config import (load_config, parse_config_text, resolve_section,
                                 resolved_text)

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_resolves(path):
    sections = parse_config_text(path.read_text(encoding="utf-8"))
    assert len(sections) == 1
    subcommand = next(iter(sections))
    resolved = load_config(path, subcommand)
    for key in ("checkpoint", "classifier"):
        value = resolved.get(key, "")
        if value and key != "checkpoint" or (key == "checkpoint"
                                             and subcommand != "train"):
            assert (REPO / value).exists(), f"{path.name}: missing {value}"
    text = resolved_text(subcommand, resolved)
    again = resolve_section(subcommand, parse_config_text(text)[subcommand])
    assert again == resolved
    assert resolved_text(subcommand, again) == text


def test_all_subcommands_have_a_shipped_config():
    subs = {next(iter(parse_config_text(p.read_text(encoding="utf-8"))))
            for p in CONFIGS}
    assert subs == {"train", "verify", "bench", "optimize", "finetune"}
