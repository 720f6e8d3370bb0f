import dataclasses
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costbound.config import TrainConfig, load_config, save_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DESK = CONFIGS / "desk.cfg"

UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
BY_TYPE = {
    "int": st.integers(1, 1000),
    "float": UNIT,
    "tuple": st.tuples(st.integers(1, 64), st.integers(1, 64)),
}
BY_NAME = {
    # a window of sequence_length + 1 records fits in any drawn episode
    "sequence_length": st.integers(1, 9),
    "episode_limit": st.integers(10, 1000),
    # holds a full episode at any drawn episode_limit and action_repeat
    "replay_capacity": st.integers(10**6, 10**7),
}
VALID_CONFIGS = st.builds(TrainConfig, **{
    f.name: BY_NAME[f.name] if f.name in BY_NAME else BY_TYPE[f.type] for f in dataclasses.fields(TrainConfig)
})


def desk_with(tmp_path, line: str, drop: tuple = ()) -> Path:
    """desk.cfg with ``line`` appended and any line setting a key in ``drop`` left out."""
    lines = [l for l in DESK.read_text().splitlines() if l.split("=", 1)[0].strip() not in drop]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines + [line]) + "\n")
    return path


@settings(max_examples=60, deadline=None)
@given(VALID_CONFIGS)
def test_save_then_load_returns_an_equal_config(cfg):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "run.cfg"
        save_config(cfg, path)
        assert load_config(path) == cfg


def test_unknown_key_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(desk_with(tmp_path, "model_lrr = 0.001"))


@pytest.mark.parametrize("drop", [("lambda_lr",), ("view_size",), ("view_size", "seed", "conv_channels")])
def test_every_missing_key_is_named(tmp_path, drop):
    with pytest.raises(ValueError, match=re.escape(f"missing config keys: {sorted(drop)}")):
        load_config(desk_with(tmp_path, "", drop=drop))


def test_a_window_that_no_episode_can_hold_is_rejected(tmp_path):
    assert load_config(desk_with(tmp_path, "sequence_length = 99", drop=("sequence_length",))).episode_limit == 100
    with pytest.raises(ValueError, match="sequence_length must be below episode_limit"):
        load_config(desk_with(tmp_path, "sequence_length = 100", drop=("sequence_length",)))


@pytest.mark.parametrize("channels", ["0,16", "8,-1"])
def test_non_positive_conv_channels_are_rejected(tmp_path, channels):
    with pytest.raises(ValueError, match="conv_channels must list two positive channel counts"):
        load_config(desk_with(tmp_path, f"conv_channels = {channels}", drop=("conv_channels",)))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_every_shipped_config_loads(path):
    assert isinstance(load_config(path), TrainConfig)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
def test_every_shipped_config_sets_every_field(path):
    keys = [line.split("#", 1)[0].split("=", 1)[0].strip() for line in path.read_text().splitlines()]
    assert sorted(key for key in keys if key) == sorted(f.name for f in dataclasses.fields(TrainConfig))


def test_a_key_set_twice_is_rejected_with_both_lines(tmp_path):
    path = desk_with(tmp_path, "model_lr = 0.001")
    first = next(i for i, l in enumerate(DESK.read_text().splitlines(), start=1) if l.startswith("model_lr "))
    last = len(path.read_text().splitlines())
    with pytest.raises(ValueError, match=f"run.cfg:{last}: config key 'model_lr' is already set on line {first}$"):
        load_config(path)


@pytest.mark.parametrize("line", ["encoder = conv", "env = hazardworld", "dump_frames = false"])
def test_a_key_that_selects_nothing_is_rejected(tmp_path, line):
    with pytest.raises(ValueError, match=f"unknown config key '{line.split()[0]}'"):
        load_config(desk_with(tmp_path, line))


@pytest.mark.parametrize("name", ["model_lr", "arena_size", "cost_budget", "init_alpha"])
def test_nan_is_rejected(tmp_path, name):
    with pytest.raises(ValueError, match=name):
        load_config(desk_with(tmp_path, f"{name} = nan", drop=(name,)))
