"""Config schema rules, load-time value checks, and the tree built from the dataclasses."""

import json
from dataclasses import asdict

import pytest

from slidevlm.config import ConfigError, build_config, load_config, validate_tree
from slidevlm.curation import EndpointConfig
from slidevlm.model import ModelConfig
from slidevlm.training import StageConfig


def test_float_keys_admit_ints():
    tree = validate_tree({"stages": {"1": {"lr": 1}}, "clients": {"chat": {"timeout": 5}}})
    assert tree["stages"]["1"]["lr"] == 1
    assert tree["clients"]["chat"]["timeout"] == 5


@pytest.mark.parametrize("tree,message", [
    ({"seed": True}, "seed: expected int, got bool"),
    ({"model": {"bypass_slide_encoder": 1}}, "model.bypass_slide_encoder: expected bool, got int"),
    ({"stages": {"2": {"lr": "fast"}}}, "stages.2.lr: expected float, got str"),
    ({"clients": {"chat": {"model": 4}}}, "clients.chat.model: expected str, got int"),
    ({"model": 3}, "model: expected an object"),
    ({"model": {"encoder": {"branches": {}}}}, "model.encoder.branches: expected a list"),
    ({"model": {"encoder": {"branches": [[16, 1], 4]}}}, "model.encoder.branches[1]: expected a list"),
    ({"model": {"encoder": {"branches": [[16, 1.5]]}}},
     "model.encoder.branches[0][1]: expected int, got float"),
])
def test_schema_rejects_wrong_types_by_path(tree, message):
    with pytest.raises(ConfigError) as info:
        validate_tree(tree)
    assert str(info.value) == message


@pytest.mark.parametrize("tree,message", [
    ({"model": {"encoder": {"branches": [[16]]}}}, "model.encoder: branch [16] is not a [w, r] pair"),
    ({"model": {"encoder": {"grid_cols": 0}}}, "model.encoder: grid_rows and grid_cols must be >= 1"),
    ({"model": {"lm": {"ffn_mult": 0}}},
     "model.lm: heads, head_dim, ffn_mult, max_positions must be >= 1, layers >= 0"),
    ({"model": {"lm": {"layers": -1}}},
     "model.lm: heads, head_dim, ffn_mult, max_positions must be >= 1, layers >= 0"),
    ({"stages": {"1": {"epochs": 0}}}, "stages.1: lr must be >= 0, epochs and accum_steps >= 1"),
    ({"stages": {"1": {"weight_decay": -0.5}}}, "stages.1: weight_decay must be >= 0, got -0.5"),
    ({"clients": {"chat": {"max_retries": -1}}}, "clients.chat: max_retries must be >= 0, got -1"),
    ({"clients": {"chat": {"timeout": 0}}}, "clients.chat: timeout must be > 0, got 0"),
])
def test_build_rejects_bad_values_by_section(tree, message):
    with pytest.raises(ConfigError) as info:
        build_config(validate_tree(tree))
    assert str(info.value) == message


# The config tree is built from these dataclasses, so its defaults are theirs.


def test_model_defaults_agree():
    assert load_config(None).model == ModelConfig()


@pytest.mark.parametrize("stage", [1, 2])
def test_stage_defaults_agree(stage):
    assert load_config(None).stages[stage] == StageConfig(stage)


def test_endpoint_defaults_agree():
    assert load_config(None).chat == EndpointConfig()


def leaves(node, path=""):
    """(dotted path, value) of every leaf of a tree; a list is one leaf."""
    if not isinstance(node, dict):
        yield path, node
        return
    for key, value in node.items():
        yield from leaves(value, f"{path}.{key}" if path else key)


def nest(path, value):
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


def other(value):
    """A different value of the same type that its setting accepts."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2
    if isinstance(value, str):
        return "none" if value == "grid" else value + "x"
    return value + [[128, 8]]  # encoder branches


def typed(cfg):
    """Every setting of the typed configs, by dotted name, as JSON values."""
    stages = {f"stages.{n}": stage for n, stage in cfg.stages.items()}
    configs = {"model": cfg.model, "clients.chat": cfg.chat, **stages}
    view = {"seed": cfg.seed, "jobs": cfg.jobs}
    for name, config in configs.items():
        view.update(leaves(json.loads(json.dumps(asdict(config))), name))
    return view


@pytest.mark.parametrize("path,default", list(leaves(validate_tree({}))))
def test_each_leaf_sets_exactly_its_field(path, default):
    base = typed(load_config(None))
    value = other(default)
    changed = typed(build_config(validate_tree(nest(path, value))))
    diff = {name for name in base if changed[name] != base[name]}
    # model.patch_dim is the one leaf that sets two fields.
    assert diff == ({path, "model.encoder.in_dim"} if path == "model.patch_dim" else {path})
    assert all(changed[name] == value for name in diff)


def test_model_tree_is_the_model_config():
    """Every model leaf is the same attribute path on ModelConfig(), with the
    same default; encoder.in_dim alone is not a leaf (it is model.patch_dim)."""
    model = validate_tree({})["model"]
    paths = {path for path, _ in leaves(json.loads(json.dumps(asdict(ModelConfig()))))}
    assert {path for path, _ in leaves(model)} == paths - {"encoder.in_dim"}
    for path, default in leaves(model):
        value = ModelConfig()
        for name in path.split("."):
            value = getattr(value, name)
        assert json.loads(json.dumps(value)) == default, path
