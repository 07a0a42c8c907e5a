"""Config schema rules and the defaults the config shares with the dataclasses."""

import pytest

from slidevlm.config import ConfigError, load_config, validate_tree
from slidevlm.curation import EndpointConfig
from slidevlm.encoders import SlideEncoderConfig
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


def test_model_defaults_agree():
    want = ModelConfig(encoder=SlideEncoderConfig(positional="grid"))
    assert load_config(None).model_config() == want


@pytest.mark.parametrize("stage", [1, 2])
def test_stage_defaults_agree(stage):
    overrides = load_config(None).stage_overrides(stage)
    defaults = StageConfig(stage=stage)
    assert {key: getattr(defaults, key) for key in overrides} == overrides


def test_endpoint_defaults_agree():
    chat = load_config(None).tree["clients"]["chat"]
    defaults = EndpointConfig(base_url="", model="")
    for key in ("timeout", "max_retries", "auth_env"):
        assert getattr(defaults, key) == chat[key], key
