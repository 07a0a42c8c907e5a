"""Declarative run configuration: one JSON tree, checked at load.

The tree's defaults are those of the dataclasses it configures
(`ModelConfig`, `StageConfig`, `EndpointConfig`), so each is written once.
Unknown keys are rejected with their dotted path instead of being ignored,
because a typo like "epoches" silently falling back to a default is the
worst failure mode a config system can have. Loading builds the typed
configs too, so a value they reject fails at load in every command, with
its section named.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass
from typing import Any

from .curation import EndpointConfig
from .encoders import SlideEncoderConfig
from .jsonio import read_json
from .lm import DecoderConfig
from .model import ModelConfig
from .numerics import UsageError
from .training import STAGE_DEFAULTS, StageConfig


class ConfigError(UsageError):
    """Bad config tree; the message starts with the failing dotted path."""


def _tree(obj, *drop: str) -> dict[str, Any]:
    """A dataclass as a JSON tree without the fields `drop`: nested
    dataclasses as objects, tuples as lists."""
    tree = json.loads(json.dumps(asdict(obj)))
    for name in drop:
        del tree[name]
    return tree


def _model_tree() -> dict[str, Any]:
    tree = _tree(ModelConfig())
    del tree["encoder"]["in_dim"]  # always model.patch_dim
    return tree


# Every key a config may set, with its default; the schema is derived from it.
_DEFAULTS: dict[str, Any] = {
    "model": _model_tree(),
    # A stage's number names its section, and its seed is the run's.
    "stages": {str(n): _tree(StageConfig(n), "stage", "seed") for n in STAGE_DEFAULTS},
    "clients": {"chat": _tree(EndpointConfig())},
    "seed": 0,
    "jobs": 1,
}


def _schema(default: Any) -> Any:
    """The schema node a default value implies: a dict maps keys to child
    nodes, a list holds its first element's node, and a leaf is the tuple
    of types it admits, ints included where the default is a float."""
    if isinstance(default, dict):
        return {key: _schema(value) for key, value in default.items()}
    if isinstance(default, list):
        return [_schema(default[0])]
    if isinstance(default, float):
        return (float, int)
    return (type(default),)


_SCHEMA: dict[str, Any] = _schema(_DEFAULTS)


def _check(node: Any, schema: Any, path: str) -> Any:
    if isinstance(schema, dict):
        if not isinstance(node, dict):
            raise ConfigError(f"{path or '<root>'}: expected an object")
        for key in node:
            if key not in schema:
                raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key")
        return {
            key: _check(value, schema[key], f"{path + '.' if path else ''}{key}")
            for key, value in node.items()
        }
    if isinstance(schema, list):
        if not isinstance(node, list):
            raise ConfigError(f"{path}: expected a list")
        return [_check(item, schema[0], f"{path}[{i}]") for i, item in enumerate(node)]
    if isinstance(node, bool) and bool not in schema:
        raise ConfigError(f"{path}: expected {schema[0].__name__}, got bool")
    if not isinstance(node, schema):
        raise ConfigError(f"{path}: expected {schema[0].__name__}, got {type(node).__name__}")
    return node


def _merge(base: Any, override: Any) -> Any:
    if isinstance(base, dict) and isinstance(override, dict):
        merged = dict(base)
        for key, value in override.items():
            merged[key] = _merge(base.get(key), value) if key in base else value
        return merged
    return override


def _build(cls, section: str, node: dict[str, Any], **fixed):
    """`cls` from the tree section `node` plus `fixed`, lists as tuples; a
    value `cls` rejects fails as a ConfigError naming `section`."""

    def tuples(value):
        return tuple(map(tuples, value)) if isinstance(value, list) else value

    try:
        return cls(**{key: tuples(value) for key, value in node.items()}, **fixed)
    except UsageError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


@dataclass
class RunConfig:
    """The typed configs built from a checked tree."""

    model: ModelConfig
    stages: dict[int, StageConfig]  # under seed 0; a command sets the run's
    chat: EndpointConfig
    seed: int
    jobs: int


def validate_tree(tree: dict[str, Any]) -> dict[str, Any]:
    """Check `tree` against the schema and fill defaults for absent keys."""
    checked = _check(tree, _SCHEMA, "")
    return _merge(copy.deepcopy(_DEFAULTS), checked)


def build_config(tree: dict[str, Any]) -> RunConfig:
    """The typed configs of a validated tree."""
    m = tree["model"]
    encoder = _build(SlideEncoderConfig, "model.encoder", m["encoder"], in_dim=m["patch_dim"])
    lm = _build(DecoderConfig, "model.lm", m["lm"])
    fields = {key: value for key, value in m.items() if key not in ("encoder", "lm")}
    model = _build(ModelConfig, "model", fields, encoder=encoder, lm=lm)
    stages = {int(n): _build(StageConfig, f"stages.{n}", node, stage=int(n))
              for n, node in tree["stages"].items()}
    chat = _build(EndpointConfig, "clients.chat", tree["clients"]["chat"])
    return RunConfig(model, stages, chat, tree["seed"], tree["jobs"])


def load_config(path: str | None) -> RunConfig:
    """Load, check and build a config file; None means all defaults."""
    raw: dict[str, Any] = {}
    if path is not None:
        try:
            raw = read_json(path)
        except UsageError as exc:
            raise ConfigError(str(exc)) from exc
    return build_config(validate_tree(raw))
