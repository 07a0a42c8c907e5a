"""Declarative run configuration: one JSON tree, schema-checked at load.

Unknown keys are rejected with their dotted path instead of being ignored,
because a typo like "epoches" silently falling back to a default is the
worst failure mode a config system can have.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

from .encoders import SlideEncoderConfig
from .jsonio import read_json
from .numerics import UsageError


class ConfigError(UsageError):
    """Bad config tree; the message starts with the failing dotted path."""


# Every key a config may set, with its default; the schema is derived from it.
_DEFAULTS: dict[str, Any] = {
    "model": {
        "patch_dim": 32,
        "patch_size": 224,
        "projector_layers": 1,
        "bypass_slide_encoder": False,
        "encoder": {
            "heads": 4,
            "head_dim": 32,
            "layers": 2,
            "ffn_mult": 4,
            "branches": [[16, 1], [32, 2], [64, 4]],
            "positional": "grid",
            "grid_rows": 64,
            "grid_cols": 64,
        },
        "lm": {
            "heads": 4,
            "head_dim": 32,
            "layers": 2,
            "ffn_mult": 4,
            "max_positions": 256,
            "tied_head": False,
            "causal_visual": False,
        },
    },
    "stages": {
        "1": {"lr": 0.001, "epochs": 3, "accum_steps": 1, "weight_decay": 0.01},
        "2": {"lr": 0.00002, "epochs": 1, "accum_steps": 1, "weight_decay": 0.01},
    },
    "clients": {
        "chat": {
            "base_url": "",
            "model": "",
            "auth_env": "CHAT_API_TOKEN",
            "timeout": 60.0,
            "max_retries": 3,
        },
    },
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


@dataclass
class RunConfig:
    """The validated tree plus typed views over its pieces."""

    tree: dict[str, Any]

    @property
    def seed(self) -> int:
        return self.tree["seed"]

    @property
    def jobs(self) -> int:
        return self.tree["jobs"]

    def encoder_config(self) -> SlideEncoderConfig:
        m = self.tree["model"]
        e = m["encoder"]
        return SlideEncoderConfig(
            in_dim=m["patch_dim"],
            heads=e["heads"],
            head_dim=e["head_dim"],
            layers=e["layers"],
            ffn_mult=e["ffn_mult"],
            branches=tuple(tuple(b) for b in e["branches"]),
            positional=e["positional"],
            grid_rows=e["grid_rows"],
            grid_cols=e["grid_cols"],
        )

    def model_config(self):
        from .model import ModelConfig

        m = self.tree["model"]
        lm = m["lm"]
        return ModelConfig(
            patch_dim=m["patch_dim"],
            patch_size=m["patch_size"],
            projector_layers=m["projector_layers"],
            bypass_slide_encoder=m["bypass_slide_encoder"],
            encoder=self.encoder_config(),
            lm_heads=lm["heads"],
            lm_head_dim=lm["head_dim"],
            lm_layers=lm["layers"],
            lm_ffn_mult=lm["ffn_mult"],
            max_positions=lm["max_positions"],
            tied_head=lm["tied_head"],
            causal_visual=lm["causal_visual"],
        )

    def stage_overrides(self, stage: int) -> dict[str, Any]:
        return self.tree["stages"][str(stage)]


def validate_tree(tree: dict[str, Any]) -> dict[str, Any]:
    """Check `tree` against the schema and fill defaults for absent keys."""
    checked = _check(tree, _SCHEMA, "")
    return _merge(_DEFAULTS, checked)


def load_config(path: str | None) -> RunConfig:
    """Load and validate a config file; None means all defaults."""
    if path is None:
        return RunConfig(tree=copy.deepcopy(_DEFAULTS))
    try:
        raw = read_json(path)
    except UsageError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(tree=validate_tree(raw))
