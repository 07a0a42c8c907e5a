"""The assembled pipeline: patch features -> slide encoder -> projector -> LM.

The model starts at patch features: the frozen featurizer runs once, ahead
of training (`encoders.PatchEncoder`), and is not part of it. Parameters
live in three named groups (slide_encoder, projector, lm), the sets the two
training stages freeze and thaw. With the bypass flag the slide encoder is
never constructed and patch features feed the projector directly.

Generation keeps no autodiff tape and remembers the last slide's visual
prefix: its visual tokens and the decoder's key/value cache of the prefix
rows. A request reuses it only when the slide's features, its coordinates
and every parameter array equal the copies it was computed from, so a
weight or feature edited in place (an optimizer step, `load_tensors`)
recomputes it, and only when the functions that computed it (the slide
encoder's, the projector's and `DecoderLM.prefix_cache`) are still the
ones in place, so a wrapped or replaced stage recomputes it too. The
copies take as much memory as the weights and one slide's features. A
round of questions about one slide encodes it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoders import (
    EmbeddingMatrix,
    Projector,
    SlideEncoder,
    SlideEncoderConfig,
)
from .interpret import AttentionTrace
from .lm import DecoderConfig, DecoderLM, KVCache, Vocab, assemble
from .numerics import Parameter, Tensor, UsageError, no_grad

__all__ = ["ModelConfig", "SlideVLM", "SlideInputs"]

GROUPS = ("slide_encoder", "projector", "lm")


@dataclass
class ModelConfig:
    """Every model setting and its default; the run config is built from it."""

    patch_dim: int = 32
    patch_size: int = 224
    projector_layers: int = 1
    bypass_slide_encoder: bool = False
    encoder: SlideEncoderConfig = field(default_factory=SlideEncoderConfig)
    lm: DecoderConfig = field(default_factory=DecoderConfig)

    def __post_init__(self):
        for key in ("patch_dim", "patch_size"):
            if getattr(self, key) < 1:
                raise UsageError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.projector_layers not in (1, 2):
            raise UsageError(f"projector_layers must be 1 or 2, got {self.projector_layers}")
        if self.encoder.in_dim != self.patch_dim:
            raise UsageError(
                f"encoder in_dim {self.encoder.in_dim} != patch_dim {self.patch_dim}"
            )

    # Read-only aliases of `lm.heads` and `lm.layers`; the bench reads them.
    @property
    def lm_heads(self) -> int:
        return self.lm.heads

    @property
    def lm_layers(self) -> int:
        return self.lm.layers

    @property
    def needs_coords(self) -> bool:
        """Whether the slide encoder reads each patch's grid coordinates."""
        return not self.bypass_slide_encoder and self.encoder.positional == "grid"


@dataclass
class SlideInputs:
    """Per-slide model inputs: patch features plus optional grid coords."""

    embeddings: EmbeddingMatrix
    coords: list[tuple[int, int]] | None = None

    def __post_init__(self):
        if self.coords is not None and len(self.coords) != self.embeddings.n_patches:
            raise UsageError(
                f"tissue tile count {len(self.coords)} != embedding row count "
                f"{self.embeddings.n_patches}"
            )


@dataclass
class _Prefix:
    """One slide's visual tokens and the decoder cache of its prefix rows,
    with copies of the arrays and the functions they were computed from."""

    code: list
    sources: list[np.ndarray]
    visual: Tensor
    cache: KVCache


class SlideVLM:
    """Pipeline model over one slide's patch features and a text prompt."""

    def __init__(self, cfg: ModelConfig, vocab: Vocab, seed: int = 0):
        self.cfg = cfg
        self.vocab = vocab
        self.slide_encoder = None
        proj_in = cfg.patch_dim
        if not cfg.bypass_slide_encoder:
            self.slide_encoder = SlideEncoder(cfg.encoder, seed=seed)
            proj_in = cfg.encoder.model_dim
        self.projector = Projector(proj_in, cfg.lm.dim, layers=cfg.projector_layers, seed=seed)
        self.lm = DecoderLM(cfg.lm, len(vocab), seed=seed)
        self._prefix: _Prefix | None = None

    def params(self) -> list[Parameter]:
        stages = [m for m in (self.slide_encoder, self.projector, self.lm) if m is not None]
        return [p for m in stages for p in m.params()]

    def param_groups(self) -> dict[str, list[Parameter]]:
        groups: dict[str, list[Parameter]] = {g: [] for g in GROUPS}
        for p in self.params():
            groups[p.name.split(".", 1)[0]].append(p)
        return {g: ps for g, ps in groups.items() if ps}

    def set_trainable_groups(self, trainable: set[str]) -> None:
        unknown = trainable - set(GROUPS)
        if unknown:
            raise UsageError(f"unknown parameter groups: {sorted(unknown)}")
        for group, params in self.param_groups().items():
            for p in params:
                p.set_trainable(group in trainable)

    def visual_tokens(self, inputs: SlideInputs) -> Tensor:
        """Project patch features into LM space, through or around the encoder."""
        if self.slide_encoder is None:
            return self.projector(inputs.embeddings.values)
        return self.projector(self.slide_encoder(inputs.embeddings, inputs.coords))

    def loss(self, inputs: SlideInputs, prompt: str, answer: str) -> Tensor:
        return self.lm.loss(assemble(self.visual_tokens(inputs), prompt, answer, self.vocab))

    def _slide_prefix(self, inputs: SlideInputs) -> _Prefix:
        """The visual prefix of `inputs`, recomputed unless the last one was
        computed by the same functions from equal features, coordinates and
        parameters."""
        stages = [m for m in (self.slide_encoder, self.projector) if m is not None]
        code = [type(m).__call__ for m in stages] + [type(self.lm).prefix_cache]
        coords = np.array([] if inputs.coords is None else inputs.coords, dtype=np.int64)
        sources = [inputs.embeddings.values, coords, *(p.value.data for p in self.params())]
        entry = self._prefix
        if (
            entry is None
            or entry.code != code
            or not all(map(np.array_equal, entry.sources, sources))
        ):
            self._prefix = None  # let the old entry go before building the new one
            with no_grad():
                visual = self.visual_tokens(inputs)
            entry = _Prefix(code, [a.copy() for a in sources], visual, self.lm.prefix_cache(visual))
            self._prefix = entry
        return entry

    def generate(
        self,
        inputs: SlideInputs,
        prompt: str,
        max_len: int = 32,
        capture_attention: bool = True,
    ) -> tuple[str, AttentionTrace | None]:
        """Greedy answer to `prompt` about the slide, and its attention trace."""
        entry = self._slide_prefix(inputs)
        seq = assemble(entry.visual, prompt, None, self.vocab)
        ids, trace = self.lm.generate(
            seq, max_len=max_len, capture_attention=capture_attention, prefix=entry.cache
        )
        if trace is not None:
            trace.tokens = [self.vocab.token(i) for i in ids]
        return self.vocab.decode(ids), trace

    def tensors(self) -> dict[str, np.ndarray]:
        """Parameter name -> value array, for checkpointing."""
        return {p.name: p.value.data for p in self.params()}

    def load_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        """Copy checkpointed arrays in; the name set and shapes must match."""
        own = {p.name: p for p in self.params()}
        if set(own) != set(tensors):
            missing = sorted(set(own) - set(tensors))
            extra = sorted(set(tensors) - set(own))
            raise UsageError(
                f"checkpoint does not match model (missing {missing}, extra {extra})"
            )
        for name, param in own.items():
            arr = np.asarray(tensors[name], dtype=np.float64)
            if arr.shape != param.value.data.shape:
                raise UsageError(
                    f"{name}: checkpoint shape {arr.shape} != model shape "
                    f"{param.value.data.shape}"
                )
            param.value.data[...] = arr
