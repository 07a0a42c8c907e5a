"""Shared builders for model-level tests."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import slidevlm

from slidevlm.encoders import EmbeddingMatrix, PatchEncoder, SlideEncoderConfig
from slidevlm.lm import DecoderConfig, Vocab
from slidevlm.model import ModelConfig, SlideInputs, SlideVLM
from slidevlm.numerics import Tensor, stream
from slidevlm.slide_io import Raster, Region, SlideSpec, synth_slide, tile_slide
from slidevlm.training import StageConfig, TrainSample, run_stage

TINY_TEXTS = [
    "tumor fills the slide",
    "stroma lines the margin",
    "describe the tissue",
]


def tiny_config(lm=None, **overrides) -> ModelConfig:
    """A model small enough for per-test training loops; `lm` overrides
    fields of its decoder config."""
    encoder = overrides.pop(
        "encoder",
        SlideEncoderConfig(
            in_dim=8,
            heads=2,
            head_dim=4,
            layers=1,
            ffn_mult=2,
            branches=((4, 1), (8, 2)),
            positional="grid",
            grid_rows=8,
            grid_cols=8,
        ),
    )
    decoder = dict(heads=2, head_dim=4, layers=1, ffn_mult=2, max_positions=64)
    decoder.update(lm or {})
    base = dict(
        patch_dim=8,
        patch_size=16,
        projector_layers=1,
        encoder=encoder,
        lm=DecoderConfig(**decoder),
    )
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model(seed=0, vocab_texts=TINY_TEXTS, **overrides) -> SlideVLM:
    return SlideVLM(tiny_config(**overrides), Vocab.build(vocab_texts), seed=seed)


def random_slides(n, n_patches=3, dim=8, seed=0) -> dict[str, SlideInputs]:
    rng = stream(seed, "test-slides")
    out = {}
    for i in range(n):
        values = rng.normal(size=(n_patches, dim))
        coords = [(p // 4, p % 4) for p in range(n_patches)]
        out[f"s{i}"] = SlideInputs(EmbeddingMatrix(n_patches, dim, values), coords)
    return out


# Eight synthetic slides whose captions describe their layouts. Greedy
# memorization of this set is the standard smoke target; layout-dependent
# captions require a model with grid positional encoding.
PROBE_CAPTIONS = [
    "a single tumor region fills the upper left quadrant",
    "tumor tissue spans the entire top half of the slide",
    "stroma occupies the lower half with clear margins",
    "two separate tumor foci appear in opposite corners",
    "dense stroma fills the right column of the slide",
    "the slide is mostly background with one small tumor focus",
    "tumor and stroma regions share the bottom row evenly",
    "a full slide of uniform tumor tissue without background",
]
PROBE_LAYOUTS = [
    [("tumor", 0, 0, 224, 224)],
    [("tumor", 0, 0, 448, 224)],
    [("stroma", 0, 224, 448, 224)],
    [("tumor", 0, 0, 224, 224), ("tumor", 224, 224, 224, 224)],
    [("stroma", 224, 0, 224, 448)],
    [("tumor", 224, 224, 224, 224)],
    [("tumor", 0, 224, 224, 224), ("stroma", 224, 224, 224, 224)],
    [("tumor", 0, 0, 448, 448)],
]
PROBE_PROMPT = "describe the tissue shown in this whole slide image"


def probe_world(seed=11):
    """Model, samples, and slide inputs for the eight-slide memorization run."""
    vocab = Vocab.build(PROBE_CAPTIONS + [PROBE_PROMPT])
    cfg = ModelConfig(encoder=SlideEncoderConfig(positional="grid"))
    model = SlideVLM(cfg, vocab, seed=seed)
    encoder = PatchEncoder(cfg.patch_dim, cfg.patch_size, seed=seed)
    slides = {}
    samples = []
    for i, (caption, layout) in enumerate(zip(PROBE_CAPTIONS, PROBE_LAYOUTS)):
        spec = SlideSpec(448, 448, 224, [Region(*r) for r in layout])
        raster, _ = synth_slide(100 + i, spec)
        grid = tile_slide(raster)
        emb = encoder.encode_grid(raster, grid)
        coords = [(e.row, e.col) for e in grid.tissue_entries()]
        slides[f"s{i}"] = SlideInputs(emb, coords)
        samples.append(TrainSample(f"s{i}", "caption", PROBE_PROMPT, caption))
    return model, samples, slides


def memorize(model, samples, slides, epochs=(20, 50), max_len=48):
    """Train both stages for `epochs` at lr 0.001 with weight decay off
    (decay fights memorization), then return the mean answer-span cross
    entropy and how many samples greedy decoding reproduces exactly."""
    for stage, n in zip((1, 2), epochs):
        cfg = StageConfig(stage=stage, lr=0.001, epochs=n, weight_decay=0.0)
        run_stage(cfg, samples, model, slides)
    ce_total, exact = 0.0, 0
    for sample in samples:
        inputs = slides[sample.slide_id]
        ce_total += model.loss(inputs, sample.prompt, sample.target).item()
        text, _ = model.generate(inputs, sample.prompt, max_len=max_len, capture_attention=False)
        exact += text == sample.target
    return ce_total / len(samples), exact


# Shaped like the benchmark's ingest slide: 1792^2, 224-pixel tiles, 48 of 64
# tiles tissue.
BENCH_SPEC = SlideSpec(
    1792, 1792, 224,
    [Region(("tumor", "stroma", "necrosis", "fat")[k % 4], (k % 8) * 224, (k // 8) * 224, 224, 224)
     for k in range(64) if k % 4],
)


def oracle_rasters():
    """Rasters for the ingest oracles: RGB and gray, sides that are not
    multiples of 224, 50 or 16, one smaller than a 224 patch, and BENCH_SPEC."""
    rng = stream(11, "oracle-rasters")
    # Saturation near the 0.08 threshold, so tissue fractions fall on both
    # sides of the cut.
    high = rng.integers(150, 256, size=(300, 500, 1))
    near = np.concatenate([high, high - rng.integers(0, 19, size=(300, 500, 2))], axis=2)
    rasters = [
        Raster.from_pixels(near.astype(np.uint8)),
        Raster.from_pixels(rng.integers(0, 256, size=(230, 230, 1)).astype(np.uint8)),
        Raster.from_pixels(rng.integers(0, 256, size=(100, 60, 3)).astype(np.uint8)),
        synth_slide(2, SlideSpec(467, 250, 16, [Region("a", 32, 16, 160, 96), Region("b", 320, 128, 64, 112)]))[0],
    ]
    return rasters + [synth_slide(0, BENCH_SPEC)[0]]


def oracle_saturation(pixels):
    """HSV saturation through max and min over the channel axis."""
    if pixels.shape[2] == 1:
        return np.zeros(pixels.shape[:2])
    as_float = pixels.astype(np.float64)
    high, low = as_float.max(axis=2), as_float.min(axis=2)
    return np.where(high > 0.0, (high - low) / np.where(high > 0.0, high, 1.0), 0.0)


def structural_mask(n, m, causal=None, keys=None) -> np.ndarray:
    """The dense mask that `attention(..., causal=, keys=)` applies to n
    query rows over m keys: [n, m], or [..., n, m] with `keys` [..., m]."""
    allow = np.ones((n, m), dtype=bool) if causal is None else np.tri(n, m, causal, dtype=bool)
    return allow if keys is None else allow & np.asarray(keys, dtype=bool)[..., None, :]


def reference_attention(q, k_t, v, allow, capture=None):
    """`numerics.attention` before it scored query rows in blocks, as its
    oracle: one pass over all rows under a dense boolean `allow` that
    broadcasts to the [..., n, m] scores, whose weights the tape keeps."""
    q, k_t, v = (t if isinstance(t, Tensor) else Tensor(t) for t in (q, k_t, v))
    scale = 1.0 / np.sqrt(q.shape[-1])
    allow = np.asarray(allow, dtype=bool)
    weights = q.data @ k_t.data
    weights *= scale
    peak = np.max(weights, axis=-1, keepdims=True, where=allow, initial=-np.inf)
    peak[peak == -np.inf] = 0.0
    weights -= peak
    np.copyto(weights, -np.inf, where=~allow)
    np.exp(weights, out=weights)
    total = weights.sum(axis=-1, keepdims=True)
    np.copyto(total, 1.0, where=total == 0.0)
    weights /= total
    if capture is not None:
        capture.append(weights)

    def scores_backward(d_scores):
        d_scores *= scale
        if q.requires_grad:
            q._tape().accumulate(d_scores @ np.ascontiguousarray(np.swapaxes(k_t.data, -1, -2)))
        if k_t.requires_grad:
            k_t._tape().accumulate(np.swapaxes(np.swapaxes(d_scores, -1, -2) @ q.data, -1, -2))

    def out_backward(grad):
        if v.requires_grad:
            v._tape().accumulate(np.swapaxes(weights, -1, -2) @ grad)
        if q.requires_grad or k_t.requires_grad:
            d_weights = grad @ np.swapaxes(v.data, -1, -2)
            d_weights -= (d_weights * weights).sum(axis=-1, keepdims=True)
            d_weights *= weights
            scores_backward(d_weights)

    def lse_backward(grad):
        scores_backward(weights * grad[..., None])

    out = Tensor._result(weights @ v.data, (q, k_t, v), out_backward)
    return out, Tensor._result((peak + np.log(total))[..., 0], (q, k_t), lse_backward)


def run_capped(code: str, cap: int) -> subprocess.CompletedProcess:
    """Run `code` in a child interpreter with one BLAS thread and its
    address space capped at `cap` bytes, so that running out of memory
    raises MemoryError there instead of waking the OOM killer."""
    prelude = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
    src = str(Path(slidevlm.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=300,
    )
