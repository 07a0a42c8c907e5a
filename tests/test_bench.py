"""The entry points the benchmark in bench/ calls and wraps still exist."""

import importlib
from pathlib import Path

from conftest import random_slides, tiny_model

from slidevlm import training
from slidevlm.lm import EOS

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_builds_its_model_and_wraps_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    phases = importlib.import_module("phases")
    spans = importlib.import_module("spans")
    cfg = phases.model_config()
    assert cfg.encoder.positional == "grid"
    # The bench reads the decoder's shape through these two aliases.
    assert (cfg.lm_layers, cfg.lm_heads) == (cfg.lm.layers, cfg.lm.heads)

    rec = spans.SpanRecorder()
    try:
        spans.instrument(rec)
        wrapped = list(rec._undo)
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        rec.restore()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr


def test_the_tracer_sees_every_decoder_forward_of_a_caption(monkeypatch):
    # Answer.layers splits a caption's forwards into the non-capturing
    # prefill and steps and the one capturing trace forward.
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    model = tiny_model(seed=3)
    model.lm.head.bias.value.data[EOS] = -1e9  # decode all max_len tokens
    slide = random_slides(1, n_patches=6)["s0"]

    rec = spans.SpanRecorder()
    try:
        spans.instrument(rec)
        wrapped = list(rec._undo)
        _, trace = model.generate(slide, "describe the tissue", max_len=5)
    finally:
        rec.restore()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr
    (gen,) = rec.named("lm.generate")
    assert gen["attrs"] == {"max_len": 5, "tokens": 5}
    forwards = [f for f in rec.children(gen) if f["name"] == "lm.forward"]
    assert forwards == rec.named("lm.forward")
    n = trace.values.shape[-1]
    assert [f["attrs"] for f in forwards] == (
        [{"n": n, "capture": False}] * 5 + [{"n": n, "capture": True}]
    )


def test_a_traced_stage_records_the_spans_the_bench_reads(monkeypatch, tmp_path):
    # The bench's train figures come from these spans; a stage that saved
    # its checkpoints past training's module global would record no save.
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    slides = random_slides(3)
    samples = [training.TrainSample(sid, "caption", "describe the tissue", "tumor fills the slide")
               for sid in sorted(slides)]
    cfg = training.StageConfig(stage=1, epochs=2, accum_steps=2)

    rec = spans.SpanRecorder()
    try:
        spans.instrument(rec)
        training.run_stage(cfg, samples, tiny_model(), slides, out_dir=tmp_path)
    finally:
        rec.restore()
    (stage,) = rec.named("training.run_stage")
    saves = rec.named("numerics.save_checkpoint")
    assert [s["attrs"]["bytes"] for s in saves] == [
        (tmp_path / f"stage1_epoch{epoch}.ckpt").stat().st_size for epoch in range(2)
    ]
    steps = rec.named("numerics.adamw_step")
    backwards = rec.named("numerics.backward")
    assert len(steps) == 4  # groups of 2 and 1 in each epoch
    assert len(backwards) == 6  # one per sample in each epoch
    assert all(s["parent"] == stage["id"] for s in saves + steps + backwards)
