"""Span recording for the traced benchmark run.

A span has a name, a start, an end, the span that caused it (its parent)
and the outermost span of its thread (its request). Spans stay in memory
and are written out once, when the phase ends.

`instrument` wraps slidevlm's public entry points from outside the
package by swapping module and class attributes, so the program itself
carries no tracing code. Benchmark code must therefore call module
functions through their module (`slide_io.read_raster`, not an imported
name). Wrapping is undone by `restore`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import statistics
import threading
import time

from slidevlm import curation, encoders, evaluation, interpret, lm, model, slide_io, training
from slidevlm.numerics import AdamW, Tensor

import chat


class SpanRecorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.last_n: int | None = None  # patch count of the latest loss, for backward spans
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.paused = False
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        if self._local.paused:
            yield None
            return
        parent = stack[-1] if stack else None
        sp = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "request": parent["request"] if parent else None,
            "attrs": attrs,
            "start": time.perf_counter_ns(),
            "end": None,
        }
        if sp["request"] is None:
            sp["request"] = sp["id"]
        stack.append(sp)
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing on this thread, e.g. while the benchmark checks outputs."""
        self._stack()
        before = self._local.paused
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = before

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace `owner.attr` by a wrapper that records a span per call.

        `before(args, kwargs)` returns span attributes; `after(span, args,
        result)` may add more once the call has returned.
        """
        original = getattr(owner, attr)
        rec = self

        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            with rec.span(name, **attrs) as sp:
                result = original(*args, **kwargs)
                if sp is not None and after is not None:
                    after(sp, args, result)
                return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(sp, sort_keys=True) + "\n")

    # -- derived figures ---------------------------------------------------------------

    def named(self, name: str, **match) -> list[dict]:
        out = [s for s in self.spans if s["name"] == name]
        for key, value in match.items():
            out = [s for s in out if s["attrs"].get(key) == value]
        return sorted(out, key=lambda s: s["start"])

    def children(self, span: dict) -> list[dict]:
        return sorted(
            (s for s in self.spans if s["parent"] == span["id"]), key=lambda s: s["start"]
        )

    def self_ms(self, span: dict) -> float:
        """Duration minus the part of it covered by direct child spans."""
        covered = 0
        cursor = span["start"]
        for child in self.children(span):
            lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return (span["end"] - span["start"] - covered) / 1e6


def ms(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e6


def median_ms(spans: list[dict]) -> float:
    if not spans:
        raise ValueError("no spans recorded")
    return statistics.median(ms(s) for s in spans)


def instrument(rec: SpanRecorder) -> None:
    """Wrap the public entry points of every layer the benchmark reports on."""

    def raster_size(sp, args, result):
        sp["attrs"]["mpix"] = result.width * result.height / 1e6

    def grid_size(sp, args, result):
        sp["attrs"]["tiles"] = len(result.entries)
        sp["attrs"]["tissue"] = sum(1 for e in result.entries if e.tissue)

    def rows_out(sp, args, result):
        sp["attrs"]["n"] = result.n_patches

    def feature_rows(args, kwargs):
        features = args[1]
        values = getattr(features, "values", features)
        return {"n": int(values.shape[0])}

    def forward_attrs(args, kwargs):
        capture = kwargs.get("capture_attention", args[2] if len(args) > 2 else False)
        return {"n": args[1].n_visual, "capture": bool(capture)}

    def loss_attrs(args, kwargs):
        rec.last_n = args[1].n_visual
        return {"n": rec.last_n}

    def generate_attrs(args, kwargs):
        return {"max_len": kwargs.get("max_len", args[2] if len(args) > 2 else 32)}

    def generated(sp, args, result):
        sp["attrs"]["tokens"] = len(result[0])

    def file_bytes(sp, args, result):
        sp["attrs"]["bytes"] = os.path.getsize(args[0])

    def cache_hit(sp, args, result):
        sp["attrs"]["hit"] = result is not None

    rec.wrap(slide_io, "read_raster", "slide_io.read_raster", after=raster_size)
    rec.wrap(slide_io, "tile_slide", "slide_io.tile_slide", after=grid_size)
    rec.wrap(slide_io, "thumbnail", "slide_io.thumbnail")
    rec.wrap(encoders.PatchEncoder, "encode_grid", "encoders.patch_encode", after=rows_out)
    rec.wrap(encoders, "save_embeddings", "encoders.save_embeddings")
    rec.wrap(encoders, "load_embeddings", "encoders.load_embeddings")
    rec.wrap(encoders.SlideEncoder, "__call__", "encoders.slide_encoder", before=feature_rows)
    rec.wrap(encoders.Projector, "__call__", "encoders.projector")
    rec.wrap(lm.DecoderLM, "forward", "lm.forward", before=forward_attrs)
    rec.wrap(lm.DecoderLM, "loss", "lm.loss", before=loss_attrs)
    rec.wrap(lm.DecoderLM, "generate", "lm.generate", before=generate_attrs, after=generated)
    rec.wrap(model.SlideVLM, "generate", "model.generate")
    rec.wrap(Tensor, "backward", "numerics.backward", before=lambda a, k: {"n": rec.last_n})
    rec.wrap(AdamW, "step", "numerics.adamw_step")
    rec.wrap(training, "save_checkpoint", "numerics.save_checkpoint", after=file_bytes)
    rec.wrap(training, "run_stage", "training.run_stage")
    rec.wrap(interpret, "saliency", "interpret.saliency")
    rec.wrap(interpret, "render_overlay", "interpret.render_overlay")
    rec.wrap(interpret, "save_trace", "interpret.save_trace")
    rec.wrap(evaluation, "extract_choice", "evaluation.extract_choice")
    rec.wrap(evaluation, "vqa_eval", "evaluation.vqa_eval")
    rec.wrap(evaluation, "caption_eval", "evaluation.caption_metrics")
    rec.wrap(curation, "run_curation", "curation.run_curation")
    rec.wrap(curation, "ensemble_filter", "curation.filter")
    rec.wrap(curation.PromptCache, "lookup", "curation.cache_lookup", after=cache_hit)
    rec.wrap(chat.ScriptedChat, "complete", "curation.chat")

