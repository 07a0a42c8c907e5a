"""One benchmark phase, run in its own process by run.py.

    python3 bench/phases.py <setup|ingest|train|answer|curate> --work DIR \
        --workload W --seed N --trace 0|1 --out RESULT.json

`setup` generates every input into DIR, three times, and reports the median
time. Every other phase prepares its state three times (the median is its
share of set-up time) and does one untimed warm-up operation. Its work is
a generator of slices, each one or a few operations; a slice yields True
when it ends a round.

With `--trace 0` the phase then serves slices on request: run.py writes
`slice` to its stdin and reads back `ok <seconds>` (or `done` once the
work is exhausted), and writes `stop` at the end. run.py interleaves the
slices of all four phases, so each phase's medians are drawn from the whole
run rather than from one window of it.

With `--trace 1` the phase runs one round untraced and then a round with
spans recorded around slidevlm's public entry points; the per-layer figures
come from those spans, and the difference between the two rounds is the
tracing overhead.

Each phase writes its counts, figures, failures and a digest of its first
round's outputs to RESULT.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from slidevlm import curation, encoders, evaluation, interpret, lm, model, slide_io, training
from slidevlm.numerics import load_checkpoint

import chat
import inputs
from spans import SpanRecorder, instrument, median_ms, ms

SETUP_REPEATS = 5


class CheckFailed(Exception):
    """An output check did not hold; the operation counts as failed."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def now() -> float:
    return time.perf_counter()


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    xs = sorted(values)
    if len(xs) <= 10:
        return 100.0, xs[-1]
    idx = len(xs) - 11
    return 100.0 * (idx + 1) / len(xs), xs[idx]


def loglog_slope(xs: list[float], ys: list[float]) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


class Phase:
    """Shared bookkeeping: operation counts, failures, the digest and spans."""

    trace_slices: int | None = None  # slices a traced run times; None for a whole round

    def __init__(self, args):
        self.work: Path = args.work
        self.seed: int = args.seed
        self.workload: str = args.workload
        self.text = json.loads((self.work / "text.json").read_text(encoding="utf-8"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest = hashlib.sha256()
        self.digested = False
        self.timed_s = 0.0  # wall time of the timed part of every operation
        self.rec: SpanRecorder | None = None

    def op(self, fn, count: int = 1) -> None:
        """Run one operation (or a batch of `count`); an exception fails all of it."""
        self.attempted += count
        try:
            fn()
        except Exception as exc:  # MemoryError and failed checks are data points too
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(f"{type(exc).__name__}: {exc}")

    def quiet(self):
        """Work the benchmark does for its own checks is not traced."""
        return self.rec.paused() if self.rec is not None else contextlib.nullcontext()

    def add_digest(self, *chunks) -> None:
        if self.digested:
            return
        for chunk in chunks:
            self.digest.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode("utf-8"))

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work that lets the allocator and caches settle."""

    def slices(self):
        """Generator of work slices; yields True when a slice ends a round."""
        raise NotImplementedError

    def metrics(self) -> dict:
        raise NotImplementedError

    def layers(self) -> dict:
        raise NotImplementedError

    def info(self) -> dict:
        return {}


# -- ingest ------------------------------------------------------------------------


class Ingest(Phase):
    """read_raster -> tile_slide -> encode_grid -> .emb round trip -> thumbnail."""

    def prepare(self):
        self.ps = inputs.CONFIG["ingest"]["patch_size"]
        self.encoder = encoders.PatchEncoder(inputs.CONFIG["patch_dim"], self.ps, seed=self.seed)
        labels = json.loads((self.work / "ingest_labels.json").read_text(encoding="utf-8"))
        self.labels = {tuple(rc) for rc in labels}
        self.rates: list[float] = []

    def one(self):
        path, emb_path = self.work / "ingest.ppm", self.work / "ingest.emb"
        t0 = now()
        raster = slide_io.read_raster(path)
        grid = slide_io.tile_slide(raster, self.ps)
        emb = self.encoder.encode_grid(raster, grid)
        encoders.save_embeddings(emb_path, emb)
        back = encoders.load_embeddings(emb_path)
        thumb = slide_io.thumbnail(raster)
        wall = now() - t0
        self.timed_s += wall
        flags = {(e.row, e.col) for e in grid.entries if e.tissue}
        check(flags == self.labels, "tissue flags differ from the synth_slide label map")
        check(emb.n_patches == len(flags), "embedding rows != tissue tiles")
        check(bool(np.isfinite(emb.values).all()), "non-finite embeddings")
        as_f32 = emb.values.astype(np.float32)
        check(np.array_equal(back.values, as_f32.astype(np.float64)), ".emb round trip is not exact at float32")
        self.rates.append(raster.width * raster.height / 1e6 / wall)
        self.add_digest(sorted(flags), as_f32.tobytes(), thumb.pixels.tobytes())
        self.digested = True

    def slices(self):
        while True:
            self.op(self.one)
            yield True

    def metrics(self):
        return {"ingest_mpix_per_s": statistics.median(self.rates)}

    def layers(self):
        rec = self.rec
        tile = rec.named("slide_io.tile_slide")
        return {
            "slide_io.read_raster_ms_per_mpix": statistics.median(
                ms(s) / s["attrs"]["mpix"] for s in rec.named("slide_io.read_raster")
            ),
            "slide_io.tile_slide_ms_per_tile": statistics.median(ms(s) / s["attrs"]["tiles"] for s in tile),
            "slide_io.thumbnail_ms": median_ms(rec.named("slide_io.thumbnail")),
            "slide_io.tiles": tile[-1]["attrs"]["tiles"],
            "slide_io.tissue_tiles": tile[-1]["attrs"]["tissue"],
            "encoders.patch_encode_ms_per_patch": statistics.median(
                ms(s) / s["attrs"]["n"] for s in rec.named("encoders.patch_encode")
            ),
            "encoders.save_embeddings_ms": median_ms(rec.named("encoders.save_embeddings")),
            "encoders.load_embeddings_ms": median_ms(rec.named("encoders.load_embeddings")),
        }


# -- shared by train and answer ------------------------------------------------------


def model_config() -> model.ModelConfig:
    dim = inputs.CONFIG["patch_dim"]
    return model.ModelConfig(
        patch_dim=dim,
        patch_size=inputs.CONFIG["bank"]["patch_size"],
        encoder=encoders.SlideEncoderConfig(in_dim=dim, positional="grid"),
    )


def load_slide(path: Path) -> tuple[model.SlideInputs, dict]:
    data = np.load(path)
    emb = data["embeddings"]
    coords = [(int(r), int(c)) for r, c in data["coords"]]
    slide = model.SlideInputs(encoders.EmbeddingMatrix(emb.shape[0], emb.shape[1], emb), coords)
    return slide, {k: data[k] for k in data.files}


# -- train -------------------------------------------------------------------------


class Train(Phase):
    """run_stage stage 1 then stage 2 over slides with N = 256, 512 and 1024."""

    def prepare(self):
        self.cfg = model_config()
        self.vocab = lm.Vocab.build(self.text["corpus"])
        self.model = model.SlideVLM(self.cfg, self.vocab, seed=self.seed)
        self.spare = model.SlideVLM(self.cfg, self.vocab, seed=self.seed + 1)
        self.slides = {
            f"train_n{n}": load_slide(self.work / f"train_n{n}.npz")[0]
            for n, _, _ in inputs.CONFIG["train"]["slides"]
        }
        self.samples = {
            int(stage): [training.TrainSample(*row) for row in rows]
            for stage, rows in self.text["train_samples"].items()
        }
        self.ckpt_dir = self.work / "train_ckpt"
        self.patches = 0

    def warm_up(self):
        largest = max(self.samples[1], key=lambda s: self.slides[s.slide_id].embeddings.n_patches)
        cfg = training.StageConfig(stage=1, epochs=1, seed=self.seed)
        self.op(lambda: training.run_stage(cfg, [largest], self.model, self.slides))

    def stage(self, stage: int, shuffle_seed: int):
        samples = self.samples[stage]
        cfg = training.StageConfig(stage=stage, epochs=1, seed=shuffle_seed)
        frozen = {
            group: [p.value.data.copy() for p in params]
            for group, params in self.model.param_groups().items()
            if group not in cfg.trainable_groups
        }
        t0 = now()
        result = training.run_stage(cfg, samples, self.model, self.slides, out_dir=self.ckpt_dir)
        self.timed_s += now() - t0
        losses = [loss for _, _, loss in result.losses]
        check(len(losses) == len(samples), "one loss per step expected")
        check(all(math.isfinite(v) for v in losses), "non-finite loss")
        groups = self.model.param_groups()
        for group, before in frozen.items():
            after = [p.value.data for p in groups[group]]
            check(
                all(a.tobytes() == b.tobytes() for a, b in zip(after, before)),
                f"frozen group {group} changed in stage {stage}",
            )
        with self.quiet():
            tensors, _ = load_checkpoint(result.best_checkpoint)
            self.spare.load_tensors(tensors)
            trained = self.model.tensors()
            check(
                all(np.array_equal(v, trained[k]) for k, v in self.spare.tensors().items()),
                "checkpoint does not reload to the trained weights",
            )
        self.patches += sum(self.slides[s.slide_id].embeddings.n_patches for s in samples)
        self.add_digest(stage, losses)

    def slices(self):
        i = 0
        while True:
            for stage in (1, 2):
                # The step order depends on the round only, so every seed trains
                # its slides in the same N order.
                self.op(lambda: self.stage(stage, i), count=len(self.samples[stage]))
            self.digested = True
            i += 1
            yield True

    def metrics(self):
        return {"train_patches_per_s": self.patches / self.timed_s}

    def memory_probe(self) -> dict[int, float]:
        """Peak traced bytes of one slide-encoder forward+backward, per N."""
        peaks = {}
        with self.quiet():
            for slide in self.slides.values():
                tracemalloc.start()
                out = self.model.slide_encoder(slide.embeddings, slide.coords)
                out.sum().backward()
                peaks[slide.embeddings.n_patches] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        for p in self.model.params():
            p.zero_grad()
        return peaks

    def layers(self):
        rec = self.rec
        sizes = [n for n, _, _ in inputs.CONFIG["train"]["slides"]]
        fwd = {n: median_ms(rec.named("encoders.slide_encoder", n=n)) for n in sizes}
        peaks = self.memory_probe()
        out = {}
        for n in sizes:
            out[f"encoders.slide_encoder_fwd_ms.n{n}"] = fwd[n]
            out[f"encoders.slide_encoder_peak_mib.n{n}"] = peaks[n] / 2**20
            out[f"lm.loss_fwd_ms.n{n}"] = median_ms(rec.named("lm.loss", n=n))
            out[f"numerics.backward_ms.n{n}"] = median_ms(rec.named("numerics.backward", n=n))
        out["encoders.slide_encoder_time_exponent"] = loglog_slope(sizes, [fwd[n] for n in sizes])
        out["encoders.slide_encoder_mem_exponent"] = loglog_slope(sizes, [peaks[n] for n in sizes])
        saves = rec.named("numerics.save_checkpoint")
        stages = rec.named("training.run_stage")
        out.update({
            "numerics.adamw_step_ms": median_ms(rec.named("numerics.adamw_step")),
            "numerics.save_checkpoint_ms": median_ms(saves),
            "numerics.checkpoint_bytes": saves[-1]["attrs"]["bytes"],
            "training.run_stage_ms": median_ms(stages),
            "training.steps": len(rec.named("numerics.backward")),
            "training.self_ms": statistics.median(rec.self_ms(s) for s in stages),
        })
        return out


# -- answer ------------------------------------------------------------------------


class Answer(Phase):
    """Closed loop with one caller: a traced caption, then multi-choice questions, per round."""

    trace_slices = 7  # the caption and six questions

    def prepare(self):
        cfg = inputs.CONFIG["answer"]
        self.q_len, self.c_len = cfg["question_len"], cfg["caption_len"]
        self.vocab = lm.Vocab.build(self.text["corpus"])
        self.model = model.SlideVLM(model_config(), self.vocab, seed=self.seed)
        # Suppress EOS so every request decodes exactly its max_len tokens.
        tensors = self.model.tensors()
        bias = tensors["lm.head.bias"].copy()
        bias[lm.EOS] = -1e9
        tensors["lm.head.bias"] = bias
        self.model.load_tensors(tensors)
        self.plan = self.text["answer_plan"]
        names = {req["slide"] for requests in self.plan for req in requests}
        self.slides = {name: self.load(name) for name in sorted(names)}
        self.warm_slide, _ = load_slide(self.work / "answer_warmup.npz")
        self.q_ms: list[float] = []
        self.c_ms: list[float] = []
        self.tokens = 0

    def load(self, name: str):
        slide, raw = load_slide(self.work / f"{name}.npz")
        rows, cols, ps = (int(v) for v in raw["shape"])
        tissue = set(slide.coords)
        entries = [
            slide_io.GridEntry(r, c, c * ps, r * ps, (r, c) in tissue)
            for r in range(rows)
            for c in range(cols)
        ]
        grid = slide_io.PatchGrid(ps, cols * ps, rows * ps, entries)
        thumb = slide_io.Raster.from_pixels(raw["thumb"]) if "thumb" in raw else None
        return slide, grid, thumb

    def first_token(self, slide, prompt: str) -> str:
        """Argmax of an independent forward pass over the prompt-only sequence."""
        with self.quiet():
            seq = lm.assemble(self.model.visual_tokens(slide), prompt, None, self.vocab)
            logits, _ = self.model.lm.forward(seq)
        return self.vocab.token(int(np.argmax(logits.data[-1])))

    def question(self, req: dict, rid: str, slow_checks: bool) -> None:
        slide, _, _ = self.slides[req["slide"]]
        record = evaluation.QARecord(
            rid, req["slide"], req["prompt"], req["options"], req["answer"],
            "multi-choice", "Diagnosis", "Disease Classification",
        )
        t0 = now()
        text, _ = self.model.generate(slide, req["prompt"], max_len=self.q_len, capture_attention=False)
        letter = evaluation.extract_choice(text, req["options"])
        report = evaluation.vqa_eval([record], {rid: letter})
        wall = now() - t0
        self.timed_s += wall
        tokens = text.split(" ")
        check(len(tokens) == self.q_len, f"question decoded {len(tokens)} tokens, not {self.q_len}")
        check(report.total == 1 and report.correct == int(letter == req["answer"]), "vqa_eval miscounted")
        if slow_checks:
            check(tokens[0] == self.first_token(slide, req["prompt"]), "first token is not the forward argmax")
        self.q_ms.append(wall * 1e3)
        self.tokens += self.q_len
        self.add_digest(text)

    def caption(self, req: dict, slow_checks: bool) -> None:
        slide, grid, thumb = self.slides[req["slide"]]
        t0 = now()
        text, trace = self.model.generate(slide, req["prompt"], max_len=self.c_len, capture_attention=True)
        sal = interpret.saliency(trace, k=5)
        overlay = interpret.render_overlay(thumb, grid, sal)
        report = evaluation.caption_eval([(text, req["reference"])])
        interpret.save_trace(self.work / "trace.ckpt", trace)
        wall = now() - t0
        self.timed_s += wall
        tokens = text.split(" ")
        check(len(tokens) == self.c_len, f"caption decoded {len(tokens)} tokens, not {self.c_len}")
        cfg = self.model.cfg
        want = (self.c_len, cfg.lm_layers, cfg.lm_heads, slide.embeddings.n_patches)
        check(trace.values.shape == want, f"trace shape {trace.values.shape} != {want}")
        check(bool(((trace.values >= 0.0) & (trace.values <= 1.0)).all()), "trace outside [0, 1]")
        check(0.0 <= report.rouge_l <= 1.0, "ROUGE-L outside [0, 1]")
        if slow_checks:
            check(tokens[0] == self.first_token(slide, req["prompt"]), "first token is not the forward argmax")
        self.c_ms.append(wall * 1e3)
        self.tokens += self.c_len
        self.add_digest(text, overlay.pixels.tobytes(), trace.values.tobytes())

    def warm_up(self):
        prompt = self.plan[0][0]["prompt"]
        self.op(lambda: self.model.generate(self.warm_slide, prompt, max_len=self.q_len))

    def slices(self):
        # The plan is never cycled: a slide of the distinct workload must
        # not see a second request, so the phase ends when the plan does.
        for i, requests in enumerate(self.plan):
            for k, req in enumerate(requests):
                # The independent-forward check runs on the first round only.
                slow_checks = not self.digested
                if req["kind"] == "question":
                    self.op(lambda: self.question(req, f"r{i}-q{k}", slow_checks))
                else:
                    self.op(lambda: self.caption(req, slow_checks))
                last = k == len(requests) - 1
                self.digested |= last
                yield last

    def metrics(self):
        return {
            "answer_question_p50_ms": statistics.median(self.q_ms),
            "answer_question_tail_ms": tail(self.q_ms)[1],
            "answer_caption_p50_ms": statistics.median(self.c_ms),
            "answer_tokens_per_s": self.tokens / self.timed_s,
        }

    def info(self):
        return {
            "question_tail_percentile": tail(self.q_ms)[0],
            "questions": len(self.q_ms),
            "captions": len(self.c_ms),
            "slides_per_round": inputs.SLIDES_PER_ROUND[self.workload],
        }

    def layers(self):
        rec = self.rec
        gens = rec.named("lm.generate")
        forwards_in_gen = [f for g in gens for f in rec.children(g) if f["name"] == "lm.forward"]
        captions = [g for g in gens if g["attrs"]["max_len"] == self.c_len]
        # First and last three decode steps of each caption, medians over all of them.
        steps = [[ms(f) for f in rec.children(g) if not f["attrs"]["capture"]] for g in captions]
        first = statistics.median(x for s in steps for x in s[:3])
        last = statistics.median(x for s in steps for x in s[-3:])
        requests = len(rec.named("model.generate"))
        return {
            "encoders.projector_fwd_ms": median_ms(rec.named("encoders.projector")),
            "encoders.slide_encoder_calls_per_request": len(rec.named("encoders.slide_encoder")) / requests,
            "lm.forward_ms": median_ms(rec.named("lm.forward", capture=False)),
            "lm.forward_calls_per_token": len(forwards_in_gen) / sum(g["attrs"]["tokens"] for g in gens),
            "lm.decode_step_ms.first": first,
            "lm.decode_step_ms.last": last,
            "lm.decode_step_growth": last / first,
            "lm.trace_forward_ms": median_ms(rec.named("lm.forward", capture=True)),
            "interpret.saliency_ms": median_ms(rec.named("interpret.saliency")),
            "interpret.render_overlay_ms": median_ms(rec.named("interpret.render_overlay")),
            "interpret.save_trace_ms": median_ms(rec.named("interpret.save_trace")),
            "evaluation.extract_choice_ms": median_ms(rec.named("evaluation.extract_choice")),
            "evaluation.vqa_eval_ms": median_ms(rec.named("evaluation.vqa_eval")),
            "evaluation.caption_metrics_ms": median_ms(rec.named("evaluation.caption_metrics")),
        }


# -- curate ------------------------------------------------------------------------


class Curate(Phase):
    """run_curation with four filter clients and a PromptCache: a cold pass, then warm passes."""

    def prepare(self):
        cfg = inputs.CONFIG["curate"]
        self.jobs = cfg["jobs"]
        self.latency_s = cfg["latency_ms"] / 1e3
        self.warm_slices = cfg["warm_slices"]
        self.warm_passes = cfg["warm_passes"]
        self.reports = [curation.ReportRecord(**r) for r in self.text["reports"]]
        self.cold_rates: list[float] = []
        self.kept_mc = 0
        self.filtered = 0

    def run(self, cache) -> tuple[object, float, int]:
        """One run_curation pass with fresh clients: result, wall seconds, chat calls."""
        client = chat.ScriptedChat("chat", self.latency_s)
        filters = [chat.ScriptedChat(m, self.latency_s) for m in chat.FILTER_MODELS]
        t0 = now()
        result = curation.run_curation(self.reports, client, cache, filter_clients=filters, jobs=self.jobs)
        wall = now() - t0
        self.timed_s += wall
        return result, wall, client.calls + sum(f.calls for f in filters)

    def written(self, result, name: str) -> bytes:
        out = self.work / name
        out.mkdir(exist_ok=True)
        curation.save_candidates(out / "kept.jsonl", result.kept)
        rest = {
            "cleaned": result.cleaned,
            "captions": result.captions,
            "verdicts": {k: [list(v.correct), v.kept] for k, v in result.verdicts.items()},
            "drops": [[d.item, d.reason] for d in result.drops],
        }
        (out / "rest.json").write_text(json.dumps(rest, sort_keys=True), encoding="utf-8")
        return (out / "kept.jsonl").read_bytes() + (out / "rest.json").read_bytes()

    def check_verdicts(self, result) -> None:
        check(not result.flagged, f"flagged reports: {sorted(result.flagged)}")
        check(len(result.cleaned) == len(self.reports), "a report is missing")
        mc = [c for c in result.candidates if c.record.qtype == "multi-choice"]
        check(len(mc) == len(result.verdicts), "every multi-choice candidate needs a verdict")
        for cand in mc:
            verdict = result.verdicts[cand.record.id]
            want = tuple(chat.knows(m, cand.record.question) for m in chat.FILTER_MODELS)
            check(verdict.correct == want, f"{cand.record.id}: filter answers {verdict.correct} != {want}")
            check(verdict.kept == (sum(want) <= 2), f"{cand.record.id}: kept breaks the 2-of-4 rule")
        want_ids = [
            c.record.id for c in result.candidates
            if c.record.qtype != "multi-choice" or result.verdicts[c.record.id].kept
        ]
        check([c.record.id for c in result.kept] == want_ids, "kept set disagrees with the verdicts")
        self.kept_mc += sum(1 for c in mc if result.verdicts[c.record.id].kept)
        self.filtered += len(mc)

    def slices(self):
        n = len(self.reports)
        while True:
            cache_dir = self.work / "prompt_cache"
            shutil.rmtree(cache_dir, ignore_errors=True)
            cache = curation.PromptCache(cache_dir)
            cold_out: list[bytes] = []

            def cold():
                result, wall, _ = self.run(cache)
                self.check_verdicts(result)
                cold_out.append(self.written(result, "cold"))
                self.cold_rates.append(n / wall)
                self.add_digest(cold_out[0])
                self.digested = True

            def warm():
                result, _, calls = self.run(cache)
                check(calls == 0, f"warm pass made {calls} chat calls")
                check(bool(cold_out) and self.written(result, "warm") == cold_out[0], "warm output differs from cold")

            self.op(cold, count=n)
            yield False
            # Warm passes come in several slices, spread over the run.
            for k in range(self.warm_slices):
                for _ in range(self.warm_passes):
                    self.op(warm, count=n)
                yield k == self.warm_slices - 1

    def metrics(self):
        return {"curate_reports_per_s": statistics.median(self.cold_rates)}

    def layers(self):
        rec = self.rec
        cold, *warm = rec.named("curation.run_curation")

        def within(name):
            return [s for s in rec.named(name) if cold["start"] <= s["start"] and s["end"] <= cold["end"]]

        chats = within("curation.chat")
        filters = within("curation.filter")
        lookups = rec.named("curation.cache_lookup")
        hits = sum(1 for s in lookups if s["attrs"]["hit"])
        wait = sum(ms(s) for s in chats)
        return {
            "curation.chat_calls": len(chats),
            "curation.chat_wait_ms": wait,
            "curation.cache_hits": hits,
            "curation.cache_hit_ratio": hits / len(lookups),
            "curation.filter_ms": median_ms(filters),
            "curation.filter_calls": len(filters),
            "curation.overlap": wait / ms(cold),
            "curation.kept_ratio": self.kept_mc / self.filtered,
            "curation.warm_reports_per_s": len(self.reports) / (median_ms(warm) / 1e3),
        }


PHASES = {"ingest": Ingest, "train": Train, "answer": Answer, "curate": Curate}


# -- entry points ----------------------------------------------------------------


def run_setup(args) -> dict:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        inputs.generate(args.work, args.workload, args.seed)
        times.append(now() - t0)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "setup_s": statistics.median(times),
        "setup_runs_s": times,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }


def trace_sample(phase: Phase) -> float:
    """Run the start of the phase's first round; returns its timed seconds."""
    before = phase.timed_s
    for n, end in enumerate(phase.slices(), start=1):
        if end or n == phase.trace_slices:
            break
    return phase.timed_s - before


def traced(phase: Phase) -> dict:
    untraced_s = trace_sample(phase)
    phase.digested = True  # outputs and slow checks come from the untraced pass
    phase.rec = SpanRecorder()
    instrument(phase.rec)
    try:
        traced_s = trace_sample(phase)
    finally:
        phase.rec.restore()
    layers = phase.layers()
    layers["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
    layers["trace.spans"] = len(phase.rec.spans)
    return {"layers": layers, "info": {"untraced_round_s": untraced_s, "traced_round_s": traced_s}}


def serve(phase: Phase, proto) -> dict:
    """Run one slice per `slice` line on stdin until `stop`."""
    work = phase.slices()
    slices = 0
    proto.write("ready\n")
    proto.flush()
    for line in sys.stdin:
        command = line.strip()
        if command == "stop":
            break
        if command != "slice":
            raise SystemExit(f"unknown command {command!r}")
        t0 = now()
        try:
            next(work)
            slices += 1
            proto.write(f"ok {now() - t0!r}\n")
        except StopIteration:
            proto.write("done\n")
        proto.flush()
    out = {"slices": slices}
    try:
        out["metrics"] = phase.metrics()
        out["info"] = phase.info()
    except (ValueError, ZeroDivisionError):  # no operation of some kind succeeded
        out["info"] = {}
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("phase", choices=["setup", *PHASES])
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    # stdout carries the slice protocol; anything else printed goes to stderr.
    proto, sys.stdout = sys.stdout, sys.stderr
    if args.phase == "setup":
        result = run_setup(args)
    else:
        phase = PHASES[args.phase](args)
        prep = []
        for _ in range(SETUP_REPEATS):
            t0 = now()
            phase.prepare()
            prep.append(now() - t0)
        phase.warm_up()
        result = traced(phase) if args.trace else serve(phase, proto)
        if args.trace:
            phase.rec.write(args.work / f"spans_{args.phase}.jsonl")
        result.update({
            "prep_s": statistics.median(prep),
            "attempted": phase.attempted,
            "failed": phase.failed,
            "problems": phase.problems,
            "digest": phase.digest.hexdigest(),
        })
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.out.write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
