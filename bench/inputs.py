"""Seeded benchmark inputs, generated in set-up and written to the work directory.

Every input is a pure function of (workload, seed). Sizes are fixed so that
each seed does the same amount of work; only the content changes.

Slides for the train and answer phases are assembled from a tile bank: one
synthetic canvas, tiled and featurized once, from which each slide draws
its own tiles and grid positions without replacement. That keeps set-up
short while giving every slide distinct patch features and layout.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from slidevlm import encoders, slide_io

# Phase sizes. Changing any of them changes the config hash in every result.
CONFIG = {
    "ingest": {"side": 1792, "patch_size": 224, "tissue_tiles": 48},
    "bank": {"rows": 64, "cols": 32, "patch_size": 16, "labels": 4},
    "train": {"slides": [[256, 16, 24], [512, 24, 32], [1024, 32, 48]]},
    "answer": {
        "n": 512, "rows": 24, "cols": 32, "questions_per_round": 24,
        "question_len": 4, "caption_len": 24, "max_rounds": 3, "thumb": 256,
    },
    "curate": {"reports": 12, "jobs": 2, "latency_ms": 4.0, "warm_slices": 4, "warm_passes": 10},
    "patch_dim": 32,
}

# How many distinct slides one answer round uses: a single slide takes every
# request of the round ("shared"), or each request has its own ("distinct").
SLIDES_PER_ROUND = {"shared": 1, "distinct": CONFIG["answer"]["questions_per_round"] + 1}

CAPTION_PROMPT = "describe the tissue shown in this whole slide image"
QUESTIONS = [
    "which tissue type dominates this slide ?",
    "which growth pattern is present in this slide ?",
    "which finding best describes the lesion ?",
    "what is the most likely diagnosis for this slide ?",
]
OPTION_WORDS = [
    "tumor", "stroma", "necrosis", "fat", "lymphocytes", "mucin", "gland",
    "carcinoma", "adenoma", "fibrosis", "normal", "hemorrhage",
]
CAPTION_WORDS = [
    "the", "tissue", "shows", "invasive", "ductal", "carcinoma", "with", "dense",
    "stroma", "and", "focal", "necrosis", "glands", "are", "irregular", "nuclei",
    "pleomorphic", "margins", "clear", "grade", "two", "lymphocytic", "infiltrate",
]
REPORT_WORDS = CAPTION_WORDS + [
    "biopsy", "left", "breast", "mass", "tumour", "size", "lymph", "node",
    "negative", "positive", "receptor", "estrogen", "her2", "ki67", "high", "low",
]
BOILERPLATE = ["#fixed-in-formalin", "#cassette-a1", "#signed-out", "#page-1"]


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode("utf-8"))])


def question(rng: np.random.Generator) -> dict:
    """One multi-choice item: prompt text, four options and the answer letter."""
    text = QUESTIONS[int(rng.integers(len(QUESTIONS)))]
    options = [str(w) for w in rng.choice(OPTION_WORDS, 4, replace=False)]
    answer = "ABCD"[int(rng.integers(4))]
    listed = " ".join(f"{letter} {opt}" for letter, opt in zip("ABCD", options))
    return {"prompt": f"{text} {listed} answer with one letter", "options": options, "answer": answer}


def sentence(rng: np.random.Generator, words: list[str], length: int) -> str:
    return " ".join(str(w) for w in rng.choice(words, length))


def ingest_slide(seed: int) -> tuple[slide_io.Raster, dict]:
    cfg = CONFIG["ingest"]
    ps, side = cfg["patch_size"], cfg["side"]
    per_row = side // ps
    rng = rng_for(seed, "ingest")
    cells = sorted(int(c) for c in rng.choice(per_row * per_row, cfg["tissue_tiles"], replace=False))
    labels = [str(v) for v in rng.choice(["tumor", "stroma", "necrosis", "fat"], len(cells))]
    regions = [
        slide_io.Region(label, (c % per_row) * ps, (c // per_row) * ps, ps, ps)
        for c, label in zip(cells, labels)
    ]
    return slide_io.synth_slide(seed, slide_io.SlideSpec(side, side, ps, regions))


class TileBank:
    """A synthetic canvas cut into tiles, every tile featurized."""

    def __init__(self, seed: int):
        cfg = CONFIG["bank"]
        ps, rows, cols = cfg["patch_size"], cfg["rows"], cfg["cols"]
        rng = rng_for(seed, "bank")
        regions = [
            slide_io.Region(f"label{int(rng.integers(cfg['labels']))}", 0, r * ps, cols * ps, ps)
            for r in range(rows)
        ]
        raster, _ = slide_io.synth_slide(seed, slide_io.SlideSpec(cols * ps, rows * ps, ps, regions))
        grid = slide_io.tile_slide(raster, ps)
        if len(grid.tissue_entries()) != rows * cols:
            raise RuntimeError("tile bank: every bank tile must read as tissue")
        emb = encoders.PatchEncoder(CONFIG["patch_dim"], ps, seed=seed).encode_grid(raster, grid)
        self.ps = ps
        self.values = emb.values
        self.tiles = [raster.pixels[e.y : e.y + ps, e.x : e.x + ps] for e in grid.entries]

    def slide(self, rng: np.random.Generator, n: int, rows: int, cols: int, thumb: int = 0) -> dict:
        """Draw `n` tiles into `n` of the `rows` x `cols` grid cells."""
        cells = np.sort(rng.choice(rows * cols, n, replace=False))
        picks = rng.choice(len(self.tiles), n, replace=False)
        out = {
            "embeddings": self.values[picks],
            "coords": np.stack([cells // cols, cells % cols], axis=1),
            "shape": np.array([rows, cols, self.ps]),
        }
        if thumb:
            ps = self.ps
            pixels = np.full((rows * ps, cols * ps, 3), 250, dtype=np.uint8)
            for cell, pick in zip(cells, picks):
                r, c = divmod(int(cell), cols)
                pixels[r * ps : (r + 1) * ps, c * ps : (c + 1) * ps] = self.tiles[pick]
            out["thumb"] = slide_io.thumbnail(slide_io.Raster.from_pixels(pixels), thumb).pixels
        return out


def answer_plan(workload: str, seed: int) -> list[list[dict]]:
    """Per round, the requests in order; each names its slide file."""
    cfg = CONFIG["answer"]
    per_round = SLIDES_PER_ROUND[workload]
    rng = rng_for(seed, "answer-requests")
    rounds = []
    for r in range(cfg["max_rounds"]):
        requests = [{
            "kind": "caption",
            "slide": f"answer_r{r}_s0",
            "prompt": CAPTION_PROMPT,
            "reference": sentence(rng, CAPTION_WORDS, 12),
        }]
        for q in range(cfg["questions_per_round"]):
            slide = f"answer_r{r}_s{(q + 1) % per_round}"
            requests.append({"kind": "question", "slide": slide, **question(rng)})
        rounds.append(requests)
    return rounds


def train_samples(seed: int) -> dict:
    rng = rng_for(seed, "train-samples")
    stage1, stage2 = [], []
    for n, _, _ in CONFIG["train"]["slides"]:
        stage1.append([f"train_n{n}", "caption", CAPTION_PROMPT, sentence(rng, CAPTION_WORDS, 10)])
        q = question(rng)
        stage2.append([f"train_n{n}", "vqa", q["prompt"], q["answer"]])
    return {"1": stage1, "2": stage2}


def reports(seed: int) -> list[dict]:
    rng = rng_for(seed, "reports")
    out = []
    for i in range(CONFIG["curate"]["reports"]):
        words = [str(w) for w in rng.choice(REPORT_WORDS, 28)]
        for mark in rng.choice(BOILERPLATE, 3, replace=False):
            words.insert(int(rng.integers(len(words) + 1)), str(mark))
        slides = [f"s{i:03d}-{k}" for k in range(1 + int(rng.integers(2)))]
        out.append({"patient_id": f"p{i:03d}", "report_text": " ".join(words), "slide_ids": slides})
    return out


def corpus(plan: list[list[dict]], samples: dict) -> list[str]:
    """Every text the models see or are scored against, for the vocabulary."""
    texts = [" ".join(QUESTIONS), " ".join(OPTION_WORDS), " ".join(CAPTION_WORDS), "A B C D"]
    texts += ["answer with one letter", CAPTION_PROMPT]
    for requests in plan:
        texts += [req.get("reference", req["prompt"]) for req in requests]
    for stage in samples.values():
        texts += [row[3] for row in stage]
    return texts


def generate(work: Path, workload: str, seed: int) -> None:
    """Write every input of one run into `work`."""
    work.mkdir(parents=True, exist_ok=True)
    raster, labels = ingest_slide(seed)
    slide_io.write_raster(work / "ingest.ppm", raster)
    (work / "ingest_labels.json").write_text(
        json.dumps(sorted([r, c] for r, c in labels)), encoding="utf-8"
    )

    bank = TileBank(seed)
    rng = rng_for(seed, "train-slides")
    for n, rows, cols in CONFIG["train"]["slides"]:
        np.savez(work / f"train_n{n}.npz", **bank.slide(rng, n, rows, cols))

    acfg = CONFIG["answer"]
    plan = answer_plan(workload, seed)
    rng = rng_for(seed, "answer-slides")
    captioned = {req["slide"] for requests in plan for req in requests if req["kind"] == "caption"}
    for name in sorted({req["slide"] for requests in plan for req in requests}):
        thumb = acfg["thumb"] if name in captioned else 0
        np.savez(work / f"{name}.npz", **bank.slide(rng, acfg["n"], acfg["rows"], acfg["cols"], thumb))
    # The answer warm-up request gets a slide of its own, so no planned slide
    # is seen before its first request.
    np.savez(work / "answer_warmup.npz", **bank.slide(rng, acfg["n"], acfg["rows"], acfg["cols"]))

    samples = train_samples(seed)
    text = {
        "answer_plan": plan,
        "train_samples": samples,
        "corpus": corpus(plan, samples),
        "reports": reports(seed),
    }
    (work / "text.json").write_text(json.dumps(text, sort_keys=True), encoding="utf-8")
