"""One binary, subcommand per pipeline stage.

Every command writes its outputs under --run-dir and records them in
manifest.json with content hashes; nothing emits timestamps, so rerunning
a command with the same inputs and seed reproduces every byte. Exit codes:
0 success, 2 bad config, usage or malformed input (the error line names the
failing key, or the file and line), 3 missing input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, load_config
from .curation import (
    ClientError,
    Lane,
    LiveChatClient,
    MockChatClient,
    PromptCache,
    ReportRecord,
    read_replay,
    run_curation,
    save_candidates,
    split_assign,
)
from .encoders import PatchEncoder, load_embeddings, save_embeddings
from .evaluation import (
    caption_eval,
    load_records,
    random_baseline,
    majority_vote_baseline,
    thumbnail_baseline,
    vqa_eval,
    write_record_csv,
    write_summary_csv,
)
from .interpret import load_trace, render_overlay, saliency, saliency_csv, save_trace
from .jsonio import read_json, read_jsonl, write_json, write_jsonl
from .lm import Vocab, text_positions
from .model import ModelConfig, SlideInputs, SlideVLM
from .numerics import CheckpointError, UsageError, load_checkpoint, save_checkpoint
from .slide_io import (
    PatchGrid,
    Raster,
    Region,
    SlideSpec,
    read_raster,
    synth_slide,
    thumbnail,
    tile_slide,
    write_raster,
)
from .training import TrainSample, run_stage

# -- shared helpers -----------------------------------------------------------------


class RunDir:
    """A command's output directory; every file handed out lands in manifest.json."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._names: set[str] = set()

    def path(self, name: str) -> Path:
        self._names.add(name)
        return self.root / name

    def text(self, name: str, s: str) -> None:
        self.path(name).write_text(s, encoding="utf-8")

    def json(self, name: str, obj) -> None:
        write_json(self.path(name), obj)

    def write_manifest(self) -> None:
        """Merge this command's outputs (name -> sha256) into manifest.json."""
        manifest_path = self.root / "manifest.json"
        manifest = read_json(manifest_path) if manifest_path.exists() else {}
        outputs = manifest.setdefault("outputs", {})
        for name in self._names:
            outputs[name] = hashlib.sha256((self.root / name).read_bytes()).hexdigest()
        write_json(manifest_path, manifest)


def _slide_inputs(emb_path, grid_path, model: ModelConfig) -> SlideInputs:
    """Embeddings plus the grid's tissue coordinates when a grid is given.

    The embeddings must be `model.patch_dim` wide and the grid must have a
    tissue tile per embedding row. When the model reads the coordinates,
    each must lie inside its positional grid.
    """
    emb = load_embeddings(emb_path)
    if emb.n_patches == 0:
        raise UsageError(f"{emb_path}: no embedding rows (the slide has no tissue tile)")
    if emb.dim != model.patch_dim:
        raise UsageError(f"{emb_path}: embedding width {emb.dim} != model.patch_dim {model.patch_dim}")
    coords = None
    if grid_path is not None:
        coords = [(e.row, e.col) for e in PatchGrid.load(grid_path).tissue_entries()]
        if model.needs_coords:
            try:
                model.encoder.check_coords(coords)
            except UsageError as exc:
                raise UsageError(f"{grid_path}: {exc}") from exc
    try:
        return SlideInputs(emb, coords)
    except UsageError as exc:
        raise UsageError(f"{grid_path} does not match {emb_path}: {exc}") from exc


def _chat_client(cfg: RunConfig, replay: str | None, live: bool, who: str):
    """The replay client if a file is given, else the configured endpoint if `live`."""
    if replay is not None:
        return MockChatClient.from_replay(replay)
    if not live:
        return None
    if not cfg.chat.base_url:
        raise UsageError(f"{who} needs clients.chat.base_url in the config")
    return LiveChatClient(cfg.chat)


def _replay_model(path):
    """Patch -> reply table keyed by sha256(pixels)[:16], 'default' fallback."""
    table = read_replay(path)

    def model(patch: Raster) -> str:
        key = hashlib.sha256(patch.pixels.tobytes()).hexdigest()[:16]
        if key in table:
            return table[key]
        if "default" in table:
            return table["default"]
        raise UsageError(f"{path}: no entry for patch {key} and no default")

    return model


def _print_accuracy(report) -> int:
    acc = report.overall_accuracy
    print(f"overall={'n/a' if acc is None else f'{acc:.4f}'} n={report.total}")
    return 0


def _load_weights(model: SlideVLM, path) -> None:
    """Load the checkpoint at `path` into `model`; a mismatch names the file."""
    tensors, _ = load_checkpoint(path)
    try:
        model.load_tensors(tensors)
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from exc


# -- commands -----------------------------------------------------------------------


def _cmd_synth(args, cfg: RunConfig, run: RunDir, seed: int) -> int:
    for flag, value in (("--width", args.width), ("--height", args.height),
                        ("--patch-size", args.patch_size)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    regions = []
    for text in args.region or []:
        parts = text.split(":")
        try:  # a wrong field count, a non-integer or a negative field
            label, x, y, w, h = parts[0], *map(int, parts[1:])
            regions.append(Region(label, x, y, w, h))
        except ValueError as exc:
            raise UsageError(
                f"--region wants label:x:y:w:h with integers x, y, w, h >= 0, got {text!r}"
            ) from exc
    spec = SlideSpec(args.width, args.height, args.patch_size, regions)
    raster, labels = synth_slide(seed, spec)
    write_raster(run.path("slide.ppm"), raster)
    run.json("labels.json", {f"{r},{c}": lab for (r, c), lab in labels.items()})
    print(f"slide {raster.width}x{raster.height} regions={len(regions)}")
    return 0


def _cmd_tile(args, cfg: RunConfig, run: RunDir, seed: int) -> int:
    raster = read_raster(args.slide)
    grid = tile_slide(raster, patch_size=cfg.model.patch_size)
    grid.save(run.path("grid.txt"))
    print(f"tiles={len(grid.entries)} tissue={len(grid.tissue_entries())}")
    return 0


def _cmd_encode(args, cfg: RunConfig, run: RunDir, seed: int) -> int:
    raster = read_raster(args.slide)
    grid = PatchGrid.load(args.grid)
    if not grid.tissue_entries():
        raise UsageError(f"{args.slide}: {args.grid} has no tissue tile to encode")
    encoder = PatchEncoder(dim=cfg.model.patch_dim, patch_size=cfg.model.patch_size, seed=seed)
    emb = encoder.encode_grid(raster, grid)
    save_embeddings(run.path("embeddings.bin"), emb)
    print(f"embeddings n={emb.n_patches} dim={emb.dim}")
    return 0


def _cmd_train(args, cfg: RunConfig, run: RunDir, seed: int) -> int:
    limit = cfg.model.lm.max_positions

    def sample(**row) -> TrainSample:
        s = TrainSample(**row)
        if (span := text_positions(s.prompt, s.target)) > limit:
            raise UsageError(f"prompt and target take {span} positions, over max_positions {limit}")
        return s

    samples = read_jsonl(
        args.samples, dict.fromkeys(("slide_id", "kind", "prompt", "target"), str), sample
    )
    slides_dir = Path(args.slides_dir)
    slides = {}
    for slide_id in dict.fromkeys(s.slide_id for s in samples):
        grid = slides_dir / f"{slide_id}.grid"
        slides[slide_id] = _slide_inputs(
            slides_dir / f"{slide_id}.emb",
            grid if grid.exists() or cfg.model.needs_coords else None,
            cfg.model,
        )

    vocab_path = run.path("vocab.txt")
    fresh = not vocab_path.exists()
    if fresh:
        vocab = Vocab.build([s.prompt for s in samples] + [s.target for s in samples])
    else:
        vocab = Vocab.load(vocab_path)

    model = SlideVLM(cfg.model, vocab, seed=seed)
    if args.init is not None:
        _load_weights(model, args.init)
    if fresh:  # only once the checkpoint fits this vocabulary
        vocab.save(vocab_path)
    save_checkpoint(
        run.path("init.ckpt"),
        model.tensors(),
        {"kind": "init", "stage": args.stage, "seed": seed},
    )

    overrides = {k: v for k, v in (("lr", args.lr), ("epochs", args.epochs)) if v is not None}
    stage_cfg = dataclasses.replace(cfg.stages[args.stage], seed=seed, **overrides)
    result = run_stage(stage_cfg, samples, model, slides, out_dir=run.root)
    # run_stage writes these itself; record them for the manifest.
    for written in [*result.checkpoints, result.best_checkpoint, "loss.csv"]:
        if written is not None:
            run.path(Path(written).name)
    print(f"stage={args.stage} steps={len(result.losses)} best_epoch_loss={result.best_epoch_loss:.6f}")
    return 0


def _cmd_infer(args, cfg: RunConfig, run: RunDir, seed: int) -> int:
    slide = _slide_inputs(args.emb, args.grid, cfg.model)
    if slide.coords is None and cfg.model.needs_coords:
        raise UsageError("infer needs --grid: the grid positional encoding reads patch coordinates")
    vocab = Vocab.load(args.vocab)
    model = SlideVLM(cfg.model, vocab, seed=seed)
    _load_weights(model, args.checkpoint)
    text, trace = model.generate(slide, args.prompt, max_len=args.max_len)
    run.text("answer.txt", text + "\n")
    if trace is not None:
        save_trace(run.path("trace.ckpt"), trace)
    print(text)
    return 0


def _cmd_caption_eval(args, cfg: RunConfig, run: RunDir, seed: int) -> int:
    rows = read_jsonl(args.pairs, {"candidate": str, "reference": str})
    pairs = [(r["candidate"], r["reference"]) for r in rows]
    client = _chat_client(cfg, args.judge_replay, args.judge, "--judge")
    if client is None:
        report = caption_eval(pairs)
    else:
        with Lane(client, cfg.jobs) as judge:
            report = caption_eval(pairs, judge=judge)
    run.json("caption_report.json", {
        "n": report.n,
        "bleu": {str(k): v for k, v in report.bleu.items()},
        "rouge_l": report.rouge_l,
        "judge_mean": report.judge_mean,
        "judge_missing": report.judge_missing,
        "judge_prompt_sha256": report.judge_prompt_sha256,
    })
    print(f"bleu1={report.bleu[1]:.4f} rouge_l={report.rouge_l:.4f}")
    return 0


def _cmd_vqa_eval(args, cfg: RunConfig, run: RunDir, seed: int) -> int:
    records = load_records(args.records)
    predictions = read_json(args.predictions)
    bad = sorted(k for k, v in predictions.items() if v is not None and not isinstance(v, str))
    if bad:
        raise UsageError(f"{args.predictions}: predictions for {bad[:3]} are not strings")
    report = vqa_eval(records, predictions)
    write_record_csv(run.path("vqa_records.csv"), records, predictions)
    write_summary_csv(run.path("vqa_summary.csv"), report)
    return _print_accuracy(report)


def _cmd_baseline(args, cfg: RunConfig, run: RunDir, seed: int) -> int:
    need = {"random": ("records",), "majority": ("slide", "grid", "options", "replay"),
            "thumbnail": ("slide", "options", "replay")}[args.kind]
    for flag in need:
        if getattr(args, flag) is None:
            raise UsageError(f"baseline --kind {args.kind} needs --{flag}")
    if args.kind == "random":
        records = load_records(args.records)
        predictions = random_baseline(records, seed=seed)
        run.json("predictions.json", predictions)
        report = vqa_eval(records, predictions)
        write_summary_csv(run.path("vqa_summary.csv"), report)
        return _print_accuracy(report)
    options = args.options.split("|")
    model = _replay_model(args.replay)
    raster = read_raster(args.slide)
    if args.kind == "majority":
        grid = PatchGrid.load(args.grid)
        answer = majority_vote_baseline(
            raster, grid, model, options, k_patches=args.k, seed=seed
        )
    else:
        answer = thumbnail_baseline(raster, model, options)
    run.text("answer.txt", ("" if answer is None else answer) + "\n")
    print("none" if answer is None else answer)
    return 0


def _cmd_interpret(args, cfg: RunConfig, run: RunDir, seed: int) -> int:
    trace = load_trace(args.trace)
    if trace.values.shape[0] == 0:
        raise UsageError(f"{args.trace}: empty trace: no generated tokens (the answer was empty)")
    sal = saliency(trace, k=args.k, renormalize=not args.no_renormalize)
    raster = read_raster(args.slide)
    grid = PatchGrid.load(args.grid)
    if (grid.width, grid.height) != (raster.width, raster.height):
        raise UsageError(
            f"{args.grid} was cut from a {grid.width}x{grid.height} raster, "
            f"not from {args.slide}, which is {raster.width}x{raster.height}"
        )
    try:
        overlay = render_overlay(thumbnail(raster, target=1024), grid, sal)
    except UsageError as exc:
        raise UsageError(f"{args.grid} does not match {args.trace}: {exc}") from exc
    write_raster(run.path("overlay.ppm"), overlay)
    run.text("saliency.csv", saliency_csv(sal, grid))
    print(" ".join(str(i) for i, _ in sal.entries))
    return 0


def _cmd_curate(args, cfg: RunConfig, run: RunDir, seed: int) -> int:
    reports = read_jsonl(
        args.reports, {"patient_id": str, "report_text": str, "slide_ids": list[str]}, ReportRecord
    )
    split = split_assign(reports, seed=seed)
    client = _chat_client(cfg, args.replay, True, "curate without --replay")
    filter_clients = None
    if args.filter_replay:
        if len(args.filter_replay) != 4:
            raise UsageError("--filter-replay must be given exactly 4 times")
        filter_clients = [
            MockChatClient.from_replay(p, model=f"filter{i}")
            for i, p in enumerate(args.filter_replay)
        ]
    cache = PromptCache(args.cache_dir if args.cache_dir else run.root / "cache")
    result = run_curation(reports, client, cache, filter_clients=filter_clients, jobs=cfg.jobs)
    write_jsonl(run.path("cleaned.jsonl"), ({"patient_id": k, "cleaned": v} for k, v in sorted(result.cleaned.items())))
    write_jsonl(run.path("captions.jsonl"), ({"patient_id": k, "caption": v} for k, v in sorted(result.captions.items())))
    save_candidates(run.path("candidates.jsonl"), result.candidates)
    save_candidates(run.path("kept.jsonl"), result.kept)
    write_jsonl(run.path("drops.jsonl"), (d.__dict__ for d in result.drops))
    write_jsonl(run.path("verdicts.jsonl"), (dict(v.__dict__, id=k) for k, v in sorted(result.verdicts.items())))
    run.json("flagged.json", result.flagged)
    run.json("split.json", {"train": sorted(split.train), "test": sorted(split.test)})
    print(
        f"reports={len(reports)} candidates={len(result.candidates)} "
        f"kept={len(result.kept)} flagged={len(result.flagged)}"
    )
    return 0


# -- argument parsing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slidevlm", description="Whole-slide vision-language pipeline."
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="JSON config file (defaults apply without it)")
    common.add_argument("--run-dir", default=".", help="directory for outputs and manifest.json")
    common.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    common.add_argument("--jobs", type=int, default=None, help="overrides the config worker cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="render a synthetic slide",
                       description="Writes slide.ppm and labels.json.")
    p.add_argument("--width", type=int, default=448)
    p.add_argument("--height", type=int, default=448)
    p.add_argument("--patch-size", type=int, default=224)
    p.add_argument("--region", action="append", help="label:x:y:w:h, repeatable")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("tile", parents=[common], help="tile a slide into a patch grid",
                       description="Reads a PPM/PGM slide; writes grid.txt.")
    p.add_argument("--slide", required=True)
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("encode", parents=[common], help="encode tissue patches",
                       description="Reads slide + grid; writes embeddings.bin.")
    p.add_argument("--slide", required=True)
    p.add_argument("--grid", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", parents=[common], help="run one training stage",
                       description="Reads samples.jsonl and a slides dir of <id>.emb/<id>.grid; "
                                   "writes vocab.txt, init.ckpt, per-epoch and best checkpoints, loss.csv.")
    p.add_argument("--stage", type=int, required=True, choices=(1, 2))
    p.add_argument("--samples", required=True)
    p.add_argument("--slides-dir", required=True)
    p.add_argument("--init", default=None, help="checkpoint to start from")
    p.add_argument("--lr", type=float, default=None, help="overrides the config stage lr")
    p.add_argument("--epochs", type=int, default=None, help="overrides the config stage epochs")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", parents=[common], help="greedy decoding for one slide",
                       description="Writes answer.txt and trace.ckpt.")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--emb", required=True)
    p.add_argument("--grid", default=None,
                   help="grid file supplying patch coordinates (grid positional encoding needs it)")
    p.add_argument("--prompt", required=True)
    p.add_argument("--max-len", type=int, default=48)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("caption-eval", parents=[common], help="caption metrics over pairs",
                       description="Reads pairs.jsonl (candidate/reference); writes caption_report.json.")
    p.add_argument("--pairs", required=True)
    p.add_argument("--judge", action="store_true", help="rate pairs with the configured chat client")
    p.add_argument("--judge-replay", default=None, help="replay file standing in for the judge")
    p.set_defaults(func=_cmd_caption_eval)

    p = sub.add_parser("vqa-eval", parents=[common], help="closed-set VQA accuracy",
                       description="Reads records.jsonl and predictions; writes vqa_records.csv, vqa_summary.csv.")
    p.add_argument("--records", required=True)
    p.add_argument("--predictions", required=True, help="JSON {record id: letter}")
    p.set_defaults(func=_cmd_vqa_eval)

    p = sub.add_parser("baseline", parents=[common], help="slide-level answer baselines",
                       description="random: predictions.json + vqa_summary.csv over records; "
                                   "majority/thumbnail: answer.txt via a replay model.")
    p.add_argument("--kind", choices=("random", "majority", "thumbnail"), required=True)
    p.add_argument("--records", default=None, help="records.jsonl (random)")
    p.add_argument("--slide", default=None, help="slide PPM (majority, thumbnail)")
    p.add_argument("--grid", default=None, help="grid file (majority)")
    p.add_argument("--options", default=None, help="option texts joined with | (majority, thumbnail)")
    p.add_argument("--replay", default=None, help="patch-keyed reply table (majority, thumbnail)")
    p.add_argument("--k", type=int, default=30, help="patches to sample (majority)")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("interpret", parents=[common], help="saliency overlay from a trace",
                       description="Reads trace.ckpt, slide, grid; writes overlay.ppm and saliency.csv.")
    p.add_argument("--trace", required=True)
    p.add_argument("--slide", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--no-renormalize", action="store_true",
                   help="rank raw attention mass instead of row-renormalized")
    p.set_defaults(func=_cmd_interpret)

    p = sub.add_parser("curate", parents=[common], help="report -> caption/QA pipeline",
                       description="Reads reports.jsonl; writes cleaned/captions/candidates/kept/drops/"
                                   "flagged/split files. Chat traffic is cached under --cache-dir.")
    p.add_argument("--reports", required=True)
    p.add_argument("--replay", default=None, help="replay file standing in for the chat model")
    p.add_argument("--filter-replay", action="append", default=[],
                   help="replay file for one filter model; give exactly 4")
    p.add_argument("--cache-dir", default=None, help="prompt cache (default <run-dir>/cache)")
    p.set_defaults(func=_cmd_curate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.jobs is not None:
            cfg.jobs = args.jobs
        run = RunDir(args.run_dir)
        code = args.func(args, cfg, run, cfg.seed)
        run.write_manifest()
        return code
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        missing = exc.filename if exc.filename else str(exc)
        print(f"error: missing-input: {missing}", file=sys.stderr)
        return 3
    except (UsageError, CheckpointError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except ClientError as exc:
        print(f"error: client: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
