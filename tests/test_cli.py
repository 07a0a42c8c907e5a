"""End-to-end command-line runs: pipeline stages, exit codes, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from slidevlm import cli
from slidevlm.cli import main
from slidevlm.curation import filter_prompt
from slidevlm.encoders import EmbeddingMatrix, load_embeddings, save_embeddings
from slidevlm import jsonio
from slidevlm.evaluation import JUDGE_PROMPT, NARROW_TO_BROAD, QARecord
from slidevlm.lm import EOS, SPECIALS, Vocab
from slidevlm.numerics import load_checkpoint, save_checkpoint
from slidevlm.prompts import caption_prompt, qa_prompt, report_clean_prompt
from slidevlm.slide_io import PatchGrid

CONFIG = {
    "model": {
        "patch_dim": 8,
        "patch_size": 16,
        "encoder": {
            "heads": 2, "head_dim": 4, "layers": 1, "ffn_mult": 2,
            "branches": [[4, 1]], "positional": "grid", "grid_rows": 8, "grid_cols": 8,
        },
        "lm": {
            "heads": 2, "head_dim": 4, "layers": 1, "ffn_mult": 2,
            "max_positions": 64,
        },
    },
    "stages": {
        "1": {"lr": 0.001, "epochs": 2, "accum_steps": 1, "weight_decay": 0.01},
        # Stage 2 runs long enough to memorize the two samples so that the
        # infer step generates real tokens for the trace.
        "2": {"lr": 0.001, "epochs": 120, "accum_steps": 1, "weight_decay": 0.0},
    },
    "seed": 7,
}

SAMPLES = [
    {"slide_id": "s1", "kind": "caption", "prompt": "describe the tissue", "target": "tumor tissue present"},
    {"slide_id": "s1", "kind": "vqa", "prompt": "is tumor present", "target": "yes"},
]


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest(run_dir):
    return json.loads((run_dir / "manifest.json").read_text())["outputs"]


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def write_replay(path, table):
    return write_replay_hashed(path, {hashlib.sha256(k.encode()).hexdigest(): v for k, v in table.items()})


def write_replay_hashed(path, hashed):
    path.write_text(json.dumps(hashed))
    return str(path)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """synth -> tile -> encode -> train x2 -> infer, all through main()."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    base = ["--config", str(cfg)]

    data = root / "data"
    assert main(["synth", *base, "--run-dir", str(data), "--width", "64",
                 "--height", "64", "--patch-size", "16",
                 "--region", "tumor:0:0:32:32"]) == 0
    slide = data / "slide.ppm"
    assert main(["tile", *base, "--run-dir", str(data), "--slide", str(slide)]) == 0
    assert main(["encode", *base, "--run-dir", str(data), "--slide", str(slide),
                 "--grid", str(data / "grid.txt")]) == 0

    slides_dir = root / "slides"
    slides_dir.mkdir()
    (slides_dir / "s1.emb").write_bytes((data / "embeddings.bin").read_bytes())
    (slides_dir / "s1.grid").write_bytes((data / "grid.txt").read_bytes())
    samples = root / "samples.jsonl"
    write_jsonl(samples, SAMPLES)

    train1 = root / "train1"
    assert main(["train", *base, "--run-dir", str(train1), "--stage", "1",
                 "--samples", str(samples), "--slides-dir", str(slides_dir)]) == 0
    train2 = root / "train2"
    assert main(["train", *base, "--run-dir", str(train2), "--stage", "2",
                 "--samples", str(samples), "--slides-dir", str(slides_dir),
                 "--init", str(train1 / "stage1_best.ckpt")]) == 0

    infer = root / "infer"
    assert main(["infer", *base, "--run-dir", str(infer),
                 "--checkpoint", str(train2 / "stage2_best.ckpt"),
                 "--vocab", str(train2 / "vocab.txt"),
                 "--emb", str(slides_dir / "s1.emb"),
                 "--grid", str(slides_dir / "s1.grid"),
                 "--prompt", "describe the tissue", "--max-len", "4"]) == 0
    return {"root": root, "base": base, "data": data, "slides": slides_dir,
            "train1": train1, "train2": train2, "infer": infer}


def test_pipeline_artifacts(world):
    data = world["data"]
    for name in ("slide.ppm", "labels.json", "grid.txt", "embeddings.bin"):
        assert (data / name).exists()
    labels = json.loads((data / "labels.json").read_text())
    assert labels == {"0,0": "tumor", "0,1": "tumor", "1,0": "tumor", "1,1": "tumor"}

    train1 = world["train1"]
    for name in ("vocab.txt", "init.ckpt", "loss.csv",
                 "stage1_epoch0.ckpt", "stage1_epoch1.ckpt", "stage1_best.ckpt"):
        assert (train1 / name).exists()
    loss_lines = (train1 / "loss.csv").read_text().splitlines()
    assert loss_lines[0] == "step,stage,loss"
    assert len(loss_lines) == 1 + 2 * len(SAMPLES)
    assert (world["train2"] / "stage2_best.ckpt").exists()

    infer = world["infer"]
    assert (infer / "answer.txt").exists()
    assert (infer / "trace.ckpt").exists()


def test_manifest_hashes_are_real(world):
    data = world["data"]
    recorded = manifest(data)
    assert set(recorded) == {"slide.ppm", "labels.json", "grid.txt", "embeddings.bin"}
    for name, digest in recorded.items():
        assert digest == sha(data / name)


def test_interpret_runs_on_infer_trace(world, capsys):
    run = world["root"] / "interpret"
    assert main(["interpret", *world["base"], "--run-dir", str(run),
                 "--trace", str(world["infer"] / "trace.ckpt"),
                 "--slide", str(world["data"] / "slide.ppm"),
                 "--grid", str(world["data"] / "grid.txt"), "--k", "3"]) == 0
    assert (run / "overlay.ppm").exists()
    lines = (run / "saliency.csv").read_text().splitlines()
    assert lines[0] == "rank,patch_index,row,col,score"
    assert len(lines) == 4
    ranks = capsys.readouterr().out.split()
    assert len(ranks) == 3


def test_interpret_reads_positions_from_the_grid_after_an_infer_without_one(world, tmp_path):
    # With positional "none" infer needs no grid; interpret then takes every
    # patch position from the grid it is given.
    none = tmp_path / "none.json"
    none.write_text(json.dumps(dict(CONFIG, model=dict(
        CONFIG["model"], encoder=dict(CONFIG["model"]["encoder"], positional="none")))))
    tensors, meta = load_checkpoint(world["train2"] / "stage2_best.ckpt")
    for name in ("slide_encoder.pos_row", "slide_encoder.pos_col"):
        del tensors[name]
    ckpt = tmp_path / "none.ckpt"
    save_checkpoint(ckpt, tensors, meta)
    base = ["--config", str(none)]
    assert main(["infer", *base, "--run-dir", str(tmp_path / "infer"), "--checkpoint", str(ckpt),
                 "--vocab", str(world["train2"] / "vocab.txt"), "--emb", str(world["slides"] / "s1.emb"),
                 "--prompt", "describe the tissue", "--max-len", "4"]) == 0
    run, grid = tmp_path / "interpret", world["data"] / "grid.txt"
    assert main(["interpret", *base, "--run-dir", str(run), "--trace", str(tmp_path / "infer" / "trace.ckpt"),
                 "--slide", str(world["data"] / "slide.ppm"), "--grid", str(grid), "--k", "4"]) == 0
    assert (run / "overlay.ppm").exists()
    tiles = PatchGrid.load(grid).tissue_entries()
    rows = [line.split(",") for line in (run / "saliency.csv").read_text().splitlines()[1:]]
    assert len(rows) == len(tiles) == 4
    for _rank, idx, row, col, _score in rows:
        assert (int(row), int(col)) == (tiles[int(idx)].row, tiles[int(idx)].col)


def test_interpret_names_the_trace_and_a_grid_of_another_tile_count(world, tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("16 64 64\n0 0 0 0 1\n0 1 16 0 0\n")
    trace, run = world["infer"] / "trace.ckpt", tmp_path / "run"
    assert main(["interpret", *world["base"], "--run-dir", str(run), "--trace", str(trace),
                 "--slide", str(world["data"] / "slide.ppm"), "--grid", str(grid), "--k", "4"]) == 2
    want = f"error: usage: {grid} does not match {trace}: tissue tile count 1 != trace patch count 4\n"
    assert capsys.readouterr().err == want
    assert list(run.iterdir()) == []


def test_interpret_names_a_grid_cut_from_another_raster(world, tmp_path, capsys):
    # Four tissue tiles, as many as the trace has patches, but of a 128x64 slide.
    grid = tmp_path / "grid.txt"
    grid.write_text("16 128 64\n0 0 0 0 1\n0 1 16 0 1\n1 0 0 16 1\n1 1 16 16 1\n")
    slide, run = world["data"] / "slide.ppm", tmp_path / "run"
    assert main(["interpret", *world["base"], "--run-dir", str(run),
                 "--trace", str(world["infer"] / "trace.ckpt"),
                 "--slide", str(slide), "--grid", str(grid), "--k", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and str(grid) in err and str(slide) in err
    assert "128x64" in err and "64x64" in err
    assert list(run.iterdir()) == []


def test_interpret_names_an_empty_trace(world, capsys):
    # A head bias that makes EOS the first greedy token: infer writes an
    # empty answer and a zero-token trace, which interpret rejects by name.
    tensors, meta = load_checkpoint(world["train2"] / "stage2_best.ckpt")
    tensors["lm.head.bias"][EOS] = 1e6
    ckpt = world["root"] / "eos_first.ckpt"
    save_checkpoint(ckpt, tensors, meta)
    infer = world["root"] / "infer_eos"
    assert main(["infer", *world["base"], "--run-dir", str(infer),
                 "--checkpoint", str(ckpt), "--vocab", str(world["train2"] / "vocab.txt"),
                 "--emb", str(world["slides"] / "s1.emb"),
                 "--grid", str(world["slides"] / "s1.grid"),
                 "--prompt", "describe the tissue", "--max-len", "4"]) == 0
    assert (infer / "answer.txt").read_text() == "\n"
    trace = infer / "trace.ckpt"
    capsys.readouterr()
    assert main(["interpret", *world["base"], "--run-dir", str(world["root"] / "interpret_eos"),
                 "--trace", str(trace), "--slide", str(world["data"] / "slide.ppm"),
                 "--grid", str(world["data"] / "grid.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and str(trace) in err and "no generated tokens" in err


def test_rerun_is_byte_identical(world):
    # No timestamps anywhere: the same command into the same dir reproduces
    # every byte, manifest included.
    data = world["root"] / "rerun"
    args = ["synth", *world["base"], "--run-dir", str(data), "--width", "64",
            "--height", "64", "--patch-size", "16", "--region", "tumor:0:0:32:32"]
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    assert main(args) == 0
    after = {p.name: p.read_bytes() for p in data.iterdir()}
    assert before == after
    assert before["slide.ppm"] == (world["data"] / "slide.ppm").read_bytes()
    # train writes files of its own (checkpoints, loss.csv) besides the manifest.
    train = world["root"] / "rerun_train"
    args = _train_argv(world, train, world["root"] / "samples.jsonl", world["slides"])
    assert main([*args, "--epochs", "1"]) == 0
    before = {p.name: p.read_bytes() for p in train.iterdir()}
    assert main([*args, "--epochs", "1"]) == 0
    after = {p.name: p.read_bytes() for p in train.iterdir()}
    assert before == after
    assert len(after["loss.csv"].splitlines()) == 1 + len(SAMPLES)


def records_file(path, n=24):
    narrows = list(NARROW_TO_BROAD)
    records = [
        QARecord(
            id=f"r{i}", slide_id="s1", question="Which option fits?",
            options=["alpha", "beta", "gamma", "delta"], answer="ABCD"[i % 4],
            qtype="multi-choice", broad=NARROW_TO_BROAD[narrows[i % 13]],
            narrow=narrows[i % 13],
        )
        for i in range(n)
    ]
    jsonio.write_jsonl(path, (rec.__dict__ for rec in records))
    return path


def test_vqa_eval_random_predictor_is_deterministic(world, capsys):
    # The random predictor is `baseline --kind random`; its predictions.json
    # feeds `vqa-eval --predictions`.
    records = records_file(world["root"] / "records.jsonl")
    out = {}
    for name in ("vqa_a", "vqa_b"):
        run = world["root"] / name
        assert main(["baseline", *world["base"], "--run-dir", str(run),
                     "--kind", "random", "--records", str(records)]) == 0
        assert main(["vqa-eval", *world["base"], "--run-dir", str(run),
                     "--records", str(records),
                     "--predictions", str(run / "predictions.json")]) == 0
        out[name] = (
            (run / "vqa_records.csv").read_bytes(),
            (run / "vqa_summary.csv").read_bytes(),
        )
        assert set(manifest(run)) == {"predictions.json", "vqa_records.csv", "vqa_summary.csv"}
    assert out["vqa_a"] == out["vqa_b"]
    assert "overall=" in capsys.readouterr().out


def test_vqa_eval_reads_prediction_file(world, capsys):
    records = records_file(world["root"] / "records2.jsonl", n=4)
    predictions = world["root"] / "predictions.json"
    predictions.write_text(json.dumps({f"r{i}": "ABCD"[i % 4] for i in range(4)}))
    run = world["root"] / "vqa_файл"
    assert main(["vqa-eval", *world["base"], "--run-dir", str(run),
                 "--records", str(records), "--predictions", str(predictions)]) == 0
    assert "overall=1.0000 n=4" in capsys.readouterr().out


def test_vqa_eval_wants_exactly_one_source(world, capsys):
    records = records_file(world["root"] / "records3.jsonl", n=4)
    with pytest.raises(SystemExit) as exc:
        main(["vqa-eval", *world["base"], "--run-dir", str(world["root"] / "x"),
              "--records", str(records)])
    assert exc.value.code == 2
    assert "--predictions" in capsys.readouterr().err


def test_caption_eval_with_replay_judge(world):
    pairs = world["root"] / "pairs.jsonl"
    write_jsonl(pairs, [
        {"candidate": "tumor tissue present", "reference": "tumor tissue present"},
        {"candidate": "benign", "reference": "malignant tumor"},
    ])
    replay = write_replay(world["root"] / "judge.json", {
        JUDGE_PROMPT.format(reference="tumor tissue present", candidate="tumor tissue present"): "9",
        JUDGE_PROMPT.format(reference="malignant tumor", candidate="benign"): "Score: 3/10",
    })
    run = world["root"] / "capeval"
    assert main(["caption-eval", *world["base"], "--run-dir", str(run),
                 "--pairs", str(pairs), "--judge-replay", replay]) == 0
    report = json.loads((run / "caption_report.json").read_text())
    assert report["n"] == 2
    assert report["judge_mean"] == 6.0
    assert report["judge_missing"] == 0
    assert report["bleu"]["1"] == 0.5


def test_baseline_random(world):
    records = records_file(world["root"] / "records4.jsonl")
    runs = []
    for name in ("bl_a", "bl_b"):
        run = world["root"] / name
        assert main(["baseline", *world["base"], "--run-dir", str(run),
                     "--kind", "random", "--records", str(records)]) == 0
        runs.append((run / "predictions.json").read_bytes())
        assert (run / "vqa_summary.csv").exists()
    assert runs[0] == runs[1]


def test_baseline_majority_and_thumbnail(world, capsys):
    replay = world["root"] / "patch_replay.json"
    replay.write_text(json.dumps({"default": "B"}))
    run = world["root"] / "bl_maj"
    assert main(["baseline", *world["base"], "--run-dir", str(run),
                 "--kind", "majority", "--slide", str(world["data"] / "slide.ppm"),
                 "--grid", str(world["data"] / "grid.txt"),
                 "--options", "alpha|beta|gamma", "--replay", str(replay),
                 "--k", "3"]) == 0
    assert (run / "answer.txt").read_text() == "B\n"
    run2 = world["root"] / "bl_thumb"
    assert main(["baseline", *world["base"], "--run-dir", str(run2),
                 "--kind", "thumbnail", "--slide", str(world["data"] / "slide.ppm"),
                 "--options", "alpha|beta|gamma", "--replay", str(replay)]) == 0
    out = capsys.readouterr().out
    assert out == "B\nB\n"


def test_negative_k_exits_two(world, capsys):
    replay = world["root"] / "patch_replay_k.json"
    replay.write_text(json.dumps({"default": "B"}))
    slide, grid = str(world["data"] / "slide.ppm"), str(world["data"] / "grid.txt")
    commands = [
        ["interpret", "--trace", str(world["infer"] / "trace.ckpt"), "--slide", slide, "--grid", grid],
        ["baseline", "--kind", "majority", "--slide", slide, "--grid", grid,
         "--options", "alpha|beta|gamma", "--replay", str(replay)],
    ]
    for command in commands:
        run = world["root"] / f"negative_k_{command[0]}"
        assert main([command[0], *world["base"], "--run-dir", str(run), *command[1:], "--k", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: usage:")
        assert not (run / "saliency.csv").exists()


def test_baseline_flag_requirements(world, capsys):
    assert main(["baseline", *world["base"], "--run-dir", str(world["root"] / "x"),
                 "--kind", "majority", "--slide", "s.ppm",
                 "--options", "a|b", "--replay", "r.json"]) == 2
    assert "needs --grid" in capsys.readouterr().err


# -- curate ------------------------------------------------------------------------


MC_ITEM = {
    "question type": "multi-choice questions",
    "question": "Which tumor type is present?",
    "options": ["Invasive ductal carcinoma", "Invasive lobular carcinoma",
                "Medullary carcinoma", "Tubular carcinoma"],
    "answer": "A",
    "broad category": "Diagnosis",
    "narrow category": "Disease Classification",
}

SA_ITEM = {
    "question type": "short-answer questions",
    "question": "Name the diagnosis.",
    "options": [],
    "answer": "Invasive ductal carcinoma",
    "broad category": "Diagnosis",
    "narrow category": "Disease Detection",
}


def curate_world(root):
    reports = root / "reports.jsonl"
    write_jsonl(reports, [{"patient_id": "p1", "report_text": "raw body text",
                           "slide_ids": ["s1"]}])
    qa_json = "\n".join(json.dumps(i) for i in (MC_ITEM, SA_ITEM))
    replay = write_replay(root / "chat_replay.json", {
        report_clean_prompt("raw body text"): "clean body",
        caption_prompt("clean body"): "a fine caption",
        qa_prompt("clean body", "Microscopy"): "nothing structured here",
        qa_prompt("clean body", "Diagnosis"): qa_json,
        qa_prompt("clean body", "Clinical"): "nothing here either",
    })
    parsed = QARecord(
        id="p1-diagnosis-000", slide_id="s1", question=MC_ITEM["question"],
        options=list(MC_ITEM["options"]), answer="A", qtype="multi-choice",
        broad="Diagnosis", narrow="Disease Classification",
    )
    prompt = filter_prompt(parsed)
    filters = [
        write_replay(root / f"filter{i}.json", {prompt: letter})
        for i, letter in enumerate(["A", "A", "B", "C"])
    ]
    return reports, replay, filters


def test_curate_replay_pipeline(world, capsys):
    root = world["root"]
    reports, replay, filters = curate_world(root)
    run = root / "curate"
    argv = ["curate", *world["base"], "--run-dir", str(run),
            "--reports", str(reports), "--replay", replay,
            "--cache-dir", str(root / "cache")]
    for f in filters:
        argv += ["--filter-replay", f]
    assert main(argv) == 0
    assert "candidates=2 kept=2 flagged=0" in capsys.readouterr().out

    cleaned = [json.loads(l) for l in (run / "cleaned.jsonl").read_text().splitlines()]
    assert cleaned == [{"patient_id": "p1", "cleaned": "clean body"}]
    captions = [json.loads(l) for l in (run / "captions.jsonl").read_text().splitlines()]
    assert captions == [{"patient_id": "p1", "caption": "a fine caption"}]
    kept = [json.loads(l) for l in (run / "kept.jsonl").read_text().splitlines()]
    # 2/4 text-only models were right, under the 3 cut: the item stays.
    assert [k["id"] for k in kept] == ["p1-diagnosis-000", "p1-diagnosis-001"]
    drops = (run / "drops.jsonl").read_text().splitlines()
    assert len(drops) == 2  # the two prose-only broads
    assert json.loads((run / "flagged.json").read_text()) == {}
    split = json.loads((run / "split.json").read_text())
    assert split == {"train": ["s1"], "test": []}
    verdicts = [json.loads(l) for l in (run / "verdicts.jsonl").read_text().splitlines()]
    assert verdicts == [{
        "id": "p1-diagnosis-000", "correct": [True, True, False, False],
        "failed": [False, False, False, False], "kept": True,
        "reason": "2/4 text-only models answered correctly",
    }]
    assert set(manifest(run)) == {
        "cleaned.jsonl", "captions.jsonl", "candidates.jsonl", "kept.jsonl",
        "drops.jsonl", "verdicts.jsonl", "flagged.json", "split.json",
    }


def test_curate_resumes_from_cache_alone(world):
    root = world["root"]
    reports, replay, filters = curate_world(root)
    first = root / "curate_first"
    argv = ["curate", *world["base"], "--run-dir", str(first),
            "--reports", str(reports), "--replay", replay,
            "--cache-dir", str(root / "cache2")]
    for f in filters:
        argv += ["--filter-replay", f]
    assert main(argv) == 0

    # Second pass: every replay file is empty, so any real chat call dies.
    # The cache alone must reproduce the outputs byte for byte.
    empty_chat = write_replay(root / "empty_chat.json", {})
    empties = [write_replay(root / f"empty{i}.json", {}) for i in range(4)]
    second = root / "curate_second"
    argv = ["curate", *world["base"], "--run-dir", str(second),
            "--reports", str(reports), "--replay", empty_chat,
            "--cache-dir", str(root / "cache2")]
    for f in empties:
        argv += ["--filter-replay", f]
    assert main(argv) == 0
    for name in ("cleaned.jsonl", "captions.jsonl", "candidates.jsonl",
                 "kept.jsonl", "drops.jsonl", "verdicts.jsonl", "flagged.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_curate_needs_four_filter_replays(world, capsys):
    root = world["root"]
    reports, replay, filters = curate_world(root)
    argv = ["curate", *world["base"], "--run-dir", str(root / "x"),
            "--reports", str(reports), "--replay", replay,
            "--filter-replay", filters[0], "--filter-replay", filters[1]]
    assert main(argv) == 2
    assert "exactly 4 times" in capsys.readouterr().err


def test_curate_rejects_a_shared_slide_before_asking(world, tmp_path, capsys):
    # Two reports linked to one slide: the split fails before any client,
    # cache or output is made, so no call is asked and nothing is written.
    reports = tmp_path / "reports.jsonl"
    write_jsonl(reports, [{"patient_id": p, "report_text": f"{p} body", "slide_ids": ["s1"]}
                          for p in ("p1", "p2")])
    run = tmp_path / "run"
    argv = _curate_argv(world, reports=reports, replay=write_replay(tmp_path / "empty.json", {}))
    assert main([argv[0], *world["base"], *argv[1:], "--run-dir", str(run)]) == 2
    assert "slide 's1' linked to reports 'p1' and 'p2'" in capsys.readouterr().err
    assert not (run / "cleaned.jsonl").exists()
    assert not (run / "cache").exists()


def test_curate_reports_a_failed_filter_model(world):
    root = world["root"]
    reports, replay, filters = curate_world(root)
    filters[2] = write_replay(root / "filter_empty.json", {})  # no entry for the question
    run = root / "curate_filter_failed"
    argv = ["curate", *world["base"], "--run-dir", str(run),
            "--reports", str(reports), "--replay", replay,
            "--cache-dir", str(root / "cache_filter_failed")]
    for f in filters:
        argv += ["--filter-replay", f]
    assert main(argv) == 0
    verdicts = [json.loads(l) for l in (run / "verdicts.jsonl").read_text().splitlines()]
    assert [v["id"] for v in verdicts] == ["p1-diagnosis-000"]
    assert verdicts[0]["failed"] == [False, False, True, False]
    assert verdicts[0]["correct"] == [True, True, False, False]


def test_curate_names_a_malformed_cache_line(world, tmp_path, capsys):
    entry = json.dumps({"model": "m", "prompt_hash": "k", "reply": "r"}) + "\n"
    # The last input is a log written when replies were keyed by template and input hashes.
    old = json.dumps({"input_hash": "i", "model": "m", "reply": "r", "template_hash": "t"}) + "\n"
    log = tmp_path / "cache" / "cache.jsonl"
    log.parent.mkdir()
    for lines, bad_line in ((entry + "{not json\n" + entry, 2), (old + entry, 1)):
        log.write_text(lines)
        argv = [*_curate_argv(world), *world["base"], "--run-dir", str(tmp_path / "run"),
                "--cache-dir", str(log.parent)]
        assert main(argv) == 2
        assert f"{log}:{bad_line}:" in capsys.readouterr().err
        assert not (tmp_path / "run" / "manifest.json").exists()


def test_one_models_cache_rows_form_its_replay_file(world, tmp_path):
    reports, replay, filters = curate_world(tmp_path)

    def curate(name, replay, filters):
        argv = ["curate", *world["base"], "--reports", str(reports), "--replay", replay,
                "--run-dir", str(tmp_path / name), "--cache-dir", str(tmp_path / name / "cache")]
        for f in filters:
            argv += ["--filter-replay", f]
        assert main(argv) == 0
        return tmp_path / name

    first = curate("first", replay, filters)
    rows = [json.loads(line) for line in (first / "cache" / "cache.jsonl").read_text().splitlines()]

    def replay_of(model):
        table = {r["prompt_hash"]: r["reply"] for r in rows if r["model"] == model}
        assert table
        return write_replay_hashed(tmp_path / f"{model}.json", table)

    # A fresh cache, so every call goes to the replay files cut from the
    # first cache; a miss would flag the report or fail a filter model.
    second = curate("second", replay_of("replay"), [replay_of(f"filter{i}") for i in range(4)])
    assert json.loads((second / "flagged.json").read_text()) == {}
    verdicts = (second / "verdicts.jsonl").read_text().splitlines()
    assert [json.loads(v)["failed"] for v in verdicts] == [[False] * 4]
    assert manifest(second) == manifest(first)


def test_curate_flags_reports_missing_from_replay(world, capsys):
    root = world["root"]
    reports = root / "reports_two.jsonl"
    write_jsonl(reports, [
        {"patient_id": "p1", "report_text": "raw body text", "slide_ids": ["s1"]},
        {"patient_id": "p2", "report_text": "unknown body", "slide_ids": ["s2"]},
    ])
    _, replay, _ = curate_world(root)
    run = root / "curate_flagged"
    assert main(["curate", *world["base"], "--run-dir", str(run),
                 "--reports", str(reports), "--replay", replay,
                 "--cache-dir", str(root / "cache3")]) == 0
    flagged = json.loads((run / "flagged.json").read_text())
    assert list(flagged) == ["p2"]
    assert "no replay entry" in flagged["p2"]


# -- exit codes --------------------------------------------------------------------


def test_missing_input_exits_three(world, capsys):
    assert main(["tile", *world["base"], "--run-dir", str(world["root"] / "x"),
                 "--slide", str(world["root"] / "absent.ppm")]) == 3
    assert capsys.readouterr().err.startswith("error: missing-input:")


def test_bad_config_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"epoches": 3}}))
    assert main(["synth", "--config", str(bad), "--run-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert "model.epoches" in err
    # Keys of decoder options since removed: the visual block is causal
    # and the head untied, whatever an old config says.
    for key in ("causal_visual", "tied_head"):
        bad.write_text(json.dumps({"model": {"lm": {key: False}}}))
        assert main(["synth", "--config", str(bad), "--run-dir", str(tmp_path)]) == 2
        assert f"model.lm.{key}: unknown key" in capsys.readouterr().err
    bad.write_text(json.dumps({"paths": {"outputs": "out"}}))
    assert main(["synth", "--config", str(bad), "--run-dir", str(tmp_path)]) == 2
    assert "paths" in capsys.readouterr().err
    bad.write_text(json.dumps({"clients": {"filter": []}}))
    assert main(["synth", "--config", str(bad), "--run-dir", str(tmp_path)]) == 2
    assert "clients.filter" in capsys.readouterr().err
    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad), "--run-dir", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# Values of the right type that no run can use: each once ended in a
# traceback when train built the model or curate made its first request,
# passed synth and failed later without naming its key, or was never
# checked at all.
BAD_VALUES = {
    "branch-not-a-pair": ("model.encoder", "branch", {"model": {"encoder": {"branches": [[16]]}}}),
    "negative-grid-rows": ("model.encoder", "grid_rows", {"model": {"encoder": {"grid_rows": -1}}}),
    "negative-max-positions": ("model.lm", "max_positions", {"model": {"lm": {"max_positions": -2}}}),
    "zero-ffn-mult": ("model.lm", "ffn_mult", {"model": {"lm": {"ffn_mult": 0}}}),
    "three-projector-layers": ("model", "projector_layers", {"model": {"projector_layers": 3}}),
    "zero-patch-dim": ("model", "patch_dim", {"model": {"patch_dim": 0}}),
    "zero-patch-size": ("model", "patch_size", {"model": {"patch_size": 0}}),
    "negative-max-retries": ("clients.chat", "max_retries", {"clients": {"chat": {"max_retries": -1}}}),
    "zero-timeout": ("clients.chat", "timeout", {"clients": {"chat": {"timeout": 0}}}),
    "negative-weight-decay": ("stages.1", "weight_decay", {"stages": {"1": {"weight_decay": -0.5}}}),
}


@pytest.mark.parametrize("command", ["synth", "tile", "train"])
@pytest.mark.parametrize("section,key,tree", BAD_VALUES.values(), ids=BAD_VALUES)
def test_bad_config_value_exits_two_naming_its_section(world, tmp_path, capsys, command, section, key, tree):
    # Every command builds the typed configs at load, so even synth rejects them.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tree))
    rest = {"synth": [], "tile": ["--slide", str(world["data"] / "slide.ppm")],
            "train": ["--stage", "1", "--samples", str(world["root"] / "samples.jsonl"),
                      "--slides-dir", str(world["slides"])]}[command]
    run = tmp_path / "run"
    assert main([command, "--config", str(bad), "--run-dir", str(run), *rest]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {section}: "), err
    assert key in err, err
    assert not (run / "manifest.json").exists()


def test_zero_jobs_exits_two_naming_jobs(world, tmp_path, capsys):
    # Both commands with a worker pool, given 0 workers by flag and by config.
    zero = tmp_path / "jobs0.json"
    zero.write_text(json.dumps(dict(CONFIG, jobs=0)))
    judge = write_replay(tmp_path / "judge.json", {})
    commands = [
        ["caption-eval", "--pairs", _pairs(world), "--judge-replay", judge],
        _curate_argv(world),
    ]
    for command, *rest in commands:
        for config in (["--jobs", "0", *world["base"]], ["--config", str(zero)]):
            run = tmp_path / "run"
            assert main([command, *config, *rest, "--run-dir", str(run)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: usage: jobs must be >= 1, got 0"), err
            assert not (run / "manifest.json").exists()


def _curate_argv(world, reports=None, replay=None, filters=None):
    good_reports, good_replay, good_filters = curate_world(world["root"])
    argv = ["curate", "--reports", str(reports or good_reports), "--replay", str(replay or good_replay)]
    for f in filters or good_filters:
        argv += ["--filter-replay", str(f)]
    return argv


def _pairs(world):
    pairs = world["root"] / "pairs_ok.jsonl"
    write_jsonl(pairs, [{"candidate": "a b", "reference": "a c"}])
    return str(pairs)


def _records(world):
    return str(records_file(world["root"] / "records_ok.jsonl", n=4))


_NARROW = next(iter(NARROW_TO_BROAD))
_RECORD_INT_OPTIONS = json.dumps({
    "id": "r0", "slide_id": "s1", "question": "q", "options": [1, 2], "answer": "A",
    "qtype": "multi-choice", "broad": NARROW_TO_BROAD[_NARROW], "narrow": _NARROW,
}).encode() + b"\n"
_RECORD_ESSAY = json.dumps({
    "id": "r0", "slide_id": "s1", "question": "q", "options": [], "answer": "text",
    "qtype": "essay", "broad": NARROW_TO_BROAD[_NARROW], "narrow": _NARROW,
}).encode() + b"\n"


_VOCAB_HEADER = "".join(t + "\n" for t in SPECIALS).encode()


def _trace_bytes(values):
    """A trace file holding `values`, which need not make a valid trace."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.ckpt"
        save_checkpoint(path, {"trace": values}, {"kind": "attention-trace"})
        return path.read_bytes()


def _interpret_argv(world, trace):
    return ["interpret", "--trace", trace, "--slide", str(world["data"] / "slide.ppm"),
            "--grid", str(world["data"] / "grid.txt")]


def _vocab_argv(world, vocab):
    return ["infer", "--checkpoint", str(world["train2"] / "stage2_best.ckpt"), "--vocab", vocab,
            "--emb", str(world["slides"] / "s1.emb"), "--grid", str(world["slides"] / "s1.grid"),
            "--prompt", "is tumor present"]


def _thumbnail_argv(world, slide):
    replay = world["root"] / "thumbnail_replay.json"
    replay.write_text(json.dumps({"default": "A"}))
    return ["baseline", "--kind", "thumbnail", "--slide", slide, "--options", "a|b", "--replay", str(replay)]


# (case, bad file name, its bytes, line the error must name or None, key or value it must name
#  or None, argv given the bad path)
MALFORMED = [
    ("samples-invalid-json", "samples.jsonl",
     b'{"slide_id": "s1", "kind": "vqa", "prompt": "p", "target": "t"}\n\n{"slide_id": \n', 3, None,
     lambda w, bad: ["train", "--stage", "1", "--samples", bad, "--slides-dir", str(w["slides"])]),
    ("reports-non-object", "reports.jsonl", b"\n7\n", 2, None,
     lambda w, bad: _curate_argv(w, reports=bad)),
    ("pairs-wrong-keys", "pairs.jsonl", b'{"candidate": "a", "ref": "b"}\n', 1, None,
     lambda w, bad: ["caption-eval", "--pairs", bad]),
    ("records-not-utf8", "records.jsonl", b'{"id": "\xff"}\n', 1, None,
     lambda w, bad: ["vqa-eval", "--records", bad, "--predictions", bad]),
    ("predictions-invalid-json", "predictions.json", b'{"r0": "A",', None, None,
     lambda w, bad: ["vqa-eval", "--records", _records(w), "--predictions", bad]),
    ("predictions-list", "predictions.json", b'["A", "B"]', None, None,
     lambda w, bad: ["vqa-eval", "--records", _records(w), "--predictions", bad]),
    ("predictions-not-strings", "predictions.json", b'{"r0": 1}', None, None,
     lambda w, bad: ["vqa-eval", "--records", _records(w), "--predictions", bad]),
    ("replay-invalid-json", "patch_replay.json", b'{"default": ', None, None,
     lambda w, bad: ["baseline", "--kind", "thumbnail", "--slide", str(w["data"] / "slide.ppm"),
                     "--options", "a|b", "--replay", bad]),
    ("replay-not-strings", "patch_replay.json", b'{"default": 2}', None, None,
     lambda w, bad: ["baseline", "--kind", "thumbnail", "--slide", str(w["data"] / "slide.ppm"),
                     "--options", "a|b", "--replay", bad]),
    ("judge-replay-invalid-json", "judge.json", b"not json", None, None,
     lambda w, bad: ["caption-eval", "--pairs", _pairs(w), "--judge-replay", bad]),
    ("curate-replay-invalid-json", "chat.json", b"{", None, None,
     lambda w, bad: _curate_argv(w, replay=bad)),
    ("filter-replay-invalid-json", "filter.json", b"[", None, None,
     lambda w, bad: _curate_argv(w, filters=[*curate_world(w["root"])[2][:3], bad])),
    ("config-not-utf8", "config.json", b'{"seed": "\xff"}', None, None,
     lambda w, bad: ["synth", "--config", bad]),
    ("grid-non-integer", "grid.txt", b"16 64 64\n0 0 0 x 1\n", 2, None,
     lambda w, bad: ["encode", "--slide", str(w["data"] / "slide.ppm"), "--grid", bad]),
    ("grid-short-header", "grid.txt", b"16 64\n0 0 0 0 1\n", 1, None,
     lambda w, bad: ["encode", "--slide", str(w["data"] / "slide.ppm"), "--grid", bad]),
    ("grid-negative-row", "grid.txt", b"16 64 64\n-1 0 0 -16 1\n", 2, None,
     lambda w, bad: ["encode", "--slide", str(w["data"] / "slide.ppm"), "--grid", bad]),
    ("grid-tissue-flag", "grid.txt", b"16 64 64\n0 0 0 0 7\n", 2, None,
     lambda w, bad: ["encode", "--slide", str(w["data"] / "slide.ppm"), "--grid", bad]),
    ("grid-duplicate-tile", "grid.txt", b"16 64 64\n0 0 0 0 1\n0 0 0 0 1\n", 3, None,
     lambda w, bad: ["encode", "--slide", str(w["data"] / "slide.ppm"), "--grid", bad]),
    ("grid-disorder", "grid.txt", b"16 64 64\n0 1 16 0 1\n0 0 0 0 1\n", 3, None,
     lambda w, bad: ["encode", "--slide", str(w["data"] / "slide.ppm"), "--grid", bad]),
    ("vocab-blank-line", "vocab.txt", _VOCAB_HEADER + b"tumor\n\nyes\n", 8, None,
     _vocab_argv),
    ("vocab-duplicate-word", "vocab.txt", _VOCAB_HEADER + b"tumor\nyes\ntumor\n", 9, "tumor",
     _vocab_argv),
    ("vocab-not-utf8", "vocab.txt", _VOCAB_HEADER + b"tum\xffor\n", None, None, _vocab_argv),
    ("ppm-header-non-integer", "slide.ppm", b"P6\n64 sixty\n255\n" + bytes(12), None, None,
     lambda w, bad: ["tile", "--slide", bad]),
    ("ppm-truncated", "slide.ppm", b"P6\n64 64\n255\n" + bytes(12), None, None,
     lambda w, bad: ["tile", "--slide", bad]),
    ("ppm-zero-size", "slide.ppm", b"P6\n0 0\n255\n", None, None, _thumbnail_argv),
    ("ppm-zero-width", "slide.ppm", b"P6\n0 5\n255\n", None, None, _thumbnail_argv),
    ("ppm-zero-height", "slide.ppm", b"P6\n5 0\n255\n", None, None, _thumbnail_argv),
    ("samples-prompt-not-string", "samples.jsonl",
     b'{"slide_id": "s1", "kind": "vqa", "prompt": 5, "target": "t"}\n', 1, "prompt",
     lambda w, bad: ["train", "--stage", "1", "--samples", bad, "--slides-dir", str(w["slides"])]),
    ("reports-slide-ids-not-list", "reports.jsonl",
     b'{"patient_id": "p1", "report_text": "r", "slide_ids": "s1"}\n', 1, "slide_ids",
     lambda w, bad: _curate_argv(w, reports=bad)),
    ("pairs-reference-not-string", "pairs.jsonl", b'{"candidate": "a", "reference": null}\n', 1,
     "reference", lambda w, bad: ["caption-eval", "--pairs", bad]),
    ("records-options-not-strings", "records.jsonl", _RECORD_INT_OPTIONS, 1, "options",
     lambda w, bad: ["vqa-eval", "--records", bad, "--predictions", bad]),
    ("emb-short-header", "s1.emb", b"SVLMEMB1\x02\x00", None, None,
     lambda w, bad: ["infer", "--checkpoint", str(w["train2"] / "stage2_best.ckpt"),
                     "--vocab", str(w["train2"] / "vocab.txt"), "--emb", bad, "--prompt", "is tumor present"]),
    ("records-qtype-essay", "records.jsonl", b"\n" + _RECORD_ESSAY, 2, "essay",
     lambda w, bad: ["vqa-eval", "--records", bad, "--predictions", bad]),
    ("samples-kind-essay", "samples.jsonl",
     b'{"slide_id": "s1", "kind": "essay", "prompt": "p", "target": "t"}\n', 1, "essay",
     lambda w, bad: ["train", "--stage", "1", "--samples", bad, "--slides-dir", str(w["slides"])]),
    ("reports-no-slides", "reports.jsonl",
     b'{"patient_id": "p1", "report_text": "r", "slide_ids": []}\n', 1, "p1",
     lambda w, bad: _curate_argv(w, reports=bad)),
    ("trace-not-4d", "trace.ckpt", _trace_bytes(np.zeros((1, 1, 4))), None, None, _interpret_argv),
    ("trace-out-of-range", "trace.ckpt", _trace_bytes(np.full((1, 1, 1, 4), 2.0)), None, None,
     _interpret_argv),
    ("trace-nan", "trace.ckpt", _trace_bytes(np.full((1, 1, 1, 4), np.nan)), None, "trace",
     _interpret_argv),
]


@pytest.mark.parametrize("name,content,line,key,argv", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_input_exits_two_naming_the_file(world, tmp_path, capsys, name, content, line, key, argv):
    bad = tmp_path / name
    bad.write_bytes(content)
    args = argv(world, str(bad))
    if "--config" not in args:
        args[1:1] = world["base"]
    # main() returns rather than raising, so no traceback reaches the user.
    assert main([*args, "--run-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert (str(bad) if line is None else f"{bad}:{line}:") in err
    assert key is None or repr(key) in err
    assert not (tmp_path / "run" / "manifest.json").exists()


def test_slide_without_tissue_fails_early(world, tmp_path, capsys):
    base = world["base"]
    assert main(["synth", *base, "--run-dir", str(tmp_path), "--width", "32",
                 "--height", "32", "--patch-size", "16"]) == 0
    slide = tmp_path / "slide.ppm"
    assert main(["tile", *base, "--run-dir", str(tmp_path), "--slide", str(slide)]) == 0
    capsys.readouterr()
    assert main(["encode", *base, "--run-dir", str(tmp_path), "--slide", str(slide),
                 "--grid", str(tmp_path / "grid.txt")]) == 2
    assert str(slide) in capsys.readouterr().err
    assert not (tmp_path / "embeddings.bin").exists()

    slides = tmp_path / "slides"
    slides.mkdir()
    save_embeddings(slides / "blank7.emb", EmbeddingMatrix(0, 8, np.zeros((0, 8))))
    samples = tmp_path / "samples.jsonl"
    write_jsonl(samples, [{"slide_id": "blank7", "kind": "caption", "prompt": "p", "target": "t"}])
    assert main(["train", *base, "--run-dir", str(tmp_path / "t"), "--stage", "1",
                 "--samples", str(samples), "--slides-dir", str(slides)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and "blank7" in err


def _train_argv(world, run, samples, slides):
    return ["train", *world["base"], "--run-dir", str(run), "--stage", "1",
            "--samples", str(samples), "--slides-dir", str(slides)]


def test_overlong_sample_exits_two_before_training(world, tmp_path, capsys):
    # "is tumor present" plus 60 words, BOS and EOS take 65 of CONFIG's 64 positions.
    samples = tmp_path / "samples.jsonl"
    write_jsonl(samples, [SAMPLES[0], dict(SAMPLES[1], target=" ".join(["tumor"] * 60))])
    run = tmp_path / "run"
    assert main(_train_argv(world, run, samples, world["slides"])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: usage: {samples}:2: ") and "max_positions 64" in err, err
    assert list(run.iterdir()) == []
    # 59 words fill the 64 positions exactly.
    write_jsonl(samples, [dict(SAMPLES[1], target=" ".join(["tumor"] * 59))])
    assert main([*_train_argv(world, run, samples, world["slides"]), "--epochs", "1"]) == 0


def test_grid_positions_need_a_grid(world, tmp_path, capsys):
    slides = tmp_path / "slides"
    slides.mkdir()
    (slides / "s1.emb").write_bytes((world["slides"] / "s1.emb").read_bytes())
    samples = tmp_path / "samples.jsonl"
    write_jsonl(samples, SAMPLES)
    assert main(_train_argv(world, tmp_path / "train", samples, slides)) == 3
    assert capsys.readouterr().err == f"error: missing-input: {slides / 's1.grid'}\n"

    assert main(["infer", *world["base"], "--run-dir", str(tmp_path / "infer"),
                 "--checkpoint", str(world["train2"] / "stage2_best.ckpt"),
                 "--vocab", str(world["train2"] / "vocab.txt"),
                 "--emb", str(slides / "s1.emb"), "--prompt", "is tumor present"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage: infer needs --grid"), err
    assert not (tmp_path / "infer" / "answer.txt").exists()


def test_grid_outside_the_positional_grid_exits_two_before_writing(world, tmp_path, capsys):
    # The world's tissue tiles sit in rows and columns 0 and 1.
    for key in ("grid_rows", "grid_cols"):
        small = tmp_path / f"{key}.json"
        small.write_text(json.dumps(dict(CONFIG, model=dict(
            CONFIG["model"], encoder=dict(CONFIG["model"]["encoder"], **{key: 1})))))
        base = ["--config", str(small)]
        train = tmp_path / f"train_{key}"
        assert main(["train", *base, "--run-dir", str(train), "--stage", "1",
                     "--samples", str(world["root"] / "samples.jsonl"),
                     "--slides-dir", str(world["slides"])]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: usage: {world['slides'] / 's1.grid'}: "), err
        assert f"model.encoder.{key} 1" in err, err
        assert list(train.iterdir()) == []  # no vocab.txt, no init.ckpt
        infer = tmp_path / f"infer_{key}"
        assert main(["infer", *base, "--run-dir", str(infer),
                     "--checkpoint", str(world["train2"] / "stage2_best.ckpt"),
                     "--vocab", str(world["train2"] / "vocab.txt"),
                     "--emb", str(world["slides"] / "s1.emb"),
                     "--grid", str(world["slides"] / "s1.grid"), "--prompt", "hi"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: usage: {world['slides'] / 's1.grid'}: "), err
        assert f"model.encoder.{key} 1" in err, err
        assert list(infer.iterdir()) == []


def test_encode_rejects_a_grid_of_another_slide(world, tmp_path, capsys):
    base = world["base"]
    assert main(["synth", *base, "--run-dir", str(tmp_path), "--width", "32",
                 "--height", "32", "--patch-size", "16", "--region", "tumor:0:0:16:16"]) == 0
    assert main(["tile", *base, "--run-dir", str(tmp_path), "--slide", str(tmp_path / "slide.ppm")]) == 0
    capsys.readouterr()
    # The 32x32 grid's tissue tile fits inside the 64x64 slide, yet it is not that slide's grid.
    assert main(["encode", *base, "--run-dir", str(tmp_path / "enc"), "--slide",
                 str(world["data"] / "slide.ppm"), "--grid", str(tmp_path / "grid.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "32x32" in err and "64x64" in err
    assert not (tmp_path / "enc" / "embeddings.bin").exists()


def _infer_argv(world, run, base, emb, grid):
    return ["infer", *base, "--run-dir", str(run),
            "--checkpoint", str(world["train2"] / "stage2_best.ckpt"),
            "--vocab", str(world["train2"] / "vocab.txt"),
            "--emb", str(emb), "--grid", str(grid), "--prompt", "hi"]


def test_grid_of_another_slide_exits_two_before_writing(world, tmp_path, capsys):
    base = world["base"]
    assert main(["synth", *base, "--run-dir", str(tmp_path), "--width", "32",
                 "--height", "32", "--patch-size", "16", "--region", "tumor:0:0:16:16"]) == 0
    assert main(["tile", *base, "--run-dir", str(tmp_path), "--slide", str(tmp_path / "slide.ppm")]) == 0
    capsys.readouterr()
    # One tissue tile in the grid against the world slide's four embedding rows.
    slides = tmp_path / "slides"
    slides.mkdir()
    emb, grid = slides / "s1.emb", slides / "s1.grid"
    emb.write_bytes((world["slides"] / "s1.emb").read_bytes())
    grid.write_bytes((tmp_path / "grid.txt").read_bytes())
    samples = tmp_path / "samples.jsonl"
    write_jsonl(samples, SAMPLES)
    want = f"error: usage: {grid} does not match {emb}: tissue tile count 1 != embedding row count 4\n"
    for run, argv in (("train", _train_argv(world, tmp_path / "train", samples, slides)),
                      ("infer", _infer_argv(world, tmp_path / "infer", base, emb, grid))):
        assert main(argv) == 2, run
        assert capsys.readouterr().err == want
        assert list((tmp_path / run).iterdir()) == []  # no vocab.txt, no checkpoint


def test_embeddings_of_another_width_exit_two_before_writing(world, tmp_path, capsys):
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(dict(CONFIG, model=dict(CONFIG["model"], patch_dim=16))))
    base = ["--config", str(wide)]
    emb, grid = world["slides"] / "s1.emb", world["slides"] / "s1.grid"
    want = f"error: usage: {emb}: embedding width 8 != model.patch_dim 16\n"
    train = ["train", *base, "--run-dir", str(tmp_path / "train"), "--stage", "1",
             "--samples", str(world["root"] / "samples.jsonl"), "--slides-dir", str(world["slides"])]
    infer = _infer_argv(world, tmp_path / "infer", base, emb, grid)
    for run, argv in (("train", train), ("infer", infer)):
        assert main(argv) == 2, run
        assert capsys.readouterr().err == want
        assert list((tmp_path / run).iterdir()) == []


def test_checkpoint_of_another_vocabulary_exits_two_before_writing(world, tmp_path, capsys):
    ckpt = world["train2"] / "stage2_best.ckpt"
    trained = len((world["train2"] / "vocab.txt").read_text().splitlines())
    samples = tmp_path / "samples.jsonl"
    write_jsonl(samples, [dict(SAMPLES[1], target="no")])  # is, tumor, present, no
    vocab = tmp_path / "vocab.txt"
    Vocab.build(["is tumor present no"]).save(vocab)
    want = (f"error: usage: {ckpt}: lm.tok_embed: checkpoint shape ({trained}, 8) "
            f"!= model shape (10, 8)\n")
    train = [*_train_argv(world, tmp_path / "train", samples, world["slides"]), "--init", str(ckpt)]
    infer = _infer_argv(world, tmp_path / "infer", world["base"],
                        world["slides"] / "s1.emb", world["slides"] / "s1.grid")
    infer[infer.index("--vocab") + 1] = str(vocab)
    for run, argv in (("train", train), ("infer", infer)):
        assert main(argv) == 2, run
        assert capsys.readouterr().err == want
        assert list((tmp_path / run).iterdir()) == []  # no vocab.txt, no checkpoint


def test_non_finite_checkpoint_exits_two_naming_file_and_tensor(world, tmp_path, capsys):
    tensors, meta = load_checkpoint(world["train2"] / "stage2_best.ckpt")
    tensors["projector.map.weight"][0, 0] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, tensors, meta)
    want = f"error: usage: {ckpt}: tensor 'projector.map.weight' holds NaN or inf\n"
    train = [*_train_argv(world, tmp_path / "train", world["root"] / "samples.jsonl", world["slides"]),
             "--init", str(ckpt)]
    infer = _infer_argv(world, tmp_path / "infer", world["base"],
                        world["slides"] / "s1.emb", world["slides"] / "s1.grid")
    infer[infer.index("--checkpoint") + 1] = str(ckpt)
    for run, argv in (("train", train), ("infer", infer)):
        assert main(argv) == 2, run
        assert capsys.readouterr().err == want
        assert list((tmp_path / run).iterdir()) == []


def test_train_loads_each_slide_once(world, tmp_path, monkeypatch):
    slides = tmp_path / "slides"
    slides.mkdir()
    for sid in ("s1", "s2"):
        for ext in ("emb", "grid"):
            (slides / f"{sid}.{ext}").write_bytes((world["slides"] / f"s1.{ext}").read_bytes())
    samples = tmp_path / "samples.jsonl"
    order = ["s2", "s1", "s2", "s1", "s1"]
    write_jsonl(samples, [dict(SAMPLES[i % 2], slide_id=sid) for i, sid in enumerate(order)])
    loads = []

    def counting(path):
        loads.append(path.name)
        return load_embeddings(path)

    monkeypatch.setattr(cli, "load_embeddings", counting)
    assert main([*_train_argv(world, tmp_path / "train", samples, slides), "--epochs", "1"]) == 0
    assert loads == ["s2.emb", "s1.emb"]


def test_bad_region_exits_two(world, capsys):
    cases = [
        (["--region", "tumor:0:0"], "--region"),
        (["--region", "tumor:0:0:x:448"], "--region"),
        (["--region", "tumor:-224:0:224:224"], "--region"),
        (["--patch-size", "0"], "--patch-size"),
        (["--width", "-64"], "--width"),
        (["--height", "-64"], "--height"),
    ]
    for flags, named in cases:
        assert main(["synth", *world["base"], "--run-dir", str(world["root"] / "x"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and named in err, (flags, err)


def test_foreign_checkpoint_exits_two(world, capsys):
    fake = world["root"] / "fake.ckpt"
    whole = (world["train2"] / "stage2_best.ckpt").read_bytes()
    # A model with a tied head saved no lm.head.* tensors.
    tensors, meta = load_checkpoint(world["train2"] / "stage2_best.ckpt")
    save_checkpoint(fake, {k: v for k, v in tensors.items() if not k.startswith("lm.head.")}, meta)
    tied = fake.read_bytes()
    for content, named in ((b"not a checkpoint", "not a checkpoint"),
                           (whole[: len(whole) // 2], "corrupt or truncated"),
                           (tied, "missing ['lm.head.bias', 'lm.head.weight']")):
        fake.write_bytes(content)
        assert main(["infer", *world["base"], "--run-dir", str(world["root"] / "x"),
                     "--checkpoint", str(fake), "--vocab", str(world["train2"] / "vocab.txt"),
                     "--emb", str(world["slides"] / "s1.emb"),
                     "--grid", str(world["slides"] / "s1.grid"),
                     "--prompt", "hi"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and str(fake) in err and named in err, err


def test_seed_flag_overrides_config(world):
    records = records_file(world["root"] / "records5.jsonl")
    outs = {}
    for seed in ("3", "3", "4"):
        run = world["root"] / f"seed{seed}_{len(outs)}"
        assert main(["baseline", *world["base"], "--run-dir", str(run),
                     "--kind", "random", "--records", str(records),
                     "--seed", seed]) == 0
        outs[run.name] = (run / "predictions.json").read_bytes()
    vals = list(outs.values())
    assert vals[0] == vals[1]
    assert vals[0] != vals[2]


def test_module_entry_point():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "slidevlm.cli", "--help"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert "subcommand" in proc.stdout or "synth" in proc.stdout
