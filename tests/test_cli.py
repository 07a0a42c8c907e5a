"""End-to-end command-line runs: pipeline stages, exit codes, reproducibility."""

import hashlib
import json
import subprocess
import sys

import pytest

from slidevlm.cli import main
from slidevlm.curation import filter_prompt
from slidevlm.evaluation import JUDGE_PROMPT, NARROW_TO_BROAD, QARecord, save_records
from slidevlm.prompts import caption_prompt, qa_prompt, report_clean_prompt

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
            "max_positions": 64, "tied_head": False, "causal_visual": False,
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
    hashed = {hashlib.sha256(k.encode()).hexdigest(): v for k, v in table.items()}
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
    save_records(path, records)
    return path


def test_vqa_eval_random_predictor_is_deterministic(world, capsys):
    records = records_file(world["root"] / "records.jsonl")
    out = {}
    for name in ("vqa_a", "vqa_b"):
        run = world["root"] / name
        assert main(["vqa-eval", *world["base"], "--run-dir", str(run),
                     "--records", str(records), "--predictor", "random"]) == 0
        out[name] = (
            (run / "vqa_records.csv").read_bytes(),
            (run / "vqa_summary.csv").read_bytes(),
        )
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
    assert main(["vqa-eval", *world["base"], "--run-dir", str(world["root"] / "x"),
                 "--records", str(records)]) == 2
    assert capsys.readouterr().err.startswith("error: usage:")


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
    assert set(manifest(run)) == {
        "cleaned.jsonl", "captions.jsonl", "candidates.jsonl", "kept.jsonl",
        "drops.jsonl", "flagged.json", "split.json",
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
                 "kept.jsonl", "drops.jsonl", "flagged.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


def test_curate_needs_four_filter_replays(world, capsys):
    root = world["root"]
    reports, replay, filters = curate_world(root)
    argv = ["curate", *world["base"], "--run-dir", str(root / "x"),
            "--reports", str(reports), "--replay", replay,
            "--filter-replay", filters[0], "--filter-replay", filters[1]]
    assert main(argv) == 2
    assert "exactly 4 times" in capsys.readouterr().err


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
    bad.write_text(json.dumps({"paths": {"outputs": "out"}}))
    assert main(["synth", "--config", str(bad), "--run-dir", str(tmp_path)]) == 2
    assert "paths" in capsys.readouterr().err
    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad), "--run-dir", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_bad_region_exits_two(world, capsys):
    assert main(["synth", *world["base"], "--run-dir", str(world["root"] / "x"),
                 "--region", "tumor:0:0"]) == 2
    assert capsys.readouterr().err.startswith("error: usage:")


def test_foreign_checkpoint_exits_two(world, capsys):
    fake = world["root"] / "fake.ckpt"
    fake.write_bytes(b"not a checkpoint")
    assert main(["infer", *world["base"], "--run-dir", str(world["root"] / "x"),
                 "--checkpoint", str(fake), "--vocab", str(world["train2"] / "vocab.txt"),
                 "--emb", str(world["slides"] / "s1.emb"),
                 "--grid", str(world["slides"] / "s1.grid"),
                 "--prompt", "hi"]) == 2
    assert capsys.readouterr().err.startswith("error: usage:")


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
    proc = subprocess.run(
        [sys.executable, "-m", "slidevlm.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "subcommand" in proc.stdout or "synth" in proc.stdout
