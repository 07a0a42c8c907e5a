"""Stage schedule, freeze masks, determinism, logging, accumulation."""

import numpy as np
import pytest
from conftest import memorize, random_slides, tiny_model

from slidevlm.numerics import AdamW, UsageError, load_checkpoint, stream
from slidevlm.training import (
    STAGE_DEFAULTS,
    TRAINABLE_BY_STAGE,
    StageConfig,
    TrainSample,
    run_stage,
)


def samples_for(slides, target="tumor fills the slide"):
    return [
        TrainSample(sid, "caption", "describe the tissue", target) for sid in sorted(slides)
    ]


def group_bytes(model, group):
    return {
        p.name: p.value.data.tobytes()
        for p in model.params()
        if p.name.split(".", 1)[0] == group
    }


# -- config ---------------------------------------------------------------------


def test_stage_defaults_match_schedule():
    assert STAGE_DEFAULTS == {1: (0.001, 3), 2: (0.00002, 1)}
    cfg1 = StageConfig(stage=1)
    assert (cfg1.lr, cfg1.epochs) == (0.001, 3)
    cfg2 = StageConfig(stage=2)
    assert (cfg2.lr, cfg2.epochs) == (0.00002, 1)


def test_stage_trainable_sets():
    assert TRAINABLE_BY_STAGE[1] == {"slide_encoder", "projector"}
    assert TRAINABLE_BY_STAGE[2] == {"slide_encoder", "projector", "lm"}


def test_stage_validation():
    with pytest.raises(UsageError):
        StageConfig(stage=3)
    with pytest.raises(UsageError):
        StageConfig(stage=1, lr=-0.1)
    with pytest.raises(UsageError):
        StageConfig(stage=1, epochs=0)
    with pytest.raises(UsageError):
        StageConfig(stage=1, accum_steps=0)
    with pytest.raises(UsageError):
        TrainSample("s", "retrieval", "p", "t")


# -- freeze contract -----------------------------------------------------------------


def test_stage1_freezes_lm():
    model = tiny_model(seed=1)
    slides = random_slides(3)
    before = {g: group_bytes(model, g) for g in ("lm", "slide_encoder", "projector")}
    run_stage(StageConfig(stage=1, lr=0.01, epochs=2), samples_for(slides), model, slides)
    assert group_bytes(model, "lm") == before["lm"]
    assert group_bytes(model, "slide_encoder") != before["slide_encoder"]
    assert group_bytes(model, "projector") != before["projector"]


def test_stage2_thaws_lm():
    model = tiny_model(seed=2)
    slides = random_slides(3)
    before = group_bytes(model, "lm")
    run_stage(StageConfig(stage=2, lr=0.01, epochs=1), samples_for(slides), model, slides)
    assert group_bytes(model, "lm") != before


def test_patch_encoder_cannot_be_thawed():
    model = tiny_model()
    with pytest.raises(UsageError, match=r"unknown parameter groups: \['patch_encoder'\]"):
        model.set_trainable_groups({"patch_encoder"})
    with pytest.raises(UsageError):
        model.set_trainable_groups({"warp_drive"})


# -- determinism -----------------------------------------------------------------------


def test_zero_lr_keeps_loss_constant():
    model = tiny_model(seed=3)
    slides = random_slides(2)
    result = run_stage(
        StageConfig(stage=1, lr=0.0, epochs=3), samples_for(slides), model, slides
    )
    values = [loss for _, _, loss in result.losses]
    assert len(set(values)) <= 2  # one fixed value per sample, repeated each epoch
    assert sorted(set(values)) == sorted(set(values[:2]))


def test_same_seed_same_curve_and_checkpoints(tmp_path):
    curves = []
    manifests = []
    for run in ("a", "b"):
        model = tiny_model(seed=4)
        slides = random_slides(3)
        out = tmp_path / run
        result = run_stage(
            StageConfig(stage=1, lr=0.01, epochs=2, seed=9),
            samples_for(slides),
            model,
            slides,
            out_dir=out,
        )
        curves.append(result.losses)
        manifests.append((out / "stage1_epoch1.ckpt").read_bytes())
    assert curves[0] == curves[1]
    assert manifests[0] == manifests[1]


def test_shuffle_depends_on_seed():
    orders = [
        stream(seed, "shuffle", "stage1", "epoch0").permutation(16).tolist()
        for seed in (0, 1)
    ]
    assert orders[0] != orders[1]


# -- outputs ---------------------------------------------------------------------------


def test_checkpoint_naming_and_loss_csv(tmp_path):
    model = tiny_model(seed=5)
    slides = random_slides(2)
    samples = samples_for(slides)
    result = run_stage(
        StageConfig(stage=1, lr=0.01, epochs=2),
        samples,
        model,
        slides,
        out_dir=tmp_path,
    )
    assert (tmp_path / "stage1_epoch0.ckpt").exists()
    assert (tmp_path / "stage1_epoch1.ckpt").exists()
    assert result.best_checkpoint == str(tmp_path / "stage1_best.ckpt")
    lines = (tmp_path / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,stage,loss"
    assert len(lines) == 1 + 2 * len(samples)
    step, stage, loss = lines[1].split(",")
    assert step == "1" and stage == "1" and float(loss) > 0.0
    tensors, meta = load_checkpoint(result.best_checkpoint)
    assert meta["stage"] == 1
    assert set(tensors) == set(model.tensors())


def test_best_checkpoint_tracks_minimum_epoch_loss(tmp_path):
    model = tiny_model(seed=6)
    slides = random_slides(2)
    samples = samples_for(slides)
    result = run_stage(
        StageConfig(stage=1, lr=0.01, epochs=3),
        samples,
        model,
        slides,
        out_dir=tmp_path,
    )
    per_epoch = {}
    for step, _, loss in result.losses:
        per_epoch.setdefault((step - 1) // len(samples), []).append(loss)
    means = [float(np.mean(v)) for _, v in sorted(per_epoch.items())]
    assert abs(result.best_epoch_loss - min(means)) < 1e-12
    best_epoch = tmp_path / f"stage1_epoch{int(np.argmin(means))}.ckpt"
    assert (tmp_path / "stage1_best.ckpt").read_bytes() == best_epoch.read_bytes()


def test_run_stage_input_validation():
    model = tiny_model()
    slides = random_slides(1)
    with pytest.raises(UsageError):
        run_stage(StageConfig(stage=1), [], model, slides)
    with pytest.raises(UsageError):
        run_stage(
            StageConfig(stage=1),
            [TrainSample("ghost", "caption", "p", "t")],
            model,
            slides,
        )
    # A sample the model rejects mid-run stays a UsageError, naming its step and slide.
    slides["s0"].coords[-1] = (8, 0)  # outside tiny_config's 8-row positional grid
    want = r"^step 1 \(slide 's0'\): tissue tile at row 8, col 0 is outside model.encoder.grid_rows 8"
    with pytest.raises(UsageError, match=want):
        run_stage(StageConfig(stage=1), samples_for(slides), model, slides)


# -- gradient accumulation ----------------------------------------------------------


def test_full_batch_accumulation_matches_manual_mean_step():
    slides = random_slides(3, seed=7)
    samples = samples_for(slides)
    cfg = StageConfig(stage=1, lr=0.01, epochs=1, seed=3, accum_steps=len(samples))

    auto = tiny_model(seed=7)
    run_stage(cfg, samples, auto, slides)

    manual = tiny_model(seed=7)
    manual.set_trainable_groups(set(cfg.trainable_groups))
    opt = AdamW(manual.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    opt.zero_grad()
    order = stream(cfg.seed, "shuffle", "stage1", "epoch0").permutation(len(samples))
    for idx in order:
        s = samples[int(idx)]
        loss = manual.loss(slides[s.slide_id], s.prompt, s.target)
        (loss * (1.0 / len(samples))).backward()
    opt.step()

    got = auto.tensors()
    want = manual.tensors()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_tail_group_steps_on_its_own_mean(tmp_path):
    # Five samples in groups of two: 2, 2 and a tail of 1.
    slides = random_slides(5, seed=10)
    samples = samples_for(slides)
    cfg = StageConfig(stage=1, lr=0.01, epochs=2, seed=4, accum_steps=2)

    auto = tiny_model(seed=10)
    result = run_stage(cfg, samples, auto, slides, out_dir=tmp_path)

    manual = tiny_model(seed=10)
    manual.set_trainable_groups(set(cfg.trainable_groups))
    opt = AdamW(manual.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    for epoch in range(cfg.epochs):
        order = stream(cfg.seed, "shuffle", "stage1", f"epoch{epoch}").permutation(len(samples))
        for ranks, scale in (((0, 1), 0.5), ((2, 3), 0.5), ((4,), 1.0)):
            opt.zero_grad()
            for rank in ranks:
                s = samples[int(order[rank])]
                (manual.loss(slides[s.slide_id], s.prompt, s.target) * scale).backward()
            opt.step()
    assert opt.step_count == 6

    got = auto.tensors()
    want = manual.tensors()
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    rows = (tmp_path / "loss.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(1, 11))
    assert [step for step, _, _ in result.losses] == list(range(1, 11))
    for epoch, last_step in enumerate((5, 10)):
        _, meta = load_checkpoint(tmp_path / f"stage1_epoch{epoch}.ckpt")
        assert meta["step"] == last_step


def test_accumulation_changes_step_granularity():
    slides = random_slides(4, seed=8)
    samples = samples_for(slides)
    a = tiny_model(seed=8)
    b = tiny_model(seed=8)
    run_stage(StageConfig(stage=1, lr=0.01, epochs=1, accum_steps=1), samples, a, slides)
    run_stage(StageConfig(stage=1, lr=0.01, epochs=1, accum_steps=2), samples, b, slides)
    assert any(
        a.tensors()[n].tobytes() != b.tensors()[n].tobytes() for n in a.tensors()
    )


# -- memorization ---------------------------------------------------------------------


def test_probe_memorizes_single_sample():
    model = tiny_model(seed=9, vocab_texts=["tumor fills the slide", "describe the tissue"])
    slides = random_slides(1, seed=9)
    ce, exact = memorize(model, samples_for(slides), slides, epochs=(60, 400))
    assert exact == 1
    assert ce < 0.1
