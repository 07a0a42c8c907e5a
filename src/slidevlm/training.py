"""Two-stage training schedule with exact freeze masks.

Stage 1 trains the slide encoder and projector on caption data; stage 2
additionally thaws the LM for instruction data, so it trains every model
parameter (the model starts at patch features). Shuffling, checkpoints,
and the loss log are all deterministic functions of the stage seed.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

from .model import SlideInputs, SlideVLM
from .numerics import AdamW, UsageError, save_checkpoint, stream

__all__ = ["StageConfig", "TrainSample", "RunResult", "run_stage", "overfit_probe"]

TRAINABLE_BY_STAGE = {
    1: frozenset({"slide_encoder", "projector"}),
    2: frozenset({"slide_encoder", "projector", "lm"}),
}

STAGE_DEFAULTS = {1: (0.001, 3), 2: (0.00002, 1)}  # (lr, epochs)


@dataclass
class StageConfig:
    """One stage of the schedule; defaults follow the two-stage recipe."""

    stage: int
    lr: float | None = None
    epochs: int | None = None
    seed: int = 0
    accum_steps: int = 1
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.stage not in TRAINABLE_BY_STAGE:
            raise UsageError("stage must be 1 or 2")
        default_lr, default_epochs = STAGE_DEFAULTS[self.stage]
        if self.lr is None:
            self.lr = default_lr
        if self.epochs is None:
            self.epochs = default_epochs
        if self.lr < 0 or self.epochs < 1 or self.accum_steps < 1:
            raise UsageError("lr must be >= 0, epochs and accum_steps >= 1")
        if self.weight_decay < 0:
            raise UsageError(f"weight_decay must be >= 0, got {self.weight_decay}")

    @property
    def trainable_groups(self) -> frozenset[str]:
        return TRAINABLE_BY_STAGE[self.stage]


@dataclass
class TrainSample:
    """One (slide, prompt, target) example.

    The default pipeline feeds caption samples to stage 1 and vqa samples
    to stage 2; `run_stage` itself accepts any mix.
    """

    slide_id: str
    kind: str  # "caption" | "vqa"
    prompt: str
    target: str

    def __post_init__(self):
        if self.kind not in ("caption", "vqa"):
            raise UsageError(f"unknown sample kind {self.kind!r}")


@dataclass
class RunResult:
    losses: list[tuple[int, int, float]]  # (step, stage, loss)
    checkpoints: list[str] = field(default_factory=list)
    best_checkpoint: str | None = None
    best_epoch_loss: float = float("inf")


def _write_loss_csv(path: Path, rows: list[tuple[int, int, float]]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write("step,stage,loss\n")
        for step, stage, loss in rows:
            fh.write(f"{step},{stage},{loss!r}\n")


def run_stage(
    cfg: StageConfig,
    samples: list[TrainSample],
    model: SlideVLM,
    slides: dict[str, SlideInputs],
    out_dir=None,
) -> RunResult:
    """Run one stage; returns the loss curve and checkpoint paths.

    Frozen groups are bit-identical afterwards. With `out_dir` set, an
    epoch checkpoint, a best-epoch checkpoint, and a `loss.csv` of this
    run's steps are written there. A sample the model rejects raises a
    UsageError naming its step and slide.
    """
    if not samples:
        raise UsageError("training needs at least one sample")
    missing = {s.slide_id for s in samples} - set(slides)
    if missing:
        raise UsageError(f"samples reference unknown slides: {sorted(missing)}")
    model.set_trainable_groups(set(cfg.trainable_groups))
    opt = AdamW(model.params(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    result = RunResult(losses=[])
    step = 0
    for epoch in range(cfg.epochs):
        order = stream(cfg.seed, "shuffle", f"stage{cfg.stage}", f"epoch{epoch}").permutation(
            len(samples)
        )
        epoch_sum = 0.0
        opt.zero_grad()
        pending = 0
        for rank, idx in enumerate(order):
            sample = samples[int(idx)]
            step += 1
            # Mean over the accumulation group, so lr keeps its meaning when
            # accum_steps changes.  The tail group may be shorter.
            group_start = (rank // cfg.accum_steps) * cfg.accum_steps
            group_len = min(cfg.accum_steps, len(order) - group_start)
            try:
                loss = model.loss(slides[sample.slide_id], sample.prompt, sample.target)
                value = loss.item()
                scaled = loss * (1.0 / group_len) if group_len > 1 else loss
                scaled.backward()
            except UsageError as exc:
                raise UsageError(f"step {step} (slide {sample.slide_id!r}): {exc}") from exc
            pending += 1
            if pending == cfg.accum_steps or rank == len(order) - 1:
                opt.step()
                opt.zero_grad()
                pending = 0
            result.losses.append((step, cfg.stage, value))
            epoch_sum += value
        epoch_loss = epoch_sum / len(samples)
        if out_dir is not None:
            meta = {
                "stage": cfg.stage,
                "epoch": epoch,
                "step": step,
                "epoch_loss": epoch_loss,
                "seed": cfg.seed,
            }
            ckpt = out_dir / f"stage{cfg.stage}_epoch{epoch}.ckpt"
            save_checkpoint(ckpt, model.tensors(), meta)
            result.checkpoints.append(str(ckpt))
            if epoch_loss < result.best_epoch_loss:
                result.best_epoch_loss = epoch_loss
                best = out_dir / f"stage{cfg.stage}_best.ckpt"
                shutil.copyfile(ckpt, best)
                result.best_checkpoint = str(best)
        elif epoch_loss < result.best_epoch_loss:
            result.best_epoch_loss = epoch_loss
    if out_dir is not None:
        _write_loss_csv(out_dir / "loss.csv", result.losses)
    return result


@dataclass
class ProbeResult:
    final_ce: float
    exact_matches: int
    total: int
    losses: list[tuple[int, int, float]]


def overfit_probe(
    model: SlideVLM,
    samples: list[TrainSample],
    slides: dict[str, SlideInputs],
    stage1_epochs: int = 20,
    stage2_epochs: int = 50,
    stage1_lr: float = 0.001,
    stage2_lr: float = 0.001,
    seed: int = 0,
    max_len: int = 48,
) -> ProbeResult:
    """Memorization check on a handful of slides.

    Runs both stages at probe-scale learning rates with weight decay off
    (decay fights memorization), then reports the mean answer-span cross
    entropy and how many samples greedy decoding reproduces exactly.
    Slides whose captions mention layout need a model with grid positions,
    or the probe has no signal to tell same-content slides apart.
    """
    if len(samples) > 16:
        raise UsageError("probe is meant for at most 16 samples")
    losses: list[tuple[int, int, float]] = []
    for stage, epochs, lr in (
        (1, stage1_epochs, stage1_lr),
        (2, stage2_epochs, stage2_lr),
    ):
        cfg = StageConfig(stage=stage, lr=lr, epochs=epochs, seed=seed, weight_decay=0.0)
        result = run_stage(cfg, samples, model, slides)
        losses.extend(result.losses)
    ce_total = 0.0
    exact = 0
    for sample in samples:
        inputs = slides[sample.slide_id]
        ce_total += model.loss(inputs, sample.prompt, sample.target).item()
        text, _ = model.generate(inputs, sample.prompt, max_len=max_len, capture_attention=False)
        if text == sample.target:
            exact += 1
    return ProbeResult(
        final_ce=ce_total / len(samples),
        exact_matches=exact,
        total=len(samples),
        losses=losses,
    )
