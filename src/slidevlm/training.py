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

__all__ = ["StageConfig", "TrainSample", "RunResult", "run_stage"]

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
        for start in range(0, len(order), cfg.accum_steps):
            # One AdamW step per group of shuffled samples, on the mean of
            # their losses, so lr keeps its meaning when accum_steps
            # changes.  The last group may be shorter.
            group = order[start : start + cfg.accum_steps]
            opt.zero_grad()
            for idx in group:
                sample = samples[int(idx)]
                step += 1
                try:
                    loss = model.loss(slides[sample.slide_id], sample.prompt, sample.target)
                    value = loss.item()
                    (loss * (1.0 / len(group))).backward()
                except UsageError as exc:
                    raise UsageError(f"step {step} (slide {sample.slide_id!r}): {exc}") from exc
                result.losses.append((step, cfg.stage, value))
                epoch_sum += value
            opt.step()
        epoch_loss = epoch_sum / len(samples)
        improved = epoch_loss < result.best_epoch_loss
        if improved:
            result.best_epoch_loss = epoch_loss
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
            if improved:
                best = out_dir / f"stage{cfg.stage}_best.ckpt"
                shutil.copyfile(ckpt, best)
                result.best_checkpoint = str(best)
    if out_dir is not None:
        _write_loss_csv(out_dir / "loss.csv", result.losses)
    return result

