"""Acceptance gate: one test per release criterion, one PASS line each.

Each test re-derives its expectation from an independent oracle or a
hand-computed fixture, asserts the documented tolerance, and enforces its
runtime budget. Run with -s to see the PASS lines.
"""

import hashlib
import math
import time
from contextlib import ExitStack

import numpy as np

from conftest import TINY_TEXTS, memorize, probe_world, random_slides, tiny_model
from test_evaluation import oracle_bleu, oracle_rouge, random_text

from slidevlm.curation import Lane, MockChatClient, QACandidate, ReportRecord, ensemble_filter, split_assign
from slidevlm.encoders import Projector, SlideEncoder, SlideEncoderConfig, dilated_branch
from slidevlm.evaluation import (
    NARROW_TO_BROAD,
    QARecord,
    bleu_n,
    majority_vote_baseline,
    plurality,
    random_baseline,
    rouge_l,
    vqa_eval,
)
from slidevlm.interpret import AttentionTrace, saliency
from slidevlm.lm import DecoderConfig, DecoderLM, Vocab, assemble
from slidevlm.numerics import Tensor, stream
from slidevlm.slide_io import Raster, Region, SlideSpec, synth_slide, tile_slide
from slidevlm.training import StageConfig, TrainSample, run_stage

NARROWS = list(NARROW_TO_BROAD)


def mc_record(i, options=("alpha", "beta", "gamma", "delta")):
    narrow = NARROWS[i % len(NARROWS)]
    return QARecord(
        id=f"r{i}", slide_id="s", question="Which option fits?",
        options=list(options), answer="ABCD"[i % 4], qtype="multi-choice",
        broad=NARROW_TO_BROAD[narrow], narrow=narrow,
    )


def test_criterion_01_random_baseline_accuracy():
    start = time.perf_counter()
    records = [mc_record(i) for i in range(4096)]
    report = vqa_eval(records, random_baseline(records, seed=0))
    acc = report.overall_accuracy
    assert abs(acc - 0.25) <= 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: random 4-option baseline {acc:.4f} on 4096 items ({elapsed:.2f}s)")


def dense_oracle(q, k, v):
    s = (q @ k.T) / math.sqrt(q.shape[1])
    s = s - s.max(axis=1, keepdims=True)
    e = np.exp(s)
    return (e / e.sum(axis=1, keepdims=True)) @ v


def test_criterion_02_dense_equivalence():
    start = time.perf_counter()
    rng = stream(2, "acceptance", "dense")
    worst = 0.0
    for _ in range(100):
        n, d = int(rng.integers(1, 33)), int(rng.integers(1, 65))
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        out, _, selected = dilated_branch(
            Tensor(q[None]), Tensor(k[None]), Tensor(v[None]), w=n, r=1, offsets=[0]
        )
        assert selected.all()
        worst = max(worst, float(np.abs(out.data[0] - dense_oracle(q, k, v)).max()))
    assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 2: single branch vs dense oracle, worst |diff| {worst:.2e} ({elapsed:.2f}s)")


EPS = 1e-5
TOL = 1e-4


def directional_check(params, loss_fn):
    loss_fn().backward()
    live = [p for p in params if p.trainable]
    grads = [p.grad.copy() for p in live]
    nrm = math.sqrt(sum(float((g * g).sum()) for g in grads))
    assert nrm > 0.0, "zero gradient; case exercises nothing"
    direction = [g / nrm for g in grads]
    originals = [p.value.data.copy() for p in live]

    def value_at(sign):
        for p, base, d in zip(live, originals, direction):
            p.value.data[...] = base + sign * EPS * d
        value = loss_fn().item()
        for p, base in zip(live, originals):
            p.value.data[...] = base
        return value

    fd = (value_at(+1.0) - value_at(-1.0)) / (2.0 * EPS)
    rel = abs(nrm - fd) / (nrm + 1e-8)
    assert rel < TOL, f"directional derivative off by {rel:.2e}"
    return rel


def encoder_case(seed):
    cfg = SlideEncoderConfig(
        in_dim=6, heads=2, head_dim=4, layers=1, ffn_mult=2,
        branches=((4, 1), (8, 2)), positional="grid", grid_rows=4, grid_cols=4,
    )
    enc = SlideEncoder(cfg, seed=seed)
    x = stream(seed, "acceptance", "enc-x").standard_normal((5, 6))
    coords = [(i // 4, i % 4) for i in range(5)]

    def loss():
        y = enc(Tensor(x), coords)
        return (y * y).sum() * (1.0 / y.size)

    return enc.params(), loss


def projector_case(seed):
    proj = Projector(6, 8, layers=2, seed=seed)
    x = stream(seed, "acceptance", "proj-x").standard_normal((4, 6))

    def loss():
        y = proj(Tensor(x))
        return (y * y).sum() * (1.0 / y.size)

    return proj.params(), loss


def lm_case(seed):
    vocab = Vocab.build(["tumor tissue present in the sample"])
    cfg = DecoderConfig(heads=2, head_dim=4, layers=1, ffn_mult=2, max_positions=32)
    lm = DecoderLM(cfg, len(vocab), seed=seed)
    visual = stream(seed, "acceptance", "lm-visual").standard_normal((3, 8))
    return lm.params(), lambda: lm.loss(
        assemble(Tensor(visual), "tumor tissue", "present in the sample", vocab)
    )


def pipeline_case(seed):
    model = tiny_model(seed=seed)
    inputs = next(iter(random_slides(1, seed=seed).values()))
    return (
        [p for p in model.params() if p.trainable],
        lambda: model.loss(inputs, TINY_TEXTS[0], TINY_TEXTS[1]),
    )


def test_criterion_03_gradient_suite():
    start = time.perf_counter()
    cases = {
        "slide encoder layer": encoder_case,
        "projector": projector_case,
        "lm block": lm_case,
        "full pipeline loss": pipeline_case,
    }
    worst = 0.0
    for build in cases.values():
        for seed in range(20):
            worst = max(worst, directional_check(*build(seed)))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"PASS criterion 3: {len(cases)} blocks x 20 seeds of finite-difference checks, "
        f"worst rel err {worst:.2e} ({elapsed:.2f}s)"
    )


def group_bytes(model, group):
    return {n: a.tobytes() for n, a in model.tensors().items() if n.startswith(group + ".")}


def test_criterion_04_freeze_contract():
    start = time.perf_counter()
    model = tiny_model(seed=3)
    slides = random_slides(3, seed=3)
    samples = [TrainSample(sid, "caption", TINY_TEXTS[0], TINY_TEXTS[1]) for sid in slides]
    assert set(model.param_groups()) == {"slide_encoder", "projector", "lm"}
    init = {g: group_bytes(model, g) for g in ("slide_encoder", "projector", "lm")}

    run_stage(StageConfig(stage=1, lr=1e-3, epochs=2, seed=0), samples, model, slides)
    assert group_bytes(model, "lm") == init["lm"]
    assert group_bytes(model, "slide_encoder") != init["slide_encoder"]
    assert group_bytes(model, "projector") != init["projector"]

    after_stage1_lm = group_bytes(model, "lm")
    run_stage(StageConfig(stage=2, lr=1e-3, epochs=1, seed=0), samples, model, slides)
    assert group_bytes(model, "lm") != after_stage1_lm
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS criterion 4: stage freezes bit-exact by parameter group ({elapsed:.2f}s)")


def test_criterion_05_overfit_smoke():
    start = time.perf_counter()
    model, samples, slides = probe_world()
    assert len(samples) == 8
    ce, exact = memorize(model, samples, slides)
    assert ce < 0.1
    assert exact >= 7
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        f"PASS criterion 5: two-stage overfit on 8 slides, CE {ce:.4f}, "
        f"{exact}/8 exact ({elapsed:.1f}s)"
    )


def test_criterion_06_metric_oracles():
    start = time.perf_counter()
    assert abs(bleu_n("the the the the", "the cat", 1) - 0.25) < 1e-12
    rng = stream(6, "acceptance", "metrics")
    for _ in range(50):
        cand = random_text(rng)
        refs = [random_text(rng) for _ in range(int(rng.integers(1, 4)))]
        for n in range(1, 5):
            assert abs(bleu_n(cand, refs, n) - oracle_bleu(cand, refs, n)) <= 1e-12
        assert abs(rouge_l(cand, refs[0]) - oracle_rouge(cand, refs[0])) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 6: BLEU-1..4 and ROUGE-L match brute force on 50 pairs ({elapsed:.2f}s)")


def test_criterion_07_saliency_oracle():
    start = time.perf_counter()
    rng = stream(7, "acceptance", "saliency")
    for _ in range(50):
        g, l, h = (int(v) for v in rng.integers(1, 4, size=3))
        n = int(rng.integers(5, 16))
        values = rng.uniform(size=(g, l, h, n)) * float(rng.uniform(0.3, 1.0))
        trace = AttentionTrace(values)
        for renorm in (False, True):
            rows = values.reshape(-1, n)
            if renorm:
                sums = rows.sum(axis=1, keepdims=True)
                rows = rows / np.where(sums == 0.0, 1.0, sums)
            scores = rows.mean(axis=0)
            order = sorted(range(n), key=lambda i: (-scores[i], i))[:5]
            got = saliency(trace, k=5, renormalize=renorm)
            assert [i for i, _ in got.entries] == order
            for (_, score), i in zip(got.entries, order):
                assert abs(score - scores[i]) <= 1e-12
    uniform = saliency(AttentionTrace(np.full((2, 2, 2, 9), 0.1)), k=5)
    assert [i for i, _ in uniform.entries] == [0, 1, 2, 3, 4]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 7: top-5 saliency equals brute force on 50 traces ({elapsed:.2f}s)")


def test_criterion_08_filter_truth_table():
    start = time.perf_counter()
    candidate = QACandidate(
        record=mc_record(0), reasoning=None, source_report="p", prompt_hash="h"
    )
    for bits in range(16):
        vector = tuple(bool(bits >> i & 1) for i in range(4))
        clients = [
            MockChatClient(default="A" if right else "B", model=f"m{i}")
            for i, right in enumerate(vector)
        ]
        with ExitStack() as stack:
            lanes = [stack.enter_context(Lane(c, 1)) for c in clients]
            verdict = ensemble_filter(candidate, lanes).result()
        assert verdict.correct == vector
        assert verdict.kept == (sum(vector) <= 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 8: all 16 ensemble vectors keep iff <=2 correct ({elapsed:.2f}s)")


def test_criterion_09_split_properties():
    start = time.perf_counter()
    rng = stream(9, "acceptance", "split")
    for case in range(200):
        reports, slide_counter = [], 0
        for i in range(int(rng.integers(1, 30))):
            k = int(rng.integers(1, 4))
            ids = [f"s{slide_counter + j}" for j in range(k)]
            slide_counter += k
            reports.append(ReportRecord(f"p{i}", "t", ids))
        result = split_assign(reports, seed=case)
        multi = {s for r in reports if len(r.slide_ids) > 1 for s in r.slide_ids}
        singles = {r.slide_ids[0] for r in reports if len(r.slide_ids) == 1}
        assert multi <= result.train
        assert result.test <= singles
        assert not result.train & result.test
        assert result.train | result.test == multi | singles
        assert len(result.test) == (len(singles) + 2) // 5
        assert abs(len(result.test) - 0.2 * len(singles)) <= 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 9: 200 random link maps split cleanly ({elapsed:.2f}s)")


def test_criterion_10_tiling_exactness():
    start = time.perf_counter()
    rng = stream(10, "acceptance", "tiling")
    for _ in range(100):
        w, h = int(rng.integers(1, 1000)), int(rng.integers(1, 1000))
        grid = tile_slide(Raster.from_pixels(np.full((h, w, 3), 255, dtype=np.uint8)))
        assert len(grid.entries) == (w // 224) * (h // 224)
        assert grid.tissue_entries() == []
    spec = SlideSpec(672, 448, 224, [
        Region("tumor", 0, 0, 224, 448), Region("vessel", 448, 224, 224, 224),
    ])
    _, labels = synth_slide(5, spec)
    raster, _ = synth_slide(5, spec)
    flags = {(e.row, e.col): e.tissue for e in tile_slide(raster).entries}
    assert set(labels) == {rc for rc, tissue in flags.items() if tissue}
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 10: tile counts exact on 100 sizes, labels match tissue ({elapsed:.2f}s)")


def test_criterion_11_baseline_protocol():
    start = time.perf_counter()
    spec = SlideSpec(1344, 1344, 224, [Region("tumor", 0, 0, 1344, 1344)])
    raster, _ = synth_slide(11, spec)
    grid = tile_slide(raster)
    assert len(grid.tissue_entries()) == 36

    def run(seed):
        seen = []

        def model(patch):
            seen.append(hashlib.sha256(patch.pixels.tobytes()).hexdigest())
            return "B" if len(seen) % 3 else "A"

        answer = majority_vote_baseline(
            raster, grid, model, ["alpha", "beta", "gamma", "delta"], k_patches=30, seed=seed
        )
        return answer, seen

    first = run(3)
    assert first == run(3)
    assert first[1] != run(4)[1]  # a different seed samples different patches
    assert len(first[1]) == 30
    assert first[0] == "B"  # 20 B votes vs 10 A votes

    assert plurality(["A", "A", "B"]) == "A"
    assert plurality(["B", "A"]) == "A"  # tie falls to the alphabetically first
    assert plurality([]) is None

    # Tie through the full protocol: 4 tissue patches, votes split 2-2.
    small, _ = synth_slide(4, SlideSpec(448, 448, 224, [Region("tumor", 0, 0, 448, 448)]))
    small_grid = tile_slide(small)
    calls = []

    def alternating(patch):
        calls.append(0)
        return "AB"[len(calls) % 2]

    tied = majority_vote_baseline(
        small, small_grid, alternating, ["alpha", "beta"], k_patches=30, seed=0
    )
    assert len(calls) == 4
    assert tied == "A"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 11: majority vote deterministic per seed, plurality rules hold ({elapsed:.2f}s)")
