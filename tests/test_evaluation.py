"""Caption metrics, judge plumbing, VQA scoring, and baseline protocols."""

import math
from collections import Counter

import numpy as np
import pytest

from slidevlm.curation import Lane, MockChatClient
from slidevlm.evaluation import (
    BROAD_CATEGORIES,
    JUDGE_ATTEMPTS,
    NARROW_BY_BROAD,
    NARROW_TO_BROAD,
    CategoryReport,
    QARecord,
    bleu_n,
    caption_eval,
    extract_choice,
    judge_caption,
    load_records,
    majority_vote_baseline,
    metric_tokens,
    option_letters,
    plurality,
    random_baseline,
    rouge_l,
    thumbnail_baseline,
    vqa_eval,
    write_record_csv,
    write_summary_csv,
)
from slidevlm.jsonio import write_jsonl
from slidevlm.numerics import UsageError, stream
from slidevlm.slide_io import Raster, Region, SlideSpec, synth_slide, tile_slide

VOCAB = ["tumor", "stroma", "cells", "atypia", "margin", "gland", "nuclei", "mitoses"]


def random_text(rng, max_len=12):
    length = int(rng.integers(1, max_len + 1))
    return " ".join(rng.choice(VOCAB) for _ in range(length))


# -- independent oracles --------------------------------------------------------------


def oracle_bleu(candidate, references, n):
    cand = metric_tokens(candidate)
    refs = [metric_tokens(r) for r in references]
    if not cand:
        return 0.0
    precisions = []
    for k in range(1, n + 1):
        grams = [tuple(cand[i : i + k]) for i in range(len(cand) - k + 1)]
        if not grams:
            return 0.0
        counts = Counter(grams)
        clipped = 0
        for gram, count in counts.items():
            best = 0
            for ref in refs:
                ref_grams = Counter(tuple(ref[i : i + k]) for i in range(len(ref) - k + 1))
                best = max(best, ref_grams[gram])
            clipped += min(count, best)
        if clipped == 0:
            return 0.0
        precisions.append(clipped / len(grams))
    geo = math.exp(sum(math.log(p) for p in precisions) / n)
    c = len(cand)
    r = sorted(((abs(len(t) - c), len(t)) for t in refs))[0][1]
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * geo


def oracle_rouge(candidate, reference):
    a, b = metric_tokens(candidate), metric_tokens(reference)
    if not a or not b:
        return 0.0
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    lcs = table[-1][-1]
    if lcs == 0:
        return 0.0
    p, r = lcs / len(a), lcs / len(b)
    return 2 * p * r / (p + r)


# -- caption metrics -------------------------------------------------------------------


def test_metric_tokens_normalization():
    assert metric_tokens("The cat,  sat!") == ["the", "cat", "sat"]
    assert metric_tokens("") == []
    assert metric_tokens("a-b c") == ["ab", "c"]


def test_bleu1_degenerate_repetition():
    assert abs(bleu_n("the the the the", "the cat", 1) - 0.25) < 1e-12


def test_bleu_perfect_match_is_one():
    for n in range(1, 5):
        assert abs(bleu_n("tumor cells with atypia", "tumor cells with atypia", n) - 1.0) < 1e-12


def test_bleu_missing_order_zeroes():
    # No bigram overlap: BLEU-2 is exactly 0 without smoothing.
    assert bleu_n("tumor stroma", "stroma tumor margin", 2) == 0.0
    assert bleu_n("", "tumor", 1) == 0.0


def test_bleu_closest_reference_ties_go_shorter():
    # Candidate length 3; references length 2 and 4 tie; the shorter wins,
    # so c > r and no brevity penalty dampens the 2/3 precision.
    score = bleu_n("tumor cells margin", ["tumor cells", "tumor cells here now"], 1)
    assert abs(score - 2.0 / 3.0) < 1e-12


def test_bleu_brevity_penalty_applied():
    # Candidate shorter than reference: BP = exp(1 - r/c).
    score = bleu_n("tumor cells", "tumor cells with atypia", 1)
    assert abs(score - math.exp(1.0 - 4.0 / 2.0)) < 1e-12


def test_bleu_validation():
    with pytest.raises(UsageError):
        bleu_n("a", "b", 5)
    with pytest.raises(UsageError):
        bleu_n("a", [], 1)


@pytest.mark.parametrize("seed", range(5))
def test_bleu_matches_oracle_on_random_pairs(seed):
    rng = stream(seed, "bleu-oracle")
    for _ in range(10):
        cand = random_text(rng)
        refs = [random_text(rng) for _ in range(int(rng.integers(1, 4)))]
        for n in range(1, 5):
            assert abs(bleu_n(cand, refs, n) - oracle_bleu(cand, refs, n)) <= 1e-12


def test_rouge_hand_case():
    assert abs(rouge_l("the cat sat", "the cat") - 0.8) < 1e-12
    assert rouge_l("", "the cat") == 0.0
    assert rouge_l("the cat", "") == 0.0
    assert rouge_l("tumor", "stroma") == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_rouge_matches_oracle_on_random_pairs(seed):
    rng = stream(seed, "rouge-oracle")
    for _ in range(10):
        cand, ref = random_text(rng), random_text(rng)
        assert abs(rouge_l(cand, ref) - oracle_rouge(cand, ref)) <= 1e-12


# -- judge ----------------------------------------------------------------------------


def test_judge_parses_first_valid_integer():
    client = MockChatClient(replies=["7"])
    assert judge_caption("a", "b", client) == 7
    client = MockChatClient(replies=["Score: 9/10"])
    assert judge_caption("a", "b", client) == 9
    client = MockChatClient(replies=["0 then 10"])
    assert judge_caption("a", "b", client) == 10


def test_judge_retries_then_gives_up():
    client = MockChatClient(replies=["no score", "still none", "8"])
    assert judge_caption("a", "b", client) == 8
    client = MockChatClient(replies=["x", "y", "z"])
    assert judge_caption("a", "b", client) is None
    assert len(client.calls) == JUDGE_ATTEMPTS == 3


def test_caption_eval_without_judge():
    report = caption_eval([("tumor cells", "tumor cells"), ("stroma", "margin")])
    assert report.n == 2
    assert abs(report.bleu[1] - 0.5) < 1e-12
    assert report.judge_mean is None and report.judge_prompt_sha256 is None


def test_caption_eval_judge_mean_and_missing():
    client = MockChatClient(replies=["4", "junk", "junk", "junk", "8"])
    with Lane(client, 1) as judge:
        report = caption_eval([("a", "b"), ("c", "d"), ("e", "f")], judge=judge)
    assert report.judge_mean == 6.0
    assert report.judge_missing == 1
    assert report.judge_prompt_sha256 is not None


def test_caption_eval_threaded_keeps_order():
    client = MockChatClient(table=None, default="5")
    with Lane(client, 3) as judge:
        a = caption_eval([("a", "b")] * 6, judge=judge)
    assert a.judge_mean == 5.0 and a.judge_missing == 0
    with pytest.raises(UsageError):
        caption_eval([])


# -- choice extraction ------------------------------------------------------------------


OPTIONS = ["Invasive ductal carcinoma", "Invasive lobular carcinoma", "Benign tissue", "Other"]


def test_extract_leading_letter_forms():
    assert extract_choice("B", OPTIONS) == "B"
    assert extract_choice("b.", OPTIONS) == "B"
    assert extract_choice("(a) as seen in the image", OPTIONS) == "A"
    assert extract_choice("  C, because of the morphology", OPTIONS) == "C"
    assert extract_choice("D: other", OPTIONS) == "D"


def test_extract_exact_text_match():
    assert extract_choice("invasive lobular carcinoma", OPTIONS) == "B"
    assert extract_choice("  Benign tissue  ", OPTIONS) == "C"


def test_extract_unique_containment():
    reply = "The slide shows invasive ductal carcinoma with necrosis."
    assert extract_choice(reply, OPTIONS) == "A"


def test_extract_ambiguous_or_unknown_is_none():
    both = "Could be invasive ductal carcinoma or invasive lobular carcinoma."
    assert extract_choice(both, OPTIONS) is None
    assert extract_choice("E", OPTIONS) is None  # outside A..D
    assert extract_choice("no idea", OPTIONS) is None
    assert extract_choice("Based on the atypia, unclear", OPTIONS) is None


def test_extract_requires_options():
    with pytest.raises(UsageError):
        extract_choice("A", [])


def test_option_letters_bounds():
    assert option_letters(4) == ["A", "B", "C", "D"]
    assert option_letters(26)[-1] == "Z"
    with pytest.raises(UsageError):
        option_letters(0)
    with pytest.raises(UsageError):
        option_letters(27)


# -- records -----------------------------------------------------------------------------


def mc_record(rid, narrow="Disease Classification", answer="A", slide="s0"):
    return QARecord(
        id=rid,
        slide_id=slide,
        question="What is shown?",
        options=list(OPTIONS),
        answer=answer,
        qtype="multi-choice",
        broad=NARROW_TO_BROAD.get(narrow, "Diagnosis"),
        narrow=narrow,
    )


def sa_record(rid, answer="invasive ductal carcinoma"):
    return QARecord(
        id=rid,
        slide_id="s0",
        question="Name the diagnosis.",
        options=[],
        answer=answer,
        qtype="short-answer",
        broad="Diagnosis",
        narrow="Disease Detection",
    )


def test_taxonomy_shape():
    assert BROAD_CATEGORIES == ("Microscopy", "Diagnosis", "Clinical")
    assert sum(len(v) for v in NARROW_BY_BROAD.values()) == 13
    assert len(NARROW_TO_BROAD) == 13


def test_record_validation():
    with pytest.raises(UsageError):
        mc_record("r", narrow="Astrology")
    with pytest.raises(UsageError):
        QARecord("r", "s", "q", [], "A", "multi-choice", "Diagnosis", "Grading")
    with pytest.raises(UsageError):
        mc_record("r", answer="E")
    with pytest.raises(UsageError):
        QARecord("r", "s", "q", ["x"], "x", "short-answer", "Diagnosis", "Grading")
    with pytest.raises(UsageError):
        QARecord("r", "s", "q", ["x"], "A", "essay", "Diagnosis", "Grading")
    bad_broad = dict(
        id="r", slide_id="s", question="q", options=list(OPTIONS), answer="A",
        qtype="multi-choice", broad="Microscopy", narrow="Grading",
    )
    with pytest.raises(UsageError):
        QARecord(**bad_broad)


def test_records_round_trip(tmp_path):
    records = [mc_record("r1"), sa_record("r2")]
    path = tmp_path / "records.jsonl"
    write_jsonl(path, (rec.__dict__ for rec in records))
    back = load_records(path)
    assert back == records


def test_load_records_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x"}\n')
    with pytest.raises(UsageError):
        load_records(path)
    path.write_text("not json\n")
    with pytest.raises(UsageError):
        load_records(path)


# -- vqa scoring ---------------------------------------------------------------------


def test_vqa_eval_hand_fixture():
    records = [
        mc_record("r1", narrow="Disease Classification", answer="A"),
        mc_record("r2", narrow="Disease Classification", answer="B"),
        mc_record("r3", narrow="Grading", answer="C"),
        mc_record("r4", narrow="Tumor Characteristics", answer="D"),
        sa_record("r5"),
        sa_record("r6", answer="benign tissue"),
    ]
    predictions = {
        "r1": "A",            # correct
        "r2": "a",            # wrong letter
        "r3": "c",            # case-folds to correct
        "r5": "Invasive Ductal Carcinoma.",  # punctuation-insensitive match
        "r6": "malignant",    # wrong
        # r4 missing: incorrect
    }
    report = vqa_eval(records, predictions)
    assert report.total == 6 and report.correct == 3
    assert report.narrow_accuracy("Disease Classification") == 0.5
    assert report.narrow_accuracy("Grading") == 1.0
    assert report.narrow_accuracy("Tumor Characteristics") == 0.0
    assert report.narrow_accuracy("Disease Detection") == 0.5
    assert report.broad_accuracy("Diagnosis") == 3 / 5
    assert report.broad_accuracy("Microscopy") == 0.0
    assert report.broad_accuracy("Clinical") is None
    assert report.overall_accuracy == 0.5


def test_vqa_eval_broad_aggregation_invariant():
    rng = stream(13, "agg")
    records = []
    for i in range(60):
        narrow = list(NARROW_TO_BROAD)[int(rng.integers(13))]
        records.append(mc_record(f"r{i}", narrow=narrow, answer="A"))
    predictions = {r.id: ("A" if rng.random() < 0.5 else "B") for r in records}
    report = vqa_eval(records, predictions)
    # Broad counts must equal the sum of their narrow parts.
    for broad, members in NARROW_BY_BROAD.items():
        total = sum(report.narrow_total.get(n, 0) for n in members)
        correct = sum(report.narrow_correct.get(n, 0) for n in members)
        if total:
            assert report.broad_accuracy(broad) == correct / total
    assert report.total == 60


def test_vqa_eval_errors():
    with pytest.raises(UsageError):
        vqa_eval([mc_record("r1"), mc_record("r1")], {})
    with pytest.raises(UsageError):
        vqa_eval([mc_record("r1")], {"ghost": "A"})
    with pytest.raises(UsageError):
        CategoryReport().narrow_accuracy("Astrology")
    with pytest.raises(UsageError):
        CategoryReport().broad_accuracy("Astrology")
    assert CategoryReport().overall_accuracy is None


def test_csv_outputs(tmp_path):
    records = [mc_record("r1"), sa_record("r2")]
    predictions = {"r1": "A"}
    record_csv = tmp_path / "records.csv"
    write_record_csv(record_csv, records, predictions)
    lines = record_csv.read_text().splitlines()
    assert lines[0] == "id,slide_id,broad,narrow,answer,predicted,correct"
    assert lines[1].startswith("r1,s0,Diagnosis,Disease Classification,A,A,1")
    assert lines[2].endswith(",,0")  # missing prediction scores incorrect

    summary_csv = tmp_path / "summary.csv"
    write_summary_csv(summary_csv, vqa_eval(records, predictions))
    rows = summary_csv.read_text().splitlines()
    assert rows[0] == "level,category,correct,total,accuracy"
    assert len(rows) == 1 + 13 + 3 + 1
    assert rows[-1] == "overall,Overall,1,2,0.500000"
    empty = [r for r in rows if r.startswith("narrow,Staging")][0]
    assert empty == "narrow,Staging,0,0,"


# -- baselines ----------------------------------------------------------------------


def test_random_baseline_deterministic_and_multi_choice_only():
    records = [mc_record(f"r{i}") for i in range(20)] + [sa_record("s1")]
    a = random_baseline(records, seed=3)
    b = random_baseline(records, seed=3)
    c = random_baseline(records, seed=4)
    assert a == b
    assert a != c
    assert "s1" not in a
    assert all(v in "ABCD" for v in a.values())


def test_random_baseline_hits_quarter_on_large_sets():
    records = [mc_record(f"r{i}", answer="ABCD"[i % 4]) for i in range(4000)]
    report = vqa_eval(records, random_baseline(records, seed=0))
    assert abs(report.overall_accuracy - 0.25) <= 0.02


def test_plurality_rules():
    assert plurality(["A", "A", "B"]) == "A"
    assert plurality(["B", "A"]) == "A"  # tie breaks alphabetically
    assert plurality([]) is None
    assert plurality(["C"]) == "C"


def majority_world():
    spec = SlideSpec(448, 448, 224, [Region("tumor", 0, 0, 448, 448)])
    raster, _ = synth_slide(4, spec)
    return raster, tile_slide(raster)


def test_majority_vote_counts_and_votes():
    raster, grid = majority_world()
    calls = []

    def model(patch):
        calls.append(patch)
        return "B" if len(calls) % 2 else "A"

    answer = majority_vote_baseline(raster, grid, model, OPTIONS, k_patches=30, seed=0)
    assert len(calls) == 4  # only 4 tissue patches exist; k clamps
    assert all(p.width == 224 and p.height == 224 for p in calls)
    # Each vote sees the pixels under its grid entry, in grid order.
    for patch, e in zip(calls, grid.tissue_entries(), strict=True):
        np.testing.assert_array_equal(patch.pixels, raster.pixels[e.y : e.y + 224, e.x : e.x + 224])
    assert len({p.pixels.tobytes() for p in calls}) == 4
    assert answer == "A"  # 2-2 tie breaks alphabetically


def test_majority_vote_deterministic_sampling():
    raster, grid = majority_world()
    seen = []

    def model(patch):
        seen.append(patch.pixels.tobytes())
        return "A"

    majority_vote_baseline(raster, grid, model, OPTIONS, k_patches=2, seed=5)
    first = list(seen)
    seen.clear()
    majority_vote_baseline(raster, grid, model, OPTIONS, k_patches=2, seed=5)
    assert seen == first


def test_majority_vote_unparseable_replies_cast_no_vote():
    raster, grid = majority_world()
    assert majority_vote_baseline(raster, grid, lambda p: "hmm", OPTIONS) is None


def test_majority_vote_needs_tissue():
    raster = Raster.from_pixels(np.full((448, 448, 3), 255, dtype=np.uint8))
    grid = tile_slide(raster)
    with pytest.raises(UsageError):
        majority_vote_baseline(raster, grid, lambda p: "A", OPTIONS)


def test_thumbnail_baseline_shape_and_errors():
    raster, _ = majority_world()
    received = []

    def model(thumb):
        received.append(thumb)
        return "C"

    assert thumbnail_baseline(raster, model, OPTIONS, target=64) == "C"
    assert received[0].width == received[0].height == 64
    with pytest.raises(UsageError):
        thumbnail_baseline(None, model, OPTIONS)
