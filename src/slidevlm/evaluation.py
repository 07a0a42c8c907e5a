"""Caption metrics, closed-set VQA scoring, and slide-level answer baselines.

Metric tokenization is deliberately simple (lowercase, punctuation stripped,
whitespace split) and documented here because every score in this module
depends on it; changing it silently would make runs incomparable.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .jsonio import read_jsonl
from .numerics import UsageError, stream
from .slide_io import PatchGrid, Raster, thumbnail

# -- tokenization -------------------------------------------------------------------

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def metric_tokens(text: str) -> list[str]:
    """Lowercase, drop punctuation characters, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


# -- caption metrics ----------------------------------------------------------------


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu_n(candidate: str, references: str | Sequence[str], n: int) -> float:
    """BLEU-n: clipped modified precisions, geometric mean, brevity penalty.

    No smoothing: a missing n-gram order zeroes the score, as in the
    original definition.
    """
    if not 1 <= n <= 4:
        raise UsageError("bleu_n supports n in 1..4")
    if isinstance(references, str):
        references = [references]
    if not references:
        raise UsageError("bleu_n needs at least one reference")
    cand = metric_tokens(candidate)
    refs = [metric_tokens(r) for r in references]
    if not cand:
        return 0.0
    log_sum = 0.0
    for k in range(1, n + 1):
        counts = _ngrams(cand, k)
        total = sum(counts.values())
        if total == 0:
            return 0.0
        ref_counts = [_ngrams(r, k) for r in refs]
        clipped = 0
        for gram, count in counts.items():
            best = max(rc[gram] for rc in ref_counts)
            clipped += min(count, best)
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    c = len(cand)
    # Closest reference length; ties go to the shorter reference.
    r = min((abs(len(t) - c), len(t)) for t in refs)[1]
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(log_sum / n)


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: str, reference: str) -> float:
    """LCS-based F-measure, F = 2PR / (P + R). Both sides empty scores 0."""
    cand = metric_tokens(candidate)
    ref = metric_tokens(reference)
    if not cand or not ref:
        return 0.0
    lcs = _lcs_len(cand, ref)
    if lcs == 0:
        return 0.0
    p = lcs / len(cand)
    r = lcs / len(ref)
    return 2 * p * r / (p + r)


# -- external judge -----------------------------------------------------------------

JUDGE_PROMPT = """You are grading a generated pathology slide description against a reference description written by an expert.

Reference description:
{reference}

Generated description:
{candidate}

Rate how well the generated description matches the reference in content, correctness, and completeness. Reply with a single overall score as an integer from 1 to 10, where 1 means entirely wrong and 10 means a perfect match."""

JUDGE_PROMPT_SHA256 = hashlib.sha256(JUDGE_PROMPT.encode("utf-8")).hexdigest()

JUDGE_ATTEMPTS = 3  # unparseable judge replies tolerated per caption

_INT_RE = re.compile(r"\d+")


def _parse_judge_reply(reply: str) -> int | None:
    # First integer in 1..10, scanning left to right ("Score: 9/10" -> 9).
    for token in _INT_RE.findall(reply):
        value = int(token)
        if 1 <= value <= 10:
            return value
    return None


def judge_caption(candidate: str, reference: str, client) -> int | None:
    """Score a caption 1..10 with an external chat model.

    Returns None after JUDGE_ATTEMPTS unparseable replies; callers report
    such records as missing rather than folding them into the mean.
    """
    prompt = JUDGE_PROMPT.format(reference=reference, candidate=candidate)
    for _ in range(JUDGE_ATTEMPTS):
        score = _parse_judge_reply(client.complete(prompt))
        if score is not None:
            return score
    return None


@dataclass
class CaptionReport:
    """Corpus-level caption metrics; judge fields stay None without a client."""

    n: int
    bleu: dict[int, float]
    rouge_l: float
    judge_mean: float | None = None
    judge_missing: int = 0
    judge_prompt_sha256: str | None = None


def caption_eval(pairs: Sequence[tuple[str, str]], judge=None) -> CaptionReport:
    """Mean BLEU-1..4 and ROUGE-L over (candidate, reference) pairs.

    With a `judge`, a `curation.Lane` over a chat client, `judge_caption`
    scores each pair on the lane's workers too; results keep input order
    so reports are deterministic.
    """
    if not pairs:
        raise UsageError("caption_eval needs at least one pair")
    bleu = {n: sum(bleu_n(c, r, n) for c, r in pairs) / len(pairs) for n in range(1, 5)}
    rouge = sum(rouge_l(c, r) for c, r in pairs) / len(pairs)
    report = CaptionReport(n=len(pairs), bleu=bleu, rouge_l=rouge)
    if judge is not None:
        asked = [judge.submit(judge_caption, c, r, judge.client) for c, r in pairs]
        scores = [f.result() for f in asked]
        kept = [s for s in scores if s is not None]
        report.judge_mean = sum(kept) / len(kept) if kept else None
        report.judge_missing = len(scores) - len(kept)
        report.judge_prompt_sha256 = JUDGE_PROMPT_SHA256
    return report


# -- VQA records and taxonomy -------------------------------------------------------

NARROW_BY_BROAD: dict[str, tuple[str, ...]] = {
    "Microscopy": (
        "Tissue Architecture and Arrangement",
        "Tumor Characteristics",
        "Cytomorphological Characteristics",
        "Histopathological Changes",
    ),
    "Diagnosis": (
        "Disease Detection",
        "Disease Classification",
        "Staging",
        "Grading",
        "Differential Diagnosis",
    ),
    "Clinical": (
        "Treatment Guidance",
        "Biomarker Analysis",
        "Risk Factors",
        "Prognostic Assessment",
    ),
}

BROAD_CATEGORIES: tuple[str, ...] = tuple(NARROW_BY_BROAD)

NARROW_TO_BROAD: dict[str, str] = {
    narrow: broad for broad, members in NARROW_BY_BROAD.items() for narrow in members
}


def option_letters(count: int) -> list[str]:
    if not 1 <= count <= 26:
        raise UsageError("option count must be 1..26")
    return [chr(ord("A") + i) for i in range(count)]


@dataclass
class QARecord:
    """One benchmark item; `answer` is a letter for multi-choice, text otherwise."""

    id: str
    slide_id: str
    question: str
    options: list[str]
    answer: str
    qtype: str
    broad: str
    narrow: str

    def __post_init__(self):
        if self.qtype not in ("multi-choice", "short-answer"):
            raise UsageError(f"unknown question type {self.qtype!r}")
        if self.narrow not in NARROW_TO_BROAD:
            raise UsageError(f"unknown narrow category {self.narrow!r}")
        if NARROW_TO_BROAD[self.narrow] != self.broad:
            raise UsageError(f"narrow {self.narrow!r} does not belong to broad {self.broad!r}")
        if self.qtype == "multi-choice":
            if not self.options:
                raise UsageError("multi-choice record needs options")
            if self.answer not in option_letters(len(self.options)):
                raise UsageError(f"answer {self.answer!r} outside options A..")
        elif self.options:
            raise UsageError("short-answer record must not carry options")


_RECORD_SCHEMA = {
    **dict.fromkeys(("id", "slide_id", "question", "answer", "qtype", "broad", "narrow"), str),
    "options": list[str],
}


def load_records(path) -> list[QARecord]:
    """Read line-delimited records; unknown or missing keys and wrongly typed values are errors."""
    return read_jsonl(path, _RECORD_SCHEMA, QARecord)


# -- choice extraction --------------------------------------------------------------

_LEAD_RE = re.compile(r"\s*\(?([A-Za-z])[\)\.,:]?(?=\s|$)")


def extract_choice(reply: str, options: Sequence[str]) -> str | None:
    """Map a free-form reply to an option letter; first matching rule wins.

    Rules: a leading letter ("B", "B.", "(B)"), exact option-text match,
    then option text contained in the reply if exactly one option matches.
    Anything else is None and scores incorrect.
    """
    if not options:
        raise UsageError("extract_choice needs options")
    letters = option_letters(len(options))
    match = _LEAD_RE.match(reply)
    if match:
        letter = match.group(1).upper()
        if letter in letters:
            return letter
    folded = reply.strip().casefold()
    for letter, option in zip(letters, options):
        if folded == option.strip().casefold():
            return letter
    contained = [
        letter
        for letter, option in zip(letters, options)
        if option.strip().casefold() in folded
    ]
    if len(contained) == 1:
        return contained[0]
    return None


# -- VQA scoring --------------------------------------------------------------------


@dataclass
class CategoryReport:
    """Accuracy rollup: narrow -> broad -> overall, with counts.

    Categories with no records report accuracy None, never 0/0.
    """

    narrow_correct: dict[str, int] = field(default_factory=dict)
    narrow_total: dict[str, int] = field(default_factory=dict)

    def narrow_accuracy(self, name: str) -> float | None:
        if name not in NARROW_TO_BROAD:
            raise UsageError(f"unknown narrow category {name!r}")
        total = self.narrow_total.get(name, 0)
        return self.narrow_correct.get(name, 0) / total if total else None

    def broad_accuracy(self, name: str) -> float | None:
        if name not in NARROW_BY_BROAD:
            raise UsageError(f"unknown broad category {name!r}")
        correct = sum(self.narrow_correct.get(n, 0) for n in NARROW_BY_BROAD[name])
        total = sum(self.narrow_total.get(n, 0) for n in NARROW_BY_BROAD[name])
        return correct / total if total else None

    @property
    def total(self) -> int:
        return sum(self.narrow_total.values())

    @property
    def correct(self) -> int:
        return sum(self.narrow_correct.values())

    @property
    def overall_accuracy(self) -> float | None:
        return self.correct / self.total if self.total else None


def _answer_correct(record: QARecord, predicted: str | None) -> bool:
    if predicted is None:
        return False
    if record.qtype == "multi-choice":
        return predicted.strip().upper() == record.answer
    return metric_tokens(predicted) == metric_tokens(record.answer)


def vqa_eval(
    records: Sequence[QARecord], predictions: Mapping[str, str | None]
) -> CategoryReport:
    """Score predictions (letters, or text for short-answer) against records.

    A record without a prediction counts as incorrect; a prediction without
    a record is a usage error.
    """
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        raise UsageError("duplicate record ids")
    unknown = set(predictions) - set(ids)
    if unknown:
        raise UsageError(f"predictions for unknown record ids: {sorted(unknown)}")
    report = CategoryReport()
    for record in records:
        report.narrow_total[record.narrow] = report.narrow_total.get(record.narrow, 0) + 1
        if _answer_correct(record, predictions.get(record.id)):
            report.narrow_correct[record.narrow] = (
                report.narrow_correct.get(record.narrow, 0) + 1
            )
    return report


def write_record_csv(path, records: Sequence[QARecord], predictions: Mapping[str, str | None]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "slide_id", "broad", "narrow", "answer", "predicted", "correct"])
        for rec in records:
            pred = predictions.get(rec.id)
            writer.writerow(
                [
                    rec.id,
                    rec.slide_id,
                    rec.broad,
                    rec.narrow,
                    rec.answer,
                    "" if pred is None else pred,
                    int(_answer_correct(rec, pred)),
                ]
            )


def write_summary_csv(path, report: CategoryReport) -> None:
    """Summary rows: the 13 narrow categories, the 3 broad ones, then overall."""

    def fmt(acc: float | None) -> str:
        return "" if acc is None else f"{acc:.6f}"

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "category", "correct", "total", "accuracy"])
        for broad, members in NARROW_BY_BROAD.items():
            for narrow in members:
                writer.writerow(
                    [
                        "narrow",
                        narrow,
                        report.narrow_correct.get(narrow, 0),
                        report.narrow_total.get(narrow, 0),
                        fmt(report.narrow_accuracy(narrow)),
                    ]
                )
        for broad in BROAD_CATEGORIES:
            correct = sum(report.narrow_correct.get(n, 0) for n in NARROW_BY_BROAD[broad])
            total = sum(report.narrow_total.get(n, 0) for n in NARROW_BY_BROAD[broad])
            writer.writerow(["broad", broad, correct, total, fmt(report.broad_accuracy(broad))])
        writer.writerow(["overall", "Overall", report.correct, report.total, fmt(report.overall_accuracy)])


# -- baselines ----------------------------------------------------------------------


def random_baseline(records: Sequence[QARecord], seed: int = 0) -> dict[str, str]:
    """Uniform letter per multi-choice record, deterministic under seed."""
    rng = stream(seed, "random-baseline")
    out = {}
    for record in records:
        if record.qtype != "multi-choice":
            continue
        letters = option_letters(len(record.options))
        out[record.id] = letters[int(rng.integers(len(letters)))]
    return out


def plurality(votes: Sequence[str]) -> str | None:
    """Most common vote; ties break alphabetically; no votes is None."""
    if not votes:
        return None
    counts = Counter(votes)
    best = max(counts.values())
    return min(letter for letter, count in counts.items() if count == best)


def majority_vote_baseline(
    raster: Raster,
    grid: PatchGrid,
    model: Callable[[Raster], str],
    options: Sequence[str],
    k_patches: int = 30,
    seed: int = 0,
) -> str | None:
    """Answer from per-patch votes over a seeded patch sample.

    Samples up to `k_patches` tissue patches without replacement, asks the
    model about each, maps replies to letters, and takes the plurality.
    Replies that map to no option simply cast no vote.
    """
    if k_patches < 0:
        raise UsageError(f"majority vote k must be >= 0, got {k_patches}")
    tissue = grid.tissue_entries()
    if not tissue:
        raise UsageError("majority vote needs at least one tissue patch")
    rng = stream(seed, "majority-vote")
    k = min(k_patches, len(tissue))
    picked = sorted(rng.choice(len(tissue), size=k, replace=False).tolist())
    ps = grid.patch_size
    votes = []
    for index in picked:
        entry = tissue[index]
        patch = Raster.from_pixels(raster.pixels[entry.y : entry.y + ps, entry.x : entry.x + ps])
        choice = extract_choice(model(patch), options)
        if choice is not None:
            votes.append(choice)
    return plurality(votes)


def thumbnail_baseline(
    raster: Raster | None,
    model: Callable[[Raster], str],
    options: Sequence[str],
    target: int = 1024,
) -> str | None:
    """Single model call on the square slide thumbnail."""
    if raster is None:
        raise UsageError("thumbnail baseline needs slide pixels")
    return extract_choice(model(thumbnail(raster, target)), options)
