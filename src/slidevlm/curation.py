"""Instruction-data pipeline: clean reports, generate captions and QA pairs,
filter text-answerable questions, split slides, and turn labels into VQA.

Every stage asks its endpoint through a `Lane`, which holds a client of a
tiny interface (scripted mocks in tests, JSON over HTTP in anger), its
worker threads and the reply cache. A reply's key is the sha256 of the
prompt sent, with the model: the cache and replay files share it, so an
edited template or scope is a miss, and re-running a finished pipeline
touches the cache only.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import re
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Generic, Protocol, Sequence, TypeVar

from .evaluation import NARROW_BY_BROAD, NARROW_TO_BROAD, QARecord, extract_choice, option_letters
from .jsonio import read_json, read_jsonl, write_jsonl
from .numerics import UsageError, stream
from .prompts import caption_prompt, label_question, qa_prompt, report_clean_prompt


class ClientError(RuntimeError):
    """A chat call failed for good, retries included."""


def prompt_hash(prompt: str) -> str:
    """A reply's key, with its model: the sha256 of the prompt sent."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ChatClient(Protocol):
    model: str

    def complete(self, prompt: str, temperature: float = 0.0) -> str: ...


# -- clients ------------------------------------------------------------------------


# Retry k + 1 waits BACKOFF_BASE * 2**k seconds, at most BACKOFF_CAP.
BACKOFF_BASE = 1.0
BACKOFF_CAP = 30.0


@dataclass
class EndpointConfig:
    base_url: str = ""
    model: str = ""
    auth_env: str = "CHAT_API_TOKEN"
    timeout: float = 60.0
    max_retries: int = 3

    def __post_init__(self):
        if self.timeout <= 0:
            raise UsageError(f"timeout must be > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise UsageError(f"max_retries must be >= 0, got {self.max_retries}")


class LiveChatClient:
    """Chat-completion endpoint speaking the usual JSON contract.

    Timeouts, dropped connections, HTTP 429 and 5xx retry with exponential
    backoff up to BACKOFF_CAP, then raise ClientError. Any other
    HTTP error or a malformed reply body cannot pass on a retry and raises
    ClientError at once.
    """

    def __init__(self, config: EndpointConfig):
        import requests

        self._requests = requests
        self._transient = (requests.Timeout, requests.ConnectionError)
        self.config = config
        self.model = config.model
        token = os.environ.get(config.auth_env, "")
        self._headers = {"Content-Type": "application/json"}
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        last = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (attempt - 1)))
            try:
                resp = self._requests.post(
                    url, json=payload, headers=self._headers, timeout=self.config.timeout
                )
            except self._transient as exc:
                last = exc
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                last = f"HTTP {resp.status_code}"
                continue
            if resp.status_code >= 400:
                raise ClientError(f"chat call failed: HTTP {resp.status_code}")
            try:
                reply = resp.json()["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError) as exc:
                raise ClientError(f"chat reply is malformed: {exc!r}") from exc
            if not isinstance(reply, str):
                raise ClientError(f"chat reply content is {type(reply).__name__}, not text")
            return reply
        raise ClientError(f"chat call failed after {self.config.max_retries + 1} attempts: {last}")


def read_replay(path) -> dict[str, str]:
    """Replay file: one JSON object whose values are all reply strings."""
    table = read_json(path)
    bad = sorted(key for key, reply in table.items() if not isinstance(reply, str))
    if bad:
        raise UsageError(f"{path}: replies for {bad[:3]} are not strings")
    return table


class MockChatClient:
    """Scripted stand-in: reply sequence, prompt table, or replay file.

    A None reply in the sequence simulates a dead endpoint and raises
    ClientError, which is how tests exercise the flag-and-continue path.
    """

    def __init__(
        self,
        replies: Sequence[str | None] | None = None,
        table: dict[str, str] | None = None,
        default: str | None = None,
        model: str = "mock",
        by_hash: dict[str, str] | None = None,
    ):
        self.replies = list(replies) if replies is not None else None
        self.table = dict(table) if table is not None else None
        self.default = default
        self.model = model
        self.by_hash = by_hash
        self.calls: list[str] = []
        self._lock = threading.Lock()

    @classmethod
    def from_replay(cls, path, model: str = "replay") -> "MockChatClient":
        """Replay file: JSON object mapping `prompt_hash(prompt)` to reply."""
        return cls(model=model, by_hash=read_replay(path))

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        self.calls.append(prompt)
        if self.by_hash is not None:
            key = prompt_hash(prompt)
            if key not in self.by_hash:
                raise ClientError(f"no replay entry for prompt hash {key[:12]}")
            return self.by_hash[key]
        if self.table is not None and prompt in self.table:
            return self.table[prompt]
        if self.replies is not None:
            with self._lock:  # concurrent callers must not both take the last reply
                exhausted = not self.replies
                reply = None if exhausted else self.replies.pop(0)
            if exhausted:
                raise ClientError("mock reply sequence exhausted")
            if reply is None:
                raise ClientError("mock scripted failure")
            return reply
        if self.default is not None:
            return self.default
        raise ClientError("mock has no reply for this prompt")


# -- reply cache --------------------------------------------------------------------

_ENTRY = {"prompt_hash": str, "model": str, "reply": str}


class PromptCache:
    """Replies by (prompt hash, model), in one append-only log.

    `cache.jsonl` under `root` holds one entry per line: the two key
    fields and the reply. Opening the cache reads the log into a dict that
    lookups use. Each store appends its line with a single `os.write` on an
    `O_APPEND` descriptor, under an instance lock and an exclusive `flock`,
    and updates the dict; so threads and processes may store at once, and
    lines never mix. A final line without its newline is a store cut short:
    opening the cache drops it, and the next store starts a fresh line. Any
    other malformed line is a UsageError naming `path:line`.
    """

    def __init__(self, root):
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        self.path = root / "cache.jsonl"
        self._lock = threading.Lock()
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)  # no store of another process is half written
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                os.ftruncate(fd, os.pread(fd, size, 0).rfind(b"\n") + 1)
            rows = read_jsonl(self.path, _ENTRY)
        finally:
            os.close(fd)
        self._replies = {(r["prompt_hash"], r["model"]): r["reply"] for r in rows}

    def lookup(self, key: str, model: str) -> str | None:
        return self._replies.get((key, model))

    def store(self, key: str, model: str, reply: str) -> None:
        entry = {"prompt_hash": key, "model": model, "reply": reply}
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        with self._lock:
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                written = os.write(fd, line)
            finally:
                os.close(fd)
            if written != len(line):
                raise OSError(f"{self.path}: wrote {written} of {len(line)} bytes")
            self._replies[(key, model)] = reply


# -- call lanes ---------------------------------------------------------------------

T = TypeVar("T")


class Lane(ThreadPoolExecutor):
    """A chat endpoint: its client, `jobs` worker threads and the reply cache.

    `ask` reads the cache in the calling thread and only hands a miss to
    the lane's workers, so the endpoint never has more than `jobs` requests
    in flight, however many threads ask.
    """

    def __init__(self, client: ChatClient, jobs: int, cache: PromptCache | None = None):
        if jobs < 1:
            raise UsageError(f"jobs must be >= 1, got {jobs}")
        super().__init__(max_workers=jobs, thread_name_prefix=f"lane-{client.model}")
        self.client = client
        self.cache = cache

    def ask(self, prompt: str) -> Future:
        """The reply to `prompt`, as a future: settled at once on a cache hit,
        else asked of the endpoint on a worker, which stores the reply."""
        key, model = prompt_hash(prompt), self.client.model
        hit = None if self.cache is None else self.cache.lookup(key, model)
        if hit is not None:
            done = Future()
            done.set_result(hit)
            return done

        def fetch() -> str:
            reply = self.client.complete(prompt)
            if self.cache is not None:
                self.cache.store(key, model, reply)
            return reply

        return self.submit(fetch)


class Pending(Generic[T]):
    """A stage result whose chat replies may still be on their way.

    `result()` waits for them and finishes the stage in the calling thread.
    """

    def __init__(self, finish: Callable[[], T]):
        self._finish = finish

    def result(self) -> T:
        return self._finish()


# -- pipeline records ---------------------------------------------------------------


@dataclass
class ReportRecord:
    """One pathology report and the slides it describes."""

    patient_id: str
    report_text: str
    slide_ids: list[str]
    cleaned: str | None = None

    def __post_init__(self):
        if not self.slide_ids:
            raise UsageError(f"report {self.patient_id!r} links no slides")


@dataclass
class QACandidate:
    """A generated question before filtering, with its provenance: the
    source report, the hash of the QA prompt it came from (its reply's
    key) and, in report order, every slide it links (`record.slide_id` is
    the first)."""

    record: QARecord
    reasoning: str | None
    source_report: str
    prompt_hash: str
    slide_ids: list[str] = field(default_factory=list)


@dataclass
class DropReason:
    item: int
    reason: str
    payload: str


@dataclass
class FilterVerdict:
    """Text-only ensemble outcome; kept iff fewer than 3 of 4 were right."""

    correct: tuple[bool, bool, bool, bool]
    failed: tuple[bool, bool, bool, bool]
    kept: bool
    reason: str


# -- chat stages --------------------------------------------------------------------


def clean_report(record: ReportRecord, lane: Lane) -> str:
    """Strip boilerplate from one report via the pinned cleaning template."""
    if not record.report_text.strip():
        raise UsageError(f"report {record.patient_id!r} is empty")
    reply = lane.ask(report_clean_prompt(record.report_text))
    return reply.result().strip()


def _one_paragraph(text: str) -> str:
    lines = [ln.strip() for ln in text.splitlines()]
    return " ".join(ln for ln in lines if ln)


def gen_caption(cleaned: str, lane: Lane) -> Pending[str]:
    """Summarize a cleaned report; multi-paragraph replies collapse to one."""
    if not cleaned.strip():
        raise UsageError("cannot caption an empty report")
    reply = lane.ask(caption_prompt(cleaned))
    return Pending(lambda: _one_paragraph(reply.result()))


_FENCE_RE = re.compile(r"```[a-zA-Z]*\n?|```")

_QTYPE_MAP = {
    "multi-choice questions": "multi-choice",
    "multi-choice": "multi-choice",
    "short-answer questions": "short-answer",
    "short-answer": "short-answer",
}


def _json_objects(text: str) -> list[str]:
    """Balanced top-level {...} spans; tolerates prose and code fences."""
    text = _FENCE_RE.sub("", text)
    spans = []
    depth = 0
    start = None
    in_string = False
    escape = False
    for i, ch in enumerate(text):
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "}" and depth:
            depth -= 1
            if depth == 0:
                spans.append(text[start : i + 1])
    return spans


def _candidate_from_item(
    raw: dict,
    broad: str,
    source_report: str,
    slide_ids: Sequence[str],
    seq: int,
    prompt_h: str,
) -> QACandidate | str:
    """Validate one parsed item; returns the candidate or a drop reason."""
    qtype_raw = raw.get("question type")
    qtype = _QTYPE_MAP.get(qtype_raw if isinstance(qtype_raw, str) else "")
    if qtype is None:
        return f"unknown question type {qtype_raw!r}"
    question = raw.get("question")
    if not isinstance(question, str) or not question.strip():
        return "missing question text"
    narrow = raw.get("narrow category")
    if not isinstance(narrow, str) or narrow not in NARROW_TO_BROAD:
        return f"missing or unknown narrow category {narrow!r}"
    if NARROW_TO_BROAD[narrow] != broad:
        return f"narrow category {narrow!r} outside requested broad {broad!r}"
    reported_broad = raw.get("broad category")
    if reported_broad != broad:
        return f"broad category {reported_broad!r} does not match request {broad!r}"
    options = raw.get("options")
    if not isinstance(options, list) or not all(isinstance(o, str) for o in options):
        return "options must be a list of strings"
    answer = raw.get("answer")
    if not isinstance(answer, str) or not answer.strip():
        return "missing answer"
    if qtype == "multi-choice":
        if len(options) != 4:
            return f"multi-choice needs exactly 4 options, got {len(options)}"
        letter = extract_choice(answer, options)
        if letter is None:
            return f"answer {answer!r} does not resolve to one option"
        answer = letter
    else:
        if options:
            return "short-answer item carries options"
    reasoning = raw.get("reasoning")
    record = QARecord(
        id=f"{source_report}-{broad.lower()}-{seq:03d}",
        slide_id=slide_ids[0] if slide_ids else "",
        question=question.strip(),
        options=list(options),
        answer=answer,
        qtype=qtype,
        broad=broad,
        narrow=narrow,
    )
    return QACandidate(
        record=record,
        reasoning=reasoning if isinstance(reasoning, str) else None,
        source_report=source_report,
        prompt_hash=prompt_h,
        slide_ids=list(slide_ids),
    )


def gen_qas(
    cleaned: str,
    broad: str,
    lane: Lane,
    source_report: str = "report",
    slide_ids: Sequence[str] = (),
) -> Pending[tuple[list[QACandidate], list[DropReason]]]:
    """Generate QA candidates for one broad category of one cleaned report.

    Every JSON object in the reply is validated independently; malformed
    ones come back as DropReasons instead of killing the batch. Each
    candidate carries `slide_ids`, and its record names the first.
    """
    if broad not in NARROW_BY_BROAD:
        raise UsageError(f"unknown broad category {broad!r}")
    if not cleaned.strip():
        raise UsageError("cannot generate questions from an empty report")
    prompt = qa_prompt(cleaned, broad)
    reply = lane.ask(prompt)
    key = prompt_hash(prompt)
    return Pending(lambda: _parse_qas(reply.result(), broad, source_report, slide_ids, key))


def _parse_qas(
    reply: str, broad: str, source_report: str, slide_ids: Sequence[str], prompt_h: str
) -> tuple[list[QACandidate], list[DropReason]]:
    candidates: list[QACandidate] = []
    drops: list[DropReason] = []
    spans = _json_objects(reply)
    if not spans:
        drops.append(DropReason(0, "no JSON objects in reply", reply[:200]))
        return candidates, drops
    for index, span in enumerate(spans):
        try:
            raw = json.loads(span)
        except json.JSONDecodeError as exc:
            drops.append(DropReason(index, f"invalid JSON: {exc}", span[:200]))
            continue
        result = _candidate_from_item(raw, broad, source_report, slide_ids, len(candidates), prompt_h)
        if isinstance(result, str):
            drops.append(DropReason(index, result, span[:200]))
        else:
            candidates.append(result)
    return candidates, drops


# -- text-only ensemble filter ------------------------------------------------------

FILTER_PROMPT_TEMPLATE = (
    "{question}\n{options}\nAnswer with the letter of the correct option."
)


def filter_prompt(record: QARecord) -> str:
    lines = "\n".join(
        f"{letter}. {text}"
        for letter, text in zip(option_letters(len(record.options)), record.options)
    )
    return FILTER_PROMPT_TEMPLATE.format(question=record.question, options=lines)


def ensemble_filter(qa: QACandidate, lanes: Sequence[Lane]) -> Pending[FilterVerdict]:
    """Ask 4 models the question without any slide; keep iff < 3 are right.

    A question three text-only models can answer needs no image, so it
    measures nothing about the slide. All four are asked before this
    returns: cached replies are read here, and each miss goes to its
    model's lane. The verdict waits for the replies. Client failures count
    as incorrect and are flagged.
    """
    if len(lanes) != 4:
        raise UsageError("ensemble filter needs exactly 4 lanes")
    if qa.record.qtype != "multi-choice":
        raise UsageError("ensemble filter applies to multi-choice candidates")
    prompt = filter_prompt(qa.record)
    asked = [lane.ask(prompt) for lane in lanes]

    def answer(reply: Future) -> str | None:
        try:
            return reply.result()
        except ClientError:
            return None

    def verdict() -> FilterVerdict:
        replies = [answer(reply) for reply in asked]
        failed = tuple(reply is None for reply in replies)
        correct = tuple(
            not gone and extract_choice(reply, qa.record.options) == qa.record.answer
            for reply, gone in zip(replies, failed)
        )
        n_right = sum(correct)
        return FilterVerdict(
            correct=correct,
            failed=failed,
            kept=n_right < 3,
            reason=f"{n_right}/4 text-only models answered correctly",
        )

    return Pending(verdict)


# -- train/test split ---------------------------------------------------------------


@dataclass
class SplitResult:
    train: set[str]
    test: set[str]


def split_assign(reports: Sequence[ReportRecord], seed: int = 0) -> SplitResult:
    """Slides of multi-slide reports all train; single-slide reports split 80/20.

    The 20% test count rounds half up. A slide linked to two reports is a
    usage error because it would leak across the boundary.
    """
    seen: dict[str, str] = {}
    for report in reports:
        for slide in report.slide_ids:
            if slide in seen:
                raise UsageError(
                    f"slide {slide!r} linked to reports {seen[slide]!r} and {report.patient_id!r}"
                )
            seen[slide] = report.patient_id
    train: set[str] = set()
    singles: list[str] = []
    for report in reports:
        if len(report.slide_ids) > 1:
            train.update(report.slide_ids)
        else:
            singles.extend(report.slide_ids)
    singles.sort()
    rng = stream(seed, "split")
    order = rng.permutation(len(singles))
    n_test = (len(singles) + 2) // 5
    test = {singles[int(i)] for i in order[:n_test]}
    train.update(singles[int(i)] for i in order[n_test:])
    return SplitResult(train=train, test=test)


# -- label-to-VQA transformation ----------------------------------------------------

# Task -> option list, in the documented fixed order; answers letter from it.
BCNB_TASKS: dict[str, tuple[str, ...]] = {
    "ER Status": ("Positive", "Negative"),
    "PR Status": ("Positive", "Negative"),
    "HER2 Status": ("Positive", "Negative"),
    "HER2 Expression": ("0", "1+", "2+", "3+"),
    "Histological Grading": ("1", "2", "3"),
    "Molecular Subtype": ("Luminal A", "Luminal B", "HER2(+)", "Triple negative"),
    "Tumor Type": ("Invasive ductal carcinoma", "Invasive lobular carcinoma", "Other Type"),
}

BCNB_TASK_CATEGORIES: dict[str, tuple[str, str]] = {
    "ER Status": ("Clinical", "Biomarker Analysis"),
    "PR Status": ("Clinical", "Biomarker Analysis"),
    "HER2 Status": ("Clinical", "Biomarker Analysis"),
    "HER2 Expression": ("Clinical", "Biomarker Analysis"),
    "Histological Grading": ("Diagnosis", "Grading"),
    "Molecular Subtype": ("Diagnosis", "Disease Classification"),
    "Tumor Type": ("Diagnosis", "Disease Classification"),
}


def labels_to_vqa(
    task: str,
    labels: Sequence[str],
    slide_label: str,
    slide_id: str = "",
    broad: str | None = None,
    narrow: str | None = None,
) -> QARecord:
    """Turn a classification label into a lettered multi-choice record.

    Options keep the given order so answer letters are reproducible run to
    run. The record id is `{slide_id}:{task}`. Categories come from the
    built-in task table unless given.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise UsageError("duplicate labels")
    letters = option_letters(len(labels))
    if slide_label not in labels:
        raise UsageError(f"label {slide_label!r} not in label set")
    if broad is None or narrow is None:
        if task not in BCNB_TASK_CATEGORIES:
            raise UsageError(f"unknown task {task!r}: pass broad and narrow explicitly")
        broad, narrow = BCNB_TASK_CATEGORIES[task]
    return QARecord(
        id=f"{slide_id}:{task}",
        slide_id=slide_id,
        question=label_question(task),
        options=labels,
        answer=letters[labels.index(slide_label)],
        qtype="multi-choice",
        broad=broad,
        narrow=narrow,
    )


# -- batch driver -------------------------------------------------------------------


@dataclass
class CurationResult:
    """Everything one pipeline pass produced, ordered by patient id."""

    cleaned: dict[str, str] = field(default_factory=dict)
    captions: dict[str, str] = field(default_factory=dict)
    candidates: list[QACandidate] = field(default_factory=list)
    drops: list[DropReason] = field(default_factory=list)
    verdicts: dict[str, FilterVerdict] = field(default_factory=dict)
    kept: list[QACandidate] = field(default_factory=list)
    flagged: dict[str, str] = field(default_factory=dict)


def run_curation(
    reports: Sequence[ReportRecord],
    client: ChatClient,
    cache: PromptCache | None = None,
    filter_clients: Sequence[ChatClient] | None = None,
    broads: Sequence[str] = tuple(NARROW_BY_BROAD),
    jobs: int = 4,
) -> CurationResult:
    """Run clean -> caption -> QA -> filter over a batch of reports.

    The chat client and each filter client get a lane of `jobs` workers
    over `cache`, so no chat endpoint ever has more than `jobs` requests
    in flight. Each of `jobs` report threads cleans its report, then asks
    for the caption and the questions of every broad at once, then asks
    the filter about all its multi-choice candidates at once. Cache hits
    are read in the report thread; only misses go to a lane. At `jobs = 1`
    each endpoint takes its calls one at a time, in this order. Results
    keep patient-id order. A report whose chat calls die lands in `flagged` and the batch
    moves on. Short-answer candidates bypass the filter.
    """
    ids = [r.patient_id for r in reports]
    if len(set(ids)) != len(ids):
        raise UsageError("duplicate patient ids")
    ordered = sorted(reports, key=lambda r: r.patient_id)

    def one(report: ReportRecord) -> CurationResult:
        pid = report.patient_id
        part = CurationResult()
        try:
            part.cleaned[pid] = cleaned = clean_report(report, chat)
            caption = gen_caption(cleaned, chat)
            qas = [
                gen_qas(cleaned, broad, chat, source_report=pid, slide_ids=report.slide_ids)
                for broad in broads
            ]
            part.captions[pid] = caption.result()
            for pending in qas:
                got, dropped = pending.result()
                part.candidates.extend(got)
                part.drops.extend(dropped)
        except ClientError as exc:
            return CurationResult(flagged={pid: str(exc)})
        verdicts = {
            cand.record.id: ensemble_filter(cand, filters)
            for cand in part.candidates
            if filters is not None and cand.record.qtype == "multi-choice"
        }
        for cand in part.candidates:
            if cand.record.id in verdicts:
                verdict = part.verdicts[cand.record.id] = verdicts[cand.record.id].result()
                if not verdict.kept:
                    continue
            part.kept.append(cand)
        return part

    result = CurationResult()
    with ExitStack() as lanes:
        chat = lanes.enter_context(Lane(client, jobs, cache))
        filters = None if filter_clients is None else [
            lanes.enter_context(Lane(c, jobs, cache)) for c in filter_clients
        ]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(one, ordered):
                result.cleaned.update(part.cleaned)
                result.captions.update(part.captions)
                result.candidates.extend(part.candidates)
                result.drops.extend(part.drops)
                result.verdicts.update(part.verdicts)
                result.kept.extend(part.kept)
                result.flagged.update(part.flagged)
    return result


def save_candidates(path, candidates: Sequence[QACandidate]) -> None:
    """Line-delimited candidates: record fields plus provenance."""
    rows = (
        dict(c.record.__dict__, reasoning=c.reasoning, source_report=c.source_report,
             prompt_hash=c.prompt_hash, slide_ids=c.slide_ids)
        for c in candidates
    )
    write_jsonl(path, rows)
