"""Report cleaning, QA generation, ensemble filtering, splits, and label VQA."""

import hashlib
import json
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager

import pytest
import requests

from slidevlm import curation, prompts
from slidevlm.curation import (
    BCNB_TASK_CATEGORIES,
    BCNB_TASKS,
    ClientError,
    EndpointConfig,
    Lane,
    LiveChatClient,
    MockChatClient,
    PromptCache,
    QACandidate,
    ReportRecord,
    clean_report,
    ensemble_filter,
    filter_prompt,
    gen_caption,
    gen_qas,
    labels_to_vqa,
    prompt_hash,
    run_curation,
    save_candidates,
    split_assign,
)
from slidevlm.evaluation import QARecord
from slidevlm.numerics import UsageError
from slidevlm.prompts import (
    CAPTION_PROMPT,
    GENERAL_PROMPT,
    REPORT_CLEAN_PROMPT,
    caption_prompt,
    label_question,
    objective_prompt,
    qa_prompt,
    report_clean_prompt,
)


@contextmanager
def lanes(*clients, cache=None):
    """A one-worker lane per client, over `cache`, shut down on exit."""
    with ExitStack() as stack:
        yield [stack.enter_context(Lane(c, 1, cache)) for c in clients]


# -- pinned templates ------------------------------------------------------------------


def test_templates_keep_their_quirks():
    # The stored wording is pinned byte-exact, spelling slips included; a
    # cleanup would silently invalidate every cache and replay file.
    assert "questions amd 2 short-answer" in GENERAL_PROMPT
    assert "“anwser”" in GENERAL_PROMPT
    assert "Symbols unrelated" in REPORT_CLEAN_PROMPT


def test_objective_prompt_worked_example():
    want = (
        "Definition of Broad Category and its corresponding Narrow Categories. "
        "“ The required broad category is Clinical, which tests the ability of "
        "models to retrieve and apply clinically relevant background knowledge "
        "about diseases. For the narrow category:  Treatment Guidance: Questions "
        "should assess the model's ability to recommend appropriate treatment "
        "options based on the disease in question, considering factors such as "
        "disease stage, patient demographics, and any specific clinical "
        "guidelines. Biomarker Analysis: Questions should evaluate the ability "
        "to identify and interpret biomarkers relevant to the diagnosis, "
        "prognosis, or treatment of diseases, emphasizing their role in "
        "personalized medicine and targeted therapy. Risk Factors: Questions "
        "should test the model's knowledge of risk factors associated with "
        "specific diseases, including genetic, environmental, and lifestyle "
        "factors that may influence disease development or progression. "
        "Prognostic Assessment: Questions should focus on evaluating the "
        "model's ability to predict the likely course and outcome of a disease, "
        "including survival rates, potential complications, and long-term "
        "outcomes based on clinical and pathological data.”"
    )
    assert objective_prompt("Clinical") == want


def test_objective_prompt_validation():
    with pytest.raises(UsageError):
        objective_prompt("Astrology")
    full = objective_prompt("Diagnosis")
    for narrow in ("Disease Detection", "Differential Diagnosis"):
        assert narrow + ":" in full


def test_prompt_composition():
    assert report_clean_prompt("RAW") == REPORT_CLEAN_PROMPT + "\n\nRAW"
    assert caption_prompt("CLEANED") == "CLEANED\n\n" + CAPTION_PROMPT
    qa = qa_prompt("CLEANED", "Diagnosis")
    assert qa.startswith("CLEANED\n\n")
    assert qa.endswith(GENERAL_PROMPT)
    assert label_question("Tumor Type") == "What is the Tumor Type shown in this whole slide image?"


# -- mock client ------------------------------------------------------------------------


def test_mock_client_reply_sequence():
    client = MockChatClient(replies=["one", "two"])
    assert client.complete("p") == "one"
    assert client.complete("q") == "two"
    assert client.calls == ["p", "q"]
    with pytest.raises(ClientError):
        client.complete("r")


class SlowChecks(list):
    """A list that sleeps after reading its length, so a check-then-pop race shows every time."""

    def __len__(self):
        n = super().__len__()
        time.sleep(0.01)
        return n


def test_mock_client_reply_sequence_under_concurrent_callers():
    # Four callers race for the one reply left: one gets it, the others a ClientError.
    client = MockChatClient(replies=[])
    client.replies = SlowChecks(["last"])
    start = threading.Barrier(4, timeout=5)

    def call(_):
        start.wait()
        try:
            return client.complete("p")
        except ClientError:
            return None

    with ThreadPoolExecutor(max_workers=4) as threads:
        got = list(threads.map(call, range(4)))
    assert got.count("last") == 1 and got.count(None) == 3


def test_mock_client_scripted_failure_and_fallbacks():
    with pytest.raises(ClientError):
        MockChatClient(replies=[None]).complete("p")
    client = MockChatClient(table={"hello": "hi"}, default="fallback")
    assert client.complete("hello") == "hi"
    assert client.complete("other") == "fallback"
    with pytest.raises(ClientError):
        MockChatClient().complete("anything")


def test_mock_client_replay_file(tmp_path):
    path = tmp_path / "replay.json"
    key = hashlib.sha256(b"the prompt").hexdigest()
    path.write_text(json.dumps({key: "the reply"}))
    client = MockChatClient.from_replay(path)
    assert client.complete("the prompt") == "the reply"
    with pytest.raises(ClientError):
        client.complete("unknown prompt")


# -- live client over a stubbed transport -------------------------------------------------


class _Resp:
    def __init__(self, body, status_code=200):
        self.body = body
        self.status_code = status_code

    def json(self):
        if self.body is None:
            raise ValueError("no JSON body")
        return self.body


LIVE_REPLY = {"choices": [{"message": {"content": "live reply"}}]}


class _Transport:
    """Stands in for `requests`: `fail_first` failures, then `reply`.

    A failure is a dropped connection, or an HTTP status when `status` is set.
    """

    def __init__(self, fail_first, status=None, reply=LIVE_REPLY):
        self.fail_first = fail_first
        self.status = status
        self.reply = reply
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append((url, json))
        if len(self.posts) <= self.fail_first:
            if self.status is None:
                raise requests.ConnectionError("connection reset")
            return _Resp(None, status_code=self.status)
        return _Resp(self.reply)


@pytest.fixture
def live_client(monkeypatch):
    """Builds a live client on a scripted transport; its retries do not wait."""
    monkeypatch.setattr(curation, "BACKOFF_BASE", 0.0)

    def build(fail_first, max_retries, **transport_args):
        config = EndpointConfig(base_url="http://endpoint/v1/", model="m", max_retries=max_retries)
        client = LiveChatClient(config)
        transport = _Transport(fail_first, **transport_args)
        client._requests = transport
        return client, transport

    return build


def test_live_client_retries_then_succeeds(live_client):
    client, transport = live_client(fail_first=1, max_retries=2)
    assert client.complete("ask", temperature=0.5) == "live reply"
    assert len(transport.posts) == 2
    url, payload = transport.posts[0]
    assert url == "http://endpoint/v1/chat/completions"
    assert payload == {
        "model": "m",
        "messages": [{"role": "user", "content": "ask"}],
        "temperature": 0.5,
    }


def test_live_client_exhausts_retries(live_client):
    client, transport = live_client(fail_first=99, max_retries=2)
    with pytest.raises(ClientError, match="after 3 attempts"):
        client.complete("ask")
    assert len(transport.posts) == 3


def test_live_client_retries_server_errors(live_client):
    client, transport = live_client(fail_first=1, max_retries=2, status=503)
    assert client.complete("ask") == "live reply"
    assert len(transport.posts) == 2


def test_live_client_does_not_retry_client_errors(live_client):
    client, transport = live_client(fail_first=99, max_retries=2, status=401)
    with pytest.raises(ClientError, match="HTTP 401"):
        client.complete("ask")
    assert len(transport.posts) == 1


@pytest.mark.parametrize("reply", [None, {"choices": []}, {"choices": [{"message": {"content": 3}}]}])
def test_live_client_does_not_retry_malformed_replies(reply, live_client):
    client, transport = live_client(fail_first=0, max_retries=2, reply=reply)
    with pytest.raises(ClientError, match="malformed|not text"):
        client.complete("ask")
    assert len(transport.posts) == 1


# -- prompt cache ------------------------------------------------------------------------


def test_cache_round_trip_and_key_sensitivity(tmp_path):
    cache = PromptCache(tmp_path)
    assert cache.lookup("k", "m") is None
    cache.store("k", "m", "reply")
    assert cache.lookup("k", "m") == "reply"
    assert cache.lookup("k2", "m") is None
    assert cache.lookup("k", "m2") is None
    entry = json.loads((tmp_path / "cache.jsonl").read_text())
    assert entry == {"prompt_hash": "k", "model": "m", "reply": "reply"}


def test_cache_survives_concurrent_writers(tmp_path):
    # Even keys are shared by all eight threads, odd keys belong to one.
    cache = PromptCache(tmp_path)

    def work(t):
        for k in range(200):
            key = f"k{k}" if k % 2 == 0 else f"k{k}-t{t}"
            cache.store(key, "m", f"reply {key}")
            assert cache.lookup(key, "m") == f"reply {key}"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as threads:
            list(threads.map(work, range(8)))
    finally:
        sys.setswitchinterval(interval)
    lines = (tmp_path / "cache.jsonl").read_text().splitlines()
    assert len(lines) == 8 * 200  # one whole line per store
    assert list(tmp_path.iterdir()) == [tmp_path / "cache.jsonl"]  # no temp files
    keys = {f"k{k}" if k % 2 == 0 else f"k{k}-t{t}" for t in range(8) for k in range(200)}
    assert len(keys) == 100 + 8 * 100
    reopened = PromptCache(tmp_path)
    assert all(reopened.lookup(key, "m") == f"reply {key}" for key in keys)


def test_cache_seen_by_a_second_instance(tmp_path):
    first = PromptCache(tmp_path)
    first.store("k", "m", "one")
    first.store("k2", "m", "two\nlines")
    second = PromptCache(tmp_path)
    assert second.lookup("k", "m") == "one"
    assert second.lookup("k2", "m") == "two\nlines"
    # Old file-per-entry caches are not read.
    (tmp_path / "0123abcd.json").write_text(json.dumps(
        {"prompt_hash": "old", "model": "m", "reply": "stale"}
    ))
    assert PromptCache(tmp_path).lookup("old", "m") is None


def test_cache_drops_a_torn_final_line(tmp_path):
    PromptCache(tmp_path).store("k", "m", "kept")
    log = tmp_path / "cache.jsonl"
    whole = log.read_bytes()
    log.write_bytes(whole + whole[: len(whole) // 2])  # a store cut short
    cache = PromptCache(tmp_path)
    assert cache.lookup("k", "m") == "kept"
    cache.store("k2", "m", "after")
    assert [json.loads(line)["reply"] for line in log.read_text().splitlines()] == ["kept", "after"]
    assert PromptCache(tmp_path).lookup("k2", "m") == "after"


def test_cache_names_a_malformed_line(tmp_path):
    PromptCache(tmp_path).store("k", "m", "kept")
    log = tmp_path / "cache.jsonl"
    good = log.read_text()
    for bad in ('{"prompt_hash": "k"}\n', "not json\n", '["a list"]\n'):
        log.write_text(good + bad + good)
        with pytest.raises(UsageError, match=re.escape(f"{log}:2:")):
            PromptCache(tmp_path)


def test_cache_short_circuits_the_client(tmp_path):
    cache = PromptCache(tmp_path)
    record = ReportRecord("p1", "raw report", ["s1"])
    with Lane(MockChatClient(replies=["  cleaned  "]), 1, cache) as lane:
        first = clean_report(record, lane)
    assert first == "cleaned"
    dead = MockChatClient(replies=[])
    with Lane(dead, 1, cache) as lane:
        assert clean_report(record, lane) == "cleaned"
    assert dead.calls == []


# -- chat stages -------------------------------------------------------------------------


def test_clean_report_rejects_empty():
    with pytest.raises(UsageError):
        ReportRecord("p", "text", [])
    with pytest.raises(UsageError), Lane(MockChatClient(default="x"), 1) as lane:
        clean_report(ReportRecord("p", "   ", ["s"]), lane)


def test_gen_caption_collapses_paragraphs():
    client = MockChatClient(replies=["First part.\n\nSecond part.\n"])
    with Lane(client, 1) as lane:
        assert gen_caption("cleaned", lane).result() == "First part. Second part."
        assert client.calls == [caption_prompt("cleaned")]
        with pytest.raises(UsageError):
            gen_caption("", lane)


MC_ITEM = {
    "question type": "multi-choice questions",
    "question": "Which tumor type is present?",
    "options": [
        "Invasive ductal carcinoma",
        "Invasive lobular carcinoma",
        "Medullary carcinoma",
        "Tubular carcinoma",
    ],
    "answer": "A. Invasive ductal carcinoma",
    "broad category": "Diagnosis",
    "narrow category": "Disease Classification",
    "reasoning": "Stated in the report.",
}

SA_ITEM = {
    "question type": "short-answer questions",
    "question": "Name the {primary} diagnosis.",
    "options": [],
    "answer": "Invasive ductal carcinoma",
    "broad category": "Diagnosis",
    "narrow category": "Disease Detection",
}


def qa_reply(*items):
    return "Here you go:\n```json\n" + "\n".join(json.dumps(i) for i in items) + "\n```\nDone."


def test_gen_qas_parses_fenced_items():
    with Lane(MockChatClient(replies=[qa_reply(MC_ITEM, SA_ITEM)]), 1) as lane:
        candidates, drops = gen_qas(
            "cleaned", "Diagnosis", lane, source_report="p1", slide_ids=["s1"]
        ).result()
    assert drops == []
    assert [c.record.id for c in candidates] == ["p1-diagnosis-000", "p1-diagnosis-001"]
    mc, sa = candidates
    assert mc.record.answer == "A"  # letter extracted from the prose answer
    assert mc.record.qtype == "multi-choice"
    assert mc.reasoning == "Stated in the report."
    assert sa.record.qtype == "short-answer"
    assert sa.record.options == []
    # Braces inside a JSON string must not confuse the object scanner.
    assert sa.record.question == "Name the {primary} diagnosis."
    assert mc.record.slide_id == "s1" and mc.slide_ids == ["s1"]
    assert mc.prompt_hash == sa.prompt_hash == prompt_hash(qa_prompt("cleaned", "Diagnosis"))


def test_an_edited_scope_is_a_cache_miss(tmp_path, monkeypatch):
    cache = PromptCache(tmp_path)
    reply = qa_reply(MC_ITEM)
    with Lane(MockChatClient(default=reply), 1, cache) as lane:
        gen_qas("cleaned", "Diagnosis", lane).result()
    again = MockChatClient(default=reply)
    with Lane(again, 1, cache) as lane:
        gen_qas("cleaned", "Diagnosis", lane).result()
    assert again.calls == []  # the unchanged prompt is a hit
    monkeypatch.setitem(prompts.NARROW_SCOPES, "Staging", "Questions should ask for the stage.")
    edited = MockChatClient(default=reply)
    with Lane(edited, 1, cache) as lane:
        candidates, _ = gen_qas("cleaned", "Diagnosis", lane).result()
    assert edited.calls == [qa_prompt("cleaned", "Diagnosis")]
    assert "Questions should ask for the stage." in edited.calls[0]
    want = hashlib.sha256(edited.calls[0].encode("utf-8")).hexdigest()
    assert [c.prompt_hash for c in candidates] == [want]


def test_gen_qas_drop_reasons():
    bad_items = [
        {**MC_ITEM, "question type": "essay"},
        {**MC_ITEM, "question": "  "},
        {**MC_ITEM, "narrow category": "Astrology"},
        {**MC_ITEM, "narrow category": "Tumor Characteristics"},
        {**MC_ITEM, "broad category": "Clinical"},
        {**MC_ITEM, "options": MC_ITEM["options"][:3]},
        {**MC_ITEM, "answer": "none of these match"},
        {**SA_ITEM, "options": ["stray"]},
    ]
    reply = qa_reply(*bad_items) + "\n{ broken json }"
    with Lane(MockChatClient(replies=[reply]), 1) as lane:
        candidates, drops = gen_qas("cleaned", "Diagnosis", lane).result()
    assert candidates == []
    reasons = [d.reason for d in drops]
    assert len(reasons) == 9
    assert "unknown question type" in reasons[0]
    assert "missing question" in reasons[1]
    assert "unknown narrow category" in reasons[2]
    assert "outside requested broad" in reasons[3]
    assert "does not match request" in reasons[4]
    assert "exactly 4 options" in reasons[5]
    assert "does not resolve" in reasons[6]
    assert "carries options" in reasons[7]
    assert "invalid JSON" in reasons[8]


def test_gen_qas_no_json_and_validation():
    with Lane(MockChatClient(replies=["plain prose"]), 1) as lane:
        candidates, drops = gen_qas("cleaned", "Diagnosis", lane).result()
    assert candidates == [] and len(drops) == 1
    assert "no JSON objects" in drops[0].reason
    with Lane(MockChatClient(default="x"), 1) as lane:
        with pytest.raises(UsageError):
            gen_qas("cleaned", "Astrology", lane)
        with pytest.raises(UsageError):
            gen_qas("  ", "Diagnosis", lane)


# -- ensemble filter -----------------------------------------------------------------------


def mc_candidate():
    record = QARecord(
        id="q1",
        slide_id="s1",
        question="Which tumor type is present?",
        options=list(MC_ITEM["options"]),
        answer="A",
        qtype="multi-choice",
        broad="Diagnosis",
        narrow="Disease Classification",
    )
    return QACandidate(record=record, reasoning=None, source_report="p1", prompt_hash="h")


class BarrierClient:
    """Answers "A", but only once every party of `barrier` is calling at the same time."""

    def __init__(self, barrier, model):
        self.barrier = barrier
        self.model = model

    def complete(self, prompt, temperature=0.0):
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            raise ClientError(f"{self.model}: the other callers never came") from None
        return "A"


class InFlightClient:
    """Wraps a client and records the most calls it ever had open at once."""

    def __init__(self, inner):
        self.inner = inner
        self.model = inner.model
        self.open = self.peak = 0
        self._lock = threading.Lock()

    def complete(self, prompt, temperature=0.0):
        with self._lock:
            self.open += 1
            self.peak = max(self.peak, self.open)
        try:
            time.sleep(0.001)  # widen the window in which calls can overlap
            return self.inner.complete(prompt, temperature)
        finally:
            with self._lock:
                self.open -= 1


def test_filter_prompt_layout():
    prompt = filter_prompt(mc_candidate().record)
    lines = prompt.splitlines()
    assert lines[0] == "Which tumor type is present?"
    assert lines[1] == "A. Invasive ductal carcinoma"
    assert lines[4] == "D. Tubular carcinoma"
    assert lines[5] == "Answer with the letter of the correct option."


@pytest.mark.parametrize("bits", range(16))
def test_ensemble_truth_table(bits):
    vector = tuple(bool(bits >> i & 1) for i in range(4))
    clients = [
        MockChatClient(default="A" if right else "B", model=f"m{i}")
        for i, right in enumerate(vector)
    ]
    with lanes(*clients) as filters:
        verdict = ensemble_filter(mc_candidate(), filters).result()
    assert verdict.correct == vector
    assert verdict.failed == (False, False, False, False)
    assert verdict.kept == (sum(vector) < 3)


def test_ensemble_failure_counts_as_incorrect():
    clients = [
        MockChatClient(default="A", model="m0"),
        MockChatClient(replies=[None], model="m1"),
        MockChatClient(default="A", model="m2"),
        MockChatClient(default="A", model="m3"),
    ]
    with lanes(*clients) as filters:
        verdict = ensemble_filter(mc_candidate(), filters).result()
    assert verdict.correct == (True, False, True, True)
    assert verdict.failed == (False, True, False, False)
    assert verdict.kept is False  # still 3 right


def test_ensemble_asks_its_four_models_at_once():
    # Each model's call returns only when all four are waiting together.
    barrier = threading.Barrier(4, timeout=5)
    with lanes(*(BarrierClient(barrier, f"m{i}") for i in range(4))) as filters:
        verdict = ensemble_filter(mc_candidate(), filters).result()
    assert verdict.failed == (False, False, False, False)
    assert verdict.correct == (True, True, True, True)


class CountingLane(Lane):
    """A one-worker lane that counts the calls handed to it."""

    def __init__(self, client, cache):
        super().__init__(client, 1, cache)
        self.tasks = 0

    def submit(self, fn, /, *args, **kwargs):
        self.tasks += 1
        return super().submit(fn, *args, **kwargs)


def test_ensemble_reads_cached_replies_without_the_pool(tmp_path):
    cache = PromptCache(tmp_path)
    clients = [MockChatClient(default="A" if i else "B", model=f"m{i}") for i in range(4)]
    with lanes(*clients, cache=cache) as filters:
        cold = ensemble_filter(mc_candidate(), filters).result()
    with ExitStack() as stack:
        dead = [stack.enter_context(CountingLane(MockChatClient(replies=[], model=f"m{i}"), cache)) for i in range(4)]
        assert ensemble_filter(mc_candidate(), dead).result() == cold
        assert [lane.tasks for lane in dead] == [0] * 4 and all(lane.client.calls == [] for lane in dead)
        # A candidate with one reply missing hands only that call to its lane.
        log = tmp_path / "cache.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        assert json.loads(lines[0])["model"] == "m0"
        log.write_text("".join(lines[1:]))
        reread = PromptCache(tmp_path)
        counted = [stack.enter_context(CountingLane(c, reread)) for c in clients]
        assert ensemble_filter(mc_candidate(), counted).result() == cold
        assert [lane.tasks for lane in counted] == [1, 0, 0, 0]


def test_ensemble_validation():
    sa = QACandidate(
        record=QARecord("q", "s", "what?", [], "x", "short-answer", "Diagnosis", "Grading"),
        reasoning=None, source_report="p", prompt_hash="h",
    )
    with lanes(*(MockChatClient(default="A", model=f"m{i}") for i in range(4))) as filters:
        with pytest.raises(UsageError):
            ensemble_filter(mc_candidate(), filters[:3])
        with pytest.raises(UsageError):
            ensemble_filter(sa, filters)


# -- split -----------------------------------------------------------------------------------


def test_split_multi_slide_reports_train():
    reports = [
        ReportRecord("p1", "t", ["s1", "s2"]),
        ReportRecord("p2", "t", ["s3"]),
        ReportRecord("p3", "t", ["s4"]),
        ReportRecord("p4", "t", ["s5"]),
    ]
    result = split_assign(reports, seed=0)
    assert {"s1", "s2"} <= result.train
    assert len(result.test) == 1  # (3 + 2) // 5
    assert result.test <= {"s3", "s4", "s5"}
    assert result.train | result.test == {"s1", "s2", "s3", "s4", "s5"}
    assert not result.train & result.test


def test_split_deterministic_and_seeded():
    reports = [ReportRecord(f"p{i}", "t", [f"s{i}"]) for i in range(40)]
    a = split_assign(reports, seed=1)
    b = split_assign(reports, seed=1)
    c = split_assign(reports, seed=2)
    assert a == b
    assert a != c
    assert len(a.test) == (40 + 2) // 5


def test_split_rejects_shared_slides():
    reports = [ReportRecord("p1", "t", ["s1"]), ReportRecord("p2", "t", ["s1"])]
    with pytest.raises(UsageError):
        split_assign(reports)


# -- label VQA ---------------------------------------------------------------------------------


def test_bcnb_task_table():
    assert set(BCNB_TASKS) == set(BCNB_TASK_CATEGORIES)
    assert len(BCNB_TASKS) == 7
    assert BCNB_TASKS["HER2 Expression"] == ("0", "1+", "2+", "3+")
    assert BCNB_TASKS["Tumor Type"] == (
        "Invasive ductal carcinoma", "Invasive lobular carcinoma", "Other Type"
    )


def test_labels_to_vqa_letters_and_categories():
    record = labels_to_vqa("Tumor Type", BCNB_TASKS["Tumor Type"], "Other Type", slide_id="w1")
    assert record.id == "w1:Tumor Type"
    assert record.question == "What is the Tumor Type shown in this whole slide image?"
    assert record.answer == "C"
    assert (record.broad, record.narrow) == ("Diagnosis", "Disease Classification")
    er = labels_to_vqa("ER Status", BCNB_TASKS["ER Status"], "Negative", slide_id="w1")
    assert er.answer == "B"
    assert (er.broad, er.narrow) == ("Clinical", "Biomarker Analysis")


def test_labels_to_vqa_validation():
    with pytest.raises(UsageError):
        labels_to_vqa("ER Status", BCNB_TASKS["ER Status"], "Equivocal")
    with pytest.raises(UsageError):
        labels_to_vqa("ER Status", ["Positive", "Positive"], "Positive")
    with pytest.raises(UsageError):
        labels_to_vqa("Novel Task", ["a", "b"], "a")
    custom = labels_to_vqa(
        "Novel Task", ["a", "b"], "a", broad="Microscopy", narrow="Tumor Characteristics"
    )
    assert custom.answer == "A"


# -- batch driver ---------------------------------------------------------------------------


def curation_table(patient, body, cleaned, caption, items):
    return {
        report_clean_prompt(body): cleaned,
        caption_prompt(cleaned): caption,
        qa_prompt(cleaned, "Diagnosis"): qa_reply(*items),
    }


def test_run_curation_end_to_end(tmp_path):
    table = {}
    table.update(curation_table("p1", "raw one", "clean one", "cap one", [MC_ITEM, SA_ITEM]))
    table.update(curation_table("p2", "raw two", "clean two", "cap two", [SA_ITEM]))
    reports = [
        ReportRecord("p2", "raw two", ["s2"]),
        ReportRecord("p1", "raw one", ["s1a", "s1b"]),
    ]
    client = MockChatClient(table=table)
    result = run_curation(reports, client, broads=["Diagnosis"], jobs=1)
    assert list(result.cleaned) == ["p1", "p2"]  # sorted by patient id
    assert result.captions == {"p1": "cap one", "p2": "cap two"}
    assert [c.record.id for c in result.candidates] == [
        "p1-diagnosis-000", "p1-diagnosis-001", "p2-diagnosis-000",
    ]
    assert result.candidates[0].record.slide_id == "s1a"
    assert result.kept == result.candidates  # no filter clients
    assert result.flagged == {} and result.drops == []
    # Every candidate keeps all the slides of its report, in report order.
    want = [["s1a", "s1b"], ["s1a", "s1b"], ["s2"]]
    assert [c.slide_ids for c in result.candidates] == want
    save_candidates(tmp_path / "kept.jsonl", result.kept)
    rows = [json.loads(line) for line in (tmp_path / "kept.jsonl").read_text().splitlines()]
    assert [(row["slide_id"], row["slide_ids"]) for row in rows] == [(s[0], s) for s in want]


def test_run_curation_parallel_matches_serial():
    table = {}
    for i in range(4):
        table.update(
            curation_table(f"p{i}", f"raw {i}", f"clean {i}", f"cap {i}", [SA_ITEM])
        )
    reports = [ReportRecord(f"p{i}", f"raw {i}", [f"s{i}"]) for i in range(4)]
    serial = run_curation(reports, MockChatClient(table=table), broads=["Diagnosis"], jobs=1)
    threaded = run_curation(reports, MockChatClient(table=table), broads=["Diagnosis"], jobs=4)
    assert serial == threaded


MC_B_ITEM = dict(MC_ITEM, question="Which subtype is present?", answer="B")


def filtered_world(n):
    """n reports of two multi-choice items and a short-answer item each."""
    table = {}
    for i in range(n):
        table.update(
            curation_table(f"p{i}", f"raw {i}", f"clean {i}", f"cap {i}", [MC_ITEM, MC_B_ITEM, SA_ITEM])
        )
    return [ReportRecord(f"p{i}", f"raw {i}", [f"s{i}"]) for i in range(n)], table


def test_run_curation_filtered_parallel_matches_serial():
    reports, table = filtered_world(6)
    b_prompt = filter_prompt(QARecord(
        "q", "s", MC_B_ITEM["question"], list(MC_ITEM["options"]), "B",
        "multi-choice", "Diagnosis", "Disease Classification",
    ))

    def filters():
        # Three models say A, so MC_ITEM drops and MC_B_ITEM stays; the
        # fourth answers only MC_B_ITEM and fails on the other prompt.
        return [MockChatClient(default="A", model=f"m{i}") for i in range(3)] + [
            MockChatClient(table={b_prompt: "B"}, model="m3")
        ]

    runs = [
        run_curation(reports, MockChatClient(table=table), filter_clients=filters(),
                     broads=["Diagnosis"], jobs=jobs)
        for jobs in (1, 4)
    ]
    assert runs[0] == runs[1]
    assert list(runs[0].verdicts) == list(runs[1].verdicts)  # dict equality ignores order
    assert [c.record.id for c in runs[0].kept] == [
        f"p{i}-diagnosis-{k:03d}" for i in range(6) for k in (1, 2)
    ]
    assert runs[0].verdicts["p0-diagnosis-000"].failed == (False, False, False, True)


def test_run_curation_overlaps_filter_calls_of_different_reports():
    # Each model's call returns only when both reports' calls wait on it together.
    table = {}
    for i in range(2):
        table.update(curation_table(f"p{i}", f"raw {i}", f"clean {i}", f"cap {i}", [MC_ITEM]))
    reports = [ReportRecord(f"p{i}", f"raw {i}", [f"s{i}"]) for i in range(2)]
    clients = [BarrierClient(threading.Barrier(2, timeout=5), f"m{i}") for i in range(4)]
    result = run_curation(
        reports, MockChatClient(table=table), filter_clients=clients, broads=["Diagnosis"], jobs=2
    )
    assert len(result.verdicts) == 2
    for verdict in result.verdicts.values():
        assert verdict.failed == (False, False, False, False)


def test_run_curation_asks_the_filter_about_all_candidates_at_once():
    # One report: each model's call returns only when both candidates' calls wait on it together.
    reports, table = filtered_world(1)
    clients = [BarrierClient(threading.Barrier(2, timeout=5), f"m{i}") for i in range(4)]
    result = run_curation(
        reports, MockChatClient(table=table), filter_clients=clients, broads=["Diagnosis"], jobs=2
    )
    assert list(result.verdicts) == ["p0-diagnosis-000", "p0-diagnosis-001"]
    for verdict in result.verdicts.values():
        assert verdict.failed == (False, False, False, False)


class GenerationBarrier:
    """Replies from `table`, but a caption or QA call returns only once `barrier` is full."""

    def __init__(self, barrier, table):
        self.barrier = barrier
        self.table = table
        self.model = "chat"

    def complete(self, prompt, temperature=0.0):
        if not prompt.startswith(REPORT_CLEAN_PROMPT):
            try:
                self.barrier.wait()
            except threading.BrokenBarrierError:
                raise ClientError("the other generation call never came") from None
        return self.table[prompt]


def test_run_curation_asks_caption_and_questions_at_once():
    table = curation_table("p1", "raw one", "clean one", "cap one", [SA_ITEM])
    chat = GenerationBarrier(threading.Barrier(2, timeout=5), table)
    result = run_curation([ReportRecord("p1", "raw one", ["s1"])], chat, broads=["Diagnosis"], jobs=2)
    assert result.flagged == {}
    assert result.captions == {"p1": "cap one"}
    assert [c.record.id for c in result.candidates] == ["p1-diagnosis-000"]


def test_run_curation_keeps_jobs_requests_per_endpoint():
    reports, table = filtered_world(6)
    chat = InFlightClient(MockChatClient(table=table))
    filters = [InFlightClient(MockChatClient(default="A", model=f"m{i}")) for i in range(4)]
    result = run_curation(reports, chat, filter_clients=filters, broads=["Diagnosis"], jobs=2)
    assert len(result.verdicts) == 12 and not result.flagged
    assert max(c.peak for c in [chat, *filters]) <= 2


class ThreadRecorder:
    """Wraps a client and records the name of every thread that calls it."""

    def __init__(self, inner):
        self.inner = inner
        self.model = inner.model
        self.threads = []

    def complete(self, prompt, temperature=0.0):
        self.threads.append(threading.current_thread().name)
        return self.inner.complete(prompt, temperature)


def test_every_chat_call_runs_on_a_lane_worker(tmp_path):
    reports, table = filtered_world(2)

    def endpoints():
        chat = ThreadRecorder(MockChatClient(table=table))
        return chat, [ThreadRecorder(MockChatClient(default="A", model=f"m{i}")) for i in range(4)]

    def run_stages(chat, filters, cache):
        with lanes(chat, *filters, cache=cache) as (lane, *filter_lanes):
            cleaned = clean_report(reports[0], lane)
            gen_caption(cleaned, lane).result()
            (mc, *_), _ = gen_qas(cleaned, "Diagnosis", lane).result()
            ensemble_filter(mc, filter_lanes).result()

    def run_batch(chat, filters, cache):
        run_curation(reports, chat, cache, filter_clients=filters, broads=["Diagnosis"], jobs=2)

    for name, run in (("stages", run_stages), ("batch", run_batch)):
        cache = PromptCache(tmp_path / name)
        cold = endpoints()
        run(*cold, cache)
        for client in [cold[0], *cold[1]]:
            assert client.threads, (name, client.model)
            assert all(t.startswith(f"lane-{client.model}_") for t in client.threads), (name, client.threads)
        # The same calls again are all cache hits: no endpoint is called.
        warm = endpoints()
        run(*warm, cache)
        assert [c.threads for c in [warm[0], *warm[1]]] == [[]] * 5, name


def test_run_curation_flags_dead_reports():
    table = curation_table("p1", "raw one", "clean one", "cap one", [SA_ITEM])
    reports = [
        ReportRecord("p1", "raw one", ["s1"]),
        ReportRecord("p2", "raw two", ["s2"]),  # no table entries: every call dies
    ]
    result = run_curation(reports, MockChatClient(table=table), broads=["Diagnosis"], jobs=1)
    assert list(result.flagged) == ["p2"]
    assert list(result.cleaned) == ["p1"]
    assert len(result.candidates) == 1


def test_run_curation_filter_and_short_answer_bypass():
    table = curation_table("p1", "raw one", "clean one", "cap one", [MC_ITEM, SA_ITEM])
    reports = [ReportRecord("p1", "raw one", ["s1"])]
    easy = [MockChatClient(default="A", model=f"m{i}") for i in range(4)]
    result = run_curation(
        reports, MockChatClient(table=table), filter_clients=easy, broads=["Diagnosis"], jobs=1
    )
    # All 4 text-only models solved the multi-choice item, so it drops; the
    # short-answer item never faces the filter.
    assert [c.record.qtype for c in result.kept] == ["short-answer"]
    assert list(result.verdicts) == ["p1-diagnosis-000"]
    assert result.verdicts["p1-diagnosis-000"].kept is False


def test_run_curation_rejects_duplicate_patients():
    reports = [ReportRecord("p1", "a", ["s1"]), ReportRecord("p1", "b", ["s2"])]
    with pytest.raises(UsageError):
        run_curation(reports, MockChatClient(default="x"))


def test_run_curation_resumes_from_cache(tmp_path):
    table = curation_table("p1", "raw one", "clean one", "cap one", [MC_ITEM])
    reports = [ReportRecord("p1", "raw one", ["s1"])]
    cache = PromptCache(tmp_path)
    first = run_curation(reports, MockChatClient(table=table), cache, broads=["Diagnosis"], jobs=1)
    dead = MockChatClient(replies=[])
    second = run_curation(reports, dead, cache, broads=["Diagnosis"], jobs=1)
    assert dead.calls == []
    assert first == second
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 3


def test_save_candidates_jsonl(tmp_path):
    path = tmp_path / "candidates.jsonl"
    save_candidates(path, [mc_candidate()])
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == 1
    assert rows[0]["id"] == "q1"
    assert rows[0]["source_report"] == "p1"
    assert rows[0]["prompt_hash"] == "h"
    assert rows[0]["reasoning"] is None
    assert list(rows[0]) == sorted(rows[0])
