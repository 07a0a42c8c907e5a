"""Scripted chat endpoint for the curate phase.

Replies are pure functions of (model, prompt) and come in the formats the
curation stages parse: cleaned report text, a two-paragraph caption, fenced
JSON question items and option letters for the text-only filter. Every
call sleeps a fixed latency first, standing in for the network round trip,
so the phase measures waiting and overlap rather than reply parsing.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time

from slidevlm.curation import FILTER_PROMPT_TEMPLATE, ClientError
from slidevlm.evaluation import NARROW_BY_BROAD
from slidevlm.prompts import CAPTION_PROMPT, GENERAL_PROMPT, REPORT_CLEAN_PROMPT

FILTER_MODELS = ("filter-a", "filter-b", "filter-c", "filter-d")
MC_PER_BROAD = 2
_FILTER_TAIL = FILTER_PROMPT_TEMPLATE.split("\n")[-1]
_BROAD_RE = re.compile(r"The required broad category is (\w+),")


def _h(*parts: str) -> int:
    return int(hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:12], 16)


def answer_letter(question: str) -> str:
    return "ABCD"[_h("answer", question) % 4]


def knows(model: str, question: str) -> bool:
    """Whether a filter model answers this question right without the slide."""
    return _h(model, question) % 2 == 0


def qa_items(cleaned: str, broad: str) -> list[dict]:
    words = cleaned.split()
    narrows = NARROW_BY_BROAD[broad]
    items = []
    for j in range(MC_PER_BROAD):
        topic = " ".join(words[3 * j : 3 * j + 3])
        text = f"Regarding {topic}, which {broad.lower()} finding applies (item {j}, {_h(cleaned) % 9973})?"
        options = [f"option {k} {w} pattern" for k, w in enumerate(words[j : j + 4])]
        letter = answer_letter(text)
        items.append({
            "question type": "multi-choice questions",
            "question": text,
            "options": options,
            "answer": f"{letter}. {options['ABCD'.index(letter)]}",
            "broad category": broad,
            "narrow category": narrows[j % len(narrows)],
            "reasoning": "Stated in the report.",
        })
    items.append({
        "question type": "short-answer questions",
        "question": f"Name the {{main}} {broad.lower()} finding ({_h(cleaned) % 9973}).",
        "options": [],
        "answer": words[-1],
        "broad category": broad,
        "narrow category": narrows[-1],
    })
    return items


def reply_for(model: str, prompt: str) -> str:
    if prompt.startswith(REPORT_CLEAN_PROMPT):
        raw = prompt[len(REPORT_CLEAN_PROMPT) :]
        return " ".join(w for w in raw.split() if not w.startswith("#"))
    if prompt.endswith(CAPTION_PROMPT):
        words = prompt[: -len(CAPTION_PROMPT)].split()
        return " ".join(words[:12]) + "\n\n" + " ".join(words[12:20])
    if prompt.endswith(GENERAL_PROMPT):
        cleaned = prompt.split("\n\n", 1)[0]
        broad = _BROAD_RE.search(prompt).group(1)
        body = "\n".join(json.dumps(item) for item in qa_items(cleaned, broad))
        return f"Here are the questions:\n```json\n{body}\n```\n"
    if prompt.endswith(_FILTER_TAIL):
        question = prompt.split("\n", 1)[0]
        right = "ABCD".index(answer_letter(question))
        if knows(model, question):
            return "ABCD"[right]
        return "ABCD"[(right + 1 + _h("wrong", model, question) % 3) % 4]
    raise ClientError(f"{model}: no scripted reply for this prompt")


class ScriptedChat:
    """A `ChatClient` with fixed latency that counts its calls."""

    def __init__(self, model: str, latency_s: float):
        self.model = model
        self.latency_s = latency_s
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        with self._lock:
            self.calls += 1
        time.sleep(self.latency_s)
        return reply_for(self.model, prompt)
