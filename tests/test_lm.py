"""Tokenizer, sequence assembly, decoder masking, loss, and greedy decoding."""

import contextlib
import copy
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slidevlm
from slidevlm.lm import (
    BOS,
    EOS,
    IMG_END,
    IMG_START,
    PAD,
    SPECIALS,
    UNK,
    DecoderConfig,
    DecoderLM,
    KVCache,
    MultimodalSequence,
    Vocab,
    _MaskedSelfAttention,
    assemble,
    text_positions,
)
from slidevlm import lm as lm_module
from conftest import reference_attention, run_capped, structural_mask
from slidevlm.numerics import (
    UsageError,
    Tensor,
    concat,
    cross_entropy,
    no_grad,
    stream,
    take_rows,
)

WORDS = ["tumor", "stroma", "slide", "shows", "the", "a", "tissue", "margin"]


def vocab():
    return Vocab(WORDS)


def tiny_lm(**kw):
    cfg = dict(heads=2, head_dim=4, layers=2, ffn_mult=2, max_positions=32)
    cfg.update(kw)
    return DecoderLM(DecoderConfig(**cfg), len(SPECIALS) + len(WORDS), seed=0)


def visual(n, dim=8, seed=0):
    return stream(seed, "vis").normal(size=(n, dim))


# -- vocab -------------------------------------------------------------------


def test_vocab_empty_round_trip():
    v = vocab()
    assert v.encode("") == []
    assert v.decode([]) == ""


def test_vocab_round_trip_known_words():
    v = vocab()
    text = "the slide shows tumor tissue"
    assert v.decode(v.encode(text)) == text


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(WORDS), min_size=0, max_size=12))
def test_vocab_round_trip_property(words):
    v = vocab()
    text = " ".join(words)
    assert v.decode(v.encode(text)) == text


def test_vocab_unknown_maps_to_unk():
    v = vocab()
    assert v.encode("zebra") == [UNK]


def test_vocab_specials_never_tokenized():
    v = vocab()
    for s in SPECIALS:
        assert v.encode(s) == [UNK]


def test_vocab_rejects_bad_words():
    with pytest.raises(UsageError):
        Vocab(["<pad>"])
    with pytest.raises(UsageError):
        Vocab(["two words"])
    with pytest.raises(UsageError):
        Vocab(["dup", "dup"])


def test_vocab_save_load(tmp_path):
    v = vocab()
    path = tmp_path / "vocab.txt"
    v.save(path)
    back = Vocab.load(path)
    assert len(back) == len(v)
    assert back.encode("tumor") == v.encode("tumor")
    path.write_text("tumor\nstroma\n")
    with pytest.raises(UsageError):
        Vocab.load(path)


def test_vocab_files_are_utf8_under_an_ascii_locale(tmp_path):
    # A child whose locale encoding is ASCII saves and reloads a word
    # outside ASCII; the file holds its UTF-8 bytes.
    code = (
        "from slidevlm.lm import UNK, Vocab\n"
        "v = Vocab.build(['5 \\u00b5m'])\n"
        "v.save('vocab.txt')\n"
        "assert Vocab.load('vocab.txt').encode('\\u00b5m') == v.encode('\\u00b5m') != [UNK]\n"
    )
    src = str(Path(slidevlm.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "\u00b5m\n".encode("utf-8") in (tmp_path / "vocab.txt").read_bytes()


def test_vocab_build_sorts_corpus_words():
    v = Vocab.build(["b a", "c a"])
    assert [v.token(i) for i in range(len(SPECIALS), len(v))] == ["a", "b", "c"]


# -- sequence assembly ----------------------------------------------------------


def full_layout(seq) -> tuple[np.ndarray, np.ndarray]:
    """The token id and loss flag at every position of `seq`, as the dense
    references index them: IMG_START, a PAD placeholder for each visual
    token and IMG_END, then the sequence's text rows."""
    marks = np.array([IMG_START, *[PAD] * seq.n_visual, IMG_END], dtype=np.int64)
    ids = np.concatenate([marks, seq.ids])
    mask = np.concatenate([np.zeros(marks.size, dtype=bool), seq.loss_mask])
    return ids, mask


def test_layout_arithmetic():
    v = vocab()
    seq = assemble(visual(2), "the slide shows", "tumor tissue", v)
    # [IMG_START, v1, v2, IMG_END, BOS, 3 prompt, 2 answer, EOS] = 11
    assert seq.total_len == 11
    assert seq.n_prefix == 4 and seq.ids.size == seq.loss_mask.size == 7
    ids, mask = full_layout(seq)
    assert ids.size == mask.size == seq.total_len
    assert mask.sum() == 3
    assert mask[-3:].all() and not mask[:-3].any()
    assert ids[0] == IMG_START and ids[3] == IMG_END
    assert ids[4] == BOS and ids[-1] == EOS
    assert (ids[1:3] == PAD).all()


@pytest.mark.parametrize("n", [1, 4096])
def test_text_rows_do_not_grow_with_the_visual_tokens(n):
    seq = assemble(visual(n), "the slide shows", "tumor tissue", vocab())
    assert seq.ids.size == seq.loss_mask.size == 7
    assert seq.total_len == n + 2 + 7


def test_inference_sequence_has_no_loss_positions():
    seq = assemble(visual(3), "the slide", None, vocab())
    assert not seq.loss_mask.any()
    assert seq.ids[-1] != EOS  # no answer span appended


def test_same_prompt_different_slides_share_text_span():
    v = vocab()
    a = assemble(visual(2, seed=1), "the slide", "tumor", v)
    b = assemble(visual(2, seed=2), "the slide", "tumor", v)
    np.testing.assert_array_equal(a.ids, b.ids)
    assert not np.array_equal(np.asarray(a.visual), np.asarray(b.visual))


def test_empty_prompt_rejected():
    with pytest.raises(UsageError):
        assemble(visual(2), "", "tumor", vocab())
    with pytest.raises(UsageError):
        MultimodalSequence(visual(2), [], [0])


def test_empty_visual_rejected():
    with pytest.raises(UsageError):
        MultimodalSequence(np.zeros((0, 8)), [6], [7])


# -- masking -----------------------------------------------------------------


def spy_on_attention(monkeypatch) -> list:
    """Record (query rows, key rows, the [rows, keys] mask that the call's
    causal offset and key validity make) per attention call of the decoder."""
    calls = []
    real = lm_module.attention

    def spy(q, k_t, v, *, causal=None, keys=None, capture=None):
        rows, cols = q.shape[-2], k_t.shape[-1]
        calls.append((rows, cols, structural_mask(rows, cols, causal, keys)))
        return real(q, k_t, v, causal=causal, keys=keys, capture=capture)

    monkeypatch.setattr(lm_module, "attention", spy)
    return calls


def layout(monkeypatch, lm, seq) -> np.ndarray:
    """The [T, T] mask one forward attends under: the prefix pass's rows
    from the first block, then the text rows, which every block shares."""
    calls = spy_on_attention(monkeypatch)
    lm.forward(seq)
    t, p = seq.total_len, seq.n_prefix
    (_, _, prefix), (_, _, text), *rest = calls
    assert all(np.array_equal(allow, text) for *_, allow in rest)
    return np.vstack([np.hstack([prefix, np.zeros((p, t - p), dtype=bool)]), text])


def test_prefix_block_is_causal(monkeypatch):
    lm = tiny_lm()
    seq = assemble(visual(3), "the slide", "tumor", vocab())
    allow = layout(monkeypatch, lm, seq)
    p = seq.n_prefix
    assert not allow[1, 2]  # an earlier visual position cannot see a later one
    assert allow[2, :3].all()  # and a later one sees every earlier one
    assert not allow[:p, p:].any()  # the prefix sees no text
    assert not allow[p, p + 1]  # text stays causal
    assert allow[p + 1, :p].all()  # text sees all visual positions


def test_layout_mask_rows_from_any_start(monkeypatch):
    # A forward from a cache of any length past the prefix attends under
    # the rows of the full causal layout from that length on.
    lm = tiny_lm()
    seq = assemble(visual(3), "the slide", "tumor", vocab())
    t, p = seq.total_len, seq.n_prefix
    want = np.tril(np.ones((t, t), dtype=bool))
    np.testing.assert_array_equal(layout(monkeypatch, lm, seq), want)
    calls = spy_on_attention(monkeypatch)
    for start in range(p, t + 1):
        cache = lm.prefix_cache(seq.visual)
        head = copy.copy(seq)
        head.ids = seq.ids[: start - p]
        lm.forward(head, cache=cache)
        calls.clear()
        lm.forward(seq, cache=cache)
        assert cache.length == t
        for *_, allow in calls:
            np.testing.assert_array_equal(allow, want[start:])


def test_forward_rejects_a_cache_shorter_than_the_prefix():
    lm = tiny_lm()
    seq = assemble(visual(3), "the slide", None, vocab())
    cache = lm.prefix_cache(visual(2))
    with pytest.raises(UsageError):
        lm.forward(seq, cache=cache)


@pytest.mark.parametrize("in_place", [False, True], ids=["prefix-pass", "decode-buffer"])
def test_forward_rejects_a_cache_longer_than_the_sequence(in_place):
    lm = tiny_lm()
    v = vocab()
    longer = assemble(visual(3), "the slide shows tumor", None, v)
    shorter = assemble(visual(3), "the slide", None, v)
    m = longer.total_len
    cache = lm.prefix_cache(longer.visual)
    with no_grad():
        if in_place:
            cache = cache.buffer(m)
        lm.forward(longer, cache=cache)
        # A forward over no new rows runs, and leaves the cache as it was.
        logits, att = lm.forward(longer, capture_attention=True, cache=cache)
        assert logits.shape == (0, len(SPECIALS) + len(WORDS))
        assert [a.shape for a in att] == [(2, 0, m)] * 2
        assert cache.length == m
        with pytest.raises(UsageError, match=f"cache holds {m} rows; .* {shorter.total_len} in all"):
            lm.forward(shorter, cache=cache)
    assert cache.length == m


def test_causality_future_perturbation():
    lm = tiny_lm()
    v = vocab()
    base = assemble(visual(2), "the slide shows", "tumor tissue margin", v)
    poked = assemble(visual(2), "the slide shows", "tumor tissue margin", v)
    # Perturb the last answer token; logits strictly before it must not move.
    pos = base.total_len - 2
    row = pos - base.n_prefix  # ids and logits are the text rows'
    poked.ids = poked.ids.copy()
    poked.ids[row] = v.encode("stroma")[0]
    la, _ = lm.forward(base)
    lb, _ = lm.forward(poked)
    np.testing.assert_allclose(la.data[:row], lb.data[:row], atol=1e-12)
    assert np.abs(la.data[row:] - lb.data[row:]).max() > 1e-12


def test_visual_perturbation_reaches_first_answer_logits():
    lm = tiny_lm()
    v = vocab()
    vis = visual(3)
    seq_a = assemble(vis, "the slide", "tumor", v)
    vis_b = vis.copy()
    vis_b[1] += 0.5
    seq_b = assemble(vis_b, "the slide", "tumor", v)
    la, _ = lm.forward(seq_a)
    lb, _ = lm.forward(seq_b)
    first_answer_input = len(seq_a.prompt_ids)  # text row of the last prompt token
    assert np.abs(la.data[first_answer_input] - lb.data[first_answer_input]).max() > 1e-9


# -- loss -------------------------------------------------------------------------


def test_loss_equals_masked_next_token_cross_entropy():
    lm = tiny_lm()
    seq = assemble(visual(2), "the slide shows", "tumor tissue", vocab())
    loss = lm.loss(seq)
    logits, _ = lm.forward(seq)
    p = seq.n_prefix
    ids, mask = full_layout(seq)
    want = cross_entropy(Tensor(logits.data[:-1]), ids[p + 1 :], mask[p + 1 :]).item()
    assert abs(loss.item() - want) < 1e-12


def test_loss_ignores_prompt_logit_content():
    # Rows outside the shifted answer mask cannot influence the loss value.
    lm = tiny_lm()
    seq = assemble(visual(2), "the slide shows", "tumor tissue", vocab())
    logits, _ = lm.forward(seq)
    data = logits.data[:-1].copy()
    ids, mask = full_layout(seq)
    targets, mask = ids[seq.n_prefix + 1 :], mask[seq.n_prefix + 1 :]
    ref = cross_entropy(Tensor(data), targets, mask).item()
    data[~mask] = 0.0
    zeroed = cross_entropy(Tensor(data), targets, mask).item()
    assert abs(ref - zeroed) < 1e-15


def test_loss_requires_answer():
    lm = tiny_lm()
    with pytest.raises(UsageError):
        lm.loss(assemble(visual(2), "the slide", None, vocab()))


def test_visual_dim_mismatch_rejected():
    lm = tiny_lm()
    with pytest.raises(UsageError):
        lm.forward(assemble(np.zeros((2, 5)), "the slide", None, vocab()))


def test_max_positions_enforced():
    lm = tiny_lm(max_positions=4)
    with pytest.raises(UsageError):
        lm.forward(assemble(visual(2), "the slide shows tumor tissue", None, vocab()))


def test_text_positions_is_the_span_forward_checks():
    prompt, answer = "the slide shows", "tumor tissue"
    seq = assemble(visual(2), prompt, answer, vocab())
    assert text_positions(prompt, answer) == seq.total_len - seq.n_prefix == 7
    tiny_lm(max_positions=7).loss(seq)
    with pytest.raises(UsageError, match="exceeds max positions 6"):
        tiny_lm(max_positions=6).loss(seq)


# -- generation ---------------------------------------------------------------------


def test_greedy_ties_break_to_lowest_id():
    lm = tiny_lm(layers=0)
    for p in lm.params():
        p.value.data[...] = 0.0
    seq = assemble(np.zeros((2, 8)), "the slide", None, vocab())
    out, _ = lm.generate(seq, max_len=3, capture_attention=False)
    assert out == [PAD, PAD, PAD]  # all logits equal; argmax picks id 0


def test_generation_stops_at_eos():
    lm = tiny_lm(layers=0)
    for p in lm.params():
        p.value.data[...] = 0.0
    lm.head.bias.value.data[EOS] = 10.0
    seq = assemble(np.zeros((2, 8)), "the slide", None, vocab())
    out, trace = lm.generate(seq, max_len=5)
    assert out == []
    assert trace.values.shape == (0, 0, 2, 2)


def test_immediate_eos_still_traces_every_layer():
    lm = tiny_lm()
    lm.head.bias.value.data[EOS] = 1e3
    seq = assemble(visual(3), "the slide", None, vocab())
    out, trace = lm.generate(seq, max_len=5)
    assert out == []
    assert trace.values.shape == (0, 2, 2, 3)


def test_max_len_one_emits_one_token():
    lm = tiny_lm()
    seq = assemble(visual(2), "the slide", None, vocab())
    out, _ = lm.generate(seq, max_len=1, capture_attention=False)
    assert len(out) == 1
    with pytest.raises(UsageError):
        lm.generate(seq, max_len=0)


def test_generate_rejects_answer_sequences():
    lm = tiny_lm()
    with pytest.raises(UsageError):
        lm.generate(assemble(visual(2), "the slide", "tumor", vocab()))


def test_generation_is_deterministic():
    lm = tiny_lm()
    seq = assemble(visual(3), "the slide shows", None, vocab())
    a, _ = lm.generate(seq, max_len=4, capture_attention=False)
    b, _ = lm.generate(seq, max_len=4, capture_attention=False)
    assert a == b


def test_trace_shape_and_raw_attention_rows():
    lm = tiny_lm()
    v = vocab()
    n = 3
    seq = assemble(visual(n), "the slide", None, v)
    out, trace = lm.generate(seq, max_len=4)
    g = len(out)
    assert trace.values.shape == (g, 2, 2, n)
    assert (trace.values >= 0.0).all() and (trace.values <= 1.0).all()
    # Rows must equal the forward pass attention restricted to the visual span.
    final = MultimodalSequence(seq.visual, seq.prompt_ids, out)
    if g == 4:  # max_len reached without EOS: trailing EOS is not input
        final.ids = final.ids[:-1]
        final.loss_mask = final.loss_mask[:-1]
    _, recorded = lm.forward(final, capture_attention=True)
    gen_start = 1 + len(seq.prompt_ids)  # text row of the first generated token
    for gi in range(g):
        for layer in range(2):
            got = trace.values[gi, layer]
            want = recorded[layer][:, gen_start + gi, 1 : 1 + n]
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_batched_masked_attention_matches_per_head_oracle():
    heads, dh, t = 3, 4, 9
    dim = heads * dh
    attn = _MaskedSelfAttention("attn", dim, heads, stream(1, "oracle", "weights"))
    x = stream(1, "oracle", "x").normal(size=(t, dim))
    p = {prm.name.split(".", 1)[1]: prm.value.data for prm in attn.params()}
    q = x @ p["q.weight"] + p["q.bias"]
    k = x @ p["k.weight"]
    v = x @ p["v.weight"] + p["v.bias"]
    for causal in (None, 0, 3):  # every key; causal; causal after three more keys
        capture = []
        got = attn(Tensor(x), causal, capture, []).data
        allow = structural_mask(t, t, causal)
        heads_out, weights = [], []
        for h in range(heads):
            cols = slice(h * dh, (h + 1) * dh)
            scores = np.where(allow, q[:, cols] @ k[:, cols].T / math.sqrt(dh), -np.inf)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            att = e / e.sum(axis=1, keepdims=True)
            weights.append(att)
            heads_out.append(att @ v[:, cols])
        want = np.hstack(heads_out) @ p["out.weight"] + p["out.bias"]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert len(capture) == 1 and capture[0].shape == (heads, t, t)
        np.testing.assert_allclose(capture[0], np.stack(weights), rtol=0, atol=1e-12)


# -- the prefix split against the dense oracle ------------------------------------------


def dense_block(block, x, allow, capture):
    """A decoder block over all its rows under a dense mask, through the
    reference attention op."""
    attn = block.attn
    q, v = attn.project(x, attn.wq, attn.wv)
    out, _ = reference_attention(q, attn.keys_t(x), v, allow, capture)
    x = block.ln1(x + attn.merge(out))
    return block.ln2(x + block.ffn(x))


def dense_forward(lm, seq, capture=None):
    """The decoder without its prefix split, as the oracle of that split:
    every block over all T rows under the [T, T] layout mask, through the
    dense reference attention. Returns the logits of all T rows; `capture`
    receives each block's [H, T, T] attention."""
    t, p = seq.total_len, seq.n_prefix
    ids, _ = full_layout(seq)
    tok = lm.tok_embed.value
    vis = seq.visual if isinstance(seq.visual, Tensor) else Tensor(seq.visual)
    text = take_rows(tok, ids[p:]) + take_rows(lm.pos_embed.value, range(t - p))
    x = concat([take_rows(tok, [IMG_START]), vis, take_rows(tok, [IMG_END]), text], axis=0)
    allow = np.tri(t, t, dtype=bool)
    for block in lm.blocks:
        x = dense_block(block, x, allow, capture)
    return lm.head(x)


def dense_loss(lm, seq):
    logits = dense_forward(lm, seq)
    ids, mask = full_layout(seq)
    return cross_entropy(logits.rows(0, seq.total_len - 1), ids[1:], mask[1:])


def grads_of(loss, tensors):
    """Each tensor's grad of `loss`; one that `loss` does not reach gets zeros."""
    for t in tensors:
        t.grad = None
    loss.backward()
    return [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]


SPLIT_CASES = [{}, {"layers": 0}, {"layers": 1}]
SPLIT_IDS = ["default", "no-layers", "one-layer"]


@pytest.mark.parametrize("kw", SPLIT_CASES, ids=SPLIT_IDS)
def test_prefix_split_matches_dense_oracle(kw):
    # In the last two cases the only block, or no block, is the last one.
    lm = tiny_lm(**kw)
    vis = Tensor(visual(5), requires_grad=True)
    seq = assemble(vis, "the slide shows", "tumor tissue margin", vocab())
    p = seq.n_prefix
    want_att = []
    want_logits = dense_forward(lm, seq, want_att).data[p:]
    got_logits, got_att = lm.forward(seq, capture_attention=True)
    np.testing.assert_allclose(got_logits.data, want_logits, rtol=0, atol=1e-12)
    assert len(got_att) == len(want_att) == lm.cfg.layers
    for got, want in zip(got_att, want_att):
        np.testing.assert_allclose(got, want[:, p:], rtol=0, atol=1e-12)
    tensors = [prm.value for prm in lm.params()] + [vis]
    want_loss = dense_loss(lm, seq)
    want_grads = grads_of(want_loss, tensors)
    got_loss = lm.loss(seq)
    got_grads = grads_of(got_loss, tensors)
    assert abs(got_loss.item() - want_loss.item()) <= 1e-12
    for prm, got, want in zip(lm.params() + [None], got_grads, want_grads):
        name = "visual" if prm is None else prm.name
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)


def test_last_block_attends_from_text_rows_only(monkeypatch):
    lm = tiny_lm(layers=3)
    seq = assemble(visual(5), "the slide shows", "tumor tissue", vocab())
    calls = spy_on_attention(monkeypatch)
    lm.loss(seq).backward()
    t, p = seq.total_len, seq.n_prefix
    # The prefix pass runs every block but the last, then the text rows run all.
    assert [(rows, keys) for rows, keys, _ in calls] == [(p, p)] * 2 + [(t - p, t)] * 3


# -- cached decoding against the dense oracle ---------------------------------------------


def full_forward_greedy(lm, seq, max_len):
    """Greedy decoding without a cache: one dense forward per token, then
    one more over the whole sequence for the trace. Returns the ids, the
    trace values and the last-row logits of every step."""
    generated, last_logits = [], []
    hit_eos = False
    for _ in range(max_len):
        probe = MultimodalSequence(seq.visual, seq.prompt_ids, generated)
        probe.ids = probe.ids[:-1]  # the EOS the assembly appends is not input yet
        logits = dense_forward(lm, probe)
        last_logits.append(logits.data[-1])
        next_id = int(np.argmax(logits.data[-1]))
        if next_id == EOS:
            hit_eos = True
            break
        generated.append(next_id)
    final = MultimodalSequence(seq.visual, seq.prompt_ids, generated)
    if not hit_eos:
        final.ids = final.ids[:-1]
    recorded = []
    dense_forward(lm, final, recorded)
    n = seq.n_visual
    gen_start = final.n_prefix + 1 + len(seq.prompt_ids)
    values = np.zeros((len(generated), lm.cfg.layers, lm.cfg.heads, n))
    for g in range(len(generated)):
        for layer, att in enumerate(recorded):
            values[g, layer] = att[:, gen_start + g, 1 : 1 + n]
    return generated, values, last_logits


def assert_matches_oracle(lm, seq, max_len):
    want_ids, want_trace, _ = full_forward_greedy(lm, seq, max_len)
    ids, trace = lm.generate(seq, max_len=max_len)
    assert ids == want_ids
    assert trace.values.shape == want_trace.shape
    np.testing.assert_allclose(trace.values, want_trace, rtol=0, atol=1e-12)
    plain, none = lm.generate(seq, max_len=max_len, capture_attention=False)
    assert plain == want_ids and none is None
    return ids


@pytest.mark.parametrize("kw,max_len,tokens", [
    ({}, 6, 6),
    ({"layers": 0}, 6, 3),  # this model emits EOS after three tokens
    ({}, 1, 1),
], ids=["default", "no-layers", "max-len-1"])
def test_cached_generate_matches_full_forward_oracle(kw, max_len, tokens):
    seq = assemble(visual(3), "the slide shows", None, vocab())
    assert len(assert_matches_oracle(tiny_lm(**kw), seq, max_len)) == tokens


def test_cached_generate_matches_oracle_when_eos_comes_mid_decode():
    lm = tiny_lm()
    seq = assemble(visual(3), "the slide shows", None, vocab())
    _, _, last_logits = full_forward_greedy(lm, seq, 6)
    # Raise the EOS logit until it wins at the step where it trails least.
    margins = [np.delete(row, EOS).max() - row[EOS] for row in last_logits]
    k = int(np.argmin(margins))
    assert 0 < k < 5
    lm.head.bias.value.data[EOS] += (margins[k] + min(margins[:k])) / 2
    assert len(assert_matches_oracle(lm, seq, 6)) == k


def test_cached_decode_runs_one_row_per_step(monkeypatch):
    lm = tiny_lm()
    seq = assemble(visual(3), "the slide shows", None, vocab())
    calls = []
    forward = lm.forward

    def spy(s, capture_attention=False, cache=None):
        before = cache.length
        logits, att = forward(s, capture_attention, cache)
        shapes = None if att is None else [a.shape for a in att]
        calls.append((before, cache.length, logits.shape[0], shapes))
        inputs.append(s)
        return logits, att

    inputs = []
    monkeypatch.setattr(lm, "forward", spy)
    ids, _ = lm.generate(seq, max_len=5)
    assert len(ids) == 5
    m, p = seq.total_len, seq.n_prefix
    prefill, *steps, trace = calls
    assert prefill == (p, m, m - p, None)  # BOS and the prompt only
    assert steps == [(m + i, m + i + 1, 1, None) for i in range(4)]
    assert trace == (m, m + 5, 5, [(2, 5, m + 5)] * 2)
    # Each step is the sequence grown by its new token, over a cache of all
    # rows but that one.
    for i, (step, (before, *_)) in enumerate(zip(inputs[1:-1], steps, strict=True)):
        assert step.ids.tolist() == [BOS, *seq.prompt_ids, *ids[: i + 1]]
        assert step.ids[-1] == ids[i] and before == step.total_len - 1


def test_cached_forward_row_matches_full_forward():
    # The prefix cache's layout joins new keys on; a decode buffer, which
    # keeps no tape, writes them in place.
    lm = tiny_lm()
    v = vocab()
    prompt = assemble(visual(3), "the slide", None, v)
    longer = assemble(visual(3), "the slide shows", None, v)
    m = prompt.total_len
    full_logits, full_att = lm.forward(longer, capture_attention=True)
    for in_place in (False, True):
        cache = lm.prefix_cache(prompt.visual)
        with no_grad() if in_place else contextlib.nullcontext():
            if in_place:
                cache = cache.buffer(longer.total_len)
            lm.forward(prompt, cache=cache)
            logits, att = lm.forward(longer, capture_attention=True, cache=cache)
        assert cache.length == m + 1
        assert logits.shape == (1, len(SPECIALS) + len(WORDS))
        row = m - longer.n_prefix  # the full forward's logits are the text rows'
        np.testing.assert_allclose(logits.data[0], full_logits.data[row], rtol=0, atol=1e-12)
        for got, want in zip(att, full_att, strict=True):
            assert got.shape == (2, 1, m + 1)
            np.testing.assert_allclose(got[:, 0], want[:, row], rtol=0, atol=1e-12)


# -- decoding in place against the decode loop it replaced --------------------------------


def joined_cache_generate(lm, seq, max_len):
    """The decode loop the in-place buffer replaced, kept as the reference:
    the prefill and each step join their keys and values onto list copies
    of the cache with `concat`, and each step runs a sequence of the whole
    prompt plus the tokens so far. Returns the ids and the trace values."""
    with no_grad():
        prefix = lm.prefix_cache(seq.visual)
        cache = KVCache(prefix.length, [list(pair) for pair in prefix.kv])
        logits, _ = lm.forward(seq, cache=cache)
        prompted = KVCache(cache.length, [list(pair) for pair in cache.kv])
        generated = []
        while (next_id := int(np.argmax(logits.data[-1]))) != EOS:
            generated.append(next_id)
            if len(generated) == max_len:
                break
            step = MultimodalSequence(seq.visual, seq.prompt_ids + generated, None)
            logits, _ = lm.forward(step, cache=cache)
        final = MultimodalSequence(seq.visual, seq.prompt_ids + generated, None)
        _, recorded = lm.forward(final, capture_attention=True, cache=prompted)
    shape = (lm.cfg.layers, lm.cfg.heads, len(generated), final.total_len)
    layers = np.array(recorded).reshape(shape)[..., seq.visual_slice()]
    return generated, layers.transpose(2, 0, 1, 3)


def eos_mid_decode(lm, seq):
    """Set the EOS logit so that greedy decoding stops within six tokens,
    at the step where EOS trails least; returns the tokens before it."""
    lm.head.bias.value.data[EOS] = -1e9
    _, _, last_logits = full_forward_greedy(lm, seq, 6)
    margins = [np.delete(row, EOS).max() - row[EOS] for row in last_logits]
    k = int(np.argmin(margins))
    assert 0 < k < 5
    lm.head.bias.value.data[EOS] += (margins[k] + min(margins[:k])) / 2
    return k


@pytest.mark.parametrize("kw,max_len,tokens", [
    ({}, 6, 6),
    ({"layers": 0}, 6, 6),
    ({}, 1, 1),
    ({"eos": True}, 6, None),
    ({"heads": 4, "head_dim": 32, "max_positions": 256}, 9, 9),
], ids=["default", "no-layers", "max-len-1", "eos-mid-decode", "default-dims"])
def test_in_place_decode_is_bit_identical_to_the_joined_cache(kw, max_len, tokens):
    kw = dict(kw)
    eos = kw.pop("eos", False)
    lm = tiny_lm(**kw)
    seq = assemble(visual(37, dim=lm.cfg.dim), "the slide shows the tissue", None, vocab())
    if eos:
        tokens = eos_mid_decode(lm, seq)
    else:
        lm.head.bias.value.data[EOS] = -1e9  # decode all max_len tokens
    want_ids, want_trace = joined_cache_generate(lm, seq, max_len)
    ids, trace = lm.generate(seq, max_len=max_len)
    assert ids == want_ids and len(ids) == tokens
    assert trace.values.shape == want_trace.shape
    assert np.array_equal(trace.values, want_trace)


def test_generate_joins_no_cache(monkeypatch):
    lm = tiny_lm()
    seq = assemble(visual(3), "the slide shows", None, vocab())
    prefix = lm.prefix_cache(seq.visual)
    calls = []
    real = lm_module.concat

    def spy(tensors, axis=0):
        calls.append(axis)
        return real(tensors, axis)

    monkeypatch.setattr(lm_module, "concat", spy)
    ids, trace = lm.generate(seq, max_len=5, prefix=prefix)
    assert len(ids) == 5 and trace is not None
    assert calls == []


def test_generate_leaves_the_prefix_cache_unwritten():
    lm = tiny_lm()
    seq = assemble(visual(3), "the slide shows", None, vocab())
    prefix = lm.prefix_cache(seq.visual)
    before = [[t.data.copy() for t in pair] for pair in prefix.kv]
    first = lm.generate(seq, max_len=5, prefix=prefix)
    second = lm.generate(seq, max_len=5, prefix=prefix)
    assert prefix.length == seq.n_prefix
    for pair, copies in zip(prefix.kv, before, strict=True):
        assert all(np.array_equal(t.data, c) for t, c in zip(pair, copies, strict=True))
    assert first[0] == second[0]
    assert np.array_equal(first[1].values, second[1].values)


def test_generate_stops_when_the_answer_fills_max_positions():
    # BOS, three prompt words and three tokens fill 7 positions: decoding
    # stops there, with the trace or without, however many tokens max_len
    # allows. A prompt that leaves no position fails before any work.
    lm = tiny_lm(max_positions=7)
    lm.head.bias.value.data[EOS] = -1e9  # decode until a limit stops it
    v = vocab()
    seq = assemble(visual(2), "the slide shows", None, v)
    for capture in (False, True):
        ids, trace = lm.generate(seq, max_len=2, capture_attention=capture)
        assert len(ids) == 2
        for max_len in (3, 4, 20):
            ids, trace = lm.generate(seq, max_len=max_len, capture_attention=capture)
            assert len(ids) == 3
            assert len(trace.values) == 3 if capture else trace is None
    full = assemble(visual(2), "the slide shows the tumor tissue", None, v)
    with pytest.raises(UsageError, match="take 7 text positions of max positions 7"):
        lm.generate(full, max_len=1)


def test_one_decode_step_copies_no_key_cache():
    # Default dims and a warm prefix of 4096 visual tokens. One step scores
    # its row against the buffer in place: an [H, 1, T] score row and a few
    # [1, D] rows, against 4.2 MB (H·T·dh·8 bytes) for one copy of a block's
    # keys. The prefix cache is drawn at random, as only its shapes matter
    # here.
    cfg = DecoderConfig()
    lm = DecoderLM(cfg, len(SPECIALS) + len(WORDS), seed=0)
    seq = assemble(visual(4096, dim=cfg.dim), "the slide", None, vocab())
    p, rng = seq.n_prefix, stream(0, "decode-step")
    prefix = KVCache(p, [
        [Tensor(rng.normal(size=(cfg.heads, cfg.head_dim, p))),
         Tensor(rng.normal(size=(cfg.heads, p, cfg.head_dim)))]
        for _ in lm.blocks
    ])
    cache = prefix.buffer(p + 8)
    step = MultimodalSequence(seq.visual, seq.prompt_ids + [seq.prompt_ids[0]], None)
    with no_grad():
        lm.forward(seq, cache=cache)
        tracemalloc.start()
        try:
            logits, _ = lm.forward(step, cache=cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert logits.shape == (1, len(SPECIALS) + len(WORDS)) and cache.length == step.total_len
    assert peak < 1 << 20, f"one step allocated {peak / 1024:.0f} KiB"


def test_prefix_cache_memory_at_8192_visual_tokens():
    # Small decoder dims, 8192 visual tokens, under a 1 GiB address-space
    # cap. One [H, p, p] score buffer of the prefix rows takes 1.07 GB here
    # and raises MemoryError; blocks of query rows score [H, 64, p] at a time.
    code = """
        from slidevlm.lm import DecoderConfig, DecoderLM
        from slidevlm.numerics import stream
        lm = DecoderLM(DecoderConfig(heads=2, head_dim=4), 16, seed=0)
        cache = lm.prefix_cache(stream(0, "memory-guard").normal(size=(8192, lm.cfg.dim)))
        assert cache.length == 8194 and cache.kv[0][0].shape == (2, 4, 8194)
        """
    proc = run_capped(code, 2**30)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_decode_memory_does_not_grow_with_tokens():
    # Default dims, 2048 visual tokens, a warm prefix and EOS suppressed: a
    # step that copied the cache would hold another [H, T, dh] per block.
    lm = DecoderLM(DecoderConfig(), len(SPECIALS) + len(WORDS), seed=0)
    lm.head.bias.value.data[EOS] = -1e9
    seq = assemble(visual(2048, dim=lm.cfg.dim), "the slide", None, vocab())
    prefix = lm.prefix_cache(seq.visual)
    peaks = {}
    tracemalloc.start()
    try:
        for max_len in (1, 16):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ids, _ = lm.generate(seq, max_len=max_len, capture_attention=False, prefix=prefix)
            assert len(ids) == max_len
            peaks[max_len] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peaks[16] - peaks[1] <= 256 * 1024, peaks
