"""Tokenizer, sequence assembly, decoder masking, loss, and greedy decoding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    MultimodalSequence,
    Vocab,
    _MaskedSelfAttention,
    assemble,
)
from slidevlm.numerics import UsageError, cross_entropy, Tensor, stream

WORDS = ["tumor", "stroma", "slide", "shows", "the", "a", "tissue", "margin"]


def vocab():
    return Vocab(WORDS)


def tiny_lm(**kw):
    cfg = dict(vocab_size=len(SPECIALS) + len(WORDS), heads=2, head_dim=4,
               layers=2, ffn_mult=2, max_positions=32)
    cfg.update(kw)
    return DecoderLM(DecoderConfig(**cfg), seed=0)


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


def test_vocab_build_sorts_corpus_words():
    v = Vocab.build(["b a", "c a"])
    assert [v.token(i) for i in range(len(SPECIALS), len(v))] == ["a", "b", "c"]


# -- sequence assembly ----------------------------------------------------------


def test_layout_arithmetic():
    v = vocab()
    seq = assemble(visual(2), "the slide shows", "tumor tissue", v)
    # [IMG_START, v1, v2, IMG_END, BOS, 3 prompt, 2 answer, EOS] = 11
    assert seq.total_len == 11
    assert seq.loss_mask.sum() == 3
    assert seq.loss_mask[-3:].all() and not seq.loss_mask[:-3].any()
    assert seq.ids[0] == IMG_START and seq.ids[3] == IMG_END
    assert seq.ids[4] == BOS and seq.ids[-1] == EOS
    assert (seq.ids[1:3] == PAD).all()


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


def test_prefix_block_is_bidirectional_by_default():
    lm = tiny_lm()
    seq = assemble(visual(3), "the slide", "tumor", vocab())
    allow = lm._layout_mask(seq)
    p = seq.n_prefix
    assert allow[:p, :p].all()  # visual block sees itself fully
    assert not allow[p, p + 1]  # text stays causal
    assert allow[p + 1, :p].all()  # text sees all visual positions


def test_causal_visual_flag_drops_the_block():
    lm = tiny_lm(causal_visual=True)
    seq = assemble(visual(3), "the slide", "tumor", vocab())
    allow = lm._layout_mask(seq)
    assert not allow[1, 2]  # earlier visual position cannot see a later one
    np.testing.assert_array_equal(allow, np.tril(allow))


def test_visual_attention_flag_changes_forward():
    seq = assemble(visual(4), "the slide", None, vocab())
    a, _ = tiny_lm().forward(seq)
    b, _ = tiny_lm(causal_visual=True).forward(seq)
    assert np.abs(a.data - b.data).max() > 1e-9


def test_causality_future_perturbation():
    lm = tiny_lm()
    v = vocab()
    base = assemble(visual(2), "the slide shows", "tumor tissue margin", v)
    poked = assemble(visual(2), "the slide shows", "tumor tissue margin", v)
    # Perturb the last answer token; logits strictly before it must not move.
    pos = base.total_len - 2
    poked.ids = poked.ids.copy()
    poked.ids[pos] = v.encode("stroma")[0]
    la, _ = lm.forward(base)
    lb, _ = lm.forward(poked)
    np.testing.assert_allclose(la.data[:pos], lb.data[:pos], atol=1e-12)
    assert np.abs(la.data[pos:] - lb.data[pos:]).max() > 1e-12


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
    first_answer_input = seq_a.text_start + len(seq_a.prompt_ids)
    assert np.abs(la.data[first_answer_input] - lb.data[first_answer_input]).max() > 1e-9


# -- loss -------------------------------------------------------------------------


def test_loss_equals_masked_next_token_cross_entropy():
    lm = tiny_lm()
    seq = assemble(visual(2), "the slide shows", "tumor tissue", vocab())
    loss = lm.loss(seq)
    logits, _ = lm.forward(seq)
    want = cross_entropy(
        Tensor(logits.data[:-1]), seq.ids[1:], seq.loss_mask[1:]
    ).item()
    assert abs(loss.item() - want) < 1e-12


def test_loss_ignores_prompt_logit_content():
    # Rows outside the shifted answer mask cannot influence the loss value.
    lm = tiny_lm()
    seq = assemble(visual(2), "the slide shows", "tumor tissue", vocab())
    logits, _ = lm.forward(seq)
    data = logits.data[:-1].copy()
    ref = cross_entropy(Tensor(data), seq.ids[1:], seq.loss_mask[1:]).item()
    data[~seq.loss_mask[1:]] = 0.0
    zeroed = cross_entropy(Tensor(data), seq.ids[1:], seq.loss_mask[1:]).item()
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
    gen_start = final.text_start + 1 + len(seq.prompt_ids)
    for gi in range(g):
        for layer in range(2):
            got = trace.values[gi, layer]
            want = recorded[layer][:, gen_start + gi, 1 : 1 + n]
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_tied_head_shares_embedding():
    lm = tiny_lm(tied_head=True)
    assert lm.head is None
    assert not any(p.name.startswith("lm.head") for p in lm.params())
    seq = assemble(visual(2), "the slide", None, vocab())
    logits, _ = lm.forward(seq)
    assert logits.shape == (seq.total_len, len(SPECIALS) + len(WORDS))


def test_batched_masked_attention_matches_per_head_oracle():
    heads, dh, t = 3, 4, 9
    dim = heads * dh
    attn = _MaskedSelfAttention("attn", dim, heads, stream(1, "oracle", "weights"))
    x = stream(1, "oracle", "x").normal(size=(t, dim))
    allow = np.tril(np.ones((t, t), dtype=bool))
    allow[:4, :4] = True
    capture = []
    got = attn(Tensor(x), allow, capture).data

    p = {prm.name.split(".", 1)[1]: prm.value.data for prm in attn.params()}
    q = x @ p["q.weight"] + p["q.bias"]
    k = x @ p["k.weight"]
    v = x @ p["v.weight"] + p["v.bias"]
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
