"""Generation through the whole model: the reused visual prefix and memory."""

import weakref

import numpy as np
import pytest
from conftest import random_slides, run_capped, tiny_model
from test_lm import full_forward_greedy

from slidevlm.encoders import Projector, SlideEncoder, SlideEncoderConfig
from slidevlm.lm import Vocab, assemble
from slidevlm.model import ModelConfig, SlideVLM
from slidevlm.numerics import AdamW, UsageError

PROMPTS = ["describe the tissue", "tumor fills the slide", "stroma lines the margin"]


def spy_on(monkeypatch, cls) -> list:
    """Record one entry per call of `cls.__call__`."""
    calls = []
    original = cls.__call__

    def spy(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__call__", spy)
    return calls


def one_slide(seed=0):
    return random_slides(1, n_patches=6, seed=seed)["s0"]


def assert_same_answer(got, want):
    assert got[0] == want[0]
    assert got[1].values.shape == want[1].values.shape
    np.testing.assert_allclose(got[1].values, want[1].values, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kw", [
    {},
    {"bypass_slide_encoder": True},
    {"lm": {"layers": 0}},
], ids=["default", "bypass-slide-encoder", "no-layers"])
def test_prefix_hit_matches_a_fresh_model(monkeypatch, kw):
    slide = one_slide()
    model = tiny_model(seed=3, **kw)
    projections = spy_on(monkeypatch, Projector)
    model.generate(slide, PROMPTS[0], max_len=4)
    got = model.generate(slide, PROMPTS[1], max_len=6)
    assert len(projections) == 1  # the second request reused the prefix
    want = tiny_model(seed=3, **kw).generate(slide, PROMPTS[1], max_len=6)
    assert_same_answer(got, want)
    # And both agree with greedy decoding by full forwards, without any cache.
    seq = assemble(model.visual_tokens(slide), PROMPTS[1], None, model.vocab)
    ids, trace, _ = full_forward_greedy(model.lm, seq, 6)
    assert got[0] == model.vocab.decode(ids)
    np.testing.assert_allclose(got[1].values, trace, rtol=0, atol=1e-12)


def write_parameter(model, slide):
    model.projector.params()[0].value.data[0, 0] += 0.25


def load_other_weights(model, slide):
    model.load_tensors(tiny_model(seed=9).tensors())


def adamw_step(model, slide):
    model.loss(slide, PROMPTS[0], "tumor fills the slide").backward()
    AdamW(model.params(), lr=0.01).step()


def edit_embedding(model, slide):
    slide.embeddings.values[2, 1] += 0.5


def move_a_patch(model, slide):
    slide.coords[0] = (7, 7)


@pytest.mark.parametrize("edit", [
    write_parameter, load_other_weights, adamw_step, edit_embedding, move_a_patch,
], ids=lambda f: f.__name__)
def test_changed_weights_or_slide_recompute_the_prefix(monkeypatch, edit):
    slide = one_slide(seed=1)
    model = tiny_model(seed=4)
    encodes = spy_on(monkeypatch, SlideEncoder)
    before = model.generate(slide, PROMPTS[0], max_len=5)
    assert model.generate(slide, PROMPTS[0], max_len=5)[0] == before[0]
    assert len(encodes) == 1
    edit(model, slide)
    encodes.clear()  # the AdamW edit encodes the slide for its loss
    got = model.generate(slide, PROMPTS[0], max_len=5)
    assert len(encodes) == 1
    fresh = tiny_model(seed=4)
    fresh.load_tensors(model.tensors())
    assert_same_answer(got, fresh.generate(slide, PROMPTS[0], max_len=5))
    assert not np.array_equal(got[1].values, before[1].values)


@pytest.mark.parametrize("coord", [(-1, 0), (0, -1)])
def test_a_negative_coordinate_is_rejected(coord):
    # The positional lookup would otherwise wrap to the table's last row.
    slide = one_slide()
    slide.coords[2] = coord
    model = tiny_model()
    want = rf"tissue tile at row {coord[0]}, col {coord[1]} is outside model.encoder.grid_"
    with pytest.raises(UsageError, match=want):
        model.loss(slide, PROMPTS[0], "tumor")
    with pytest.raises(UsageError, match=want):
        model.generate(slide, PROMPTS[0], max_len=2)


def test_a_wrapped_stage_recomputes_the_prefix(monkeypatch):
    # A prefix computed before a stage was wrapped would skip the wrapper.
    slide = one_slide(seed=1)
    model = tiny_model(seed=4)
    before = model.generate(slide, PROMPTS[0], max_len=5)
    encodes = spy_on(monkeypatch, SlideEncoder)
    projections = spy_on(monkeypatch, Projector)
    assert_same_answer(model.generate(slide, PROMPTS[0], max_len=5), before)
    assert (len(encodes), len(projections)) == (1, 1)
    model.generate(slide, PROMPTS[1], max_len=5)
    assert (len(encodes), len(projections)) == (1, 1)


def test_a_round_of_questions_encodes_the_slide_once(monkeypatch):
    slide, other = one_slide(seed=2), one_slide(seed=3)
    model = tiny_model(seed=5)
    encodes = spy_on(monkeypatch, SlideEncoder)
    answers = [
        model.generate(slide, PROMPTS[i % 3], max_len=3, capture_attention=i == 0)[0]
        for i in range(25)
    ]
    assert len(encodes) == 1
    assert answers[3::3] == [answers[0]] * 8
    # One slide is remembered: going to another and back encodes twice more.
    model.generate(other, PROMPTS[0], max_len=3)
    assert model.generate(slide, PROMPTS[0], max_len=3)[0] == answers[0]
    assert len(encodes) == 3


def test_generation_keeps_no_tape():
    slide = one_slide()
    model = tiny_model(seed=6)
    model.generate(slide, PROMPTS[0], max_len=3)
    assert all(p.trainable for p in model.params())
    assert not model._prefix.visual.requires_grad
    assert model._prefix.visual._node is None


def test_one_backward_reaches_every_parameter():
    # A stage the model builds but never runs would hold parameters that no
    # loss reaches; they would still fill checkpoints and optimizer state.
    vocab = Vocab.build(["the slide shows tumor tissue with stroma margin"])
    model = SlideVLM(ModelConfig(encoder=SlideEncoderConfig(positional="grid")), vocab, seed=0)
    model.set_trainable_groups({"slide_encoder", "projector", "lm"})
    inputs = random_slides(1, n_patches=64, dim=32)["s0"]
    model.loss(inputs, "the slide shows", "tumor tissue with stroma margin").backward()
    untouched = [p.name for p in model.params() if p.value.grad is None or not p.value.grad.any()]
    assert untouched == []


def test_backward_releases_the_tape():
    # Once backward has run and the loss is dropped, no tape node survives,
    # and watching them does not change a single gradient.
    slide = one_slide()

    def run(watch):
        model = tiny_model(seed=6)
        loss = model.loss(slide, PROMPTS[0], PROMPTS[1])
        refs, stack, node = {}, [loss._node] if watch else [], None
        while stack:
            node = stack.pop()
            if node.parents and id(node) not in refs:
                refs[id(node)] = weakref.ref(node)
                stack.extend(node.parents)
        node = None
        loss.backward()
        del loss
        return model, list(refs.values())

    model, refs = run(watch=True)
    assert len(refs) > 50 and all(r() is None for r in refs)
    plain, _ = run(watch=False)
    for p, q in zip(model.params(), plain.params()):
        np.testing.assert_array_equal(p.grad, q.grad)


def test_generate_memory_at_2048_patches():
    # Default dims, one 2048-patch slide, under a 1 GiB address-space cap.
    # Generating with an autodiff tape keeps every [H, T, T] attention map
    # of the prefill alive and raises MemoryError here.
    code = """
        from slidevlm.encoders import EmbeddingMatrix, SlideEncoderConfig
        from slidevlm.lm import Vocab
        from slidevlm.model import ModelConfig, SlideInputs, SlideVLM
        from slidevlm.numerics import stream
        model = SlideVLM(
            ModelConfig(encoder=SlideEncoderConfig(positional="none")),
            Vocab(["tumor", "stroma"]),
            seed=0,
        )
        values = stream(0, "memory-guard").normal(size=(2048, 32))
        text, trace = model.generate(SlideInputs(EmbeddingMatrix(2048, 32, values)), "tumor", max_len=4)
        assert trace.values.shape[-1] == 2048
        """
    proc = run_capped(code, 2**30)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_full_model_loss_memory_at_4096_patches():
    # Default dims with grid positions, one loss forward and backward under a
    # 1.5 GiB address-space cap. A decoder prefix pass that tapes its
    # [H, p, p] weights peaks at 2.1 GiB here and raises MemoryError.
    code = """
        from slidevlm.encoders import EmbeddingMatrix, SlideEncoderConfig
        from slidevlm.lm import Vocab
        from slidevlm.model import ModelConfig, SlideInputs, SlideVLM
        from slidevlm.numerics import stream
        n, side = 4096, 64
        vocab = Vocab.build(["the slide shows tumor tissue with stroma margin"])
        model = SlideVLM(ModelConfig(encoder=SlideEncoderConfig(positional="grid")), vocab, seed=0)
        model.set_trainable_groups({"slide_encoder", "projector", "lm"})
        values = stream(0, "memory-guard").normal(size=(n, 32))
        inputs = SlideInputs(EmbeddingMatrix(n, 32, values), [(i // side, i % side) for i in range(n)])
        model.loss(inputs, "the slide shows", "tumor tissue with stroma margin").backward()
        assert model.lm.blocks[0].attn.wk.weight.value.grad.any()
        """
    proc = run_capped(code, 3 * 2**29)
    assert proc.returncode == 0, proc.stderr[-2000:]
