"""KV-cache decoding: equivalence with full re-forward, determinism."""

import numpy as np
import pytest

from repro.nn import ModelConfig, init_model, model_fwd, rope_tables
from repro.nn.generate import (
    KVCache,
    generate,
    perplexity,
    sequence_logprobs,
)
from repro.nn.rope import rope_angles

CFG = ModelConfig(hidden=16, n_layers=3, n_heads=2, seq_len=12, vocab=23)
CHUNKS = init_model(CFG, seed=4)
RNG = np.random.default_rng(2)


class TestKVCacheEquivalence:
    def test_incremental_matches_full_forward(self):
        """Feeding tokens one at a time through the KV cache must give
        the same final logits as one full forward pass."""
        tokens = RNG.integers(0, CFG.vocab, size=(2, 6))
        cos, sin = rope_angles(6, CFG.head_dim, CFG.rope_base, CFG.dtype)
        full_logits, _ = model_fwd(CFG, CHUNKS, tokens, cos, sin)

        from repro.nn.generate import KVCache, _decode_step

        cos_all, sin_all = rope_angles(6, CFG.head_dim, CFG.rope_base, CFG.dtype)
        cache = KVCache(CFG.n_layers)
        step_logits = []
        for t in range(6):
            lg = _decode_step(
                CFG, CHUNKS, tokens[:, t : t + 1], cache, cos_all, sin_all
            )
            step_logits.append(lg)
        for t in range(6):
            np.testing.assert_allclose(
                step_logits[t], full_logits[:, t, :], atol=1e-10,
                err_msg=f"position {t}",
            )

    def test_block_prompt_matches_tokenwise(self):
        """Ingesting the prompt as one block equals token-by-token."""
        from repro.nn.generate import _decode_step

        tokens = RNG.integers(0, CFG.vocab, size=(1, 5))
        cos_all, sin_all = rope_angles(8, CFG.head_dim, CFG.rope_base, CFG.dtype)

        c1 = KVCache(CFG.n_layers)
        block = _decode_step(CFG, CHUNKS, tokens, c1, cos_all, sin_all)
        c2 = KVCache(CFG.n_layers)
        for t in range(5):
            step = _decode_step(CFG, CHUNKS, tokens[:, t : t + 1], c2, cos_all, sin_all)
        np.testing.assert_allclose(block, step, atol=1e-10)
        for l in range(CFG.n_layers):
            np.testing.assert_allclose(c1.k[l], c2.k[l], atol=1e-10)


class TestGenerate:
    def test_shapes_and_range(self):
        prompt = RNG.integers(0, CFG.vocab, size=(2, 3))
        out = generate(CFG, CHUNKS, prompt, n_new=5)
        assert out.shape == (2, 8)
        np.testing.assert_array_equal(out[:, :3], prompt)
        assert out.max() < CFG.vocab and out.min() >= 0

    def test_greedy_is_deterministic(self):
        prompt = RNG.integers(0, CFG.vocab, size=(1, 4))
        a = generate(CFG, CHUNKS, prompt, n_new=6)
        b = generate(CFG, CHUNKS, prompt, n_new=6)
        np.testing.assert_array_equal(a, b)

    def test_sampling_seeded(self):
        prompt = RNG.integers(0, CFG.vocab, size=(1, 4))
        a = generate(CFG, CHUNKS, prompt, n_new=6, temperature=1.0, seed=3)
        b = generate(CFG, CHUNKS, prompt, n_new=6, temperature=1.0, seed=3)
        c = generate(CFG, CHUNKS, prompt, n_new=6, temperature=1.0, seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)  # overwhelmingly likely

    def test_greedy_matches_full_reforward_argmax(self):
        """Each greedy token equals the argmax of a from-scratch forward
        over the prefix — the KV cache changes nothing."""
        prompt = RNG.integers(0, CFG.vocab, size=(1, 3))
        out = generate(CFG, CHUNKS, prompt, n_new=4)
        for t in range(3, 7):
            prefix = out[:, :t]
            cos, sin = rope_angles(t, CFG.head_dim, CFG.rope_base, CFG.dtype)
            logits, _ = model_fwd(CFG, CHUNKS, prefix, cos, sin)
            assert out[0, t] == logits[0, -1].argmax()

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            generate(CFG, CHUNKS, np.zeros((1, 0), dtype=int), n_new=2)


class TestEvaluation:
    def test_logprobs_negative(self):
        tokens = RNG.integers(0, CFG.vocab, size=(2, 6))
        targets = RNG.integers(0, CFG.vocab, size=(2, 6))
        lp = sequence_logprobs(CFG, CHUNKS, tokens, targets)
        assert lp.shape == (2, 6)
        assert (lp < 0).all()

    def test_perplexity_of_untrained_model_near_vocab(self):
        """An untrained (near-uniform) model's perplexity ~ vocab size."""
        tokens = RNG.integers(0, CFG.vocab, size=(4, 10))
        targets = RNG.integers(0, CFG.vocab, size=(4, 10))
        ppl = perplexity(CFG, CHUNKS, tokens, targets)
        assert 0.5 * CFG.vocab < ppl < 2.0 * CFG.vocab

    def test_perplexity_matches_loss(self):
        from repro.nn import functional as F
        from repro.nn import model_fwd, rope_tables

        tokens = RNG.integers(0, CFG.vocab, size=(2, CFG.seq_len))
        targets = RNG.integers(0, CFG.vocab, size=(2, CFG.seq_len))
        cos, sin = rope_tables(CFG)
        logits, _ = model_fwd(CFG, CHUNKS, tokens, cos, sin)
        loss, _ = F.cross_entropy_fwd(logits, targets)
        assert perplexity(CFG, CHUNKS, tokens, targets) == pytest.approx(
            np.exp(loss), rel=1e-9
        )


class TestDtype:
    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_fp32_model_decodes_in_fp32(self, monkeypatch, temperature):
        """An fp32 model keeps float32 scores, logits and KV-cache
        entries through every decode step (no float64 promotion)."""
        import repro.nn.generate as gen

        cfg = CFG.with_(dtype=np.float32)
        chunks = init_model(cfg, seed=4)
        seen = []
        real_step = gen._decode_step

        def spy(cfg_, chunks_, tokens, cache, cos_all, sin_all):
            logits = real_step(cfg_, chunks_, tokens, cache, cos_all, sin_all)
            seen.append({logits.dtype, *(t.dtype for t in cache.k + cache.v)})
            return logits

        monkeypatch.setattr(gen, "_decode_step", spy)
        prompt = RNG.integers(0, cfg.vocab, size=(2, 3))
        out = generate(cfg, chunks, prompt, n_new=4, temperature=temperature)
        assert out.shape == (2, 7)
        assert len(seen) == 4
        assert all(s == {np.dtype(np.float32)} for s in seen), seen
