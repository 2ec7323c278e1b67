"""Dtype contract: every public ``repro.nn`` op returns its input's dtype.

Under NumPy 2 promotion rules (NEP 50) a ``np.float64`` scalar silently
upcasts a float32 array, so one stray ``np.sqrt`` of a Python int turns
the rest of an fp32 layer into float64.  These tests walk everything an
op returns (outputs, caches, gradients) and require every floating
array and scalar to carry the input dtype.
"""

import numpy as np
import pytest

from repro.nn import (
    CheckpointedChunk,
    ModelConfig,
    chunk_bwd,
    chunk_bwd_input,
    chunk_bwd_weight,
    chunk_fwd,
    init_model,
    model_loss_and_grads,
    rope_tables,
)
from repro.nn import functional as F
from repro.nn.attention import (
    attention_block_bwd,
    attention_block_fwd,
    attention_bwd,
    attention_fwd,
    flash_attention_bwd,
    flash_attention_fwd,
)
from repro.nn.layer import (
    init_layer_weights,
    layer_bwd,
    layer_bwd_input,
    layer_bwd_weight,
    layer_fwd,
)
from repro.nn.params import ParamStruct
from repro.nn.rope import rope_angles, rope_apply, rope_apply_bwd

DTYPES = [np.float32, np.float64]
H, FFN, NH, S, G = 16, 24, 2, 7, 2


def _floats(obj):
    """Yield every floating ndarray / NumPy scalar reachable from ``obj``."""
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, (np.ndarray, np.generic)):
            if np.issubdtype(item.dtype, np.floating):
                yield item
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, ParamStruct):
            stack.extend(item.values())


def _check(obj, dtype):
    found = list(_floats(obj))
    assert found, "nothing floating to check"
    bad = {f.dtype.name for f in found if f.dtype != dtype}
    assert not bad, f"expected {np.dtype(dtype).name}, also got {sorted(bad)}"


def _normal(rng, shape, dtype):
    return rng.normal(size=shape).astype(dtype)


@pytest.fixture(params=DTYPES, ids=lambda d: np.dtype(d).name)
def dtype(request):
    return request.param


class TestFunctional:
    def test_linear(self, dtype):
        rng = np.random.default_rng(0)
        x, w = _normal(rng, (G, S, H), dtype), _normal(rng, (H, FFN), dtype)
        y, cache = F.linear_fwd(x, w)
        dy = _normal(rng, y.shape, dtype)
        _check((y, cache, F.linear_bwd(dy, cache)), dtype)

    def test_silu_softmax(self, dtype):
        rng = np.random.default_rng(1)
        x = _normal(rng, (G, S, H), dtype)
        dy = _normal(rng, x.shape, dtype)
        y, c = F.silu_fwd(x)
        _check((y, c, F.silu_bwd(dy, c)), dtype)
        p, c = F.softmax_fwd(x)
        _check((p, c, F.softmax_bwd(dy, c)), dtype)

    def test_rmsnorm(self, dtype):
        rng = np.random.default_rng(2)
        x, g = _normal(rng, (G, S, H), dtype), np.ones(H, dtype=dtype)
        y, c = F.rmsnorm_fwd(x, g)
        dy = _normal(rng, x.shape, dtype)
        _check((y, c, F.rmsnorm_bwd(dy, c)), dtype)

    def test_cross_entropy_and_embedding(self, dtype):
        rng = np.random.default_rng(3)
        logits = _normal(rng, (G, S, 11), dtype)
        tokens = rng.integers(0, 11, size=(G, S))
        _, c = F.cross_entropy_fwd(logits, tokens)
        _check(F.cross_entropy_bwd(1.0, c), dtype)
        table = _normal(rng, (11, H), dtype)
        y, c = F.embedding_fwd(tokens, table)
        _check((y, F.embedding_bwd(_normal(rng, y.shape, dtype), c)), dtype)

    def test_rope(self, dtype):
        rng = np.random.default_rng(4)
        cos, sin = rope_angles(S, H // NH, dtype=dtype)
        x = _normal(rng, (G, NH, S, H // NH), dtype)
        _check((cos, sin, rope_apply(x, cos, sin), rope_apply_bwd(x, cos, sin)), dtype)


class TestAttention:
    def _qkv(self, dtype, s=S):
        rng = np.random.default_rng(5)
        return [_normal(rng, (G, NH, s, H // NH), dtype) for _ in range(4)]

    def test_materialised(self, dtype):
        q, k, v, dout = self._qkv(dtype)
        out, c = attention_fwd(q, k, v)
        _check((out, c, attention_bwd(dout, c)), dtype)

    def test_block(self, dtype):
        q, k, v, _ = self._qkv(dtype)
        qb = q[..., 3:6, :]
        out, c = attention_block_fwd(qb, k, v, row_offset=3)
        _check((out, c, attention_block_bwd(np.ones_like(out), c)), dtype)

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_flash(self, dtype, block):
        q, k, v, dout = self._qkv(dtype)
        out, c = flash_attention_fwd(q, k, v, block=block)
        _check((out, c, flash_attention_bwd(dout, c)), dtype)


@pytest.mark.parametrize("flash", [False, True], ids=["materialised", "flash"])
class TestLayer:
    def _fwd(self, dtype, flash):
        rng = np.random.default_rng(6)
        w = init_layer_weights(H, FFN, rng, dtype)
        x = _normal(rng, (G, S, H), dtype)
        cos, sin = rope_angles(S, H // NH, dtype=dtype)
        y, cache = layer_fwd(w, x, NH, cos, sin, flash=flash, flash_block=3)
        return w, y, cache, _normal(rng, y.shape, dtype)

    def test_fwd(self, dtype, flash):
        _, y, cache, _ = self._fwd(dtype, flash)
        _check((y, cache), dtype)

    def test_b_and_w_pass(self, dtype, flash):
        w, _, cache, dy = self._fwd(dtype, flash)
        dx, wcache = layer_bwd_input(w, dy, cache)
        _check((dx, wcache), dtype)
        _check(layer_bwd_weight(cache, wcache), dtype)

    def test_fused_bwd(self, dtype, flash):
        w, _, cache, dy = self._fwd(dtype, flash)
        _check(layer_bwd(w, dy, cache), dtype)


@pytest.mark.parametrize("flash", [False, True], ids=["materialised", "flash"])
class TestModel:
    def _setup(self, dtype, flash):
        cfg = ModelConfig(
            hidden=H, n_layers=3, n_heads=NH, seq_len=S, vocab=13,
            flash_attention=flash, flash_block=3, dtype=dtype,
        )
        rng = np.random.default_rng(7)
        tokens = rng.integers(0, cfg.vocab, size=(G, S))
        return cfg, init_model(cfg, seed=1), tokens

    def test_chunks(self, dtype, flash):
        cfg, chunks, tokens = self._setup(dtype, flash)
        cos, sin = rope_tables(cfg)
        x, caches = tokens, []
        for i, w in enumerate(chunks):
            x, c = chunk_fwd(cfg, i, w, x, cos, sin)
            _check((x, c), dtype)
            caches.append(c)
        dy = np.ones_like(x)
        for i in range(cfg.n_layers - 1, -1, -1):
            dx, wcache = chunk_bwd_input(cfg, i, chunks[i], dy, caches[i])
            _check(wcache, dtype)
            _check(chunk_bwd_weight(cfg, i, caches[i], wcache), dtype)
            dx_fused, grads = chunk_bwd(cfg, i, chunks[i], dy, caches[i])
            _check(grads, dtype)
            if i > 0:
                _check((dx, dx_fused), dtype)
            dy = dx

    @pytest.mark.parametrize("recompute", [False, True])
    def test_checkpointed_chunk(self, dtype, flash, recompute):
        cfg, chunks, tokens = self._setup(dtype, flash)
        cos, sin = rope_tables(cfg)
        ck = CheckpointedChunk(cfg, recompute=recompute)
        y, state = ck.fwd(0, chunks[0], tokens, cos, sin)
        _check((y, state), dtype)
        dy = np.ones_like(y)
        _, grads = ck.bwd(0, chunks[0], dy, state)
        _check(grads, dtype)
        _, cache, wcache = ck.bwd_input(0, chunks[0], dy, state)
        _check((cache, wcache, ck.bwd_weight(0, cache, wcache)), dtype)

    def test_model_loss_and_grads(self, dtype, flash):
        cfg, chunks, tokens = self._setup(dtype, flash)
        loss, grads = model_loss_and_grads(
            cfg, chunks, tokens, np.roll(tokens, -1, axis=1)
        )
        assert np.isfinite(loss)
        _check(grads, dtype)
