"""Attention cores: causality, equivalence, gradients."""

import numpy as np

from repro.nn.attention import (
    attention_bwd,
    attention_fwd,
    flash_attention_bwd,
    flash_attention_fwd,
)
from repro.testing import assert_grad_close, numerical_grad

RNG = np.random.default_rng(11)


def _qkv(b=2, nh=2, s=6, hd=4):
    q = RNG.normal(size=(b, nh, s, hd))
    k = RNG.normal(size=(b, nh, s, hd))
    v = RNG.normal(size=(b, nh, s, hd))
    return q, k, v


class TestMaterialisedAttention:
    def test_causality(self):
        """Changing future keys/values must not affect earlier outputs."""
        q, k, v = _qkv(s=5)
        out1, _ = attention_fwd(q, k, v)
        k2, v2 = k.copy(), v.copy()
        k2[..., 3:, :] = RNG.normal(size=k2[..., 3:, :].shape)
        v2[..., 3:, :] = RNG.normal(size=v2[..., 3:, :].shape)
        out2, _ = attention_fwd(q, k2, v2)
        np.testing.assert_allclose(out1[..., :3, :], out2[..., :3, :])

    def test_first_token_attends_to_itself(self):
        q, k, v = _qkv()
        out, _ = attention_fwd(q, k, v)
        np.testing.assert_allclose(out[..., 0, :], v[..., 0, :])

    def test_grads(self):
        q, k, v = _qkv(b=1, nh=1, s=4, hd=4)
        dout = RNG.normal(size=q.shape)
        _, cache = attention_fwd(q, k, v)
        dq, dk, dv = attention_bwd(dout, cache)

        def make_loss(which):
            def loss(t):
                args = {"q": q, "k": k, "v": v}
                args[which] = t
                return float((attention_fwd(args["q"], args["k"], args["v"])[0] * dout).sum())

            return loss

        assert_grad_close(dq, numerical_grad(make_loss("q"), q), name="dq")
        assert_grad_close(dk, numerical_grad(make_loss("k"), k), name="dk")
        assert_grad_close(dv, numerical_grad(make_loss("v"), v), name="dv")


class TestFlashAttention:
    def test_matches_materialised(self):
        """Ragged last blocks (3, 4), a block per row (1) and block > S (16)."""
        q, k, v = _qkv(s=10)
        ref, _ = attention_fwd(q, k, v)
        for block in (1, 3, 4, 16):
            out, _ = flash_attention_fwd(q, k, v, block=block)
            np.testing.assert_allclose(out, ref, atol=1e-12, err_msg=f"block={block}")

    def test_backward_matches_materialised(self):
        """Ragged last blocks (2, 5), one full block (9) and block > S (16)."""
        q, k, v = _qkv(s=9)
        dout = RNG.normal(size=q.shape)
        _, c_ref = attention_fwd(q, k, v)
        ref = attention_bwd(dout, c_ref)
        for block in (2, 5, 9, 16):
            _, c = flash_attention_fwd(q, k, v, block=block)
            got = flash_attention_bwd(dout, c)
            for r, g, name in zip(ref, got, "qkv"):
                np.testing.assert_allclose(
                    g, r, atol=1e-11, err_msg=f"d{name}, block={block}"
                )

    def test_cache_has_no_quadratic_tensor(self):
        """The flash cache must not contain any (S, S) tensor."""
        q, k, v = _qkv(s=12)
        _, cache = flash_attention_fwd(q, k, v, block=4)
        s = q.shape[-2]
        for item in cache:
            if isinstance(item, np.ndarray):
                assert item.shape[-2:] != (s, s)

    def test_block_larger_than_seq(self):
        q, k, v = _qkv(s=3)
        ref, _ = attention_fwd(q, k, v)
        out, _ = flash_attention_fwd(q, k, v, block=64)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_no_nan_on_long_rows(self):
        """Large score magnitudes must not overflow the streaming pass."""
        q, k, v = _qkv(s=8)
        out, _ = flash_attention_fwd(q * 30, k * 30, v, block=2)
        assert np.isfinite(out).all()

    def test_causality(self):
        """Changing future keys/values must not move earlier rows, in the
        output or in dq (mirrors the materialised test)."""
        q, k, v = _qkv(s=9)
        dout = RNG.normal(size=q.shape)
        out1, c1 = flash_attention_fwd(q, k, v, block=4)
        k2, v2 = k.copy(), v.copy()
        k2[..., 5:, :] = RNG.normal(size=k2[..., 5:, :].shape)
        v2[..., 5:, :] = RNG.normal(size=v2[..., 5:, :].shape)
        out2, c2 = flash_attention_fwd(q, k2, v2, block=4)
        np.testing.assert_allclose(out1[..., :5, :], out2[..., :5, :])
        dq1 = flash_attention_bwd(dout, c1)[0]
        dq2 = flash_attention_bwd(dout, c2)[0]
        np.testing.assert_allclose(dq1[..., :5, :], dq2[..., :5, :])

    def test_fp32_matches_fp64_materialised(self):
        """An fp32 flash pass stays float32 and within fp32 rounding of
        the fp64 materialised reference."""
        q, k, v = _qkv(b=1, nh=2, s=40, hd=8)
        dout = RNG.normal(size=q.shape)
        ref, c_ref = attention_fwd(q, k, v)
        ref_grads = attention_bwd(dout, c_ref)
        f32 = [t.astype(np.float32) for t in (q, k, v, dout)]
        out, c = flash_attention_fwd(*f32[:3], block=16)
        grads = flash_attention_bwd(f32[3], c)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)
        for r, g, name in zip(ref_grads, grads, "qkv"):
            assert g.dtype == np.float32
            np.testing.assert_allclose(g, r, rtol=1e-4, atol=1e-4, err_msg=f"d{name}")
