"""Causal multi-head attention cores: materialised and streaming (Flash).

Two numerically equivalent implementations of
``softmax(q k^T / sqrt(d) + causal) v``:

* :func:`attention_fwd` / :func:`attention_bwd` — the textbook version
  that materialises the ``(S, S)`` probability matrix.  Its cache is
  ``O(S^2)`` per head, which is exactly the memory blow-up Flash
  Attention removes.

* :func:`flash_attention_fwd` / :func:`flash_attention_bwd` — a
  block-streaming version modelled on FlashAttention-2.  The forward
  keeps only the output and the per-row log-sum-exp ``L`` (cache
  ``O(S)``), and the backward recomputes each probability block from
  ``q``, ``k`` and ``L``.

The WeiPipe paper's memory analysis (Section 4, "Memory consumption")
hinges on Flash Attention removing the ``S^2`` activations: with it
enabled, FFN activations dominate and the zero-bubble baselines' peak
memory doubles, which is why ZB1/ZB2 go OOM in Table 2.  Both variants
are exercised by the equivalence tests; strategies pick one via
``ModelConfig.flash_attention``.

Shapes: ``q, k, v: (B, n_heads, S, head_dim)``.  Every function returns
its input's dtype: the ``1/sqrt(head_dim)`` scale is a Python float,
because a NumPy float64 scalar would promote float32 inputs (NEP 50).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = [
    "attention_fwd",
    "attention_bwd",
    "flash_attention_fwd",
    "flash_attention_bwd",
    "attention_block_fwd",
    "attention_block_bwd",
]


# ---------------------------------------------------------------------------
# materialised implementation


def attention_fwd(
    q: np.ndarray, k: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, tuple]:
    """Causal attention materialising the probability matrix."""
    head_dim = q.shape[-1]
    seq = q.shape[-2]
    scale = 1.0 / math.sqrt(head_dim)
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
    scores = np.where(mask, -np.inf, scores)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = p @ v
    return out, (q, k, v, p, scale)


def attention_bwd(
    dout: np.ndarray, cache: tuple
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    q, k, v, p, scale = cache
    dv = np.swapaxes(p, -1, -2) @ dout
    dp = dout @ np.swapaxes(v, -1, -2)
    # softmax backward; masked entries have p == 0 so they contribute 0.
    inner = (dp * p).sum(axis=-1, keepdims=True)
    dscores = p * (dp - inner)
    dq = (dscores @ k) * scale
    dk = (np.swapaxes(dscores, -1, -2) @ q) * scale
    return dq, dk, dv


# ---------------------------------------------------------------------------
# block-causal implementation (sequence parallelism)


def attention_block_fwd(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, row_offset: int
) -> Tuple[np.ndarray, tuple]:
    """Causal attention of a *query block* against full keys/values.

    ``q`` holds positions ``row_offset .. row_offset + t - 1`` of the
    sequence while ``k``/``v`` hold positions ``0 .. S-1`` — the shape
    sequence parallelism produces after all-gathering K/V.  With
    ``row_offset == 0`` and square shapes this reduces exactly to
    :func:`attention_fwd`.
    """
    head_dim = q.shape[-1]
    t_q, t_k = q.shape[-2], k.shape[-2]
    if not (0 <= row_offset and row_offset + t_q <= t_k):
        raise ValueError("query block does not fit inside the key range")
    scale = 1.0 / math.sqrt(head_dim)
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    rows = row_offset + np.arange(t_q)[:, None]
    cols = np.arange(t_k)[None, :]
    mask = cols > rows
    scores = np.where(mask, -np.inf, scores)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    out = p @ v
    return out, (q, k, v, p, scale)


def attention_block_bwd(
    dout: np.ndarray, cache: tuple
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`attention_block_fwd`.

    Returns ``(dq, dk, dv)`` where ``dk``/``dv`` cover the *full* key
    range — in sequence parallelism these partial contributions are
    reduce-scattered back to the positions' owners.
    """
    q, k, v, p, scale = cache
    dv = np.swapaxes(p, -1, -2) @ dout
    dp = dout @ np.swapaxes(v, -1, -2)
    inner = (dp * p).sum(axis=-1, keepdims=True)
    dscores = p * (dp - inner)
    dq = (dscores @ k) * scale
    dk = (np.swapaxes(dscores, -1, -2) @ q) * scale
    return dq, dk, dv


# ---------------------------------------------------------------------------
# streaming (Flash-style) implementation


def _diag_mask(n: int) -> np.ndarray:
    """Causal mask of an ``(n, n)`` diagonal tile: ``[r, c]`` is masked
    when ``c > r``."""
    return np.triu(np.ones((n, n), dtype=bool), k=1)


def flash_attention_fwd(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    block: int = 128,
) -> Tuple[np.ndarray, tuple]:
    """Causal attention streamed over key blocks.

    Keeps a running row-max ``m`` and normaliser ``l``; never holds more
    than one ``(S, block)`` score panel at a time.  The cache stores only
    ``q, k, v, out`` and the per-row log-sum-exp — the ``O(S)`` footprint
    that Flash Attention is prized for.

    Causal tile skipping (as in FlashAttention-2): key block ``[j0, j1)``
    is scored only against query rows ``j0..S-1``, since every earlier
    row masks the whole block and would contribute exactly zero.  The
    causal mask is applied only on the diagonal tile (rows and columns
    ``j0..j1-1``); every row below it sees the whole block.  Every
    scored row sees key ``j0``, so its running max is finite and no
    ``-inf`` guards are needed.
    """
    head_dim = q.shape[-1]
    seq = q.shape[-2]
    scale = 1.0 / math.sqrt(head_dim)
    lead = q.shape[:-2]

    out = np.zeros_like(q)
    m = np.full(lead + (seq,), -np.inf, dtype=q.dtype)
    l = np.zeros(lead + (seq,), dtype=q.dtype)
    mask = _diag_mask(min(block, seq))

    for j0 in range(0, seq, block):
        j1 = min(j0 + block, seq)
        n = j1 - j0
        kb = k[..., j0:j1, :]
        vb = v[..., j0:j1, :]
        # score panel of rows j0..S-1 against this key block
        p = q[..., j0:, :] @ np.swapaxes(kb, -1, -2)
        p *= scale
        np.copyto(p[..., :n, :], -np.inf, where=mask[:n, :n])

        m_row = m[..., j0:]
        m_new = np.maximum(m_row, p.max(axis=-1))
        # m_row is -inf only on the first block, where l and out are 0.
        alpha = np.exp(m_row - m_new)
        p -= m_new[..., None]
        np.exp(p, out=p)
        l_row = l[..., j0:]
        l_row *= alpha
        l_row += p.sum(axis=-1)
        out_row = out[..., j0:, :]
        out_row *= alpha[..., None]
        out_row += p @ vb
        m_row[...] = m_new

    # every causal row attends to at least itself, so l > 0.
    out /= l[..., None]
    logsumexp = m + np.log(l)
    return out, (q, k, v, out, logsumexp, scale, block)


def flash_attention_bwd(
    dout: np.ndarray, cache: tuple
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward of :func:`flash_attention_fwd`, recomputing score blocks.

    Uses the FlashAttention-2 identity: with ``delta = rowsum(dout*out)``,
    ``dscores = p * (dout @ v^T - delta)`` where ``p`` is rebuilt per block
    from the stored log-sum-exp.  Skips the same fully masked tiles as
    the forward: key block ``[j0, j1)`` touches only rows ``j0..S-1``.
    """
    q, k, v, out, logsumexp, scale, block = cache
    seq = q.shape[-2]
    delta = (dout * out).sum(axis=-1)
    mask = _diag_mask(min(block, seq))

    dq = np.zeros_like(q)
    dk = np.empty_like(k)
    dv = np.empty_like(v)

    for j0 in range(0, seq, block):
        j1 = min(j0 + block, seq)
        n = j1 - j0
        kb = k[..., j0:j1, :]
        vb = v[..., j0:j1, :]
        q_row = q[..., j0:, :]
        dout_row = dout[..., j0:, :]
        p = q_row @ np.swapaxes(kb, -1, -2)
        p *= scale
        p -= logsumexp[..., j0:, None]
        np.copyto(p[..., :n, :], -np.inf, where=mask[:n, :n])
        np.exp(p, out=p)

        dv[..., j0:j1, :] = np.swapaxes(p, -1, -2) @ dout_row
        dscores = dout_row @ np.swapaxes(vb, -1, -2)
        dscores -= delta[..., j0:, None]
        dscores *= p
        dq[..., j0:, :] += dscores @ kb
        dk[..., j0:j1, :] = np.swapaxes(dscores, -1, -2) @ q_row

    # scale once here rather than on every (S, block) score panel
    dq *= scale
    dk *= scale
    return dq, dk, dv
