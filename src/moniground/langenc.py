"""Language side of the grounding model.

Whitespace tokenizer, a vocabulary with reserved padding/unknown ids,
trainable word embeddings, and a bi-directional GRU whose two final hidden
states (forward at the last real token, backward at the first) concatenate
into the sentence feature.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from . import tensor as T

PAD_ID = 0
UNK_ID = 1

_STRIP = string.punctuation


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop empties."""
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP)
        if tok:
            out.append(tok)
    return out


class Vocabulary:
    """Token to id map with id 0 reserved for padding and 1 for unknown."""

    def __init__(self, token_to_id: dict[str, int]):
        self.token_to_id = dict(token_to_id)

    @classmethod
    def build(cls, token_lists) -> "Vocabulary":
        words = sorted({tok for toks in token_lists for tok in toks})
        return cls({tok: i + 2 for i, tok in enumerate(words)})

    def __len__(self) -> int:
        return len(self.token_to_id) + 2

    @classmethod
    def from_dict(cls, token_to_id) -> "Vocabulary":
        """The vocabulary of a stored token_to_id map. The ids must be exactly
        2 .. len + 1, each once, so every id indexes a row of the embedding
        table; ValueError otherwise."""
        if not isinstance(token_to_id, dict):
            raise ValueError("vocabulary must map tokens to ids")
        ids = list(token_to_id.values())
        if not all(type(i) is int for i in ids) or sorted(ids) != list(range(2, len(ids) + 2)):
            raise ValueError("vocabulary ids must be the distinct integers 2 .. size + 1")
        return cls(token_to_id)


def encode_expressions(vocab: Vocabulary, token_lists: list[list[str]],
                       max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """B token lists as a (B, max_len) id matrix and their (B,) true lengths.

    Each list is truncated to max_len and padded with PAD_ID; a token
    outside the vocabulary maps to UNK_ID.
    """
    ids = np.full((len(token_lists), max_len), PAD_ID, dtype=np.intp)
    lengths = np.zeros(len(token_lists), dtype=np.intp)
    for row, tokens in enumerate(token_lists):
        kept = [vocab.token_to_id.get(t, UNK_ID) for t in tokens[:max_len]]
        ids[row, : len(kept)] = kept
        lengths[row] = len(kept)
    return ids, lengths


@dataclass(frozen=True)
class LangConfig:
    embed_dim: int = 64      # per-token embedding width
    hidden_dim: int = 64     # per-direction GRU width
    max_len: int = 48

    def __post_init__(self):
        if not T.are_sizes(self.embed_dim, self.hidden_dim, self.max_len):
            raise ValueError("embed_dim, hidden_dim and max_len (max_tokens) must be integers >= 1")

    @property
    def out_dim(self) -> int:
        return 2 * self.hidden_dim


def lang_layout(vocab_size: int, cfg: LangConfig) -> T.Layout:
    """Embeddings plus one GRU parameter set per direction, in draw order."""
    e, h = cfg.embed_dim, cfg.hidden_dim
    layout: T.Layout = {"lang.embed": ((vocab_size, e), e)}
    for direction in ("fwd", "bwd"):
        for gate in ("z", "r", "n"):
            layout[f"lang.gru.{direction}.w{gate}"] = ((e, h), e)
            layout[f"lang.gru.{direction}.u{gate}"] = ((h, h), h)
            layout[f"lang.gru.{direction}.b{gate}"] = ((1, h), h)
    return layout


def embed(token_ids: np.ndarray, params: dict[str, T.Tensor]) -> T.Tensor:
    """Word embedding lookup: (L,) ids -> (L, embed_dim), or a padded batch
    (B, L) -> (B, L, embed_dim)."""
    emb = params["lang.embed"]
    return T.reshape(T.gather_rows(emb, token_ids), (*np.shape(token_ids), emb.shape[1]))


def _gru_cell(x: T.Tensor, h: T.Tensor, p: dict[str, T.Tensor], prefix: str,
              mask: np.ndarray | None) -> T.Tensor:
    """One GRU step: h' = (1 - z) * h + z * n, reset applied to the hidden
    state before the candidate projection. Computed as h + z * (n - h), or as
    h + mask * (z * (n - h)) when some rows are past their length (mask 0):
    those rows keep h, and a factor of 1.0 leaves the other rows' bits as
    they are."""
    z = T.sigmoid(T.add(T.add(T.matmul(x, p[f"{prefix}.wz"]), T.matmul(h, p[f"{prefix}.uz"])), p[f"{prefix}.bz"]))
    r = T.sigmoid(T.add(T.add(T.matmul(x, p[f"{prefix}.wr"]), T.matmul(h, p[f"{prefix}.ur"])), p[f"{prefix}.br"]))
    n = T.tanh(T.add(T.add(T.matmul(x, p[f"{prefix}.wn"]), T.matmul(T.mul(r, h), p[f"{prefix}.un"])), p[f"{prefix}.bn"]))
    step = T.mul(z, T.sub(n, h))
    if mask is not None:
        step = T.mul(T.constant(mask), step)
    return T.add(h, step)


def bigru_encode(
    token_embeddings: T.Tensor,
    lengths,
    params: dict[str, T.Tensor],
    cfg: LangConfig,
) -> T.Tensor:
    """Run both GRU directions over each expression's first `length` rows.

    `token_embeddings` is one expression, (L, E) with an int length, or a
    padded batch, (B, L, E) with B lengths. Returns (1, 2*hidden), or
    (B, 1, 2*hidden): the forward state after the last real token
    concatenated with the backward state after the first. Rows beyond a
    length are never read, so padding cannot influence the output.

    Every row keeps its own (1, hidden) state, so each GRU product is one
    gemv per row, the same BLAS call as for that expression alone. Steps run
    to the longest length; on a step where some row is past its length, a
    0/1 mask keeps that row's state (the backward direction starts a short
    row from zero at its own last token). The output of each row is
    bit-identical to the row encoded alone.
    """
    lengths = np.atleast_1d(np.asarray(lengths, dtype=np.intp))
    *lead, max_len, _ = token_embeddings.shape
    if lengths.shape != (int(np.prod(lead)),):
        raise ValueError(f"bigru_encode got {lengths.size} lengths for a batch of shape {tuple(lead)}")
    if lengths.min() < 1 or lengths.max() > max_len:
        raise ValueError(f"bigru_encode needs lengths in 1 .. {max_len}, got {lengths.tolist()}")
    state = (*lead, 1, cfg.hidden_dim)
    steps = int(lengths.max())

    def mask(t: int) -> np.ndarray | None:
        active = lengths > t
        if active.all():
            return None
        return np.broadcast_to(active.astype(T.DTYPE).reshape(*lead, 1, 1), state)

    h_fwd = T.zeros(state)
    for t in range(steps):
        x = T.gather_rows(token_embeddings, np.array([t]))
        h_fwd = _gru_cell(x, h_fwd, params, "lang.gru.fwd", mask(t))
    h_bwd = T.zeros(state)
    for t in range(steps - 1, -1, -1):
        x = T.gather_rows(token_embeddings, np.array([t]))
        h_bwd = _gru_cell(x, h_bwd, params, "lang.gru.bwd", mask(t))
    return T.concat([h_fwd, h_bwd])
