"""Language side of the grounding model.

Whitespace tokenizer, a vocabulary with reserved padding/unknown ids,
trainable word embeddings, and a bi-directional GRU whose two final hidden
states (forward at the last real token, backward at the first) concatenate
into the sentence feature. Each direction runs as one autodiff node,
`tensor.gru`, whose forward packs the gate products and whose backward is a
hand-written back-propagation through time: one node per direction instead
of about a dozen per token.
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


def bigru_encode(token_embeddings: T.Tensor, lengths, params: dict[str, T.Tensor]) -> T.Tensor:
    """Run both GRU directions over each expression's first `length` rows.

    `token_embeddings` is one expression, (L, E) with an int length, or a
    padded batch, (B, L, E) with B lengths. Returns (1, 2*hidden), or
    (B, 1, 2*hidden): the forward state after the last real token
    concatenated with the backward state after the first. Rows beyond a
    length are never read, so padding cannot influence the output.

    Each direction is one `tensor.gru` node. Every row keeps its own
    (1, hidden) state, so each GRU product is one gemv per row, the same
    BLAS call as for that expression alone. Steps run to the longest
    length; on a step where some row is past its length, a 0/1 mask keeps
    that row's state (the backward direction starts a short row from zero
    at its own last token). The output of each row is bit-identical to the
    row encoded alone.
    """
    lengths = np.atleast_1d(np.asarray(lengths, dtype=np.intp))
    *lead, max_len, _ = token_embeddings.shape
    if lengths.shape != (int(np.prod(lead)),):
        raise ValueError(f"bigru_encode got {lengths.size} lengths for a batch of shape {tuple(lead)}")
    if lengths.min() < 1 or lengths.max() > max_len:
        raise ValueError(f"bigru_encode needs lengths in 1 .. {max_len}, got {lengths.tolist()}")
    halves = []
    for direction in ("fwd", "bwd"):
        w, u, b = ([params[f"lang.gru.{direction}.{kind}{gate}"] for gate in "zrn"] for kind in "wub")
        halves.append(T.gru(token_embeddings, w, u, b, lengths, reverse=direction == "bwd"))
    return T.concat(halves)
