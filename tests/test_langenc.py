import json

import numpy as np
import pytest

import oracles
from gradcheck import finite_diff_check
from moniground import tensor as T
from moniground.langenc import (
    PAD_ID,
    UNK_ID,
    LangConfig,
    Vocabulary,
    bigru_encode,
    embed,
    encode_expressions,
    lang_layout,
    tokenize,
)

CFG = LangConfig(embed_dim=5, hidden_dim=4, max_len=10)


def lang_params(vocab_size, cfg, rng):
    """Fresh language weights, with the padding row zeroed as the model does."""
    params = T.init_params(lang_layout(vocab_size, cfg), rng)
    params["lang.embed"].data[PAD_ID, :] = 0.0
    return params


def make_params(seed=0, vocab_size=9):
    return lang_params(vocab_size, CFG, np.random.default_rng(seed))


class TestTokenize:
    def test_basic(self):
        assert tokenize("The red car.") == ["the", "red", "car"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("  ...  ") == []

    def test_punctuation_stripped_edges_only(self):
        assert tokenize("Bus-stop, near: 'the' (van)!") == ["bus-stop", "near", "the", "van"]

    def test_grammar_words_roundtrip(self):
        from moniground.synthdata import render_expression

        attrs = {
            "color": "red", "motion": "moving", "speed": "fast", "heading": "north",
            "lane": "left", "relation": "bus", "period": "dusk", "surrounding": "trees",
            "size": "compact", "distance": "close",
        }
        text = render_expression("car", attrs, list(attrs), 0)
        toks = tokenize(text)
        for word in ("red", "car", "fast", "north", "left", "bus", "dusk", "trees", "compact", "close"):
            assert word in toks


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = Vocabulary.build([["car", "red"], ["van"]])
        ids, lengths = encode_expressions(vocab, [["car", "zebra"]], 4)
        assert ids.shape == (1, 4) and list(lengths) == [2]
        assert ids[0, 1] == UNK_ID
        assert list(ids[0, 2:]) == [PAD_ID, PAD_ID]
        assert all(i >= 2 for i in vocab.token_to_id.values())

    def test_serialization_stable(self):
        vocab = Vocabulary.build([["b", "a", "c"]])
        again = Vocabulary.from_dict(json.loads(json.dumps(vocab.token_to_id)))
        assert again.token_to_id == vocab.token_to_id

    def test_from_dict_rejects_ids_outside_the_embedding_table(self):
        for token_to_id in (["a"], {"a": "2"}, {"a": True}, {"a": 1}, {"a": 2, "b": 2}, {"a": 2, "b": 9}):
            with pytest.raises(ValueError):
                Vocabulary.from_dict(token_to_id)

    def test_build_deterministic_order(self):
        v1 = Vocabulary.build([["x", "m"], ["a"]])
        v2 = Vocabulary.build([["a"], ["m", "x"]])
        assert v1.token_to_id == v2.token_to_id


class TestConfig:
    @pytest.mark.parametrize("bad", [0, -1, 4.5, 48.0, True])
    def test_sizes_are_integers_at_least_one(self, bad):
        for name in ("embed_dim", "hidden_dim", "max_len"):
            with pytest.raises(ValueError, match="integers >= 1"):
                LangConfig(**{name: bad})


class TestEmbed:
    def test_all_padding_is_zero_matrix(self):
        params = make_params()
        out = embed(np.array([PAD_ID, PAD_ID, PAD_ID]), params)
        np.testing.assert_array_equal(out.data, np.zeros((3, CFG.embed_dim)))

    def test_known_token_row_verbatim(self):
        params = make_params()
        out = embed(np.array([3]), params)
        np.testing.assert_array_equal(out.data[0], params["lang.embed"].data[3])

    @pytest.mark.usefixtures("float64")
    def test_gradient_reaches_only_present_rows(self):
        params = make_params()
        emb = params["lang.embed"]
        T.backward(T.mean(embed(np.array([2, 5]), params)))
        touched = {i for i in range(emb.shape[0]) if np.any(emb.grad[i] != 0)}
        assert touched == {2, 5}
        finite_diff_check(lambda: T.mean(embed(np.array([2, 5]), params)), [emb], max_coords=8,
                          rng=np.random.default_rng(0))


class TestBiGRU:
    def test_zero_params_zero_state_gives_zero(self):
        params = make_params()
        for p in params.values():
            p.data[:] = 0.0
        f_w = T.constant(np.random.default_rng(1).normal(size=(4, CFG.embed_dim)))
        out = bigru_encode(f_w, 3, params)
        np.testing.assert_array_equal(out.data, np.zeros((1, 2 * CFG.hidden_dim)))

    def test_padding_beyond_length_has_no_influence(self):
        params = make_params()
        rng = np.random.default_rng(2)
        rows = rng.normal(size=(6, CFG.embed_dim))
        a = rows.copy()
        b = rows.copy()
        b[4:] = rng.normal(size=(2, CFG.embed_dim)) * 100  # garbage past the mask
        out_a = bigru_encode(T.constant(a), 4, params)
        out_b = bigru_encode(T.constant(b), 4, params)
        np.testing.assert_array_equal(out_a.data, out_b.data)

    def test_appending_padding_tokens_identical(self):
        params = make_params(vocab_size=9)
        vocab = Vocabulary({"car": 2, "red": 3, "the": 4})
        (short,), (l_short,) = encode_expressions(vocab, [["the", "red", "car"]], 5)
        (long,), (l_long,) = encode_expressions(vocab, [["the", "red", "car"]], 10)
        out_a = bigru_encode(embed(short, params), l_short, params)
        out_b = bigru_encode(embed(long, params), l_long, params)
        np.testing.assert_array_equal(out_a.data, out_b.data)

    @pytest.mark.usefixtures("float64")
    def test_single_step_closed_form_cell(self):
        params = make_params(seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, CFG.embed_dim))
        out = bigru_encode(T.constant(x), 1, params)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        halves = []
        for d in ("fwd", "bwd"):
            wz = params[f"lang.gru.{d}.wz"].data
            bz = params[f"lang.gru.{d}.bz"].data
            wn = params[f"lang.gru.{d}.wn"].data
            bn = params[f"lang.gru.{d}.bn"].data
            z = sig(x @ wz + bz)
            n = np.tanh(x @ wn + bn)  # r gates a zero hidden state
            halves.append(z * n)
        np.testing.assert_allclose(out.data, np.concatenate(halves, axis=1), atol=1e-12)

    def test_reversal_swaps_halves_with_tied_directions(self):
        params = make_params(seed=7)
        for gate in ("z", "r", "n"):
            for kind in ("w", "u", "b"):
                params[f"lang.gru.bwd.{kind}{gate}"].data[:] = params[f"lang.gru.fwd.{kind}{gate}"].data
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(5, CFG.embed_dim))
        fwd = bigru_encode(T.constant(rows), 5, params)
        rev = bigru_encode(T.constant(rows[::-1].copy()), 5, params)
        h = CFG.hidden_dim
        np.testing.assert_array_equal(fwd.data[0, :h], rev.data[0, h:])
        np.testing.assert_array_equal(fwd.data[0, h:], rev.data[0, :h])

    def test_zero_length_rejected(self):
        params = make_params()
        with pytest.raises(ValueError):
            bigru_encode(T.constant(np.zeros((3, CFG.embed_dim))), 0, params)

    @pytest.mark.usefixtures("float64")
    def test_gradients_three_token_sequence(self):
        params = make_params(seed=9)
        rng = np.random.default_rng(10)
        ids = np.array([2, 7, 4])

        def loss():
            return T.mean(bigru_encode(embed(ids, params), 3, params))

        finite_diff_check(loss, params.values(), max_coords=5, rng=rng)


class TestBatchedBiGRU:
    """A padded (B, L) batch against each expression encoded alone."""

    @staticmethod
    def batch(seed, lengths, cfg):
        rng = np.random.default_rng(seed)
        params = lang_params(40, cfg, rng)
        ids = rng.integers(2, 40, size=(len(lengths), cfg.max_len))
        for row, length in enumerate(lengths):
            ids[row, length:] = PAD_ID
        return params, ids

    def test_rows_bit_identical_to_each_alone(self):
        cfg = LangConfig()  # the model's dimensions, so the BLAS calls are the real ones
        lengths = [1, 7, cfg.max_len, 3, 1, 12]
        params, ids = self.batch(11, lengths, cfg)
        out = bigru_encode(embed(ids, params), lengths, params)
        assert out.shape == (len(lengths), 1, 2 * cfg.hidden_dim)
        for row, length in enumerate(lengths):
            alone = bigru_encode(embed(ids[row], params), length, params)
            assert np.array_equal(out.data[row], alone.data), row

    def test_rows_bit_identical_to_the_per_step_chain(self):
        # the model's dimensions, where the packed gate products are the chain's products
        cfg = LangConfig()
        lengths = [1, 7, cfg.max_len, 3, 1, 12]
        params, ids = self.batch(17, lengths, cfg)
        fused = bigru_encode(embed(ids, params), lengths, params)
        chain = oracles.bigru_chain(embed(ids, params), lengths, params)
        assert np.array_equal(fused.data, chain.data)
        alone = bigru_encode(embed(ids[1], params), lengths[1], params)
        assert np.array_equal(alone.data, oracles.bigru_chain(embed(ids[1], params), lengths[1], params).data)

    def test_gradients_match_the_per_step_chain(self):
        """The fused backward against the chain's, in float32 at the model's
        dimensions.

        Tolerance, per parameter: the largest entry error may be 1e-5 of the
        largest entry of the chain's gradient. The two sum the same terms
        in other orders: the fused node forms each weight's gradient as one
        product over all steps and rows, where the chain adds one product
        per step, and groups the state gradient's four terms differently.
        A weight entry sums up to 6 rows x 48 steps x 64 terms, so with
        float32's unit roundoff of 6e-8 its rounding error is of order
        sqrt(18,000) x 6e-8, about 8e-6 in the worst case and far less for
        the typical entry; 1e-5 is about 170 roundoffs. Measured, the worst
        parameter stays under 1e-6. A wrong term, such as a mask dropped on
        a short row, gives errors of order 1.
        """
        cfg = LangConfig()
        lengths = [1, 7, cfg.max_len, 3, 1, 12]
        up = T.constant(np.random.default_rng(18).normal(size=(len(lengths), 1, 2 * cfg.hidden_dim)))
        grads = []
        for encode in (bigru_encode, oracles.bigru_chain):
            params, ids = self.batch(17, lengths, cfg)
            T.backward(T.tensor_sum(T.mul(encode(embed(ids, params), lengths, params), up)))
            grads.append({name: p.grad for name, p in params.items()})
        for name, want in grads[1].items():
            got = grads[0][name]
            assert got.dtype == want.dtype == T.DTYPE, name
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max(), name

    def test_bad_lengths_rejected(self):
        params, ids = self.batch(13, [2, 3], CFG)
        f_w = embed(ids, params)
        for lengths in ([2], [2, 3, 4], [0, 3], [2, CFG.max_len + 1]):
            with pytest.raises(ValueError):
                bigru_encode(f_w, lengths, params)

    @pytest.mark.usefixtures("float64")
    def test_gradients_mixed_lengths(self):
        params, ids = self.batch(14, [2, 5], CFG)
        w = T.constant(np.random.default_rng(15).normal(size=(2, 1, 2 * CFG.hidden_dim)))

        def loss():
            return T.tensor_sum(T.mul(bigru_encode(embed(ids, params), [2, 5], params), w))

        finite_diff_check(loss, params.values(), max_coords=5, rng=np.random.default_rng(16))


class TestEncodeText:
    """Tokens -> ids -> embeddings -> BiGRU, the path the model takes."""

    @staticmethod
    def encode(tokens, vocab, params):
        (ids,), (length,) = encode_expressions(vocab, [tokens], CFG.max_len)
        return bigru_encode(embed(ids, params), length, params)

    def test_shape_and_determinism(self):
        params = make_params()
        vocab = Vocabulary.build([["the", "red", "car"]])
        a = self.encode(["the", "red", "car"], vocab, params)
        b = self.encode(["the", "red", "car"], vocab, params)
        assert a.shape == (1, 2 * CFG.hidden_dim)
        np.testing.assert_array_equal(a.data, b.data)

    def test_empty_rejected(self):
        params = make_params()
        vocab = Vocabulary.build([["a"]])
        with pytest.raises(ValueError):
            self.encode([], vocab, params)
