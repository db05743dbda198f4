import json
import random
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trendlens.cli import EXIT_FAILURE, main
from trendlens.corpus import Corpus, PatentDocument
from trendlens.pipeline import _prep_streams
from trendlens.textprep import (
    StopwordList,
    TokenStream,
    _interned,
    filter_stopwords,
    load_base_stopwords,
    load_stopword_list,
    load_token_streams,
    save_token_streams,
    tokenize,
)


def oracle_tokenize(text):
    """The per-character tokenizer: a token is a maximal run of characters
    for which str.isalnum() is true in the lowercased text."""
    tokens, current = [], []
    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


# letters and digits of several scripts, the underscore, combining marks
# (U+0301, U+0307) and characters whose lowercase form is longer (İ) or
# differs by context (Σ)
_MIXED = st.one_of(
    st.characters(),
    st.sampled_from("aZ9_ İıßΣσςÅ\u0301\u0307\u0660\u00b2\u2167\u4e2d\u0915\u093f\uff21-.,"),
)


class TestTokenizeMatchesOracle:
    def test_every_code_point(self):
        mismatched = [
            c for c in range(sys.maxunicode + 1) if tokenize(chr(c)) != oracle_tokenize(chr(c))
        ]
        assert mismatched == []

    @given(st.text(_MIXED, max_size=80))
    def test_mixed_script_text(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    @given(st.text(max_size=80))
    def test_any_text(self, text):
        assert tokenize(text) == oracle_tokenize(text)


class TestTokenize:
    def test_punctuation_becomes_separator(self):
        assert tokenize("Deep-Learning, (AI)!") == ["deep", "learning", "ai"]

    def test_empty(self):
        assert tokenize("") == []

    def test_digits_kept(self):
        # separator rule by hand: '2' is part of word2vec, '.' splits v2.0
        assert tokenize("Word2Vec model v2.0") == ["word2vec", "model", "v2", "0"]

    def test_underscore_is_separator(self):
        assert tokenize("snake_case") == ["snake", "case"]

    def test_unicode_letters_kept(self):
        assert tokenize("Ångström effect") == ["ångström", "effect"]

    @given(st.text(max_size=80))
    def test_idempotent_on_joined_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    @given(st.text(max_size=80))
    def test_tokens_are_clean(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert all(ch.isalnum() for ch in token)


def stream(*tokens):
    return TokenStream("D", tuple(tokens))


def stoplist(*entries):
    return StopwordList(tuple(entries))


class TestFilterStopwords:
    def test_basic(self):
        out = filter_stopwords(stream("the", "neural", "network"), stoplist("the"))
        assert out.tokens == ("neural", "network")

    def test_no_lists_is_identity(self):
        s = stream("a", "b")
        assert filter_stopwords(s) == s

    def test_two_tier_union(self):
        # 'method' from a curated list, 'for' from the base list
        out = filter_stopwords(
            stream("method", "for", "detecting", "threats"),
            stoplist("method"),
            stoplist("for"),
        )
        assert out.tokens == ("detecting", "threats")

    def test_union_filters_as_its_lists_do(self):
        base, curated = stoplist("for", "the"), stoplist("the", "method")
        union = StopwordList.union(base, curated)
        assert union.entries == ("for", "the", "method")
        s = stream("the", "method", "for", "detecting", "threats")
        assert filter_stopwords(s, union) == filter_stopwords(s, base, curated)

    def test_idempotent_and_disjoint(self):
        s = stream("a", "b", "c", "b")
        lst = stoplist("b")
        once = filter_stopwords(s, lst)
        assert filter_stopwords(once, lst) == once
        assert not set(once.tokens) & {"b"}

    def test_str_subclass_tokens_pass_through(self):
        # extraction hands filter_stopwords numpy.str_ tokens, which sys.intern rejects
        out = filter_stopwords(stream(*map(np.str_, ("the", "neural", "the", "net"))), stoplist("the"))
        assert out.tokens == ("neural", "net")
        assert all(type(t) is np.str_ for t in out.tokens)

    @given(st.lists(st.sampled_from("abcdef"), max_size=20), st.sets(st.sampled_from("abcdef")))
    def test_subsequence_property(self, tokens, stop):
        s = TokenStream("D", tuple(tokens))
        lst = StopwordList(tuple(sorted(stop)))
        out = filter_stopwords(s, lst)
        assert len(out.tokens) <= len(s.tokens)
        it = iter(s.tokens)
        assert all(tok in it for tok in out.tokens)  # subsequence
        assert not set(out.tokens) & set(stop)


class TestStopwordFiles:
    def test_dedup_and_comments(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("a\nb\n# note\nb\n")
        lst = load_stopword_list(path)
        assert lst.entries == ("a", "b")

    @pytest.mark.parametrize("data, error", [
        (b"fine\ntwo words\n", ""),
        (b"fine\ncaf\xc3(\n", " 'utf-8' codec can't decode byte 0xc3"),
        (b"# note\rcaf\xc3", " 'utf-8' codec can't decode byte 0xc3"),
    ])
    def test_bad_entry_names_line(self, tmp_path, data, error):
        path = tmp_path / "s.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{path}:2:{error}")):
            load_stopword_list(path)

    def test_punctuation_entry_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("semi;colon\n")
        with pytest.raises(ValueError, match=":1:"):
            load_stopword_list(path)

    def test_entries_lowercased(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("The\nthe\n")
        assert load_stopword_list(path).entries == ("the",)

    def test_bundled_base_list(self):
        base = load_base_stopwords()
        assert len(base) == 318  # the classic frozen English list
        assert "the" in base and "whence" in base


class TestTokenStreamFiles:
    def test_round_trip(self, tmp_path):
        streams = [stream("a", "b"), TokenStream("D2", ("c",))]
        path = tmp_path / "t.jsonl"
        save_token_streams(streams, path)
        assert load_token_streams(path) == streams

    @pytest.mark.parametrize("line, error", [
        ('{"id": "b"}', "expected keys"),
        ('{"id": "b", "tokens": ["x"], "id": "c"}', "invalid JSON: repeated key 'id'"),
    ])
    def test_bad_record_names_line(self, tmp_path, line, error):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": "a", "tokens": ["x"]}\n' + line + "\n")
        with pytest.raises(ValueError, match=f":2: {error}"):
            load_token_streams(path)

    @pytest.mark.parametrize("token", ["solar cell", "", "Solar", "solar-cell", "x\ty"])
    def test_token_a_model_cannot_hold_names_line_and_token(self, tmp_path, token):
        path = tmp_path / "t.jsonl"
        bad = {"id": "b", "tokens": ["ok", token]}
        path.write_text('{"id": "a", "tokens": ["x"]}\n' + json.dumps(bad) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: token {token!r}")):
            load_token_streams(path)

    def test_unicode_alphanumeric_tokens_accepted(self, tmp_path):
        streams = [TokenStream("a", ("café", "x9", "日本"))]
        path = tmp_path / "t.jsonl"
        save_token_streams(streams, path)
        assert load_token_streams(path) == streams


def word_streams(n_streams=200, length=500, n_words=1000, seed=0):
    """Streams of ``length`` tokens drawn from ``n_words`` distinct words."""
    rng = random.Random(seed)
    words = [f"w{i}x" for i in range(n_words)]
    return [TokenStream(f"d{i}", tuple(rng.choices(words, k=length))) for i in range(n_streams)]


class TestInternedStreams:
    """Streams made by the package hold one object per distinct token."""

    @staticmethod
    def assert_shared(streams):
        tokens = [t for s in streams for t in s.tokens]
        assert len({id(t) for t in tokens}) == len(set(tokens))

    def test_prep_streams_share_tokens(self):
        docs = [PatentDocument(s.doc_id, "x", 2000, "", " ".join(s.tokens)) for s in word_streams(20, 100)]
        streams = _interned(_prep_streams(Corpus(tuple(docs)), None, []))
        assert sum(len(s.tokens) for s in streams) == 2000
        self.assert_shared(streams)

    def test_loaded_streams_share_tokens(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_token_streams(word_streams(20, 100), path)
        self.assert_shared(load_token_streams(path))

    def test_load_memory_bounded_by_token_slots(self, tmp_path):
        """Peak at most 8 bytes per token (one tuple slot) plus 512 KiB for the
        distinct words and one line's parse; a str object per token is ~55 bytes."""
        streams = word_streams()
        path = tmp_path / "t.jsonl"
        save_token_streams(streams, path)
        tracemalloc.start()
        try:
            loaded = load_token_streams(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == streams
        assert peak <= 8 * 200 * 500 + 512 * 1024


# lowercase alphanumeric tokens, some of them multibyte in UTF-8
_TOKENS = st.lists(st.text("abzé日9", min_size=1, max_size=5), max_size=4)
_BAD_VALUES = {
    "id": [None, 5, 1.5, True, "", [], {"a": "b"}, float("nan")],
    "tokens": [None, "ab", 5, {}, ["a", 5], [["a"]], [""], ["A"], ["a b"], [float("nan")], float("nan")],
}
_MUTATIONS = ["truncate", "drop_key", "repeat_key", "wrong_type", "nan", "repeat_id", "bom", "crlf"]


def mutate(data: bytes, draw) -> tuple[bytes, int, int | None]:
    """One mutation of the tokens file ``data``: the new bytes, how many of
    its streams a load that succeeds must return, and the line an error must
    name (None where the file must load)."""
    lines = data.decode().splitlines()
    kind = draw(st.sampled_from(_MUTATIONS))
    i = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[i])
    if kind == "truncate":  # at a byte, so possibly inside a character
        cut = draw(st.integers(0, len(data) - 1))
        whole = data[: cut + 1].count(b"\n")
        return data[:cut], whole, whole + 1
    if kind == "bom":
        return "\ufeff".encode() + data, len(lines), 1
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n"), len(lines), None
    if kind == "repeat_id":  # a copy of line i, after it
        j = draw(st.integers(i + 1, len(lines)))
        lines.insert(j, lines[i])
        return ("\n".join(lines) + "\n").encode(), len(lines) - 1, j + 1
    key = draw(st.sampled_from(["id", "tokens"]))
    if kind == "drop_key":
        del record[key]
    elif kind == "wrong_type":
        record[key] = draw(st.sampled_from(_BAD_VALUES[key]))
    elif kind == "nan":
        record["tokens"].insert(draw(st.integers(0, len(record["tokens"]))), float("nan"))
    line = json.dumps(record, ensure_ascii=False)
    if kind == "repeat_key":
        value = draw(st.sampled_from([record[key], "other", ["other"]]))
        line = line[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}"
    lines[i] = line
    return ("\n".join(lines) + "\n").encode(), len(lines), i + 1


class TestTokenStreamFileFuzz:
    """A mutated tokens file loads the same streams or fails naming
    ``path:line``, and then ``train --input`` exits 1."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_TOKENS, min_size=1, max_size=4), st.data())
    def test_mutated_file_loads_or_names_line(self, token_lists, data):
        streams = [TokenStream(f"d{i}", tuple(t)) for i, t in enumerate(token_lists)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.jsonl"
            save_token_streams(streams, path)
            mutated, keep, line = mutate(path.read_bytes(), data.draw)
            path.write_bytes(mutated)
            try:
                loaded = load_token_streams(path)
            except ValueError as exc:
                assert line is not None and str(exc).startswith(f"{path}:{line}: "), exc
                argv = ["train", "--input", str(path), "--epochs", "0", "--out", str(Path(tmp) / "m.w2v")]
                assert main(argv) == EXIT_FAILURE
            else:
                assert loaded == streams[:keep]
