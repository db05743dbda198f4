import json
import re
import sys

import pytest
from hypothesis import given, strategies as st

from trendlens.textprep import (
    StopwordList,
    TokenStream,
    filter_stopwords,
    load_base_stopwords,
    load_stopword_list,
    save_stopword_list,
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


def stoplist(*entries, tier="base"):
    return StopwordList(tuple(entries), tier)


class TestFilterStopwords:
    def test_basic(self):
        out = filter_stopwords(stream("the", "neural", "network"), stoplist("the"))
        assert out.tokens == ("neural", "network")

    def test_no_lists_is_identity(self):
        s = stream("a", "b")
        assert filter_stopwords(s) == s

    def test_two_tier_union(self):
        # 'method' from the generated tier, 'for' from the base tier
        out = filter_stopwords(
            stream("method", "for", "detecting", "threats"),
            stoplist("method", tier="generated"),
            stoplist("for", tier="base"),
        )
        assert out.tokens == ("detecting", "threats")

    def test_union_filters_as_its_lists_do(self):
        base, curated = stoplist("for", "the", tier="base"), stoplist("the", "method", tier="curated")
        union = StopwordList.union(base, curated)
        assert (union.entries, union.tier) == (("for", "the", "method"), "curated")
        s = stream("the", "method", "for", "detecting", "threats")
        assert filter_stopwords(s, union) == filter_stopwords(s, base, curated)

    def test_idempotent_and_disjoint(self):
        s = stream("a", "b", "c", "b")
        lst = stoplist("b")
        once = filter_stopwords(s, lst)
        assert filter_stopwords(once, lst) == once
        assert not set(once.tokens) & {"b"}

    @given(st.lists(st.sampled_from("abcdef"), max_size=20), st.sets(st.sampled_from("abcdef")))
    def test_subsequence_property(self, tokens, stop):
        s = TokenStream("D", tuple(tokens))
        lst = StopwordList(tuple(sorted(stop)), "base")
        out = filter_stopwords(s, lst)
        assert len(out.tokens) <= len(s.tokens)
        it = iter(s.tokens)
        assert all(tok in it for tok in out.tokens)  # subsequence
        assert not set(out.tokens) & set(stop)


class TestStopwordFiles:
    def test_dedup_and_comments(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("a\nb\n# note\nb\n")
        lst = load_stopword_list(path, "generated")
        assert lst.entries == ("a", "b")
        assert lst.tier == "generated"

    def test_round_trip(self, tmp_path):
        lst = stoplist("system", "method", "device", tier="curated")
        path = tmp_path / "s.txt"
        save_stopword_list(lst, path)
        assert load_stopword_list(path, "curated") == lst

    def test_bad_entry_names_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("fine\ntwo words\n")
        with pytest.raises(ValueError, match=":2:"):
            load_stopword_list(path, "base")

    def test_punctuation_entry_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("semi;colon\n")
        with pytest.raises(ValueError, match=":1:"):
            load_stopword_list(path, "base")

    def test_entries_lowercased(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("The\nthe\n")
        assert load_stopword_list(path, "base").entries == ("the",)

    def test_bundled_base_list(self):
        base = load_base_stopwords()
        assert base.tier == "base"
        assert len(base) == 318  # the classic frozen English list
        assert "the" in base and "whence" in base

    def test_unknown_tier(self):
        with pytest.raises(ValueError, match="tier"):
            StopwordList(("a",), "bogus")


class TestTokenStreamFiles:
    def test_round_trip(self, tmp_path):
        streams = [stream("a", "b"), TokenStream("D2", ("c",))]
        path = tmp_path / "t.jsonl"
        save_token_streams(streams, path)
        assert load_token_streams(path) == streams

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"id": "a", "tokens": ["x"]}\n{"id": "b"}\n')
        with pytest.raises(ValueError, match=":2:"):
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
