import pytest
from hypothesis import given, settings, strategies as st

from trendlens.corpus import PatentDocument
from trendlens.query import (
    And,
    Or,
    Phrase,
    QueryParseError,
    eval_query,
    parse_query,
    serialize_query,
)
from trendlens.textprep import tokenize

# Normalized transcription of the four-industry patent search expression
# (one AND chain of five OR groups, comma read as OR).
FULL_SEARCH_EXPRESSION = (
    "((Artificial intelligen*) OR (Deep Learn*) OR (Machine Learn*) OR (Reinforced Learn*) "
    "OR (Artificial Neural Network) OR (Neural Network)) "
    "and ('medical' OR 'healthcare') "
    "and ('cyber security' OR 'security') "
    "and ('factory','supply chain') "
    "and ('transport' OR 'transportation')"
)


def doc(abstract, title=""):
    return PatentDocument("D1", "test", 2020, title, abstract)


class TestParse:
    def test_quoted_or(self):
        assert parse_query("'medical' OR 'healthcare'") == Or(
            Phrase("medical"), Phrase("healthcare")
        )

    def test_and_binds_tighter_than_or(self):
        assert parse_query("a OR b AND c") == Or(Phrase("a"), And(Phrase("b"), Phrase("c")))

    def test_operators_case_insensitive(self):
        assert parse_query("a and b") == parse_query("a AND b") == parse_query("a AnD b")

    def test_comma_means_or(self):
        assert parse_query("('factory','supply chain')") == Or(
            Phrase("factory"), Phrase("supply chain")
        )

    def test_adjacent_groups_joined_by_comma(self):
        assert parse_query("(a),(b)") == Or(Phrase("a"), Phrase("b"))

    def test_bare_multiword_phrase(self):
        assert parse_query("Artificial Neural Network") == Phrase("Artificial Neural Network")

    def test_trailing_wildcard_on_bare_word(self):
        assert parse_query("Learn*") == Phrase("Learn", wildcard=True)

    def test_trailing_wildcard_on_bare_phrase(self):
        assert parse_query("Deep Learn*") == Phrase("Deep Learn", wildcard=True)

    def test_wildcard_inside_quotes(self):
        assert parse_query("'deep learn*'") == Phrase("deep learn", wildcard=True)

    @pytest.mark.parametrize("source, tree", [
        ("or*", Phrase("or", wildcard=True)),
        ("AND*", Phrase("AND", wildcard=True)),
        ("deep OR or*", Or(Phrase("deep"), Phrase("or", wildcard=True))),
        ("deep and*", Phrase("deep and", wildcard=True)),
    ])
    def test_an_operator_with_a_wildcard_is_a_term(self, source, tree):
        assert parse_query(source) == tree

    def test_phrase_text_preserves_case(self):
        assert parse_query("'Cyber Security'").text == "Cyber Security"

    def test_left_associative_chains(self):
        assert parse_query("a OR b OR c") == Or(Or(Phrase("a"), Phrase("b")), Phrase("c"))

    def test_full_search_expression_is_and_chain(self):
        tree = parse_query(FULL_SEARCH_EXPRESSION)
        depth = 0
        node = tree
        while isinstance(node, And):
            depth += 1
            node = node.left
        assert depth == 4  # five groups joined by four ANDs
        assert isinstance(node, Or)


_WILDCARD = "wildcard '*' allowed only at the end of a phrase"


class TestParseErrors:
    @pytest.mark.parametrize(
        "source",
        ["(a OR b", "a)", "(a))", "a AND", "OR a", "a OR", "''", "()", "", "   ", "de*ep", "'mid*dle'", "a* b"],
    )
    def test_rejected(self, source):
        with pytest.raises(QueryParseError):
            parse_query(source)

    def test_error_carries_offset(self):
        with pytest.raises(QueryParseError) as err:
            parse_query("aa AND (bb OR cc")
        assert err.value.position == 7
        assert "offset" in str(err.value)

    def test_dangling_operator_offset(self):
        with pytest.raises(QueryParseError) as err:
            parse_query("a AND")
        assert isinstance(err.value.position, int)

    def test_unterminated_quote(self):
        with pytest.raises(QueryParseError):
            parse_query("'unclosed")

    def test_missing_operator_between_terms(self):
        with pytest.raises(QueryParseError):
            parse_query("a (b)")

    @pytest.mark.parametrize(
        "source, message, position",
        [
            ("", "empty query", 0),
            ("   ", "empty query", 0),
            ("'unclosed", "unterminated quoted phrase", 0),
            ("a OR 'b", "unterminated quoted phrase", 5),
            ("''", "empty term", 0),
            ("()", "empty term", 1),
            ("'-'", "empty term", 0),
            ("*", "empty term", 0),
            ("a OR ,b", "empty term", 5),
            ("'mid*dle'", _WILDCARD, 4),
            ("de*ep", _WILDCARD, 2),
            ("a* b", _WILDCARD, 3),
            ("deep learn* method", _WILDCARD, 12),
            ("deep AND* learn", _WILDCARD, 10),
            ("or* b", _WILDCARD, 4),
            ("OR a", "dangling operator", 0),
            ("a AND OR b", "dangling operator", 6),
            ("a AND", "dangling operator", 5),
            ("a OR", "dangling operator", 4),
            ("(a OR b", "unbalanced parentheses", 0),
            ("aa AND (bb OR cc", "unbalanced parentheses", 7),
            ("a)", "unbalanced parentheses", 1),
            ("(a))", "unbalanced parentheses", 3),
            ("a (b)", "expected AND or OR between terms", 2),
            ("'a' b", "expected AND or OR between terms", 4),
            ("a 'b'", "expected AND or OR between terms", 2),
        ],
    )
    def test_error_message_and_offset(self, source, message, position):
        with pytest.raises(QueryParseError) as err:
            parse_query(source)
        assert str(err.value) == f"{message} (at offset {position})"
        assert err.value.position == position


class TestEval:
    def test_wildcard_prefix_match(self):
        assert eval_query(parse_query("Deep Learn*"), doc("a deep learning method"))

    def test_contiguous_tokens_only(self):
        assert not eval_query(parse_query("'cyber security'"), doc("cybersecurity tools"))

    def test_phrase_must_be_contiguous(self):
        assert not eval_query(parse_query("'deep method'"), doc("a deep learning method"))

    def test_hand_evaluated_tree(self):
        # ('medical' OR 'healthcare') AND Neural Network over
        # [neural, network, for, healthcare]: healthcare matches the OR arm,
        # [neural, network] matches contiguously, so the AND is true
        expr = parse_query("('medical' OR 'healthcare') AND Neural Network")
        assert eval_query(expr, doc("neural network for healthcare"))
        assert not eval_query(expr, doc("neural network for finance"))
        assert not eval_query(expr, doc("healthcare with networked neurons"))

    def test_matches_in_title_too(self):
        assert eval_query(parse_query("'surgical'"), doc("nothing here", title="Surgical robot"))

    def test_case_insensitive_both_sides(self):
        assert eval_query(parse_query("'MEDICAL'"), doc("a Medical system"))
        assert eval_query(parse_query("'medical'"), doc("A MEDICAL SYSTEM"))

    def test_wildcard_matches_exact_token(self):
        assert eval_query(parse_query("transport*"), doc("public transport"))

    def test_punctuation_in_document_ignored(self):
        assert eval_query(parse_query("deep learning"), doc("deep-learning, applied"))

    @pytest.mark.parametrize("wildcard", [False, True])
    def test_a_phrase_without_tokens_matches_nothing(self, wildcard):
        assert not eval_query(Phrase("!!!", wildcard=wildcard), doc("any words at all"))


# --- property tests -------------------------------------------------------

WORDS = ["alpha", "beta", "gamma", "delta", "neural", "deep", "learn", "medical", "net"]

phrases = st.builds(
    Phrase,
    text=st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
    wildcard=st.booleans(),
)
trees = st.recursive(
    phrases,
    lambda children: st.builds(And, children, children) | st.builds(Or, children, children),
    max_leaves=12,
)
documents = st.builds(
    lambda words, title: doc(" ".join(words), title),
    st.lists(st.sampled_from(WORDS + ["learning", "deeper", "nets"]), min_size=1, max_size=12),
    st.sampled_from(["", "alpha beta", "Neural Net"]),
)


def oracle_eval(expr, document):
    """Straight recursive re-implementation used as an independent check."""
    if isinstance(expr, And):
        return oracle_eval(expr.left, document) and oracle_eval(expr.right, document)
    if isinstance(expr, Or):
        return oracle_eval(expr.left, document) or oracle_eval(expr.right, document)
    hay = tokenize(document.title + " " + document.abstract)
    needle = tokenize(expr.text)
    for start in range(len(hay) - len(needle) + 1):
        window = hay[start : start + len(needle)]
        if expr.wildcard:
            ok = window[:-1] == needle[:-1] and window[-1].startswith(needle[-1])
        else:
            ok = window == needle
        if ok:
            return True
    return False


@given(trees)
def test_serialize_reparse_identity(tree):
    assert parse_query(serialize_query(tree)) == tree


@given(trees, documents)
def test_eval_matches_oracle(tree, document):
    assert eval_query(tree, document) == oracle_eval(tree, document)


@given(trees, trees, documents)
def test_connectives_decompose(left, right, document):
    assert eval_query(And(left, right), document) == (
        eval_query(left, document) and eval_query(right, document)
    )
    assert eval_query(Or(left, right), document) == (
        eval_query(left, document) or eval_query(right, document)
    )


@given(trees, documents)
def test_eval_case_insensitive(tree, document):
    upper = PatentDocument(
        document.id, document.industry, document.year, document.title.upper(), document.abstract.upper()
    )
    assert eval_query(tree, document) == eval_query(tree, upper)


# structural characters, whitespace (a no-break space included), operators,
# words and punctuation: the pieces a query is made of, in any order
_QUERY_PIECES = ["(", ")", ",", "'", "*", " ", "\t", "\xa0", "AND", "and", "Or", "alpha", "Deep", "x", "-", "!", "é"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_QUERY_PIECES), max_size=12).map("".join) | st.text("(),'* \xa0aAnNdDoOrR-!", max_size=12))
def test_any_string_parses_or_fails_at_an_offset(source):
    try:
        tree = parse_query(source)
    except QueryParseError as exc:
        assert 0 <= exc.position <= len(source)
    else:
        assert parse_query(serialize_query(tree)) == tree
