"""Boolean phrase-query language used to filter patent corpora.

Grammar (operators are case-insensitive, phrase text is case-preserving)::

    expr   := term ((OR | ',') term)*
    term   := factor (AND factor)*
    factor := '(' expr ')' | quoted phrase | bare phrase

A quoted phrase is delimited by single quotes ('cyber security'); a bare
phrase is one or more consecutive unquoted words (Artificial Neural
Network).  The final token of either kind may end in ``*`` to request
prefix matching on that token.  AND binds tighter than OR, and a comma
between groups reads as OR, so ('factory','supply chain') is the same as
('factory' OR 'supply chain').

Matching is token based: a phrase matches a document when its tokens
occur as a contiguous run in the tokenized title+abstract, so 'security'
does not match "cybersecurity".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .textprep import tokenize

__all__ = [
    "Phrase",
    "And",
    "Or",
    "QueryExpr",
    "QueryParseError",
    "parse_query",
    "serialize_query",
    "eval_query",
]

_OPERATORS = ("and", "or")


class QueryParseError(ValueError):
    """Malformed query string; ``position`` is the 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


@dataclass(frozen=True)
class Phrase:
    """A literal phrase; ``wildcard`` means the last token is a prefix match."""

    text: str
    wildcard: bool = False

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("phrase text must be non-empty")
        if self.text != self.text.strip():
            raise ValueError("phrase text must not carry leading/trailing whitespace")
        if "'" in self.text or "*" in self.text:
            raise ValueError("phrase text must not contain quote or wildcard characters")


@dataclass(frozen=True)
class And:
    left: "QueryExpr"
    right: "QueryExpr"


@dataclass(frozen=True)
class Or:
    left: "QueryExpr"
    right: "QueryExpr"


QueryExpr = Union[Phrase, And, Or]


class _Token(NamedTuple):
    kind: str  # "(", ")", ",", "word", "phrase"
    text: str
    pos: int
    wildcard: bool = False


def _lex(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch == "'":
            end = source.find("'", i + 1)
            if end < 0:
                raise QueryParseError("unterminated quoted phrase", i)
            text = source[i + 1 : end].strip()
            wildcard = text.endswith("*")
            if wildcard:
                text = text[:-1].rstrip()
            if "*" in text:
                raise QueryParseError(
                    "wildcard '*' allowed only at the end of a phrase", i + 1 + source[i + 1 : end].index("*")
                )
            if not text:
                raise QueryParseError("empty term", i)
            tokens.append(_Token("phrase", text, i, wildcard))
            i = end + 1
            continue
        # bare word: runs until whitespace or a structural character
        start = i
        while i < n and not source[i].isspace() and source[i] not in "(),'":
            i += 1
        word = source[start:i]
        wildcard = word.endswith("*")
        if wildcard:
            word = word[:-1]
        if "*" in word:
            raise QueryParseError(
                "wildcard '*' allowed only at the end of a phrase", start + word.index("*")
            )
        if not word and wildcard:
            raise QueryParseError("empty term", start)
        tokens.append(_Token("word", word, start, wildcard))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _lex(source)
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _is_operator(self, tok: _Token | None, name: str) -> bool:
        return tok is not None and tok.kind == "word" and tok.text.lower() == name

    def parse(self) -> QueryExpr:
        expr = self.parse_or()
        tok = self.peek()
        if tok is not None:
            if tok.kind == ")":
                raise QueryParseError("unbalanced parentheses", tok.pos)
            raise QueryParseError("expected AND or OR between terms", tok.pos)
        return expr

    def parse_or(self) -> QueryExpr:
        expr = self.parse_and()
        while True:
            tok = self.peek()
            if tok is not None and (tok.kind == "," or self._is_operator(tok, "or")):
                self.next()
                expr = Or(expr, self.parse_and())
            else:
                return expr

    def parse_and(self) -> QueryExpr:
        expr = self.parse_factor()
        while self._is_operator(self.peek(), "and"):
            self.next()
            expr = And(expr, self.parse_factor())
        return expr

    def parse_factor(self) -> QueryExpr:
        tok = self.peek()
        if tok is None:
            raise QueryParseError("dangling operator", len(self.source))
        if tok.kind == "(":
            self.next()
            inner = self.parse_or()
            closing = self.peek()
            if closing is None or closing.kind != ")":
                raise QueryParseError("unbalanced parentheses", tok.pos)
            self.next()
            return inner
        if tok.kind == "phrase":
            self.next()
            return self._phrase(tok.text, tok.wildcard, tok.pos)
        if tok.kind == "word" and tok.text.lower() not in _OPERATORS:
            return self._parse_bare_phrase()
        if tok.kind == "word":
            raise QueryParseError("dangling operator", tok.pos)
        raise QueryParseError("empty term", tok.pos)

    def _parse_bare_phrase(self) -> QueryExpr:
        words: list[_Token] = []
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "word" or tok.text.lower() in _OPERATORS:
                break
            if words and words[-1].wildcard:
                raise QueryParseError("wildcard '*' allowed only at the end of a phrase", tok.pos)
            words.append(self.next())
        text = " ".join(w.text for w in words)
        return self._phrase(text, words[-1].wildcard, words[0].pos)

    def _phrase(self, text: str, wildcard: bool, pos: int) -> Phrase:
        if not tokenize(text):
            raise QueryParseError("empty term", pos)
        return Phrase(text.strip(), wildcard)


def parse_query(source: str) -> QueryExpr:
    """Parse a query string into an expression tree.

    Raises :class:`QueryParseError` (with a character offset) on unbalanced
    parentheses, dangling operators, or empty terms.
    """
    if not source.strip():
        raise QueryParseError("empty query", 0)
    return _Parser(source).parse()


def serialize_query(expr: QueryExpr) -> str:
    """Render a tree as a canonical, fully parenthesized string.

    ``parse_query(serialize_query(t))`` reproduces ``t`` exactly.
    """
    if isinstance(expr, Phrase):
        star = "*" if expr.wildcard else ""
        return f"'{expr.text}{star}'"
    if isinstance(expr, And):
        return f"({serialize_query(expr.left)} AND {serialize_query(expr.right)})"
    if isinstance(expr, Or):
        return f"({serialize_query(expr.left)} OR {serialize_query(expr.right)})"
    raise TypeError(f"not a query expression: {expr!r}")


def _phrase_match(phrase_tokens: list[str], wildcard: bool, doc_tokens: list[str]) -> bool:
    m = len(phrase_tokens)
    if m == 0 or m > len(doc_tokens):
        return False
    head = phrase_tokens[:-1]
    last = phrase_tokens[-1]
    for i in range(len(doc_tokens) - m + 1):
        if doc_tokens[i : i + m - 1] != head:
            continue
        tail = doc_tokens[i + m - 1]
        if tail.startswith(last) if wildcard else tail == last:
            return True
    return False


def eval_query(expr: QueryExpr, doc) -> bool:
    """True when the document's tokenized title+abstract satisfies ``expr``."""
    doc_tokens = tokenize(doc.title + " " + doc.abstract)
    return _eval(expr, doc_tokens)


def _eval(expr: QueryExpr, doc_tokens: list[str]) -> bool:
    if isinstance(expr, Phrase):
        return _phrase_match(tokenize(expr.text), expr.wildcard, doc_tokens)
    if isinstance(expr, And):
        return _eval(expr.left, doc_tokens) and _eval(expr.right, doc_tokens)
    if isinstance(expr, Or):
        return _eval(expr.left, doc_tokens) or _eval(expr.right, doc_tokens)
    raise TypeError(f"not a query expression: {expr!r}")
