"""Boolean phrase-query language used to filter patent corpora.

Grammar (operators are case-insensitive, phrase text is case-preserving)::

    expr   := term ((OR | ',') term)*
    term   := factor (AND factor)*
    factor := '(' expr ')' | quoted phrase | bare phrase

A quoted phrase is delimited by single quotes ('cyber security'); a bare
phrase is one or more consecutive unquoted words (Artificial Neural
Network).  The final token of either kind may end in ``*`` to request
prefix matching on that token; a bare ``or*`` or ``and*`` is such a word,
not an operator.  AND binds tighter than OR, and a comma
between groups reads as OR, so ('factory','supply chain') is the same as
('factory' OR 'supply chain').

Matching is token based: a phrase matches a document when its tokens
occur as a contiguous run in the tokenized title+abstract, so 'security'
does not match "cybersecurity".
"""

from __future__ import annotations

import re
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
    kind: str  # "(", ")", ",", "and", "or", "phrase" (quoted), "word" (bare) or "end"
    pos: int
    text: str = ""
    wildcard: bool = False


# one lexeme: a structural character, a quoted phrase (to the end of the source
# when no quote closes it), or a bare word; what lies between them is whitespace
_LEXEME = re.compile(r"[(),]|'[^']*'?|[^\s(),']+")


def _lex(source: str) -> list[_Token]:
    """The tokens of ``source``, then an end token at ``len(source)``.

    A quoted phrase and a bare word follow one term rule: the text inside
    loses its surrounding whitespace and one trailing ``*``, which marks a
    wildcard; it must then hold no ``*`` and not be empty.
    """
    tokens: list[_Token] = []
    for match in _LEXEME.finditer(source):
        lexeme, pos = match.group(), match.start()
        if lexeme in ("(", ")", ","):
            tokens.append(_Token(lexeme, pos))
            continue
        if lexeme.count("'") == 1:  # no quote closes it
            raise QueryParseError("unterminated quoted phrase", pos)
        quoted = lexeme[0] == "'"
        body, start = (lexeme[1:-1], pos + 1) if quoted else (lexeme, pos)
        text = body.strip()
        wildcard = text.endswith("*")
        if wildcard:
            text = text[:-1].rstrip()
        if "*" in text:
            raise QueryParseError("wildcard '*' allowed only at the end of a phrase", start + body.index("*"))
        if not text:
            raise QueryParseError("empty term", pos)
        kind = "phrase" if quoted else text.lower() if text.lower() in _OPERATORS and not wildcard else "word"
        tokens.append(_Token(kind, pos, text, wildcard))
    return tokens + [_Token("end", len(source))]


def parse_query(source: str) -> QueryExpr:
    """Parse a query string into an expression tree.

    Raises :class:`QueryParseError` (with a character offset) on unbalanced
    parentheses, dangling operators, or empty terms.
    """
    if not source.strip():
        raise QueryParseError("empty query", 0)
    tokens, i = _lex(source), 0

    def take() -> _Token:
        nonlocal i
        i += 1
        return tokens[i - 1]

    def expr() -> QueryExpr:
        node = term()
        while tokens[i].kind in (",", "or"):
            take()
            node = Or(node, term())
        return node

    def term() -> QueryExpr:
        node = factor()
        while tokens[i].kind == "and":
            take()
            node = And(node, factor())
        return node

    def factor() -> QueryExpr:
        tok = take()
        if tok.kind == "(":
            node = expr()
            if take().kind != ")":
                raise QueryParseError("unbalanced parentheses", tok.pos)
            return node
        text, wildcard = tok.text, tok.wildcard
        while tok.kind == "word" and tokens[i].kind == "word":  # a run of bare words is one phrase
            if wildcard:
                raise QueryParseError("wildcard '*' allowed only at the end of a phrase", tokens[i].pos)
            text, wildcard = f"{text} {tokens[i].text}", tokens[i].wildcard
            take()
        if tok.kind in ("phrase", "word") and tokenize(text):
            return Phrase(text, wildcard)
        raise QueryParseError("dangling operator" if tok.kind in ("and", "or", "end") else "empty term", tok.pos)

    node = expr()
    if tokens[i].kind != "end":
        message = "unbalanced parentheses" if tokens[i].kind == ")" else "expected AND or OR between terms"
        raise QueryParseError(message, tokens[i].pos)
    return node


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


def eval_query(expr: QueryExpr, doc) -> bool:
    """True when the document's tokenized title+abstract satisfies ``expr``."""
    return _eval(expr, " " + " ".join(tokenize(doc.title + " " + doc.abstract)) + " ")


def _eval(expr: QueryExpr, text: str) -> bool:
    # ``text`` holds the document's tokens with a space before and after
    # each; no token holds a space, so a phrase's tokens occur as a run
    # exactly when this substring does
    if isinstance(expr, Phrase):
        tokens = tokenize(expr.text)
        return bool(tokens) and " " + " ".join(tokens) + ("" if expr.wildcard else " ") in text
    if isinstance(expr, And):
        return _eval(expr.left, text) and _eval(expr.right, text)
    if isinstance(expr, Or):
        return _eval(expr.left, text) or _eval(expr.right, text)
    raise TypeError(f"not a query expression: {expr!r}")
