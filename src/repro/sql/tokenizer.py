"""Hand-rolled tokenizer for the ``repro.sql`` SQL subset.

Produces a flat list of :class:`Token` objects carrying 1-based line/column
positions so every later stage (parser, name resolution, compilation) can
raise :class:`~repro.errors.SqlError` with a caret under the offending
source location.  Keywords are case-insensitive; identifiers keep their
original spelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SqlError

__all__ = ["Token", "tokenize", "KEYWORDS"]

#: Reserved words, recognised case-insensitively.  A keyword token's ``value``
#: is the upper-cased spelling; everything else lexes as an ``IDENT``.
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "JOIN", "INNER", "ON", "AS", "AND", "OR",
        "NOT", "GROUP", "ORDER", "BY", "LIMIT", "ASC", "DESC", "OVER",
        "PARTITION", "ROWS", "BETWEEN", "PRECEDING", "FOLLOWING", "CURRENT",
        "ROW", "UNBOUNDED",
    }
)

#: Multi-character operators first so ``<=`` never lexes as ``<`` + ``=``.
_OPERATORS = ("<>", "<=", ">=", "!=", "=", "<", ">", "+", "-", "*", "(", ")", ",", ".")

#: Number literals take ASCII digits only: ``str.isdigit`` also accepts
#: characters such as ``²`` that ``int()`` rejects.
_DIGITS = frozenset("0123456789")


@dataclass(frozen=True)
class Token:
    """One lexeme with its 1-based source position.

    ``type`` is one of ``"KEYWORD"``, ``"IDENT"``, ``"NUMBER"``, ``"STRING"``,
    ``"OP"`` or ``"EOF"``.  Positions compare as equal-irrelevant so parser
    golden tests can compare token lists structurally.
    """

    type: str
    value: object
    line: int = field(compare=False, default=1)
    column: int = field(compare=False, default=1)

    def describe(self) -> str:
        if self.type == "EOF":
            return "end of query"
        return repr(str(self.value))


def tokenize(query: str) -> list[Token]:
    """Lex ``query`` into tokens, ending with an ``EOF`` token.

    >>> [t.value for t in tokenize("SELECT v FROM t")[:-1]]
    ['SELECT', 'v', 'FROM', 't']
    >>> tokenize("WHERE v >= 1.5")[2]
    Token(type='OP', value='>=', line=1, column=9)
    >>> tokenize("SELECT ?")
    Traceback (most recent call last):
        ...
    repro.errors.SqlError: unexpected character '?' at line 1, column 8
      SELECT ?
             ^
    """
    tokens: list[Token] = []
    line, column = 1, 1
    i, n = 0, len(query)
    while i < n:
        ch = query[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "-" and query.startswith("--", i):
            while i < n and query[i] != "\n":
                i += 1
            continue
        start_line, start_column = line, column
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (query[j].isalnum() or query[j] == "_"):
                j += 1
            word = query[i:j]
            if word.upper() in KEYWORDS:
                tokens.append(Token("KEYWORD", word.upper(), start_line, start_column))
            else:
                tokens.append(Token("IDENT", word, start_line, start_column))
            column += j - i
            i = j
            continue
        if ch in _DIGITS:
            j = i
            while j < n and query[j] in _DIGITS:
                j += 1
            is_float = j < n and query[j] == "." and j + 1 < n and query[j + 1] in _DIGITS
            if is_float:
                j += 1
                while j < n and query[j] in _DIGITS:
                    j += 1
            text = query[i:j]
            value: object = float(text) if is_float else int(text)
            tokens.append(Token("NUMBER", value, start_line, start_column))
            column += j - i
            i = j
            continue
        if ch == "'":
            j = i + 1
            pieces: list[str] = []
            terminated = False
            while j < n and query[j] != "\n":
                if query[j] == "'":
                    if j + 1 < n and query[j + 1] == "'":  # '' escapes a quote
                        pieces.append("'")
                        j += 2
                        continue
                    terminated = True
                    break
                pieces.append(query[j])
                j += 1
            if not terminated:
                raise SqlError(
                    "unterminated string literal",
                    query=query, line=start_line, column=start_column,
                )
            tokens.append(Token("STRING", "".join(pieces), start_line, start_column))
            column += j + 1 - i
            i = j + 1
            continue
        for op in _OPERATORS:
            if query.startswith(op, i):
                tokens.append(Token("OP", op, start_line, start_column))
                column += len(op)
                i += len(op)
                break
        else:
            raise SqlError(
                f"unexpected character {ch!r}",
                query=query, line=start_line, column=start_column,
            )
    tokens.append(Token("EOF", None, line, column))
    return tokens
