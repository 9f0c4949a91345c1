"""Failure-path property: ``compile_sql`` on arbitrary text raises only ``SqlError``.

Whatever the text, compiling it (parse, name resolution, lowering and, with
``optimize=True``, the rule pipeline) either succeeds or raises
:class:`~repro.errors.SqlError` with a query position; a bare
``ValueError``, ``KeyError`` or ``TypeError`` is a bug.  Two inputs:

* any string, and any string of code points 0-300, where characters such
  as ``²`` (``str.isdigit`` but not an ``int()`` digit) live;
* token soup: the grammar's keywords, identifiers, literals and punctuation
  in random order, mixed with short random fragments, so the parser and
  the name resolver see near-miss queries instead of failing at the first
  character.

Nothing runs, so this file needs no NumPy.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relation import AURelation
from repro.errors import SqlError
from repro.sql import compile_sql
from repro.sql.tokenizer import KEYWORDS

CATALOG = {
    "t": AURelation.from_rows(["k", "v", "x"], [((1, 10, "a"), 1), ((2, 5, None), 1)]),
    "s": AURelation.from_rows(["k", "w"], [((1, 3), 1), ((2, 7), 1)]),
}

_IDENTIFIERS = ["t", "s", "u", "k", "v", "w", "x", "n", "t.k", "s.k", "t.v", "s.w", "q.k"]
_FUNCTIONS = ["sum", "count", "avg", "min", "max", "median"]
_LITERALS = ["0", "1", "3", "2.5", "007", "'a'", "''", "'it''s'", "'open"]
_PUNCTUATION = [
    "=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "*", "(", ")", ",", ".", "--",
]

grammar_words = st.sampled_from(
    sorted(KEYWORDS) + _IDENTIFIERS + _FUNCTIONS + _LITERALS + _PUNCTUATION
)
fragments = st.text(st.characters(max_codepoint=300), min_size=1, max_size=3)
token_soup = st.lists(
    st.one_of(grammar_words, grammar_words, fragments), max_size=30
).map(" ".join)


def assert_compiles_or_raises_sql_error(query: str) -> None:
    for optimize in (True, False):
        try:
            compile_sql(query, CATALOG, optimize=optimize)
        except SqlError:
            pass


@settings(max_examples=200, deadline=None)
@given(query=st.one_of(st.text(), st.text(st.characters(max_codepoint=300))))
def test_arbitrary_text_raises_only_sql_error(query):
    assert_compiles_or_raises_sql_error(query)


@settings(max_examples=300, deadline=None)
@given(query=token_soup)
def test_token_soup_raises_only_sql_error(query):
    assert_compiles_or_raises_sql_error(query)
