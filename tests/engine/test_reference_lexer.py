"""The regex lexer and normalizer must agree with the character loops.

``tokenize`` (:mod:`repro.engine.sql.lexer`) and ``normalize_sql``
(:mod:`repro.engine.plan_cache`) each run one compiled regex; the
reference (``tests/engine/reference_lexer.py``) walks the same text one
character at a time.  Over generated text — ASCII SQL shapes mixed with
arbitrary Unicode, quotes, ``''``, ``--`` comments, ``!=`` and quoted
identifiers — both give the same ``(kind, text, position)`` tokens, or
the same error, and the same cache key.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.plan_cache import normalize_sql
from repro.engine.sql.lexer import tokenize
from repro.errors import SqlSyntaxError
from tests.engine import reference_lexer

#: pieces the generator glues together: SQL words and symbols, layout,
#: quoting, and characters on which ``isdigit`` / ``isalpha`` /
#: ``isalnum`` disagree with ASCII
FRAGMENTS = [
    "SELECT", "select", "FrOm", "WHERE", "and", "LIMIT", "NULL", "in",
    "a", "t", "_x", "speech_parentCODE", "0", "42", "3.14", "1.", ".5",
    "=", "<>", "!=", "!", "<=", ">=", "<", ">", "(", ")", ",", ".", "*",
    "+", "-", "/", ";", "?", "@", " ", "  ", "\t", "\r\n", "\n", "\f",
    "\xa0", "--", "-- note\n", "'", "''", "'x y'", "'it''s'", '"', '"Ab c"',
    # superscript two, Arabic-Indic three, one half, e-acute, Roman
    # numeral one, titlecase DZ, combining ypogegrammeni, mathematical
    # digit zero, ideographic zero
    "\u00b2", "\u0663", "\u00bd", "\u00e9", "\u2160", "\u01c5", "\u0345",
    "\U0001d7ce", "\u3007",
]

texts = st.lists(
    st.one_of(
        st.sampled_from(FRAGMENTS),
        st.characters(),
        st.text(max_size=4),
    ),
    max_size=24,
).map("".join)


def _lexed(tokenizer, text):
    try:
        return [tuple(token) for token in tokenizer(text)]
    except SqlSyntaxError as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    @settings(max_examples=600, deadline=None)
    @given(texts)
    @example("SELECT a FROM t LIMIT 'x'")
    @example("SELECT ² FROM t")
    @example("'abc''")
    @example("'a'''")
    @example("x--")
    @example("SELECT a, b FROM t WHERE c != 'x''y' -- done")
    @example('SELECT "Mixed Case" FROM t LIMIT 3;')
    @example("SELECT été² FROM t WHERE x = 1.25")
    def test_tokens_and_errors(self, text):
        assert _lexed(tokenize, text) == _lexed(reference_lexer.tokenize, text)

    @settings(max_examples=600, deadline=None)
    @given(texts)
    @example("  SELECT a -- c\n FROM t ; ;  ")
    @example("SELECT 'a  b\t")
    @example('SELECT "a  ')
    @example("SELECT a, b FROM t WHERE c != 'x''y' -- done")
    def test_cache_keys(self, text):
        assert normalize_sql(text) == reference_lexer.normalize_sql(text)

