"""SQL lexer and parser."""

import pytest

from repro.engine.expr import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    FuncCall,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Star,
)
from repro.engine.sql.ast import (
    CreateIndexStmt,
    CreateTableStmt,
    DropTableStmt,
    InsertStmt,
    SelectStmt,
    TableFunctionRef,
    TableRef,
)
from repro.engine.sql.lexer import tokenize
from repro.engine.sql.parser import parse_expression, parse_sql
from repro.errors import SqlSyntaxError


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SeLeCt FROM")
        assert tokens[0].is_keyword("select")
        assert tokens[1].is_keyword("from")

    def test_identifiers_keep_case(self):
        tokens = tokenize("speech_parentCODE")
        assert tokens[0].text == "speech_parentCODE"

    def test_string_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].text == "it's"

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].text == "42"
        assert tokens[1].text == "3.14"

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- comment\n 1")
        assert [t.kind for t in tokens] == ["keyword", "number", "eof"]

    def test_not_equal_variants(self):
        assert tokenize("<>")[0].text == "<>"
        assert tokenize("!=")[0].text == "<>"

    def test_quoted_identifier(self):
        tokens = tokenize('"select"')
        assert tokens[0].kind == "ident"
        assert tokens[0].text == "select"

    def test_unterminated_string_rejected(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("'oops")

    def test_unexpected_character_rejected(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @")

    @pytest.mark.parametrize(
        "sql", ["SELECT \u00b2 FROM t", "SELECT a FROM t LIMIT \u00b2",
                "SELECT 1\u0663 FROM t", "SELECT a FROM t WHERE b = \u0663"],
    )
    def test_non_ascii_digits_outside_an_identifier_rejected(self, sql):
        # str.isdigit() holds for them, int() rejects or reads them
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            parse_sql(sql)

    def test_non_ascii_letters_and_digits_inside_an_identifier(self):
        tokens = tokenize("\u00e9t\u00e92 a\u00b2 _\u0663 7x")
        assert [(t.kind, t.text) for t in tokens] == [
            ("ident", "\u00e9t\u00e92"), ("ident", "a\u00b2"),
            ("ident", "_\u0663"), ("number", "7"), ("ident", "x"), ("eof", ""),
        ]

    def test_every_token_position_is_its_first_character(self):
        sql = "SELECT a, 'it''s' FROM \"T\" WHERE b >= 1.5 -- c\n"
        assert [t.position for t in tokenize(sql)] == [
            0, 7, 8, 10, 18, 23, 27, 33, 35, 38, len(sql),
        ]

    def test_string_token_error_names_its_opening_quote(self):
        with pytest.raises(SqlSyntaxError, match=r"found 'x' \(offset 22\)"):
            parse_sql("SELECT a FROM t LIMIT 'x'")


class TestSelectParsing:
    def test_simple_select(self):
        stmt = parse_sql("SELECT a FROM t")
        assert isinstance(stmt, SelectStmt)
        assert stmt.items[0].expr == ColumnRef(None, "a")
        assert stmt.from_items == [TableRef("t", "t")]

    def test_star(self):
        stmt = parse_sql("SELECT * FROM t")
        assert isinstance(stmt.items[0].expr, Star)

    def test_aliases(self):
        stmt = parse_sql("SELECT a AS x, b y FROM t1 u, t2 AS v")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.from_items[0].alias == "u"
        assert stmt.from_items[1].alias == "v"

    def test_qualified_columns(self):
        stmt = parse_sql("SELECT u.a FROM t u")
        assert stmt.items[0].expr == ColumnRef("u", "a")

    def test_where_conjunction(self):
        stmt = parse_sql("SELECT a FROM t WHERE x = 1 AND y <> 'z'")
        assert isinstance(stmt.where, And)

    def test_distinct(self):
        assert parse_sql("SELECT DISTINCT a FROM t").distinct

    def test_group_by_having(self):
        stmt = parse_sql(
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2"
        )
        assert stmt.group_by == [ColumnRef(None, "a")]
        assert isinstance(stmt.having, Comparison)

    def test_order_by_limit(self):
        stmt = parse_sql("SELECT a FROM t ORDER BY a DESC, b LIMIT 5")
        assert stmt.order_by[0].descending
        assert not stmt.order_by[1].descending
        assert stmt.limit == 5

    def test_table_function(self):
        stmt = parse_sql(
            "SELECT u.out FROM speakers, TABLE(unnest(speaker, 'speaker')) u"
        )
        lateral = stmt.from_items[1]
        assert isinstance(lateral, TableFunctionRef)
        assert lateral.call.name == "unnest"
        assert lateral.alias == "u"

    def test_count_distinct(self):
        stmt = parse_sql("SELECT COUNT(DISTINCT a) FROM t")
        call = stmt.items[0].expr
        assert isinstance(call, FuncCall)
        assert call.distinct

    def test_nested_function_calls(self):
        stmt = parse_sql(
            "SELECT getElm(getElm(x, 'a', 't', 'k'), 'b', '', '') FROM t"
        )
        outer = stmt.items[0].expr
        assert isinstance(outer.args[0], FuncCall)

    def test_trailing_semicolon_accepted(self):
        parse_sql("SELECT a FROM t;")

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT",                       # missing list
            "SELECT a",                     # missing FROM
            "SELECT a FROM",                # missing table
            "SELECT a FROM t WHERE",        # dangling where
            "SELECT a FROM t GROUP a",      # GROUP without BY
            "SELECT a FROM t extra garbage junk",
            "SELECT a FROM t LIMIT x",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(SqlSyntaxError):
            parse_sql(bad)


class TestExpressionParsing:
    def test_precedence_or_and(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, Or)
        assert isinstance(expr.items[1], And)

    def test_parentheses_override(self):
        expr = parse_expression("(a = 1 OR b = 2) AND c = 3")
        assert isinstance(expr, And)

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, Not)

    def test_like(self):
        expr = parse_expression("title LIKE '%Join%'")
        assert expr == Like(ColumnRef(None, "title"), "%Join%")

    def test_not_like(self):
        expr = parse_expression("t NOT LIKE 'x'")
        assert isinstance(expr, Like)
        assert expr.negated

    def test_is_null(self):
        expr = parse_expression("a IS NULL")
        assert expr == IsNull(ColumnRef(None, "a"))

    def test_is_not_null(self):
        expr = parse_expression("a IS NOT NULL")
        assert expr == IsNull(ColumnRef(None, "a"), negated=True)

    def test_between_desugars(self):
        expr = parse_expression("a BETWEEN 1 AND 5")
        assert isinstance(expr, And)
        assert expr.items[0].op == ">="
        assert expr.items[1].op == "<="

    def test_in_desugars_to_or(self):
        expr = parse_expression("a IN (1, 2)")
        assert isinstance(expr, Or)

    def test_in_single_value(self):
        expr = parse_expression("a IN (1)")
        assert isinstance(expr, Comparison)

    def test_arithmetic_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, Arithmetic)
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_unary_minus(self):
        expr = parse_expression("-5")
        # negation of a literal
        assert expr.sql() == "-(5)"

    def test_null_literal(self):
        assert parse_expression("NULL") == Literal(None)

    def test_sql_rendering_roundtrip(self):
        text = "a = 1 AND title LIKE '%x%'"
        expr = parse_expression(text)
        again = parse_expression(expr.sql())
        assert again == expr
