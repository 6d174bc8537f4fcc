"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    select   := SELECT [DISTINCT] items FROM from_items [WHERE expr]
                [GROUP BY exprs] [HAVING expr]
                [ORDER BY order_items] [LIMIT n]
    items    := '*' | item (',' item)*
    item     := expr [[AS] alias]
    from     := table [alias] | TABLE '(' call ')' alias
    expr     := or_expr with the usual precedence
                (OR < AND < NOT < comparison/LIKE/IS/BETWEEN/IN < +- < */ < unary)

DDL/DML: CREATE TABLE, CREATE [UNIQUE] INDEX ... ON t(col) [USING kind],
INSERT INTO t [cols] VALUES (...), (...), DROP TABLE.
"""

from __future__ import annotations

from repro.engine.expr import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    Parameter,
    Star,
)
from repro.engine.sql.ast import (
    ColumnDef,
    CreateIndexStmt,
    CreateTableStmt,
    DropTableStmt,
    FromItem,
    InsertStmt,
    OrderItem,
    SelectItem,
    SelectStmt,
    Statement,
    TableFunctionRef,
    TableRef,
)
from repro.engine.sql.lexer import Token, tokenize
from repro.errors import SqlSyntaxError


def parse_sql(sql: str) -> Statement:
    """Parse a single SQL statement."""
    parser = _Parser(tokenize(sql), sql)
    statement = parser.parse_statement()
    parser.expect_end()
    return statement


def parse_expression(text: str) -> Expr:
    """Parse a standalone expression (used by tests and tools)."""
    parser = _Parser(tokenize(text), text)
    expr = parser.parse_expr()
    parser.expect_end()
    return expr


class _Parser:
    def __init__(self, tokens: list[Token], sql: str) -> None:
        self._tokens = tokens
        self._pos = 0
        self._sql = sql
        #: '?' markers seen so far; markers are numbered left to right
        self._parameters = 0

    # -- token plumbing -----------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "eof":
            self._pos += 1
        return token

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _accept_symbol(self, symbol: str) -> bool:
        if self._peek().is_symbol(symbol):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        token = self._advance()
        if not token.is_keyword(word):
            raise self._error(f"expected {word.upper()}", token)

    def _expect_symbol(self, symbol: str) -> None:
        token = self._advance()
        if not token.is_symbol(symbol):
            raise self._error(f"expected {symbol!r}", token)

    def _expect_ident(self) -> str:
        token = self._advance()
        if token.kind != "ident":
            raise self._error("expected an identifier", token)
        return token.text

    def _expect_number(self) -> int:
        token = self._advance()
        if token.kind != "number" or "." in token.text:
            raise self._error("expected an integer", token)
        return int(token.text)

    def _error(self, message: str, token: Token | None = None) -> SqlSyntaxError:
        token = token or self._peek()
        found = token.text or "end of input"
        return SqlSyntaxError(f"{message}, found {found!r} (offset {token.position})")

    def expect_end(self) -> None:
        self._accept_symbol(";")
        token = self._peek()
        if token.kind != "eof":
            raise self._error("unexpected trailing input", token)

    # -- statements ------------------------------------------------------------

    def parse_statement(self) -> Statement:
        token = self._peek()
        if token.is_keyword("select"):
            return self.parse_select()
        if token.is_keyword("create"):
            return self._parse_create()
        if token.is_keyword("insert"):
            return self._parse_insert()
        if token.is_keyword("drop"):
            return self._parse_drop()
        raise self._error("expected SELECT, CREATE, INSERT, or DROP", token)

    def parse_select(self) -> SelectStmt:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        items = self._parse_select_items()
        self._expect_keyword("from")
        from_items = [self._parse_from_item()]
        while self._accept_symbol(","):
            from_items.append(self._parse_from_item())
        where = self.parse_expr() if self._accept_keyword("where") else None

        group_by: list[Expr] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self.parse_expr())
            while self._accept_symbol(","):
                group_by.append(self.parse_expr())

        having = self.parse_expr() if self._accept_keyword("having") else None

        order_by: list[OrderItem] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._accept_symbol(","):
                order_by.append(self._parse_order_item())

        limit = None
        if self._accept_keyword("limit"):
            limit = self._expect_number()

        return SelectStmt(
            items=items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_items(self) -> list[SelectItem]:
        if self._peek().is_symbol("*") and not self._peek(1).is_symbol("."):
            self._advance()
            return [SelectItem(Star(), None)]
        items = [self._parse_select_item()]
        while self._accept_symbol(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> SelectItem:
        expr = self.parse_expr()
        alias: str | None = None
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return SelectItem(expr, alias)

    def _parse_from_item(self) -> FromItem:
        if self._accept_keyword("table"):
            self._expect_symbol("(")
            name = self._expect_ident()
            call = self._parse_call(name)
            self._expect_symbol(")")
            alias = self._expect_ident()
            return TableFunctionRef(call, alias)
        table = self._expect_ident()
        alias = table
        if self._accept_keyword("as"):
            alias = self._expect_ident()
        elif self._peek().kind == "ident":
            alias = self._expect_ident()
        return TableRef(table, alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        descending = False
        if self._accept_keyword("desc"):
            descending = True
        else:
            self._accept_keyword("asc")
        return OrderItem(expr, descending)

    def _parse_create(self) -> Statement:
        self._expect_keyword("create")
        if self._accept_keyword("table"):
            return self._parse_create_table()
        unique = self._accept_keyword("unique")
        self._expect_keyword("index")
        name = self._expect_ident()
        self._expect_keyword("on")
        table = self._expect_ident()
        self._expect_symbol("(")
        column = self._expect_ident()
        self._expect_symbol(")")
        kind = "btree"
        if self._accept_keyword("using"):
            kind = self._expect_ident().lower()
            if kind not in ("btree", "hash"):
                raise self._error(f"unknown index kind {kind!r}")
        return CreateIndexStmt(name, table, column, kind, unique)

    def _parse_create_table(self) -> CreateTableStmt:
        table = self._expect_ident()
        self._expect_symbol("(")
        columns = [self._parse_column_def()]
        while self._accept_symbol(","):
            columns.append(self._parse_column_def())
        self._expect_symbol(")")
        return CreateTableStmt(table, columns)

    def _parse_column_def(self) -> ColumnDef:
        name = self._expect_ident()
        token = self._advance()
        if token.kind != "ident":
            raise self._error("expected a type name", token)
        type_name = token.text
        if self._accept_symbol("("):
            length = self._expect_number()
            self._expect_symbol(")")
            type_name = f"{type_name}({length})"
        primary = False
        if self._accept_keyword("primary"):
            self._expect_keyword("key")
            primary = True
        return ColumnDef(name, type_name, primary)

    def _parse_insert(self) -> InsertStmt:
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_ident()
        columns: list[str] = []
        if self._accept_symbol("("):
            columns.append(self._expect_ident())
            while self._accept_symbol(","):
                columns.append(self._expect_ident())
            self._expect_symbol(")")
        self._expect_keyword("values")
        rows = [self._parse_value_row()]
        while self._accept_symbol(","):
            rows.append(self._parse_value_row())
        return InsertStmt(table, columns, rows)

    def _parse_value_row(self) -> list[Expr]:
        self._expect_symbol("(")
        row = [self.parse_expr()]
        while self._accept_symbol(","):
            row.append(self.parse_expr())
        self._expect_symbol(")")
        return row

    def _parse_drop(self) -> DropTableStmt:
        self._expect_keyword("drop")
        self._expect_keyword("table")
        return DropTableStmt(self._expect_ident())

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        items = [left]
        while self._accept_keyword("or"):
            items.append(self._parse_and())
        if len(items) == 1:
            return left
        return Or(tuple(items))

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        items = [left]
        while self._accept_keyword("and"):
            items.append(self._parse_not())
        if len(items) == 1:
            return left
        return And(tuple(items))

    def _parse_not(self) -> Expr:
        if self._accept_keyword("not"):
            return Not(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        token = self._peek()
        if token.kind == "symbol" and token.text in ("=", "<>", "<", "<=", ">", ">="):
            op = self._advance().text
            right = self._parse_additive()
            return Comparison(op, left, right)
        negated = False
        if token.is_keyword("not") and self._peek(1).kind == "keyword" and (
            self._peek(1).text in ("like", "in")
        ):
            self._advance()
            negated = True
            token = self._peek()
        if token.is_keyword("like"):
            self._advance()
            pattern_token = self._advance()
            if pattern_token.kind != "string":
                raise self._error("LIKE requires a string literal pattern", pattern_token)
            return Like(left, pattern_token.text, negated)
        if token.is_keyword("in"):
            self._advance()
            self._expect_symbol("(")
            options = [self.parse_expr()]
            while self._accept_symbol(","):
                options.append(self.parse_expr())
            self._expect_symbol(")")
            comparisons: tuple[Expr, ...] = tuple(
                Comparison("=", left, option) for option in options
            )
            membership: Expr = comparisons[0] if len(comparisons) == 1 else Or(comparisons)
            return Not(membership) if negated else membership
        if token.is_keyword("between"):
            self._advance()
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return And((Comparison(">=", left, low), Comparison("<=", left, high)))
        if token.is_keyword("is"):
            self._advance()
            negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return IsNull(left, negated)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.is_symbol("+") or token.is_symbol("-"):
                op = self._advance().text
                right = self._parse_multiplicative()
                left = Arithmetic(op, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.is_symbol("*") or token.is_symbol("/"):
                op = self._advance().text
                right = self._parse_unary()
                left = Arithmetic(op, left, right)
            else:
                return left

    def _parse_unary(self) -> Expr:
        if self._accept_symbol("-"):
            return Negate(self._parse_unary())
        self._accept_symbol("+")
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._advance()
        if token.kind == "number":
            if "." in token.text:
                return Literal(float(token.text))
            return Literal(int(token.text))
        if token.kind == "string":
            return Literal(token.text)
        if token.is_keyword("null"):
            return Literal(None)
        if token.is_symbol("?"):
            marker = Parameter(self._parameters)
            self._parameters += 1
            return marker
        if token.is_symbol("("):
            expr = self.parse_expr()
            self._expect_symbol(")")
            return expr
        if token.is_symbol("*"):
            return Star()
        if token.kind == "ident":
            if self._peek().is_symbol("("):
                return self._parse_call(token.text)
            if self._peek().is_symbol("."):
                self._advance()
                if self._accept_symbol("*"):
                    return Star()
                name = self._expect_ident()
                return ColumnRef(token.text, name)
            return ColumnRef(None, token.text)
        raise self._error("expected an expression", token)

    def _parse_call(self, name: str) -> FuncCall:
        self._expect_symbol("(")
        distinct = self._accept_keyword("distinct")
        args: list[Expr] = []
        if not self._peek().is_symbol(")"):
            args.append(self.parse_expr())
            while self._accept_symbol(","):
                args.append(self.parse_expr())
        self._expect_symbol(")")
        return FuncCall(name, tuple(args), distinct)
