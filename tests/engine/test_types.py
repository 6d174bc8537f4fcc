"""SQL types: validation, coercion, byte widths."""

import pytest

from repro.engine.schema import Column, TableSchema
from repro.engine.storage import HeapTable
from repro.engine.types import (
    INTEGER,
    VARCHAR,
    XADT,
    VarcharType,
    type_from_name,
)
from repro.errors import TypeMismatchError
from repro.xadt import XadtValue


class TestInteger:
    def test_accepts_int(self):
        assert INTEGER.validate(42) == 42

    def test_accepts_null(self):
        assert INTEGER.validate(None) is None

    def test_coerces_numeric_string(self):
        assert INTEGER.validate("-7") == -7

    def test_rejects_bool(self):
        with pytest.raises(TypeMismatchError):
            INTEGER.validate(True)

    def test_rejects_out_of_range(self):
        with pytest.raises(TypeMismatchError):
            INTEGER.validate(2**31)

    def test_rejects_text(self):
        with pytest.raises(TypeMismatchError):
            INTEGER.validate("seven")

    def test_width(self):
        assert INTEGER.byte_width(5) == 4
        assert INTEGER.byte_width(None) == 0

    # str.isdigit admits what int() refuses ("--5", a superscript) and
    # the other way round nothing: each of these once raised a bare
    # ValueError, or must keep coercing
    DIGIT_LOOKALIKES = [
        ("--5", None), ("²", None), ("-", None), ("- 5", None), ("٣", 3),
    ]

    @pytest.mark.parametrize("text,stored", DIGIT_LOOKALIKES)
    def test_digit_lookalikes_stay_in_the_taxonomy(self, text, stored):
        if stored is None:
            with pytest.raises(TypeMismatchError):
                INTEGER.validate(text)
        else:
            assert INTEGER.validate(text) == stored

    @pytest.mark.parametrize("text,stored", DIGIT_LOOKALIKES)
    def test_batch_kernel_and_row_path_agree(self, text, stored):
        def outcome(load):
            table = HeapTable(TableSchema("t", [Column("n", INTEGER)]))
            try:
                load(table)
            except TypeMismatchError as error:
                return str(error), table.rows
            return None, table.rows

        batch = [(1,), (text,), (3,)]
        by_batch = outcome(lambda table: table.bulk_insert(batch))
        by_row = outcome(lambda table: [table.insert(row) for row in batch])
        if stored is None:
            assert by_batch[0] == by_row[0] is not None
            assert by_batch[1] == []  # the batch is all-or-nothing
        else:
            assert by_batch == by_row == (None, [(1,), (stored,), (3,)])


class TestVarchar:
    def test_accepts_string(self):
        assert VARCHAR.validate("hi") == "hi"

    def test_coerces_int(self):
        assert VARCHAR.validate(7) == "7"

    def test_length_limit_enforced(self):
        bounded = VarcharType(3)
        assert bounded.validate("abc") == "abc"
        with pytest.raises(TypeMismatchError):
            bounded.validate("abcd")

    def test_width_counts_utf8(self):
        assert VARCHAR.byte_width("abc") == 2 + 3
        assert VARCHAR.byte_width("é") == 2 + 2

    def test_equality_by_length(self):
        assert VarcharType(3) == VarcharType(3)
        assert VarcharType(3) != VarcharType(4)
        assert VARCHAR == VarcharType(None)


class TestXadt:
    def test_accepts_fragment(self):
        value = XadtValue.from_xml("<a>x</a>")
        assert XADT.validate(value) is value

    def test_rejects_plain_string(self):
        with pytest.raises(TypeMismatchError):
            XADT.validate("<a/>")

    def test_width_includes_payload(self):
        value = XadtValue.from_xml("<a>x</a>")
        assert XADT.byte_width(value) == 4 + value.byte_size()


class TestTypeFromName:
    @pytest.mark.parametrize(
        "name,expected",
        [("INTEGER", INTEGER), ("int", INTEGER), ("VARCHAR", VARCHAR),
         ("string", VARCHAR), ("XADT", XADT), ("varchar(12)", VarcharType(12))],
    )
    def test_known_names(self, name, expected):
        assert type_from_name(name) == expected

    def test_unknown_name_rejected(self):
        with pytest.raises(TypeMismatchError):
            type_from_name("BLOB")

    def test_bad_varchar_length_rejected(self):
        with pytest.raises(TypeMismatchError):
            type_from_name("VARCHAR(x)")
