"""Failure injection: the engine fails loudly, early, and catchably."""

import pytest

from repro.errors import (
    CatalogError,
    ReproError,
    UdfError,
    XadtCodecError,
)
from repro.xadt import XadtValue, find_key_in_elm


@pytest.fixture()
def db(empty_db):
    empty_db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, frag XADT)")
    empty_db.insert("t", (1, XadtValue.from_xml("<a>x</a>")))
    empty_db.insert("t", (2, XadtValue.from_xml("<b>y</b>")))
    return empty_db


class TestIndexHardening:
    def test_btree_over_xadt_rejected_at_create_time(self, db):
        with pytest.raises(CatalogError):
            db.create_index("bad", "t", "frag", "btree")
        assert db.live_index("t", "frag") is None

    def test_hash_over_xadt_allowed(self, db):
        db.create_index("ok", "t", "frag", "hash")
        assert db.live_index("t", "frag") is not None

    def test_advisor_never_suggests_xadt_indexes(self, db):
        ddl = db.advise_indexes(
            ["SELECT id FROM t WHERE frag = xadt('<a>x</a>')"]
        )
        assert not any("frag" in statement for statement in ddl)


class TestUdfFailures:
    def test_foreign_exception_wrapped_with_context(self, db):
        db.registry.register_scalar("boom", lambda v: 1 / 0,
                                    min_args=1, max_args=1)
        with pytest.raises(UdfError, match="boom.*ZeroDivisionError"):
            db.execute("SELECT boom(id) FROM t")

    def test_library_errors_pass_through(self, db):
        # findKeyInElm('') is the XADT's own argument error: keep its type
        from repro.errors import XadtMethodError

        with pytest.raises(XadtMethodError):
            db.execute("SELECT findKeyInElm(frag, '', '') FROM t")


class TestCorruptPayloads:
    def test_corrupt_dict_payload_surfaces_codec_error(self):
        bad = XadtValue(b"\x05garbage", "dict")
        with pytest.raises(XadtCodecError):
            find_key_in_elm(bad, "a", "x")

    def test_truncated_dict_payload(self):
        good = XadtValue.from_xml("<a>hello world</a>", "dict")
        bad = XadtValue(good.payload[:-2], "dict")
        with pytest.raises(XadtCodecError):
            bad.to_xml()

    def test_everything_is_catchable_at_the_base(self, db):
        bad = XadtValue(b"\x05garbage", "dict")
        db.insert("t", (3, bad))
        with pytest.raises(ReproError):
            db.execute("SELECT findKeyInElm(frag, 'a', 'x') FROM t")


class TestXadtInRelationalContexts:
    def test_order_by_xadt_does_not_crash(self, db):
        result = db.execute("SELECT frag FROM t ORDER BY frag")
        assert len(result) == 2

    def test_group_by_xadt(self, db):
        db.insert("t", (3, XadtValue.from_xml("<a>x</a>")))
        result = db.execute("SELECT frag, COUNT(*) FROM t GROUP BY frag")
        counts = {row[0].to_xml(): row[1] for row in result.rows}
        assert counts["<a>x</a>"] == 2

    def test_xadt_equality_predicate(self, db):
        result = db.execute(
            "SELECT id FROM t WHERE frag = xadt('<a>x</a>')"
        )
        assert result.column("id") == [1]

    def test_xadt_range_predicate_rejected(self, db):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            db.execute("SELECT id FROM t WHERE frag < xadt('<a>x</a>')")
