"""The XADT: the paper's XML abstract data type.

Fragment values with three storage codecs — plain text, XMill-inspired
dictionary compression (§3.4.1), and ``indexed`` (plain text plus the
per-fragment element-span directory the paper proposes as future work in
§4.4/§5) — the query methods of §3.4.2 (plus the ``elmText``/``elmEquals``
conveniences), the unnest table UDF of §3.5, and the codec chooser of
§4.1.  Each method is one column body (``methods.*_column``,
``unnest.unnest_column``) whose scalar form is the body over one value;
per value it takes one of two access paths, the tag scan (``fastscan``)
or the element directory with its keyword map (``metadata.SpanDirectory``)
an ``indexed`` value stores, and ``methods._access_path`` makes that
decision from the value alone.  A run of one object in consecutive rows
(a lateral's outer value) is answered once (``methods._run_column``).
"""

from repro.xadt.chooser import CodecDecision, choose_codec
from repro.xadt.fragment import XadtValue, coerce_fragment
from repro.xadt.methods import (
    elm_equals,
    elm_text,
    find_key_in_elm,
    get_elm,
    get_elm_index,
)
from repro.xadt.register import register_xadt_functions
from repro.xadt.metadata import SpanDirectory
from repro.xadt.storage import DICT, INDEXED, PLAIN
from repro.xadt.unnest import unnest, unnest_values

__all__ = [
    "CodecDecision",
    "DICT",
    "INDEXED",
    "PLAIN",
    "SpanDirectory",
    "XadtValue",
    "choose_codec",
    "coerce_fragment",
    "elm_equals",
    "elm_text",
    "find_key_in_elm",
    "get_elm",
    "get_elm_index",
    "register_xadt_functions",
    "unnest",
    "unnest_values",
]
