"""The XADT: the paper's XML abstract data type.

Fragment values with three storage codecs — plain text, XMill-inspired
dictionary compression (§3.4.1), and ``indexed`` (plain text plus the
per-fragment element-span directory the paper proposes as future work in
§4.4/§5) — the query methods of §3.4.2 (plus the ``elmText``/``elmEquals``
conveniences), the unnest table UDF of §3.5, and the codec chooser of
§4.1.  Each method has two implementations, the tag scan (``fastscan``)
and the element directory (``metadata.SpanDirectory``, which the
opt-in structural index of ``structural_index`` extends with a keyword
map); ``methods._directory`` picks one per call.
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
