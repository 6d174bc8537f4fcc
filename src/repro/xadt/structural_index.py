"""Structural index of a stored XADT fragment (DESIGN.md §10).

The paper's XADT loses exactly where order access dominates (QS6):
``get_elm_index`` and ``find_key_in_elm`` scan the serialized fragment,
so intra-fragment access is O(fragment bytes).  Native XML stores
(XRecursive, RadegastXDB — see PAPERS.md) win this query class with
persistent structural indexes instead of text scans.  This module is
that index: per fragment, the span directory of
:mod:`repro.xadt.metadata` — whose ``(parent entry, child tag)`` ordinal
arrays resolve ``get_elm_index``'s ``startPos..endPos`` range by array
slicing, and which carries the one directory implementation of every
method — plus an **inverted keyword map**: every maximal word token of
an element's character content posts to the element and its tag, so
``find_key_in_elm`` and ``get_elm`` answer word-key membership without
touching the payload text.  Non-word keys (whitespace/punctuation) fall
back to the directory's bounded per-span scan of just the matching
elements.  No tag-path postings are stored: outermost sets come from
the directory's parent links.

The stored value holds its index, the way an ``indexed`` value holds
its directory: :meth:`XadtValue.structural_index
<repro.xadt.fragment.XadtValue.structural_index>` builds it on the first
routed call (passing the ``xadt.index_build`` fault site and charging the
running statement's memory budget), memoizes it process-wide in the
decode cache keyed on the payload, and keeps it in a write-once slot of
the value.  Nothing on the write path builds, stores or logs an index:
it is derived from the payload, so it needs no staging, publishing or
recovery, and a value rebuilt from a pickle (an Exchange worker's rows)
answers exactly like the original.  A fragment an XADT method returns
has no stored metadata and never gets one.

Routing is per statement: the session layer installs the catalog's
``ExecutionConfig.xadt_structural_index`` flag as the execution
context's ``routing`` pin, an Exchange carries that pin to its fragments
(in a worker and inline alike), and ``methods._access_path`` (once per
column) routes a value through its index when the pin is on.  Unpinned
calls — outside any statement — scan.
"""

from __future__ import annotations

import re
from contextlib import contextmanager

from repro.engine.snapshot import ExecContext, activate, current_context, deactivate
from repro.xadt import fastscan
from repro.xadt.fragment import XadtValue
from repro.xadt.metadata import ENTRY_BYTES, HEADER_BYTES, SpanDirectory, SpanEntry

_WORD_RE = re.compile(r"\w+")

#: modelled bytes per posting (one 32-bit entry id)
_POSTING_BYTES = 4
#: modelled per-key overhead of a postings map entry
_KEY_OVERHEAD = 8


# ---------------------------------------------------------------------------
# per-fragment index
# ---------------------------------------------------------------------------


class StructuralIndex(SpanDirectory):
    """The structural index of one fragment's tagged text: its span
    directory plus an inverted keyword map.

    Built once from the fragment text (for the dict codec, its canonical
    serialization — element serialization is context-free, so subtree
    slices of the rendered text equal the scan's output for the
    subtree).  The methods are the directory's; the keyword map answers
    their two key hooks for word keys, so those never read the text.
    All answers are parity-equal to the fastscan implementations in
    :mod:`repro.xadt.fastscan`; the randomized suite in
    ``tests/xadt/test_structural_index.py`` enforces that.
    """

    def __init__(self, text: str, entries: list[SpanEntry]) -> None:
        super().__init__(text, entries)
        # inverted keyword map: maximal word runs of each element's
        # concatenated character content (the same concatenation
        # fastscan.text_of sees, so tokens never split at nested tags).
        token_entries: dict[str, list[int]] = {}
        tag_tokens: dict[str, set[str]] = {}
        for index, entry in enumerate(entries):
            if entry.content_end <= entry.content_start:
                continue
            tokens = set(_WORD_RE.findall(self._entry_text(index)))
            tag_tokens.setdefault(entry.tag, set()).update(tokens)
            for token in tokens:
                token_entries.setdefault(token, []).append(index)
        self._token_entries = {
            token: tuple(ids) for token, ids in token_entries.items()
        }
        # whole-fragment tokens, under the tag '': covers top-level text
        # and word runs that straddle element boundaries once tags are
        # stripped.
        tag_tokens[""] = set(_WORD_RE.findall(fastscan.text_of(text)))
        # per-tag token blobs: every token of a tag's elements joined on
        # NUL.  A word key is \w+ so a match can never span the
        # separator — word-key membership (exact or substring-of-token)
        # collapses to one C-speed ``key in blob`` test.
        self._blobs = {
            tag: "\x00".join(tokens) for tag, tokens in tag_tokens.items()
        }
        self._byte_size = self._model_bytes(tag_tokens[""])

    @classmethod
    def from_payload(cls, payload: str | bytes, codec: str) -> "StructuralIndex":
        """Build from a stored payload via its canonical text rendering."""
        return cls.build(XadtValue(payload, codec).scan_text())

    def _model_bytes(self, fragment_tokens: set[str]) -> int:
        """Modelled storage cost (the governor charges this on build)."""
        if not self.entries:
            return HEADER_BYTES
        cost = HEADER_BYTES + ENTRY_BYTES * len(self.entries)
        for tag in self._by_tag:
            cost += len(tag.encode("utf-8")) + _KEY_OVERHEAD
        for ids in self._ordinals.values():
            cost += _KEY_OVERHEAD + _POSTING_BYTES * len(ids)
        for token, ids in self._token_entries.items():
            cost += len(token.encode("utf-8")) + _KEY_OVERHEAD
            cost += _POSTING_BYTES * len(ids)
        cost += sum(
            len(t.encode("utf-8")) + _POSTING_BYTES for t in fragment_tokens
        )
        cost += sum(len(b.encode("utf-8")) for b in self._blobs.values())
        return cost

    def byte_size(self) -> int:
        return self._byte_size

    # -- the directory's key hooks, answered from the keyword map ----------

    def _keyed_entries(self, search_key: str) -> "frozenset[int] | None":
        if not _WORD_RE.fullmatch(search_key):
            return None  # non-word key: a bounded scan of the candidates
        return frozenset(
            index
            for token, ids in self._token_entries.items()
            if search_key in token
            for index in ids
        )

    def _has_key(self, search_elm: str, search_key: str) -> bool | None:
        if not _WORD_RE.fullmatch(search_key):
            return None
        return search_key in self._blobs.get(search_elm, "")


# ---------------------------------------------------------------------------
# per-statement routing
# ---------------------------------------------------------------------------

def routing_enabled() -> bool:
    """The running statement's pin; unpinned calls scan."""
    context = current_context()
    return context is not None and context.routing


@contextmanager
def routing(enabled: bool):
    """Pin the access path for a test's or benchmark's calls.

    Inside a running statement it overlays that statement's context —
    same counters, snapshot, budget and work_mem — and restores the pin
    on exit; outside one it installs a bare context whose charges go to
    the sink."""
    context = current_context() or ExecContext(None, None)
    token = activate(
        context.snapshot, context.io, context.budget,
        context.work_mem_bytes, enabled,
    )
    try:
        yield
    finally:
        deactivate(token)


#: the name ``benchmarks/layers`` imports
statement_routing = routing


__all__ = [
    "StructuralIndex",
    "routing",
    "routing_enabled",
    "statement_routing",
]
