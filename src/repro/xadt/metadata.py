"""XADT element metadata (the paper's §4.4/§5 future-work proposal).

    "Perhaps, if we have the metadata associated with each XADT attribute
    to help us quickly access the starting position of each element
    stored inside the XADT data, the performance may be improved."

This module implements that proposal: a :class:`SpanDirectory` records,
for every element occurrence in a fragment, its tag and the four offsets
of its span plus its parent entry — so the XADT methods can jump straight
to the relevant elements instead of scanning the whole payload.  It is
the one element directory of the package and carries the only directory
implementations of ``getElm`` / ``findKeyInElm`` / ``getElmIndex`` /
``unnest`` (their scan twins are ``fastscan.*_plain``).  The ``indexed``
codec stores the plain text together with this directory and pays for it
in the storage accounting (about 18 bytes per element, the size of four
32-bit offsets plus tag/parent references); the persistent structural
index (:mod:`repro.xadt.structural_index`) is this directory plus an
inverted keyword map plugged into the two ``_keyed_entries`` /
``_has_key`` hooks.

The directory is built with the same fast scanner the plain codec uses,
once, at encode time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from repro.xadt import fastscan

#: modelled bytes per directory entry (4 offsets + parent ref + tag code)
ENTRY_BYTES = 18
#: modelled bytes of directory header (tag dictionary, counts)
HEADER_BYTES = 16


@dataclass(frozen=True)
class SpanEntry:
    """One element occurrence inside a fragment."""

    tag: str
    start: int          #: offset of '<'
    content_start: int  #: offset just past the opening tag's '>'
    content_end: int    #: offset of the matching '</' (== start for empty)
    end: int            #: offset just past the closing '>'
    parent: int         #: index of the parent entry, -1 for top level
    depth: int          #: 0 for top-level elements

    def slice(self, payload: str) -> str:
        return payload[self.start:self.end]

    def content(self, payload: str) -> str:
        return payload[self.content_start:self.content_end]

    def contains(self, other: "SpanEntry") -> bool:
        return self.start <= other.start and other.end <= self.end


class SpanDirectory:
    """All element spans of a fragment's text, in document (pre-)order,
    indexed by tag and by ``(parent entry, child tag)``."""

    def __init__(self, text: str, entries: list[SpanEntry]):
        self.text = text
        self.entries = entries
        self._by_tag: dict[str, list[int]] = {}
        #: (parent entry, child tag) -> that parent's children with the
        #: tag, in document order: getElmIndex's ordinal arrays
        self._ordinals: dict[tuple[int, str], list[int]] = {}
        #: tag -> indices of its non-nested occurrences, filled on demand
        self._outermost: dict[str, list[int]] = {}
        for index, entry in enumerate(entries):
            self._by_tag.setdefault(entry.tag, []).append(index)
            self._ordinals.setdefault((entry.parent, entry.tag), []).append(index)

    @classmethod
    def build(cls, payload: str) -> "SpanDirectory":
        """Scan ``payload`` once and record every element span."""
        entries: list[SpanEntry] = []
        cls._collect(payload, 0, len(payload), -1, 0, entries)
        return cls(payload, entries)

    @classmethod
    def _collect(
        cls,
        payload: str,
        start: int,
        end: int,
        parent: int,
        depth: int,
        entries: list[SpanEntry],
    ) -> None:
        for tag, span in fastscan.top_level_spans(payload, start, end):
            index = len(entries)
            entries.append(
                SpanEntry(
                    tag, span.start, span.content_start,
                    span.content_end, span.end, parent, depth,
                )
            )
            if span.content_end > span.content_start:
                cls._collect(
                    payload, span.content_start, span.content_end,
                    index, depth + 1, entries,
                )

    # -- queries -----------------------------------------------------------

    def has_tag(self, tag: str) -> bool:
        """O(1): does any element with this tag occur in the fragment?

        The scan-level pushdown of ``findKeyInElm`` predicates uses this
        to reject non-matching documents without touching the payload.
        """
        return tag in self._by_tag

    def spans_of(self, tag: str) -> list[SpanEntry]:
        """All occurrences of ``tag``, in document order."""
        return [self.entries[i] for i in self._by_tag.get(tag, [])]

    def outermost_indices(self, tag: str) -> list[int]:
        """Entry indices of the non-nested occurrences of ``tag`` (no
        same-tag ancestor) — the methods' candidate elements; as in the
        methods, ``''`` names the fragment's top-level elements.  Worked
        out once per directory and tag."""
        indices = self._outermost.get(tag)
        if indices is None:
            entries = self.entries
            indices = []
            for i in self._by_tag.get(tag, ()) if tag else range(len(entries)):
                parent = entries[i].parent
                if tag:  # climb to the nearest same-tag ancestor, if any
                    while parent != -1 and entries[parent].tag != tag:
                        parent = entries[parent].parent
                if parent == -1:
                    indices.append(i)
            self._outermost[tag] = indices  # whole: other threads read it
        return indices

    def outermost_of(self, tag: str) -> list[SpanEntry]:
        """Non-nested occurrences of ``tag``, in document order."""
        return [self.entries[i] for i in self.outermost_indices(tag)]

    def top_level(self) -> list[SpanEntry]:
        return self.outermost_of("")

    def descendants_within(self, ancestor: SpanEntry, tag: str) -> list[SpanEntry]:
        """Occurrences of ``tag`` inside ``ancestor`` (including itself)."""
        return [
            entry
            for entry in self.spans_of(tag)
            if ancestor.contains(entry)
        ]

    def byte_size(self) -> int:
        """Modelled storage cost of the directory."""
        if not self.entries:
            return 0
        tag_bytes = sum(len(t.encode("utf-8")) + 2 for t in self._by_tag)
        return HEADER_BYTES + tag_bytes + ENTRY_BYTES * len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    # -- the XADT methods over the directory -------------------------------
    #
    # Every answer is a slice (or a join of slices) of ``self.text`` and
    # byte-identical to the ``fastscan.*_plain`` twin's.

    def _keyed_entries(self, search_key: str) -> "frozenset[int] | None":
        """Hook: the entries whose text content holds ``search_key``, or
        None when only reading their text can tell (the default)."""
        return None

    def _has_key(self, search_elm: str, search_key: str) -> bool | None:
        """Hook: does any ``search_elm`` element's text content (the whole
        fragment's for ``''``) hold ``search_key``?  None = unknown."""
        return None

    def _entry_text(self, index: int) -> str:
        return fastscan.text_of(self.entries[index].content(self.text))

    def get_elm(
        self, root_elm: str, search_elm: str, search_key: str, level: int = -1
    ) -> str:
        """``getElm``; ``level < 0`` is unlimited, the root is level 0."""
        roots = self.outermost_indices(root_elm)
        if search_elm or search_key:
            keyed = self._keyed_entries(search_key) if search_key else None
            roots = [
                root for root in roots
                if self._matches(root, search_elm, search_key, level, keyed)
            ]
        text, entries = self.text, self.entries
        return "".join([entries[i].slice(text) for i in roots])

    def _within(self, root_index: int, tag: str, level: int) -> Iterator[int]:
        """The ``tag`` entries of a root's subtree (itself included: QE1's
        rootElm == searchElm case) at most ``level`` levels below it.  In
        pre-order a subtree is the run of entries up to the root's end."""
        entries = self.entries
        root = entries[root_index]
        ids = self._by_tag.get(tag, ())
        for k in range(bisect_left(ids, root_index), len(ids)):
            entry = entries[ids[k]]
            if entry.start >= root.end:
                return
            if level < 0 or entry.depth - root.depth <= level:
                yield ids[k]

    def _matches(
        self,
        root: int,
        search_elm: str,
        search_key: str,
        level: int,
        keyed: "frozenset[int] | None",
    ) -> bool:
        hits = self._within(root, search_elm, level) if search_elm else (root,)
        if not search_key:
            return any(True for _ in hits)
        if keyed is not None:
            return not keyed.isdisjoint(hits)
        return any(search_key in self._entry_text(i) for i in hits)

    def find_key(self, search_elm: str, search_key: str) -> int:
        """``findKeyInElm`` (same 0/1 contract)."""
        if search_elm and search_elm not in self._by_tag:
            return 0
        if not search_key:
            return 1
        known = self._has_key(search_elm, search_key)
        if known is not None:
            return 1 if known else 0
        if not search_elm:
            return int(search_key in fastscan.text_of(self.text))
        # an inner occurrence's text is part of its outermost ancestor's
        return int(any(
            search_key in self._entry_text(i)
            for i in self.outermost_indices(search_elm)
        ))

    def get_elm_index(
        self, parent_elm: str, child_elm: str, start_pos: int, end_pos: int
    ) -> str:
        """``getElmIndex``: one ordinal-array slice per parent."""
        lo = max(start_pos - 1, 0)
        hi = max(end_pos, 0)
        if hi <= lo:
            return ""
        text, entries, ordinals = self.text, self.entries, self._ordinals
        if not parent_elm:  # QS6's shape: the top-level sibling list
            return "".join(
                [entries[i].slice(text)
                 for i in ordinals.get((-1, child_elm), ())[lo:hi]]
            )
        return "".join([
            entries[i].slice(text)
            for parent in self.outermost_indices(parent_elm)
            for i in ordinals.get((parent, child_elm), ())[lo:hi]
        ])

    def unnest(self, tag: str) -> list[str]:
        """``unnest``: the slices of the (non-nested) ``tag`` elements."""
        text, entries = self.text, self.entries
        return [entries[i].slice(text) for i in self.outermost_indices(tag)]
