"""XADT element metadata (the paper's §4.4/§5 future-work proposal).

    "Perhaps, if we have the metadata associated with each XADT attribute
    to help us quickly access the starting position of each element
    stored inside the XADT data, the performance may be improved."

This module implements that proposal: a :class:`SpanDirectory` records,
for every element occurrence in a fragment, its tag and the four offsets
of its span plus its parent entry — so the XADT methods can jump straight
to the relevant elements instead of scanning the whole payload.  The
``indexed`` codec stores the plain text together with this directory and
pays for it in the storage accounting (about 18 bytes per element, the
size of four 32-bit offsets plus tag/parent references).

The directory is built with the same fast scanner the plain codec uses,
once, at encode time.
"""

from __future__ import annotations

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
    """All element spans of a fragment, indexed by tag and by parent."""

    def __init__(self, entries: list[SpanEntry]):
        self.entries = entries
        self._by_tag: dict[str, list[int]] = {}
        self._children: dict[int, list[int]] = {}
        #: tag -> indices of its non-nested occurrences, filled on demand
        self._outermost: dict[str, list[int]] = {}
        for index, entry in enumerate(entries):
            self._by_tag.setdefault(entry.tag, []).append(index)
            self._children.setdefault(entry.parent, []).append(index)

    @classmethod
    def build(cls, payload: str) -> "SpanDirectory":
        """Scan ``payload`` once and record every element span."""
        entries: list[SpanEntry] = []
        cls._collect(payload, 0, len(payload), -1, 0, entries)
        return cls(entries)

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
        same-tag ancestor), worked out once per directory and tag."""
        indices = self._outermost.get(tag)
        if indices is None:
            entries = self.entries
            indices = []
            for i in self._by_tag.get(tag, ()):
                parent = entries[i].parent
                while parent != -1 and entries[parent].tag != tag:
                    parent = entries[parent].parent
                if parent == -1:
                    indices.append(i)
            self._outermost[tag] = indices
        return indices

    def outermost_of(self, tag: str) -> list[SpanEntry]:
        """Non-nested occurrences of ``tag``, in document order."""
        return [self.entries[i] for i in self.outermost_indices(tag)]

    def top_level(self) -> list[SpanEntry]:
        return [self.entries[i] for i in self._children.get(-1, [])]

    def children_of(self, entry_index: int, tag: str | None = None) -> list[SpanEntry]:
        out = []
        for i in self._children.get(entry_index, []):
            if tag is None or self.entries[i].tag == tag:
                out.append(self.entries[i])
        return out

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


# ---------------------------------------------------------------------------
# method implementations over a directory
# ---------------------------------------------------------------------------


def get_elm_indexed(
    payload: str,
    directory: SpanDirectory,
    root_elm: str,
    search_elm: str,
    search_key: str,
) -> str:
    matched: list[str] = []
    candidates = (
        directory.outermost_of(root_elm) if root_elm else directory.top_level()
    )
    for candidate in candidates:
        if _matches_indexed(payload, directory, candidate, search_elm, search_key):
            matched.append(candidate.slice(payload))
    return "".join(matched)


def _matches_indexed(
    payload: str,
    directory: SpanDirectory,
    candidate: SpanEntry,
    search_elm: str,
    search_key: str,
) -> bool:
    if not search_elm and not search_key:
        return True
    if not search_elm:
        return search_key in fastscan.text_of(candidate.content(payload))
    for entry in directory.descendants_within(candidate, search_elm):
        if not search_key:
            return True
        if search_key in fastscan.text_of(entry.content(payload)):
            return True
    return False


def find_key_in_elm_indexed(
    payload: str,
    directory: SpanDirectory,
    search_elm: str,
    search_key: str,
) -> int:
    if not search_elm:
        return 1 if search_key in fastscan.text_of(payload) else 0
    for entry in directory.spans_of(search_elm):
        if not search_key:
            return 1
        if search_key in fastscan.text_of(entry.content(payload)):
            return 1
    return 0


def get_elm_index_indexed(
    payload: str,
    directory: SpanDirectory,
    parent_elm: str,
    child_elm: str,
    start_pos: int,
    end_pos: int,
) -> str:
    matched: list[str] = []
    if not parent_elm:
        position = 0
        for entry in directory.top_level():
            if entry.tag != child_elm:
                continue
            position += 1
            if start_pos <= position <= end_pos:
                matched.append(entry.slice(payload))
        return "".join(matched)
    for parent_index in directory.outermost_indices(parent_elm):
        position = 0
        for child in directory.children_of(parent_index, child_elm):
            position += 1
            if start_pos <= position <= end_pos:
                matched.append(child.slice(payload))
    return "".join(matched)


def unnest_indexed(
    payload: str, directory: SpanDirectory, tag: str
) -> Iterator[str]:
    if tag:
        for entry in directory.outermost_of(tag):
            yield entry.slice(payload)
    else:
        for entry in directory.top_level():
            yield entry.slice(payload)
