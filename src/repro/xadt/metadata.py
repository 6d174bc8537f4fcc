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
``unnest`` (their scan twins are ``fastscan.*_plain``).

The directory an ``indexed`` value stores (``XadtValue.directory``) also
carries an inverted **keyword map**: every maximal word token of an
element's character content posts to the element and its tag, so
``findKeyInElm`` and ``getElm`` answer word-key membership without
touching the payload text; a non-word key (whitespace, punctuation)
reads just the candidate elements.  The ``indexed`` codec pays for all of
it in the storage accounting (:meth:`SpanDirectory.byte_size`).  A
directory built for one ``getElm`` call over a scan-codec value
(``keywords=False``) has no keyword map and pays for none.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from repro.xadt import fastscan

#: modelled bytes per directory entry (4 offsets + parent ref + tag code)
ENTRY_BYTES = 18
#: modelled bytes of directory header (tag dictionary, counts)
HEADER_BYTES = 16
#: modelled bytes per keyword posting (one 32-bit entry id)
POSTING_BYTES = 4
#: modelled per-token overhead of a keyword-map entry
KEY_OVERHEAD = 8

_WORD_RE = re.compile(r"\w+")


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

    def __init__(
        self, text: str, entries: list[SpanEntry], keywords: bool = True
    ) -> None:
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
        #: the keyword map: token -> entries whose content holds it, and
        #: tag -> its elements' tokens joined on NUL (None: no map)
        self._token_entries: dict[str, tuple[int, ...]] | None = None
        self._blobs: dict[str, str] | None = None
        #: modelled bytes of the keyword map (0: no map)
        self._keyword_bytes = 0
        if keywords:
            self._map_keywords()

    def _map_keywords(self) -> None:
        """Post the maximal word runs of each element's concatenated
        character content (the concatenation ``fastscan.text_of`` sees,
        so a token never splits at a nested tag)."""
        token_entries: dict[str, list[int]] = {}
        tag_tokens: dict[str, set[str]] = {}
        for index, entry in enumerate(self.entries):
            if entry.content_end <= entry.content_start:
                continue
            tokens = set(_WORD_RE.findall(self._entry_text(index)))
            tag_tokens.setdefault(entry.tag, set()).update(tokens)
            for token in tokens:
                token_entries.setdefault(token, []).append(index)
        self._token_entries = {
            token: tuple(ids) for token, ids in token_entries.items()
        }
        # whole-fragment tokens under the tag '': top-level text and word
        # runs that straddle element boundaries once tags are stripped
        fragment_tokens = set(_WORD_RE.findall(fastscan.text_of(self.text)))
        tag_tokens[""] = fragment_tokens
        # a word key is \w+, so a match never spans the NUL separator:
        # word-key membership (exact or substring of a token) is one
        # ``key in blob`` test
        self._blobs = {
            tag: "\x00".join(tokens) for tag, tokens in tag_tokens.items()
        }
        # stored: each token once with its postings, and the fragment's
        # own token set; the per-tag blobs are derived from those in
        # memory, like the ordinal arrays, and cost nothing
        self._keyword_bytes = sum(
            len(token.encode("utf-8")) + KEY_OVERHEAD + POSTING_BYTES * len(ids)
            for token, ids in token_entries.items()
        ) + sum(
            len(token.encode("utf-8")) + POSTING_BYTES for token in fragment_tokens
        )

    @classmethod
    def build(cls, payload: str, keywords: bool = True) -> "SpanDirectory":
        """Scan ``payload`` once and record every element span (and,
        unless ``keywords`` is False, map its words)."""
        entries: list[SpanEntry] = []
        cls._collect(payload, 0, len(payload), -1, 0, entries)
        return cls(payload, entries, keywords)

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
        """Modelled storage cost: the entries and the keyword map."""
        if not self.entries:
            return self._keyword_bytes
        tag_bytes = sum(len(t.encode("utf-8")) + 2 for t in self._by_tag)
        return (
            HEADER_BYTES + tag_bytes + ENTRY_BYTES * len(self.entries)
            + self._keyword_bytes
        )

    def __len__(self) -> int:
        return len(self.entries)

    # -- the XADT methods over the directory -------------------------------
    #
    # Every answer is a slice (or a join of slices) of ``self.text`` and
    # byte-identical to the ``fastscan.*_plain`` twin's.

    def keyed(self, search_key: str) -> bool:
        """Does the keyword map answer ``search_key`` (a word key, and a
        map to look it up in)?  Otherwise the candidates' text is read."""
        return (
            self._blobs is not None and _WORD_RE.fullmatch(search_key) is not None
        )

    def _keyed_entries(self, search_key: str) -> "frozenset[int] | None":
        """The entries whose text content holds ``search_key``, or None
        when only reading their text can tell."""
        if not self.keyed(search_key):
            return None
        return frozenset(
            index
            for token, ids in self._token_entries.items()
            if search_key in token
            for index in ids
        )

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
        if self.keyed(search_key):
            return int(search_key in self._blobs.get(search_elm, ""))
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
