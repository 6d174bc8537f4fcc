"""The wire protocol: length-prefixed JSON frames and typed errors.

One frame is a 4-byte big-endian length followed by that many bytes of
UTF-8 JSON.  Requests and responses are JSON objects; every request
carries an ``op`` and a client-chosen ``id`` that the response echoes,
so a client can detect a desynchronized stream immediately (a mismatch
means a protocol bug, never silent corruption).

Operations (DESIGN.md §14):

=================  =====================================================
op                 meaning
=================  =====================================================
``hello``          handshake: protocol version + client name
``execute``        run one statement (``sql`` text or a prepared
                   ``stmt`` id) with optional ``params``,
                   ``timeout_ms`` and ``fetch_size``
``execute_many``   prepare once, execute per bind row; returns counts
``prepare``        server-side prepared statement; returns a stmt id
``fetch``          next chunk of a paged result (``cursor`` id)
``close_stmt``     deallocate a prepared statement
``close_cursor``   discard a paged result early
``ping``           liveness probe (used by drain tests)
``close``          orderly goodbye
=================  =====================================================

**A result is encoded once, where it was computed.**  The executor
thread that ran the statement turns its rows into page text with
:func:`encode_page` — one C-encoder walk over the engine's own row
tuples, :func:`jsonable_value`'s fallback as the ``default`` hook — and
:meth:`ResultPager.body` / :func:`seal_frame` splice the envelope around
that text, so the event loop never touches a row.  A page is cut at row
granularity by *encoded bytes* (:data:`PAGE_BYTES`) unless the request
names a ``fetch_size``, which cuts by rows exactly as before; either way
a page never exceeds the frame cap, and a single row that cannot fit one
frame is a typed :class:`~repro.errors.ResourceExceeded`, not a dropped
connection.  The frames are the same JSON as ever: a client that loops
on ``more`` sees the same rows in the same order, only page boundaries
moved (``PROTOCOL_VERSION`` is unchanged).

**Errors are typed end to end.**  A failure serializes as
``{"code": <ReproError class name>, "message", "transient",
"retry_after"}``; :func:`raise_wire_error` re-raises the *same* class on
the client (codes resolve against the :mod:`repro.errors` taxonomy), so
``except StatementTimeout`` / ``except Overloaded`` work identically
in-process and over the wire.  An unknown code degrades to
:class:`~repro.errors.ServerError` (or :class:`~repro.errors.TransientError`
when the payload says it is retryable) rather than an untyped exception.
"""

from __future__ import annotations

import json
import struct

import repro.errors as _errors
from repro.errors import (
    Overloaded,
    ProtocolError,
    ReproError,
    ResourceExceeded,
    ServerError,
    TransientError,
    is_transient,
)

#: the protocol generation; bumped on incompatible frame/message changes
PROTOCOL_VERSION = 1

#: refuse frames larger than this (a corrupt length prefix must not
#: make the reader try to buffer gigabytes)
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: rows per page the server used before pages were cut by bytes; no
#: longer read by the server, kept for importers that model that framing
DEFAULT_FETCH_SIZE = 512

#: encoded bytes of rows per response frame when the request names no
#: ``fetch_size``.  1 MiB = 1/16 of the frame cap: large enough that
#: every paper query is one round trip (the widest, QS1 at scale 2,
#: encodes to 218 KB under Hybrid and 241 KB under XORator, where 512-row
#: pages made it eight and two), small enough that a client waits for
#: ~10 ms of encoding, not the whole result, before its first row and
#: that a stalled client pins at most a page per cursor in the server's
#: write buffer.  A constant, not an option: a client that wants other
#: boundaries says so per request with ``fetch_size``.
PAGE_BYTES = 1024 * 1024

#: a page's encoder calls take 1, 16, 256, ... rows: each chunk's density
#: sizes the next, and this factor bounds what a wrong guess re-encodes
_CHUNK_GROWTH = 16

#: room kept under the frame cap for what :meth:`ResultPager.body` and
#: :func:`seal_frame` append after the rows (row_count, cursor, more, id)
_ENVELOPE_TAIL_BYTES = 256

_LENGTH = struct.Struct(">I")


def _framed(body: bytes) -> bytes:
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _LENGTH.pack(len(body)) + body


def encode_frame(message: dict) -> bytes:
    """One wire frame: length prefix + compact JSON body."""
    return _framed(json.dumps(message, separators=(",", ":")).encode("utf-8"))


def decode_body(body: bytes) -> dict:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(message).__name__}"
        )
    return message


def frame_length(prefix: bytes) -> int:
    """Validate and unpack a 4-byte length prefix."""
    if len(prefix) != _LENGTH.size:
        raise ProtocolError("truncated frame length prefix")
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return length


# -- value encoding ---------------------------------------------------------


def jsonable_value(value: object) -> object:
    """One result cell as a JSON-safe value.

    XADT fragments serialize to their XML text (the same canonical form
    the differential oracle compares on); anything else non-primitive
    degrades to ``str`` so a response frame can always be encoded.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return _encode_fallback(value)


def jsonable_rows(rows) -> list[list[object]]:
    return [[jsonable_value(cell) for cell in row] for row in rows]


def _encode_fallback(value: object) -> str:
    """What :func:`jsonable_value` makes of a non-primitive cell, and the
    C encoder's ``default`` hook: the encoder calls it only for a value
    that is not None / bool / int / float / str, which is exactly where
    ``jsonable_value`` stops passing cells through."""
    if getattr(value, "__xadt__", False):
        return value.to_xml()
    return str(value)


# check_circular off: rows are tuples of scalars and the hook returns
# str, so there is no cycle to find and no marker dict to maintain
_encode_rows = json.JSONEncoder(
    separators=(",", ":"), default=_encode_fallback, check_circular=False
).encode


def encode_page(
    rows,
    start: int,
    max_rows: int | None = None,
    frame_room: int = MAX_FRAME_BYTES - _ENVELOPE_TAIL_BYTES,
) -> tuple[str, int]:
    """Encode ``rows[start:stop]`` as one JSON array: ``(text, stop)``.

    The text decodes to ``jsonable_rows(rows[start:stop])`` and is ASCII,
    so its length is its size on the wire.  With ``max_rows`` (a
    request's ``fetch_size``) the page is exactly that many rows, cut
    short only by ``frame_room``, the bytes a frame has left for rows;
    without, it is cut by :data:`PAGE_BYTES`.  A page is never empty
    while rows remain: a row wider than the page budget travels alone,
    and one wider than ``frame_room`` raises
    :class:`~repro.errors.ResourceExceeded`.

    The page grows a chunk of rows at a time, one C-encoder call per
    chunk.  The first chunk is one row (kept whatever its size); every
    later one asks for as many rows as the last chunk's density says the
    remaining room holds, at most ``_CHUNK_GROWTH`` times the last, so
    3,965 rows are four calls and a chunk that overflows is re-cut once
    by its own density, not bisected.
    """
    end = len(rows) if max_rows is None else min(len(rows), start + max_rows)
    budget = frame_room if max_rows is not None else min(PAGE_BYTES, frame_room)
    parts: list[str] = []
    # text = "[" + ",".join(parts) + "]" is 1 + sum(len(part) + 1) bytes
    room = budget - 1
    stop, step = start, 1
    while stop < end and step:
        step = min(step, end - stop)
        body = _encode_rows(rows[stop:stop + step])[1:-1]
        need = len(body) + 1
        if need <= room:
            parts.append(body)
            room -= need
            stop += step
            step = min(room * step // need, step * _CHUNK_GROWTH)
        elif step > 1:
            step = max(1, room * step // need)
        else:
            if not parts:  # one row wider than the budget: alone, if at all
                if need > frame_room - 1:
                    raise ResourceExceeded(
                        f"result row {stop} encodes to {len(body)} bytes; "
                        f"one frame carries at most {frame_room - 2}"
                    )
                parts.append(body)
                stop += 1
            break
    return "[" + ",".join(parts) + "]", stop


class ResultPager:
    """What is left of one result, encoded a page at a time.

    The server's cursor: it holds the engine's row list and an offset,
    so a ``fetch`` copies nothing but the page it sends, and a page is
    encoded when it is asked for — the first frame never waits for the
    later ones.
    """

    def __init__(self, columns, rows) -> None:
        self._head = (
            '{"ok":true,"columns":'
            + json.dumps(list(columns), separators=(",", ":"))
            + ',"rows":'
        )
        self._rows = rows
        self._stop = 0
        self._frame_room = (
            MAX_FRAME_BYTES - len(self._head) - _ENVELOPE_TAIL_BYTES
        )

    @property
    def exhausted(self) -> bool:
        return self._stop >= len(self._rows)

    def next_page(self, fetch_size: int | None = None) -> str:
        """The next page's text (:func:`encode_page`); advances."""
        page, self._stop = encode_page(
            self._rows, self._stop, fetch_size, self._frame_room
        )
        return page

    def body(
        self,
        page: str,
        *,
        row_count: int | None = None,
        cursor: int | None = None,
        more: bool | None = None,
    ) -> bytes:
        """A result frame's body around ``page``, still open:
        :func:`seal_frame` adds the request id and closes it.

        An ``execute`` reply carries ``row_count`` and, only while rows
        remain, ``cursor`` + ``more``; a ``fetch`` reply always says
        ``more`` — the keys and values the same replies had as dicts
        through ``encode_frame``.
        """
        tail = "" if row_count is None else f',"row_count":{row_count}'
        if cursor is not None:
            tail += f',"cursor":{cursor}'
        if more is not None:
            tail += ',"more":true' if more else ',"more":false'
        return f"{self._head}{page}{tail}".encode("ascii")


def seal_frame(body: bytes, request_id: object) -> bytes:
    """One wire frame from an open :meth:`ResultPager.body`."""
    return _framed(
        body + b',"id":' + json.dumps(request_id).encode("ascii") + b"}"
    )


# -- typed errors over the wire --------------------------------------------


def _error_classes() -> dict[str, type]:
    """Every concrete ReproError class in the taxonomy, by name."""
    classes: dict[str, type] = {}
    for name in dir(_errors):
        obj = getattr(_errors, name)
        if isinstance(obj, type) and issubclass(obj, ReproError):
            classes[name] = obj
    return classes


_ERROR_CLASSES = _error_classes()


def error_payload(exc: BaseException) -> dict:
    """Serialize ``exc`` as a typed wire error.

    Exceptions outside the taxonomy (a bug the admission layer did not
    anticipate) are reported as ``ServerError`` with the original class
    named in the message — the wire never carries an untyped shape.
    """
    payload: dict[str, object] = {
        "code": type(exc).__name__,
        "message": str(exc),
        "transient": is_transient(exc),
    }
    if not isinstance(exc, ReproError):
        payload["code"] = "ServerError"
        payload["message"] = f"{type(exc).__name__}: {exc}"
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        payload["retry_after"] = retry_after
    return payload


def wire_error(payload: dict) -> ReproError:
    """Reconstruct the typed exception a wire error payload names."""
    code = payload.get("code", "ServerError")
    message = payload.get("message", "server error")
    cls = _ERROR_CLASSES.get(str(code))
    if cls is Overloaded:
        return Overloaded(message, retry_after=payload.get("retry_after", 0.05))
    if cls is not None:
        try:
            return cls(message)
        except TypeError:  # constructor wants more than a message
            pass
    if payload.get("transient"):
        return TransientError(f"{code}: {message}")
    return ServerError(f"{code}: {message}")


def raise_wire_error(payload: dict) -> None:
    raise wire_error(payload)


__all__ = [
    "DEFAULT_FETCH_SIZE",
    "MAX_FRAME_BYTES",
    "PAGE_BYTES",
    "PROTOCOL_VERSION",
    "ResultPager",
    "decode_body",
    "encode_frame",
    "encode_page",
    "error_payload",
    "frame_length",
    "jsonable_rows",
    "jsonable_value",
    "raise_wire_error",
    "seal_frame",
    "wire_error",
]
