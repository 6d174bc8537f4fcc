"""The retired statement-routing switch (DESIGN.md §10).

The keyword map that made a fragment's "structural index" now lives in
the directory an ``indexed`` value stores (:mod:`repro.xadt.metadata`),
and the stored value alone picks each method's access path
(``methods._access_path``): no statement routes, nothing is pinned.
"""

from __future__ import annotations

from contextlib import contextmanager


@contextmanager
def statement_routing(enabled: bool):
    """A no-op: the stored value picks the access path.

    Kept only because ``benchmarks/layers`` imports it; the ROADMAP item
    "The benchmark stops patching the engine" deletes it with the
    benchmark's own seams.
    """
    yield


__all__ = ["statement_routing"]
