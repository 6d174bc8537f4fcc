"""Storage-codec selection (paper §3.4.1 / §4.1).

The document transformer decides between the plain and the compressed
XADT representation *per table attribute* by sampling a few documents,
encoding the attribute's fragments both ways, and picking compression
only when it saves at least ``threshold`` (the paper uses 20 %).

The paper's outcomes, which the benchmarks verify, are:

* Shakespeare: fragments are small, the per-fragment dictionary costs
  more than the tags it replaces — compression *rejected*;
* SIGMOD Proceedings: fragments are large with long repeated tag names —
  compression chosen (≈38 % smaller).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.xadt.fragment import XadtValue, coerce_fragment
from repro.xadt.storage import DICT, PLAIN
from repro.xmlkit.dom import Element

#: compression must save at least this fraction to be chosen (paper: 20 %)
DEFAULT_THRESHOLD = 0.20
#: how many sample fragments the transformer inspects
DEFAULT_SAMPLE_SIZE = 32


@dataclass(frozen=True)
class CodecDecision:
    """Outcome of sampling one XADT attribute."""

    codec: str
    plain_bytes: int
    dict_bytes: int
    samples: int

    @property
    def savings(self) -> float:
        """Fraction saved by compression (negative when it inflates)."""
        if self.plain_bytes == 0:
            return 0.0
        return 1.0 - self.dict_bytes / self.plain_bytes


def choose_codec(
    fragments: list[object],
    threshold: float = DEFAULT_THRESHOLD,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
) -> CodecDecision:
    """Sample ``fragments`` and decide the storage codec.

    ``fragments`` may be XadtValues, fragment text, or DOM elements
    (an element or a list of them, whose dict size is encoded from the
    tree).
    Sampling is deterministic for a given seed (reproducible builds).
    """
    if not fragments:
        return CodecDecision(PLAIN, 0, 0, 0)
    if len(fragments) > sample_size:
        rng = random.Random(seed)
        sample = rng.sample(list(fragments), sample_size)
    else:
        sample = list(fragments)

    plain_bytes = 0
    dict_bytes = 0
    for item in sample:
        value = coerce_fragment(item)
        plain_bytes += value.recode(PLAIN).byte_size()
        if isinstance(item, Element):
            item = [item]
        if isinstance(item, (list, tuple)):  # DOM elements: encode the tree
            compressed = XadtValue.from_elements(item, DICT)
        else:
            compressed = value.recode(DICT)
        dict_bytes += compressed.byte_size()

    savings = 1.0 - (dict_bytes / plain_bytes) if plain_bytes else 0.0
    codec = DICT if savings >= threshold else PLAIN
    return CodecDecision(codec, plain_bytes, dict_bytes, len(sample))
