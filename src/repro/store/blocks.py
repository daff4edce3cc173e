"""Impact-ordered posting blocks (the block-max layout every backend serves).

A keyword's descending-TF inverted list is cut into fixed-size blocks of
:data:`BLOCK_SIZE` postings, and each block carries a tiny
:class:`BlockSummary` — its entry count, its maximum occurrence count and its
maximum *weight* (``occurrences / fragment size``, the per-fragment TF the
Dash score multiplies by the IDF).  A keyword's directory (posting count plus
the directory-wide weight ceiling) is what the cluster router reads for
global document frequencies and admissible per-partition score bounds (see
:func:`repro.cluster.stats.partition_bounds`) without decoding a posting; the
top-k searcher itself reads whole lists.

One property is load-bearing: **determinism** — blocks are a pure function
of the keyword's current sorted posting list and the current fragment sizes.
Every backend builds its summaries through :func:`build_summaries` over the
same entries and the same integer sizes, so the floats (and therefore the
partition bounds) are identical on the memory and disk backends.  Fragments
are only ever written whole, so a fragment's size never changes under a
stored summary: every write that changes it rebuilds the blocks of all the
fragment's keywords before readers can see it.

The module also holds the delta+varint codec :class:`~repro.store.DiskStore`
uses to store each block as a single BLOB (descending occurrence counts
delta-encoded, identifiers length-prefixed), replacing one row per posting
with one compact row per block.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro.core.fragments import FragmentId
from repro.text.inverted_index import Posting

#: Postings per block.  128 keeps a block's decode cost a few microseconds
#: while keeping directories small (a 6000-posting hot list becomes ~47
#: summaries).
BLOCK_SIZE = 128


class BlockSummary(NamedTuple):
    """The metadata one block exposes without being decoded."""

    count: int
    max_occurrences: int
    max_weight: float


class KeywordBlocks:
    """One keyword's block directory plus a lazy per-block decoder.

    ``summaries[i]`` describes block ``i`` (blocks partition the sorted list
    in order: block ``i`` holds postings ``i*BLOCK_SIZE`` through
    ``(i+1)*BLOCK_SIZE - 1``).  ``decode(i)`` materializes block ``i``'s
    postings — a slice of the keyword's sorted list (pinned by the
    in-memory handle, the epoch-validated ``postings()`` on disk).
    """

    __slots__ = ("keyword", "summaries", "posting_count", "_decoder")

    def __init__(
        self,
        keyword: str,
        summaries: Tuple[BlockSummary, ...],
        decoder: Callable[[int], Tuple[Posting, ...]],
    ) -> None:
        self.keyword = keyword
        self.summaries = summaries
        self.posting_count = sum(summary.count for summary in summaries)
        self._decoder = decoder

    def decode(self, block_no: int) -> Tuple[Posting, ...]:
        return self._decoder(block_no)

    @property
    def max_weight(self) -> float:
        """The keyword-level weight ceiling (0.0 for an empty directory)."""
        best = 0.0
        for summary in self.summaries:
            if summary.max_weight > best:
                best = summary.max_weight
        return best


def block_weight(occurrences: int, size: int) -> float:
    """One posting's weight ``occurrences / size``, admissibly capped.

    A missing or inconsistent size (0) yields the maximum possible weight
    1.0 — a bound derived from it can only be loose, never under-cap.
    """
    return occurrences / size if size > 0 else 1.0


def build_summaries(
    postings: Sequence[Posting], size_of: Callable[[FragmentId], int]
) -> Tuple[BlockSummary, ...]:
    """Summaries over a descending-TF posting list, :data:`BLOCK_SIZE` apart.

    Deterministic: iteration order and float operations depend only on the
    entries and the sizes, so every backend derives bit-identical summaries
    from the same logical state.
    """
    summaries: List[BlockSummary] = []
    for start in range(0, len(postings), BLOCK_SIZE):
        chunk = postings[start : start + BLOCK_SIZE]
        max_weight = 0.0
        for posting in chunk:
            weight = block_weight(posting.term_frequency, size_of(posting.document_id))
            if weight > max_weight:
                max_weight = weight
        summaries.append(
            # The list is occurrence-descending, so the chunk head carries
            # the block's occurrence maximum.
            BlockSummary(len(chunk), chunk[0].term_frequency, max_weight)
        )
    return tuple(summaries)


def keyword_blocks_from_postings(
    keyword: str,
    postings: Tuple[Posting, ...],
    size_of: Callable[[FragmentId], int],
) -> KeywordBlocks:
    """A :class:`KeywordBlocks` handle over an already-gathered sorted list.

    The default path for backends that keep postings as tuples: summaries
    are built in one pass and ``decode`` is a slice of the pinned tuple, so
    a concurrent write can never desynchronize a search's directory from
    the entries it decodes.
    """
    summaries = build_summaries(postings, size_of)

    def decoder(block_no: int) -> Tuple[Posting, ...]:
        return postings[block_no * BLOCK_SIZE : (block_no + 1) * BLOCK_SIZE]

    return KeywordBlocks(keyword, summaries, decoder)


# ----------------------------------------------------------------------
# delta + varint BLOB codec (the DiskStore's on-disk block format)
# ----------------------------------------------------------------------
def encode_uvarint(value: int, out: bytearray) -> None:
    """Append ``value`` as a LEB128-style unsigned varint."""
    if value < 0:
        raise ValueError(f"varints encode non-negative integers, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_uvarint(data: bytes, position: int) -> Tuple[int, int]:
    """Decode one varint at ``position``; returns ``(value, next position)``."""
    result = 0
    shift = 0
    while True:
        try:
            byte = data[position]
        except IndexError:
            raise ValueError("truncated varint") from None
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7


def encode_block(
    entries: Sequence[Posting], encode_identifier: Callable[[FragmentId], str]
) -> bytes:
    """Serialize one block's postings as a delta+varint BLOB.

    Layout: ``varint(count)``, the occurrence counts as ``varint(first)``
    followed by ``varint(previous - current)`` deltas (non-negative because
    the list is occurrence-descending), then each identifier's canonical
    encoding as ``varint(length) + utf-8 bytes``.  Grouping the homogeneous
    occurrence integers up front keeps the deltas tiny (most are 0 inside an
    impact-ordered block).
    """
    out = bytearray()
    encode_uvarint(len(entries), out)
    previous = None
    for posting in entries:
        occurrences = posting.term_frequency
        if previous is None:
            encode_uvarint(occurrences, out)
        else:
            if occurrences > previous:
                raise ValueError(
                    "posting block entries must be occurrence-descending "
                    f"({occurrences} follows {previous})"
                )
            encode_uvarint(previous - occurrences, out)
        previous = occurrences
    for posting in entries:
        encoded = encode_identifier(posting.document_id).encode("utf-8")
        encode_uvarint(len(encoded), out)
        out += encoded
    return bytes(out)


def decode_block(
    blob: bytes, decode_identifier: Callable[[str], FragmentId]
) -> Tuple[Posting, ...]:
    """Deserialize one :func:`encode_block` BLOB back into postings."""
    count, position = decode_uvarint(blob, 0)
    occurrences: List[int] = []
    previous = 0
    for index in range(count):
        value, position = decode_uvarint(blob, position)
        previous = value if index == 0 else previous - value
        occurrences.append(previous)
    postings: List[Posting] = []
    for index in range(count):
        length, position = decode_uvarint(blob, position)
        encoded = blob[position : position + length]
        if len(encoded) != length:
            raise ValueError("truncated posting block identifier")
        position += length
        postings.append(Posting(decode_identifier(encoded.decode("utf-8")), occurrences[index]))
    if position != len(blob):
        raise ValueError(f"{len(blob) - position} trailing bytes after posting block")
    return tuple(postings)


def chunk_postings(postings: Sequence[Posting]) -> List[Sequence[Posting]]:
    """The sorted list cut into :data:`BLOCK_SIZE`-sized block slices."""
    return [postings[start : start + BLOCK_SIZE] for start in range(0, len(postings), BLOCK_SIZE)]
