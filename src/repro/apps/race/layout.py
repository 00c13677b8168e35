"""On-blade layout of the RACE hash table.

Directory (on the primary memory blade)::

    [global_depth u64][segment_count u64][dir_lock u64][segment_addr u64] * capacity

Segment::

    [header: local_depth u64][lock u64][bucket] * buckets_per_segment

Bucket (one cacheline)::

    [slot u64] * SLOTS_PER_BUCKET  (+ 8 spare bytes)

Slot encoding (8 bytes, CAS-published)::

    fingerprint (8 bits) | kv_units (8 bits) | kv block address (48 bits)

KV block::

    [key u64][value u64]
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

SLOTS_PER_BUCKET = 7
BUCKET_BYTES = 64  # 7 slots + 8 spare bytes; one cacheline
SEGMENT_HEADER_BYTES = 16
KV_BLOCK_BYTES = 16
DIR_HEADER_BYTES = 24

_U64 = struct.Struct("<Q")
_KV = struct.Struct("<QQ")
_SLOTS = struct.Struct(f"<{SLOTS_PER_BUCKET}Q")

#: slot fields a client tests without decoding the whole slot: the
#: fingerprint is ``raw >> FP_SHIFT``, the KV block's 48-bit
#: packed address ``raw & ADDR_MASK``
FP_SHIFT = 56
ADDR_MASK = (1 << 48) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK_64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """splitmix64 finalizer — the second, independent hash."""
    value = (value + _GOLDEN_GAMMA) & _MASK_64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK_64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK_64
    return value ^ (value >> 31)


def hash1(key: int) -> int:
    """Primary hash: directory index bits + bucket-1 index + fingerprint."""
    return mix64(key ^ 0x5555555555555555)


def hash2(key: int) -> int:
    """Independent secondary hash for the second candidate bucket."""
    return mix64(key ^ 0xAAAAAAAAAAAAAAAA)


def fingerprint(key: int) -> int:
    """8-bit tag stored in the slot; 0 is reserved for 'empty-looking'."""
    fp = (hash1(key) >> 48) & 0xFF
    return fp or 1


@dataclass(frozen=True)
class Slot:
    """Decoded slot value."""

    fingerprint: int
    kv_units: int
    addr: int

    @property
    def kv_bytes(self) -> int:
        return self.kv_units * 8

    def encode(self) -> int:
        if not 0 <= self.fingerprint <= 0xFF:
            raise ValueError("fingerprint out of range")
        if not 0 <= self.kv_units <= 0xFF:
            raise ValueError("kv_units out of range")
        if self.addr & ~ADDR_MASK:
            raise ValueError("slot address needs more than 48 bits")
        return slot_word(self.fingerprint, self.addr, self.kv_units)


EMPTY_SLOT = 0
KV_UNITS = KV_BLOCK_BYTES // 8


def slot_word(fp: int, addr: int, kv_units: int = KV_UNITS) -> int:
    """The raw slot value — the one place its bit layout is written.
    Unchecked: callers hold fields already in range (``Slot.encode``
    checks each; the bulk loader checks its heap end once)."""
    return (fp << FP_SHIFT) | (kv_units << 48) | addr


def decode_slot(value: int) -> Slot:
    return Slot(
        fingerprint=(value >> FP_SHIFT) & 0xFF,
        kv_units=(value >> 48) & 0xFF,
        addr=value & ADDR_MASK,
    )


def make_slot(key: int, kv_addr48: int) -> int:
    """Slot value publishing a KV block at the 48-bit packed address."""
    return Slot(fingerprint(key), KV_UNITS, kv_addr48).encode()


def pack_kv(key: int, value: int) -> bytes:
    return _KV.pack(key & _MASK_64, value & _MASK_64)


def pack_kv_into(buffer, offset: int, key: int, value: int) -> None:
    """:func:`pack_kv` written in place at ``buffer[offset:]``."""
    _KV.pack_into(buffer, offset, key & _MASK_64, value & _MASK_64)


def unpack_kv(data: bytes):
    return _KV.unpack(data)


def pack_u64(value: int) -> bytes:
    return _U64.pack(value & _MASK_64)


def unpack_u64(data: bytes) -> int:
    return _U64.unpack(data)[0]


def pack_u64_into(buffer, offset: int, value: int) -> None:
    """:func:`pack_u64` written in place at ``buffer[offset:]``."""
    _U64.pack_into(buffer, offset, value & _MASK_64)


def unpack_slots(bucket, offset: int = 0):
    """The raw slot values of the bucket at ``bucket[offset:]``, in slot
    order."""
    return _SLOTS.unpack_from(bucket, offset)


def segment_bytes(buckets_per_segment: int) -> int:
    return SEGMENT_HEADER_BYTES + buckets_per_segment * BUCKET_BYTES


def bucket_offset(bucket_index: int) -> int:
    """Byte offset of a bucket inside its segment."""
    return SEGMENT_HEADER_BYTES + bucket_index * BUCKET_BYTES


def bucket_indices(key: int, buckets_per_segment: int):
    """The two candidate buckets of a key within its segment."""
    b1 = (hash1(key) >> 16) % buckets_per_segment
    b2 = (hash2(key) >> 16) % buckets_per_segment
    if b2 == b1:
        b2 = (b2 + 1) % buckets_per_segment
    return b1, b2


def directory_index(key: int, global_depth: int) -> int:
    """Directory slot for a key: the low ``global_depth`` bits of hash1."""
    return hash1(key) & ((1 << global_depth) - 1)


def placement(key: int, global_depth: int, buckets_per_segment: int):
    """``(directory_index, bucket 1, bucket 2, fingerprint)`` of a key with
    each hash evaluated once — the bulk loader's form of the three
    functions above, which clients call at different points of an op."""
    h1 = hash1(key)
    b1 = (h1 >> 16) % buckets_per_segment
    b2 = (hash2(key) >> 16) % buckets_per_segment
    if b2 == b1:
        b2 = (b2 + 1) % buckets_per_segment
    return h1 & ((1 << global_depth) - 1), b1, b2, ((h1 >> 48) & 0xFF) or 1
