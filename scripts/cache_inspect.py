#!/usr/bin/env python3
"""Inspect (and optionally verify) a solve-cache snapshot without tpcool.

Usage:
    cache_inspect.py PATH [--verify]

PATH is a segmented v5 manifest (written by SolveCache::save; segments
live next to it as PATH.seg0000, PATH.seg0001, ...).  The byte layouts
are defined in src/tpcool/core/cache_segment_io.cpp and documented in
docs/CACHE.md; this script is an independent Python reimplementation of
the readers, so CI can sanity-check the files the bench chain persists.

Default output: schema version, model fingerprint, segment count, total
entries, per-shard
(= per-segment) entry counts and byte sizes, total on-disk size, and the
order-insensitive content digest (the same value
SolveCache::content_digest reports after loading the snapshot).

--verify re-validates everything the C++ loader checks — magics, schema
versions, trailing FNV-1a stream digests, manifest/segment digest
agreement (mixed snapshot generations), segment index/count/entry-count
fields, per-entry key digests, digest-range membership of every key, and
exact byte sizes — and exits non-zero on the first corruption.  The
model fingerprint is printed, not checked: whether it matches the
current model constants is a question only the library can answer
(SolveCache::model_fingerprint; load() refuses a mismatch).

Exit status: 0 = OK, 1 = corruption (--verify), 2 = bad invocation or an
unreadable/undecodable file.
"""

import argparse
import struct
import sys

MANIFEST_MAGIC = b"TPCOOLSM"
SEGMENT_MAGIC = b"TPCOOLSG"
SEGMENTED_VERSION = 5

# util/fnv.hpp's pinned constants (the offset basis is the repo's own
# value, not the textbook FNV-1a one — it is part of the on-disk format).
FNV_OFFSET_BASIS = 0x14650FB0739D0383
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1
GOLDEN_RATIO = 0x9E3779B97F4A7C15


class CorruptSnapshot(Exception):
    """Raised where the C++ loader would raise SnapshotError."""


def fnv1a(data, seed=FNV_OFFSET_BASIS):
    digest = seed
    for byte in data:
        digest = ((digest ^ byte) * FNV_PRIME) & MASK64
    return digest


def shard_index(digest, count):
    """Mirror of cache_io::shard_index_for_digest (Fibonacci hashing)."""
    if count == 1:
        return 0
    mixed = (digest * GOLDEN_RATIO) & MASK64
    return mixed >> (64 - (count.bit_length() - 1))


def segment_path(manifest_path, index):
    return f"{manifest_path}.seg{index:04d}"


class Cursor:
    """Bounds-checked little-endian reader over one blob."""

    def __init__(self, blob, what):
        self.blob = blob
        self.pos = 0
        self.what = what

    def take(self, size, field):
        if self.pos + size > len(self.blob):
            raise CorruptSnapshot(
                f"{self.what}: truncated while reading {field}")
        out = self.blob[self.pos:self.pos + size]
        self.pos += size
        return out

    def u32(self, field):
        return struct.unpack("<I", self.take(4, field))[0]

    def u64(self, field):
        return struct.unpack("<Q", self.take(8, field))[0]

    def remaining(self):
        return len(self.blob) - self.pos


def open_sealed(blob, magic, what):
    """Validate magic + trailing stream digest; return a body cursor."""
    if len(blob) < len(magic) + 8:
        raise CorruptSnapshot(f"{what}: file too small")
    if blob[:len(magic)] != magic:
        raise CorruptSnapshot(f"{what}: bad magic {blob[:8]!r}")
    recorded = struct.unpack("<Q", blob[-8:])[0]
    actual = fnv1a(blob[:-8])
    if recorded != actual:
        raise CorruptSnapshot(
            f"{what}: stream digest mismatch "
            f"(recorded {recorded:#018x}, actual {actual:#018x})")
    cursor = Cursor(blob[:-8], what)
    cursor.take(len(magic), "magic")
    return cursor


def read_entries(cursor, count, what):
    """Parse `count` entries; returns [(key, cost_ms, payload, digest)]."""
    entries = []
    for i in range(count):
        field = f"entry {i}"
        digest = cursor.u64(field)
        key = cursor.take(cursor.u64(field), field + " key")
        if fnv1a(key) != digest:
            raise CorruptSnapshot(f"{what}: {field} key digest mismatch")
        cost = struct.unpack("<d", cursor.take(8, field))[0]
        payload = cursor.take(cursor.u64(field), field + " payload")
        entries.append((key, cost, payload, digest))
    if cursor.remaining():
        raise CorruptSnapshot(f"{what}: trailing bytes after last entry")
    return entries


def load_segment(path, index, seg_count, info):
    """Read + validate one segment; returns its entry list."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CorruptSnapshot(f"cannot read segment {path}: {exc}") from exc
    if len(blob) != info["byte_size"]:
        raise CorruptSnapshot(
            f"{path}: size {len(blob)} != manifest's {info['byte_size']}")
    if struct.unpack("<Q", blob[-8:])[0] != info["stream_digest"]:
        raise CorruptSnapshot(
            f"{path}: digest differs from the manifest's — snapshot "
            "generations are mixed")
    cursor = open_sealed(blob, SEGMENT_MAGIC, path)
    version = cursor.u32("version")
    if version != SEGMENTED_VERSION:
        raise CorruptSnapshot(f"{path}: schema version {version}, "
                              f"expected {SEGMENTED_VERSION}")
    if cursor.u64("segment index") != index:
        raise CorruptSnapshot(f"{path}: wrong segment index recorded")
    if cursor.u64("segment count") != seg_count:
        raise CorruptSnapshot(f"{path}: wrong segment count recorded")
    entry_count = cursor.u64("entry count")
    if entry_count != info["entry_count"]:
        raise CorruptSnapshot(
            f"{path}: {entry_count} entries != manifest's "
            f"{info['entry_count']}")
    entries = read_entries(cursor, entry_count, what=path)
    for key, _, _, digest in entries:
        if shard_index(digest, seg_count) != index:
            raise CorruptSnapshot(
                f"{path}: key {key!r} belongs to segment "
                f"{shard_index(digest, seg_count)}, not {index}")
    return entries


def load_manifest(path, blob):
    cursor = open_sealed(blob, MANIFEST_MAGIC, path)
    version = cursor.u32("version")
    if version != SEGMENTED_VERSION:
        raise CorruptSnapshot(f"{path}: schema version {version}, "
                              f"expected {SEGMENTED_VERSION}")
    fingerprint = cursor.u64("model fingerprint")
    seg_count = cursor.u64("segment count")
    if not 1 <= seg_count <= 4096 or seg_count & (seg_count - 1):
        raise CorruptSnapshot(
            f"{path}: segment count {seg_count} is not a power of two "
            "in [1, 4096]")
    total = cursor.u64("total entries")
    segments = [{"entry_count": cursor.u64("entry count"),
                 "byte_size": cursor.u64("byte size"),
                 "stream_digest": cursor.u64("stream digest")}
                for _ in range(seg_count)]
    if cursor.remaining():
        raise CorruptSnapshot(f"{path}: trailing bytes after segment table")
    if sum(s["entry_count"] for s in segments) != total:
        raise CorruptSnapshot(
            f"{path}: segment entry counts do not sum to {total}")
    return fingerprint, total, segments


def content_digest(entries):
    """Wrapping sum of fnv1a(payload, seed=fnv1a(key)) — order-insensitive,
    == SolveCache::content_digest after loading these entries."""
    return sum(fnv1a(payload, seed=fnv1a(key))
               for key, _, payload, _ in entries) & MASK64


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="snapshot manifest (v5)")
    parser.add_argument("--verify", action="store_true",
                        help="exit non-zero on any corruption")
    args = parser.parse_args()

    try:
        with open(args.path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return 2

    try:
        if blob[:8] == MANIFEST_MAGIC:
            fingerprint, total, segments = load_manifest(args.path, blob)
            print(f"{args.path}: segmented snapshot "
                  f"(schema v{SEGMENTED_VERSION})")
            print(f"  fingerprint:    {fingerprint:#018x}")
            print(f"  segments:       {len(segments)}")
            print(f"  entries:        {total}")
            entries = []
            disk_bytes = len(blob)
            for i, info in enumerate(segments):
                seg = load_segment(segment_path(args.path, i), i,
                                   len(segments), info)
                entries.extend(seg)
                disk_bytes += info["byte_size"]
                print(f"  seg{i:04d}:        {info['entry_count']:6d} "
                      f"entries  {info['byte_size']:10d} bytes  "
                      f"digest {info['stream_digest']:#018x}")
            print(f"  bytes (total):  {disk_bytes}")
            print(f"  content digest: {content_digest(entries):#018x}")
        else:
            raise CorruptSnapshot(
                f"{args.path}: bad magic {blob[:8]!r} — not a solve-cache "
                "snapshot")
    except CorruptSnapshot as exc:
        print(f"CORRUPT: {exc}", file=sys.stderr)
        return 1 if args.verify else 2

    if args.verify:
        print("verify: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
