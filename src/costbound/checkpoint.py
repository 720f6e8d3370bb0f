"""Versioned, checksummed, byte-deterministic binary snapshots.

Layout: 8-byte magic, little-endian u32 format version, u64 header
length, a JSON header (sorted keys) describing metadata and the array
manifest, the raw array payload in name-sorted order, and a trailing
SHA-256 digest of everything before it. Files are written to a temp name
and atomically renamed, and a load parses and verifies everything before
any state is handed back, so a truncated or corrupted file never applies
partial state.

The metadata is plain JSON: a value that JSON cannot hold, an ndarray
included, raises ``TypeError`` before anything is written.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CBCKPT\x00\x01"
FORMAT_VERSION = 1

_DTYPES = {"f8": np.float64, "u1": np.uint8, "i8": np.int64, "b1": np.bool_}


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, meta: dict, arrays: dict):
    entries = []
    offset = 0
    payload = []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], order="C")  # ascontiguousarray would make a 0-d array 1-d
        code = arr.dtype.str.lstrip("<>|=")
        if code not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {arr.dtype} for array {name!r}")
        entries.append({"name": name, "dtype": code, "shape": list(arr.shape), "offset": offset})
        payload.append(arr)
        offset += arr.nbytes
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "meta": meta, "arrays": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    digest = hashlib.sha256()
    # array buffers go to the file and the hash as they are, without a copy
    with open(tmp, "wb") as fh:
        for part in [MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(header)), header, *payload]:
            part = memoryview(part)
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())
    os.replace(tmp, path)


def load_checkpoint(path):
    """(meta, arrays) of a checkpoint; the arrays are read-only views of
    the file's bytes."""
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 12 + 32:
        raise CheckpointError("checkpoint file truncated")
    body = memoryview(data)[:-32]
    if hashlib.sha256(body).digest() != data[-32:]:
        raise CheckpointError("checkpoint checksum mismatch (corrupted or truncated)")
    if body[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version, header_len = struct.unpack_from("<IQ", body, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    header_start = len(MAGIC) + 12
    if header_start + header_len > len(body):
        raise CheckpointError("checkpoint header overruns the file")
    header = json.loads(bytes(body[header_start : header_start + header_len]))
    payload = body[header_start + header_len :]
    arrays, offset = {}, 0
    for entry in header["arrays"]:
        name = entry["name"]
        if entry["dtype"] not in _DTYPES:
            raise CheckpointError(f"array {name!r} has unknown dtype {entry['dtype']!r}")
        if entry["offset"] != offset:
            raise CheckpointError(f"array {name!r} at offset {entry['offset']}, expected {offset}")
        dtype = np.dtype(_DTYPES[entry["dtype"]])
        end = offset + math.prod(entry["shape"]) * dtype.itemsize
        if end > len(payload):
            raise CheckpointError(f"array {name!r} overruns the payload")
        arrays[name] = np.frombuffer(payload[offset:end], dtype=dtype).reshape(entry["shape"])
        offset = end
    if offset != len(payload):
        raise CheckpointError(f"{len(payload) - offset} bytes after the last array")
    return header["meta"], arrays
