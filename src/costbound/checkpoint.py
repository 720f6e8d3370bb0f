"""Versioned, checksummed, byte-deterministic binary snapshots.

Layout: 8-byte magic, little-endian u32 format version, u64 header
length, a JSON header (sorted keys) describing metadata and the array
manifest, the raw array payload in name-sorted order, and a trailing
SHA-256 digest of everything before it. Files are written to a temp name
and atomically renamed, and a load parses and verifies everything before
any state is handed back, so a truncated or corrupted file never applies
partial state.
"""

from __future__ import annotations

import hashlib
import json
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
        arr = np.ascontiguousarray(arrays[name])
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
    header = json.loads(bytes(body[header_start : header_start + header_len]))
    payload = body[header_start + header_len :]
    arrays = {}
    for entry in header["arrays"]:
        dtype = np.dtype(_DTYPES[entry["dtype"]])
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        arr = np.frombuffer(payload, dtype=dtype, count=count, offset=entry["offset"])
        arrays[entry["name"]] = arr.reshape(entry["shape"])
    return header["meta"], arrays
