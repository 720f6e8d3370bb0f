"""Versioned, checksummed, byte-deterministic binary snapshots.

Layout: 8-byte magic, little-endian u32 format version, u64 header
length, a JSON header (sorted keys) describing metadata and the array
manifest, the raw array payload in name-sorted order, and a trailing
SHA-256 digest of everything before it.

Files are written to a temp name and atomically renamed. An array may be
handed to the writer as a list of pieces, which it writes and hashes as
one entry without joining them, so no payload byte is copied on the way.

A load reads in this order: the framing and the header; the file size,
which must be exactly what the header's entries need, so a truncated file
fails before any payload byte is read; then each array, read straight
into the array it fills and hashed as it is read; and last the digest.
A caller can read the header alone first, build the arrays that it names
and hand them to the load, which checks them against the header before it
reads any payload byte; so a restore never holds a second copy of the
file. Nothing is handed back until the digest matches, so a truncated or
corrupted file never applies partial state: what was read into the
caller's arrays is theirs to discard.

The metadata is plain JSON: a value that JSON cannot hold, an ndarray
included, raises ``TypeError`` before anything is written.
"""

from __future__ import annotations

import contextlib
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
_PREFIX = struct.Struct("<IQ")
_DIGEST_BYTES = 32
_READ_CHUNK = 1 << 20  # payload bytes per read and hash update


class CheckpointError(RuntimeError):
    pass


def _pieces(name, value):
    """(dtype code, shape, pieces) of one entry: an array, or a list of
    arrays that the entry holds joined along their first axis."""
    joined = isinstance(value, list)
    # np.asarray, not ascontiguousarray, which would make a 0-d array 1-d
    pieces = [np.asarray(p, order="C") for p in value] if joined else [np.asarray(value, order="C")]
    first = pieces[0]
    if joined and any((p.dtype, p.shape[1:]) != (first.dtype, first.shape[1:]) for p in pieces):
        raise CheckpointError(f"the pieces of array {name!r} differ in dtype or trailing shape")
    code = first.dtype.str.lstrip("<>|=")
    if code not in _DTYPES:
        raise CheckpointError(f"unsupported dtype {first.dtype} for array {name!r}")
    shape = [sum(len(p) for p in pieces), *first.shape[1:]] if joined else list(first.shape)
    return code, shape, pieces


def save_checkpoint(path, meta: dict, arrays: dict):
    """Write ``meta`` and ``arrays`` to ``path``. A value of ``arrays`` is an
    array, or a non-empty list of arrays that is written as one entry: their
    concatenation along the first axis, without building it."""
    entries = []
    offset = 0
    payload = []
    for name in sorted(arrays):
        code, shape, pieces = _pieces(name, arrays[name])
        entries.append({"name": name, "dtype": code, "shape": shape, "offset": offset})
        payload.extend(pieces)
        offset += sum(p.nbytes for p in pieces)
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
        for part in [MAGIC + _PREFIX.pack(FORMAT_VERSION, len(header)), header, *payload]:
            part = memoryview(part)
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())
    os.replace(tmp, path)


def _read_exactly(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError("checkpoint file truncated")
    return data


def _read_header(fh):
    """(meta, entries, framing bytes) from the start of an open file, with
    the file size checked against the entries; entries maps each name to
    its (dtype, shape) in payload order."""
    framing = _read_exactly(fh, len(MAGIC) + _PREFIX.size)
    if framing[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    version, header_len = _PREFIX.unpack_from(framing, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    size = fh.seek(0, os.SEEK_END)
    fh.seek(len(framing))
    if len(framing) + header_len + _DIGEST_BYTES > size:
        raise CheckpointError("checkpoint header overruns the file (truncated or corrupted)")
    raw = _read_exactly(fh, header_len)
    # nothing here is checksummed yet: a header that a flipped bit broke
    # fails as a CheckpointError, not as whatever the parser raised
    try:
        header = json.loads(raw)
        meta, listed = header["meta"], header["arrays"]
        entries, offset = {}, 0
        for entry in listed:
            name = entry["name"]
            if entry["dtype"] not in _DTYPES:
                raise CheckpointError(f"array {name!r} has unknown dtype {entry['dtype']!r}")
            if entry["offset"] != offset:
                raise CheckpointError(f"array {name!r} at offset {entry['offset']}, expected {offset}")
            dtype, shape = np.dtype(_DTYPES[entry["dtype"]]), tuple(int(n) for n in entry["shape"])
            if min(shape, default=0) < 0:
                raise CheckpointError(f"array {name!r} has a negative dimension")
            entries[name] = (dtype, shape)
            offset += math.prod(shape) * dtype.itemsize
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointError(f"checkpoint header is malformed ({err!r})") from err
    payload = size - len(framing) - header_len - _DIGEST_BYTES
    if offset > payload:
        raise CheckpointError(f"checkpoint file truncated: its arrays need {offset} payload bytes, it holds {payload}")
    if offset < payload:
        raise CheckpointError(f"{payload - offset} bytes after the last array")
    return meta, entries, framing + raw


@contextlib.contextmanager
def _opened(source):
    """A path opened for reading, or an open binary file read from its start."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            yield fh
    else:
        source.seek(0)
        yield source


def read_checkpoint_meta(source) -> dict:
    """The metadata of a checkpoint (a path or an open binary file), from
    its header alone: no payload byte is read and nothing is checksummed,
    so the file may still be corrupt."""
    with _opened(source) as fh:
        return _read_header(fh)[0]


def load_checkpoint(source, into=None):
    """(meta, arrays) of a checkpoint: a path, or an open binary file, which
    is read from its start and left open.

    With ``into``, a dict that names a writeable C-contiguous array of the
    right dtype and shape for every array of the checkpoint, each array is
    read straight into its own; the names, dtypes and shapes are checked
    before any payload byte is read. Without it, each array is read into a
    new read-only one. Nothing is returned until the digest matches."""
    with _opened(source) as fh:
        meta, entries, head = _read_header(fh)
        if into is None:
            arrays = {name: np.empty(shape, dtype) for name, (dtype, shape) in entries.items()}
        else:
            if set(into) != set(entries):
                missing, extra = sorted(set(into) - set(entries)), sorted(set(entries) - set(into))
                raise CheckpointError(f"checkpoint arrays missing {missing}, unexpected {extra}")
            for name, (dtype, shape) in entries.items():
                dest = into[name]
                if (dest.dtype, dest.shape) != (dtype, shape):
                    raise CheckpointError(f"{name} is {dtype}{shape}, not {dest.dtype}{dest.shape}")
                if not (dest.flags.c_contiguous and dest.flags.writeable):
                    raise ValueError(f"array {name!r} is not writeable and C-contiguous")
            arrays = {name: into[name] for name in entries}
        digest = hashlib.sha256(head)
        for dest in arrays.values():
            view = memoryview(dest.reshape(-1).view(np.uint8))
            # a buffered readinto fills the whole chunk unless the file ends
            for start in range(0, len(view), _READ_CHUNK):
                chunk = view[start : start + _READ_CHUNK]
                if fh.readinto(chunk) != len(chunk):
                    raise CheckpointError("checkpoint file truncated")
                digest.update(chunk)
        if _read_exactly(fh, _DIGEST_BYTES) != digest.digest():
            raise CheckpointError("checkpoint checksum mismatch (corrupted or truncated)")
    if into is None:
        for arr in arrays.values():
            arr.flags.writeable = False
    return meta, arrays
