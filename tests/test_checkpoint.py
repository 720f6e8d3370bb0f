import hashlib
import json
import struct

import numpy as np
import pytest

from costbound.checkpoint import FORMAT_VERSION, MAGIC, CheckpointError, load_checkpoint, save_checkpoint


def write_raw(path, entries, payload: bytes, magic=MAGIC, version=FORMAT_VERSION, header_extra=0):
    """A checkpoint file with a valid digest around any header and payload;
    ``header_extra`` is added to the header length it records."""
    header = json.dumps({"format_version": version, "meta": {}, "arrays": entries}).encode()
    body = magic + struct.pack("<IQ", version, len(header) + header_extra) + header + payload
    path.write_bytes(body + hashlib.sha256(body).digest())
    return path


def entry(name, dtype, shape, offset):
    return {"name": name, "dtype": dtype, "shape": shape, "offset": offset}


def small_checkpoint(path):
    arrays = {"f": np.arange(6.0).reshape(2, 3), "u": np.arange(4, dtype=np.uint8)}
    save_checkpoint(path, {"step": 7}, arrays)
    return path


def test_round_trip_keeps_arrays_and_header_values(tmp_path):
    arrays = {
        "f": np.arange(6.0).reshape(2, 3),
        "u": np.arange(4, dtype=np.uint8),
        "i": np.array([-3]),
        "scalar": np.array(2.5),
        "b": np.array([True, False]),
        "empty": np.zeros((0, 2)),
    }
    meta = {"pos": [0.5, 1.5], "steps": 7, "big": 2**100, "nested": {"x": [1, 2], "done": False}}
    save_checkpoint(tmp_path / "a.ckpt", meta, arrays)
    got_meta, got = load_checkpoint(tmp_path / "a.ckpt")
    assert got.keys() == arrays.keys()
    for name, value in arrays.items():
        assert got[name].dtype == value.dtype and got[name].shape == value.shape, name
        assert np.array_equal(got[name], value), name
        assert not got[name].flags.writeable
    assert got_meta == meta


def test_header_rejects_values_json_cannot_hold(tmp_path):
    # an ndarray too: arrays belong in the payload
    for value in (np.int64(7), np.array([0.5, 1.5])):
        with pytest.raises(TypeError):
            save_checkpoint(tmp_path / "a.ckpt", {"value": value}, {})
        assert not (tmp_path / "a.ckpt").exists()


def test_raw_writer_makes_a_loadable_file(tmp_path):
    path = write_raw(tmp_path / "ok.ckpt", [entry("a", "f8", [1], 0), entry("b", "u1", [2], 8)], bytes(10))
    _, arrays = load_checkpoint(path)
    assert arrays["a"].shape == (1,) and arrays["b"].shape == (2,)


BAD_PAYLOADS = {
    "entry overruns the payload": ([entry("a", "f8", [3], 0)], 16),
    "trailing bytes": ([entry("a", "f8", [2], 0)], 24),
    "unknown dtype": ([entry("a", "c16", [1], 0)], 16),
    "gap between arrays": ([entry("a", "f8", [1], 0), entry("b", "f8", [1], 16)], 24),
}


@pytest.mark.parametrize("entries, payload_len", BAD_PAYLOADS.values(), ids=BAD_PAYLOADS.keys())
def test_load_rejects_a_payload_that_its_entries_do_not_pack(tmp_path, entries, payload_len):
    path = write_raw(tmp_path / "bad.ckpt", entries, bytes(payload_len))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "magic, version, header_extra",
    [(b"NOTCKPT\x00", FORMAT_VERSION, 0), (MAGIC, FORMAT_VERSION + 1, 0), (MAGIC, FORMAT_VERSION, 100)],
    ids=["bad magic", "bad version", "header length past the end"],
)
def test_load_rejects_bad_framing(tmp_path, magic, version, header_extra):
    path = write_raw(tmp_path / "bad.ckpt", [], b"", magic=magic, version=version, header_extra=header_extra)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "keep", [lambda n: 20, lambda n: n // 2, lambda n: n - 1], ids=["20 bytes", "half", "all but one"]
)
def test_load_rejects_a_truncated_file(tmp_path, keep):
    data = small_checkpoint(tmp_path / "a.ckpt").read_bytes()
    (tmp_path / "a.ckpt").write_bytes(data[: keep(len(data))])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "a.ckpt")


@pytest.mark.parametrize("where", ["magic", "header", "payload", "digest"])
def test_load_rejects_a_flipped_bit(tmp_path, where):
    data = bytearray(small_checkpoint(tmp_path / "a.ckpt").read_bytes())
    index = {"magic": 2, "header": len(MAGIC) + 20, "payload": len(data) - 40, "digest": len(data) - 1}[where]
    data[index] ^= 0x10
    (tmp_path / "a.ckpt").write_bytes(bytes(data))
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "a.ckpt")


def test_an_array_given_as_pieces_is_written_as_their_concatenation(tmp_path):
    pieces = [np.arange(6.0).reshape(3, 2), np.arange(6.0, 8.0).reshape(1, 2), np.zeros((0, 2))]
    save_checkpoint(tmp_path / "pieces.ckpt", {"n": 1}, {"a": pieces, "b": np.arange(3)})
    save_checkpoint(tmp_path / "joined.ckpt", {"n": 1}, {"a": np.concatenate(pieces), "b": np.arange(3)})
    assert (tmp_path / "pieces.ckpt").read_bytes() == (tmp_path / "joined.ckpt").read_bytes()


@pytest.mark.parametrize(
    "pieces", [[np.zeros((2, 3)), np.zeros((1, 2))], [np.zeros(2), np.zeros(2, dtype=np.uint8)]],
    ids=["trailing shape", "dtype"],
)
def test_pieces_that_do_not_join_are_refused(tmp_path, pieces):
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "a.ckpt", {}, {"a": pieces})
    assert not (tmp_path / "a.ckpt").exists()


def test_load_reads_each_array_into_the_one_it_is_given(tmp_path):
    into = {"f": np.empty((2, 3)), "u": np.empty(4, dtype=np.uint8)}
    meta, arrays = load_checkpoint(small_checkpoint(tmp_path / "a.ckpt"), into)
    assert meta == {"step": 7}
    assert arrays.keys() == into.keys() and all(arrays[name] is into[name] for name in into)
    assert np.array_equal(into["f"], np.arange(6.0).reshape(2, 3)) and np.array_equal(into["u"], np.arange(4))
    assert into["f"].flags.writeable


BAD_DESTINATIONS = {
    "one destination too few": ({"f": np.empty((2, 3))}, "missing \\[\\], unexpected \\['u'\\]"),
    "one destination too many": ({"f": np.empty((2, 3)), "u": np.empty(4, np.uint8), "x": np.empty(1)}, "missing \\['x'\\]"),
    "shape": ({"f": np.empty((3, 2)), "u": np.empty(4, np.uint8)}, "f is float64\\(2, 3\\), not float64\\(3, 2\\)"),
    "dtype": ({"f": np.empty((2, 3)), "u": np.empty(4)}, "u is uint8\\(4,\\), not float64\\(4,\\)"),
}


@pytest.mark.parametrize("into, message", BAD_DESTINATIONS.values(), ids=BAD_DESTINATIONS.keys())
def test_load_refuses_destinations_unlike_the_header_before_it_reads_the_payload(tmp_path, into, message):
    # a flipped payload byte would fail the digest, had the payload been read
    data = bytearray(small_checkpoint(tmp_path / "a.ckpt").read_bytes())
    data[-40] ^= 0x10
    (tmp_path / "a.ckpt").write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(tmp_path / "a.ckpt", into)
