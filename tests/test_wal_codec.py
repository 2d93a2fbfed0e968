"""The write-ahead log's COMMIT record codec (format 2) and its fallback.

A COMMIT payload is a small JSON head followed by the bounds and ELS boxes
as raw little-endian float64 rows (``wal.encode_commit`` /
``wal.decode_commit``).  These tests pin:

- a binary commit round-trips bit for bit, ``-0.0``, subnormals and
  dropped (``None``) ELS entries included, and decodes to the same shape
  as a format-1 (JSON) payload;
- a log written in format 1 replays, fscks clean and salvages, and ends in
  the same tree state as the same writes logged in format 2;
- ``salvage()`` reads the committed free list from both formats;
- a malformed payload is a ``ValueError``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core import HybridTree
from repro.datasets import uniform_dataset
from repro.geometry.rect import Rect
from repro.storage import wal as wal_io
from repro.storage.recovery import salvage, verify

DIMS = 3
PAGE = 512


def format1_commit(meta: dict) -> bytes:
    """The format-1 COMMIT payload: the whole metadata as JSON text."""
    meta = dict(meta)
    if "bounds" in meta:
        meta["bounds"] = [np.asarray(v).tolist() for v in meta["bounds"]]
    if "els" in meta:
        meta["els"] = {
            str(nid): None if box is None else [np.asarray(v).tolist() for v in box]
            for nid, box in meta["els"].items()
        }
    return json.dumps(meta, sort_keys=True).encode()


def _bits(v) -> bytes:
    return np.asarray(v, dtype=np.float64).tobytes()


def _awkward_floats(rng, dims: int) -> np.ndarray:
    v = rng.normal(size=dims)
    v[0] = -0.0
    v[1 % dims] = 5e-324  # the smallest subnormal
    v[2 % dims] = -2.2250738585072014e-309
    return v


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------
def test_binary_commit_round_trips_bit_exactly():
    rng = np.random.default_rng(3)
    dims = 7
    bounds = (_awkward_floats(rng, dims), _awkward_floats(rng, dims))
    boxes = {nid: (_awkward_floats(rng, dims), _awkward_floats(rng, dims)) for nid in (3, 17, 250)}
    els = {3: boxes[3], 9: None, 17: boxes[17], 250: boxes[250], 1000: None}
    meta = {
        "kind": "delete", "count": 12, "root_id": 4, "height": 2,
        "bounds": bounds, "els": els, "free_ids": [5, 8], "next_id": 300,
    }
    payload = wal_io.encode_commit(meta)
    assert payload[:1] != b"{"
    out = wal_io.decode_commit(payload)
    assert {k: out[k] for k in ("kind", "count", "root_id", "height", "free_ids", "next_id")} == {
        "kind": "delete", "count": 12, "root_id": 4, "height": 2,
        "free_ids": [5, 8], "next_id": 300,
    }
    assert [_bits(v) for v in out["bounds"]] == [_bits(v) for v in bounds]
    assert set(out["els"]) == {"3", "9", "17", "250", "1000"}
    assert out["els"]["9"] is None and out["els"]["1000"] is None
    for nid, (low, high) in boxes.items():
        got_low, got_high = out["els"][str(nid)]
        assert (_bits(got_low), _bits(got_high)) == (_bits(low), _bits(high))
        assert got_low.dtype == np.float64 and got_low.flags.writeable

    # The format-1 text of the same metadata decodes to the same values.
    old = wal_io.decode_commit(format1_commit(meta))
    assert [_bits(v) for v in old["bounds"]] == [_bits(v) for v in out["bounds"]]
    assert {k: None if v is None else [_bits(x) for x in v] for k, v in old["els"].items()} == {
        k: None if v is None else [_bits(x) for x in v] for k, v in out["els"].items()
    }

    # Raw rows are about a third the size of the decimal text.
    assert len(payload) < 0.6 * len(format1_commit(meta))


@pytest.mark.parametrize(
    "meta",
    [{}, {"i": 3}, {"kind": "test", "count": 1}, {"els": {}}, {"els": {4: None}},
     {"bounds": (np.zeros(2), np.ones(2))}],
)
def test_commits_without_floats_or_with_few_round_trip(meta):
    out = wal_io.decode_commit(wal_io.encode_commit(meta))
    assert set(out) == set(meta)
    for key, val in meta.items():
        if key == "bounds":
            assert [_bits(v) for v in out[key]] == [_bits(v) for v in val]
        elif key == "els":
            assert out[key] == {str(k): v for k, v in val.items()}
        else:
            assert out[key] == val


@pytest.mark.parametrize(
    "payload",
    [b"", b"\x02", b"\x03\x02\x00\x00\x00{}", b"\x02\x02\x00\x00\x00{}" + b"\x00" * 8,
     wal_io.encode_commit({"bounds": (np.zeros(2), np.ones(2))})[:-3], b"{not json"],
)
def test_malformed_payload_is_a_value_error(payload):
    with pytest.raises(ValueError):
        wal_io.decode_commit(payload)


# ----------------------------------------------------------------------
# Whole logs in both formats
# ----------------------------------------------------------------------
def _saved(tmp_path, name: str) -> str:
    data = uniform_dataset(400, DIMS, seed=5)
    tree = HybridTree.bulk_load(data, page_size=PAGE)
    path = str(tmp_path / name)
    tree.save(path)
    tree.close()
    return path


def _write_log(path: str) -> dict[int, np.ndarray]:
    """Inserts and a run of deletes that underflows and frees pages, all
    through the WAL, closed without a save.  Returns the live model."""
    data = uniform_dataset(400, DIMS, seed=5)
    model = {oid: v for oid, v in enumerate(data)}
    rng = np.random.default_rng(9)
    tree = HybridTree.open(path, wal=True)
    for oid in range(1000, 1060):
        v = rng.random(DIMS).astype(np.float32)
        tree.insert(v, oid)
        model[oid] = v
    for oid in sorted(model, key=lambda o: float(model[o][0]))[:150]:
        assert tree.delete(model.pop(oid), oid)
    assert tree.nm.store.free_page_ids  # the deletes freed pages
    tree.close()
    return model


def _tree_state(tree):
    everything = Rect(np.full(DIMS, -1.0), np.full(DIMS, 2.0))
    return (
        len(tree),
        sorted(tree.range_search(everything)),
        [(nid, rect.low.tobytes(), rect.high.tobytes()) for nid, rect in tree.els.items()],
        tree.bounds.low.tobytes(),
        tree.bounds.high.tobytes(),
        tree._root_id,
        tree._height,
    )


def _payload_heads(path: str) -> set[bytes]:
    scan = wal_io.scan_wal(wal_io.wal_path_for(path))
    return {r.payload[:1] for r in scan.records if r.type == wal_io.REC_COMMIT}


def test_format1_log_replays_fscks_and_matches_format2(tmp_path, monkeypatch):
    path2 = _saved(tmp_path, "new.pages")
    model = _write_log(path2)
    assert _payload_heads(path2) == {b"\x02"}

    path1 = _saved(tmp_path, "old.pages")
    with monkeypatch.context() as m:
        m.setattr(wal_io, "encode_commit", format1_commit)
        m.setattr(wal_io, "WAL_FORMAT", 1)
        assert _write_log(path1).keys() == model.keys()
    assert _payload_heads(path1) == {b"{"}
    assert wal_io.scan_wal(wal_io.wal_path_for(path1)).header["format"] == 1
    assert os.path.getsize(wal_io.wal_path_for(path2)) < os.path.getsize(
        wal_io.wal_path_for(path1)
    )

    states = []
    for path in (path1, path2):
        report = verify(path)
        assert report.ok, report.render()
        assert report.wal_transactions == 210
        tree = HybridTree.open(path)
        assert tree.wal_replayed_transactions == 210
        tree.validate()
        assert sorted(tree.range_search(Rect(np.zeros(DIMS), np.ones(DIMS)))) == sorted(model)
        states.append(_tree_state(tree))
        tree.close()
    assert states[0] == states[1]

    # A format-2 writer continues a format-1 log; replay reads both.
    tree = HybridTree.open(path1, wal=True)
    tree.insert(np.full(DIMS, 0.5, dtype=np.float32), 5000)
    tree.close()
    assert _payload_heads(path1) == {b"{", b"\x02"}
    tree = HybridTree.open(path1)
    assert 5000 in tree.point_search(np.full(DIMS, 0.5))
    assert len(tree) == len(model) + 1
    tree.close()


@pytest.mark.parametrize("fmt", [1, 2])
def test_salvage_reads_free_ids_from_either_format(tmp_path, monkeypatch, fmt):
    """The deletes moved entries out of pages the log then freed; the base
    file still holds those pages' old images.  Salvage must skip them (the
    last commit's ``free_ids``), or it would bring deleted and moved
    entries back."""
    path = _saved(tmp_path, "t.pages")
    with monkeypatch.context() as m:
        if fmt == 1:
            m.setattr(wal_io, "encode_commit", format1_commit)
        model = _write_log(path)
    out = str(tmp_path / "salvaged.pages")
    report = salvage(path, out)
    assert report.wal_transactions == 210
    rebuilt = HybridTree.open(out)
    everything = Rect(np.full(DIMS, -1.0), np.full(DIMS, 2.0))
    assert sorted(rebuilt.range_search(everything)) == sorted(model)
    rebuilt.close()
