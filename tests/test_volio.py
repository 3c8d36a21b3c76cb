import collections
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swinseg.model import Checkpoint, ModelConfig, SwinSegModel, load_checkpoint, save_checkpoint
from swinseg.volio import (
    FormatError, LabelMap, ValidationError, Volume, atomic_write,
    load_manifest, read_mvol, save_manifest, write_mvol, DatasetManifest, CaseEntry,
)


def random_volume(rng, dims=(8, 8, 8)):
    return Volume(rng.normal(size=dims).astype(np.float32), (1.0, 0.8, 1.2))


def mvol_bytes(header, payload):
    hj = json.dumps(header).encode()
    return b"MVOL0001" + struct.pack("<I", len(hj)) + hj + payload


LABEL_HEADER = {"kind": "label", "dims": [1, 1, 2], "spacing": [1, 1, 1],
                "classes": 2, "available": [1, 2]}
# headers of a 2-voxel label file that break the MVOL header schema
BAD_LABEL_HEADERS = {
    "no_spacing": {k: v for k, v in LABEL_HEADER.items() if k != "spacing"},
    "header_list": [LABEL_HEADER],
    "dims_negative": {**LABEL_HEADER, "dims": [-2, -1, 1]},
    "dims_not_int": {**LABEL_HEADER, "dims": ["x", 1, 1]},
    "spacing_str": {**LABEL_HEADER, "spacing": "abc"},
    "spacing_nan": {**LABEL_HEADER, "spacing": [float("nan"), 1, 1]},
    "classes_str": {**LABEL_HEADER, "classes": "2"},
    "available_str": {**LABEL_HEADER, "available": ["q"]},
    "no_available": {k: v for k, v in LABEL_HEADER.items() if k != "available"},
}
# manifests that are not a JSON object holding a list of case objects
BAD_MANIFESTS = {
    "not_json": "{not json",
    "top_level_list": "[]",
    "case_not_object": json.dumps({"cases": [5]}),
    "cases_not_list": json.dumps({"cases": {"a": 1}}),
    "image_not_str": json.dumps({"cases": [{"id": "a", "image": 5, "split": "unlabeled"}]}),
    "id_not_str": json.dumps({"cases": [{"id": [1], "image": "a.mvol", "split": "unlabeled"}]}),
}


class TestMvolRoundtrip:
    def test_volume_roundtrip(self, rng, tmp_path):
        v = random_volume(rng)
        p = tmp_path / "v.mvol"
        write_mvol(v, p)
        r = read_mvol(p)
        assert r.voxels.tobytes() == v.voxels.tobytes()
        assert r.spacing_mm == v.spacing_mm

    def test_label_roundtrip(self, rng, tmp_path):
        lab = LabelMap(rng.integers(0, 4, size=(5, 6, 7)).astype(np.uint8),
                       (2.0, 2.0, 2.0), num_classes=5, available=frozenset({1, 2, 3}))
        p = tmp_path / "l.mvol"
        write_mvol(lab, p)
        r = read_mvol(p)
        assert r.labels.tobytes() == lab.labels.tobytes()
        assert r.available == lab.available
        assert r.num_classes == 5

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(1, 6), h=st.integers(1, 6), w=st.integers(1, 6),
           seed=st.integers(0, 2 ** 16), label=st.booleans(),
           classes=st.integers(1, 6))
    def test_roundtrip_property(self, tmp_path_factory, d, h, w, seed, label, classes):
        rng = np.random.default_rng(seed)
        p = tmp_path_factory.mktemp("rt") / "x.mvol"
        spacing = tuple(rng.uniform(0.5, 3.0, size=3))
        if label:
            avail = frozenset(int(c) for c in
                              rng.choice(range(1, classes + 1),
                                         size=rng.integers(1, classes + 1), replace=False))
            vals = [0] + sorted(avail)
            data = rng.choice(vals, size=(d, h, w)).astype(np.uint8)
            obj = LabelMap(data, spacing, classes, avail)
            write_mvol(obj, p)
            r = read_mvol(p)
            assert np.array_equal(r.labels, obj.labels)
            assert r.available == obj.available
        else:
            obj = Volume(rng.normal(size=(d, h, w)).astype(np.float32), spacing)
            write_mvol(obj, p)
            r = read_mvol(p)
            assert np.array_equal(r.voxels, obj.voxels)
        assert r.spacing_mm == obj.spacing_mm


class TestMvolErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mvol"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError, match="offset 0"):
            read_mvol(p)

    def test_truncated_payload(self, rng, tmp_path):
        p = tmp_path / "t.mvol"
        write_mvol(random_volume(rng, (2, 2, 2)), p)
        blob = p.read_bytes()
        p.write_bytes(blob[:-4])  # 7 scalars for 8 declared voxels
        with pytest.raises(FormatError, match="7 scalars"):
            read_mvol(p)

    def test_label_value_outside_available(self, tmp_path):
        # craft a file whose payload contains label 5 with available {1,2}
        header = {"kind": "label", "dims": [1, 1, 2], "spacing": [1, 1, 1],
                  "classes": 5, "available": [1, 2]}
        hj = json.dumps(header).encode()
        blob = b"MVOL0001" + struct.pack("<I", len(hj)) + hj + bytes([1, 5])
        p = tmp_path / "l.mvol"
        p.write_bytes(blob)
        with pytest.raises(ValidationError, match=r"\[5\]"):
            read_mvol(p)

    def test_golden_bytes_little_endian(self, tmp_path):
        # golden fixture: 1x1x2 image with voxels [1.0, -2.0]
        v = Volume(np.array([[[1.0, -2.0]]], dtype=np.float32), (1.0, 1.0, 1.0))
        p = tmp_path / "g.mvol"
        write_mvol(v, p)
        blob = p.read_bytes()
        assert blob[:8] == b"MVOL0001"
        (hlen,) = struct.unpack("<I", blob[8:12])
        assert blob[12:12 + hlen] == b'{"dims": [1, 1, 2], "kind": "image", "spacing": [1.0, 1.0, 1.0]}'
        assert blob[12 + hlen:] == struct.pack("<ff", 1.0, -2.0)

    @pytest.mark.parametrize("fault", BAD_LABEL_HEADERS)
    def test_header_schema(self, tmp_path, fault):
        p = tmp_path / "l.mvol"
        p.write_bytes(mvol_bytes(BAD_LABEL_HEADERS[fault], bytes([1, 2])))
        with pytest.raises(FormatError, match=r"offset 12\)"):
            read_mvol(p)

    def test_extent_beyond_array_limit(self, tmp_path):
        p = tmp_path / "h.mvol"
        p.write_bytes(mvol_bytes({**LABEL_HEADER, "dims": [10 ** 30, 0, 1]}, b""))
        with pytest.raises(FormatError, match="dims"):
            read_mvol(p)


class TestMutation:
    def test_truncations_and_header_bit_flips(self, tmp_path):
        """Every truncation and header bit flip of a tiny image, label map and
        checkpoint loads or raises FormatError/ValidationError, nothing else."""
        cfg = ModelConfig(num_classes=1, embed_dim=1, patch_size=1, window=2,
                          depths=[1], heads=[1], mlp_ratio=1.0)
        save_checkpoint(Checkpoint.from_model(SwinSegModel(cfg), step=1), tmp_path / "c.mckp")
        write_mvol(Volume(np.arange(8, dtype=np.float32).reshape(2, 2, 2), (1.0, 0.5, 2.0)),
                   tmp_path / "i.mvol")
        write_mvol(LabelMap(np.array([0, 1, 2, 0, 1, 2, 0, 0], np.uint8).reshape(2, 2, 2),
                            (1, 1, 1), 2, frozenset({1, 2})), tmp_path / "l.mvol")
        escaped = collections.Counter()
        path = tmp_path / "mutant"
        for name, read in (("i.mvol", read_mvol), ("l.mvol", read_mvol),
                           ("c.mckp", load_checkpoint)):
            blob = (tmp_path / name).read_bytes()
            (hlen,) = struct.unpack("<I", blob[8:12])
            mutants = [blob[:n] for n in range(len(blob))]
            for i in range(12 + hlen):
                # all 8 bits of the .mvol headers and of every frame byte; one bit,
                # rotating, of each byte of the ~5 kB checkpoint header
                bits = range(8) if name.endswith(".mvol") or i < 12 else (i % 8,)
                mutants += [blob[:i] + bytes([blob[i] ^ 1 << b]) + blob[i + 1:] for b in bits]
            for m in mutants:
                # a new file each time: truncating an existing one in place makes
                # ext4 flush it, which costs tens of milliseconds
                path.unlink(missing_ok=True)
                path.write_bytes(m)
                try:
                    read(path)
                except (FormatError, ValidationError):
                    pass
                except Exception as e:  # noqa: BLE001
                    escaped[f"{name}: {type(e).__name__}: {e}"] += 1
        assert not escaped, escaped


class TestAtomicWrite:
    def test_failed_chunk_keeps_old_file(self, rng, tmp_path):
        p = tmp_path / "v.mvol"
        write_mvol(random_volume(rng), p)
        old = p.read_bytes()

        def chunks():
            yield b"MVOL0001"
            raise OSError("device full")

        with pytest.raises(OSError, match="device full"):
            atomic_write(p, chunks())
        assert p.read_bytes() == old
        assert os.listdir(tmp_path) == ["v.mvol"]

    def test_failed_rename_keeps_old_file(self, rng, tmp_path, monkeypatch):
        p = tmp_path / "v.mvol"
        write_mvol(random_volume(rng), p)
        old = p.read_bytes()

        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            write_mvol(random_volume(rng, (2, 2, 2)), p)
        assert p.read_bytes() == old
        assert os.listdir(tmp_path) == ["v.mvol"]


class TestManifest:
    def _write(self, tmp_path, cases):
        rng = np.random.default_rng(0)
        for c in cases:
            write_mvol(random_volume(rng, (2, 2, 2)), tmp_path / c["image"])
            if c.get("label"):
                write_mvol(LabelMap(np.zeros((2, 2, 2), np.uint8), (1, 1, 1), 2,
                                    frozenset({1})), tmp_path / c["label"])
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps({"cases": cases}))
        return mp

    def test_splits_preserved(self, tmp_path):
        mp = self._write(tmp_path, [
            {"id": "a", "image": "a.mvol", "label": "a_l.mvol", "split": "labeled"},
            {"id": "b", "image": "b.mvol", "label": "b_l.mvol", "split": "labeled"},
            {"id": "c", "image": "c.mvol", "split": "unlabeled"},
        ])
        m = load_manifest(mp)
        assert len(m.split("labeled")) == 2
        assert len(m.split("unlabeled")) == 1

    def test_duplicate_id(self, tmp_path):
        mp = self._write(tmp_path, [
            {"id": "c1", "image": "a.mvol", "label": "a_l.mvol", "split": "labeled"},
            {"id": "c1", "image": "b.mvol", "label": "b_l.mvol", "split": "labeled"},
        ])
        with pytest.raises(ValidationError, match="c1"):
            load_manifest(mp)

    def test_unlabeled_with_label_path(self, tmp_path):
        mp = self._write(tmp_path, [
            {"id": "a", "image": "a.mvol", "label": "a_l.mvol", "split": "unlabeled"},
        ])
        with pytest.raises(ValidationError, match="unlabeled"):
            load_manifest(mp)

    def test_labeled_missing_label(self, tmp_path):
        mp = self._write(tmp_path, [
            {"id": "a", "image": "a.mvol", "split": "labeled"},
        ])
        with pytest.raises(ValidationError, match="label"):
            load_manifest(mp)

    def test_dangling_reference(self, tmp_path):
        mp = tmp_path / "manifest.json"
        mp.write_text(json.dumps({"cases": [
            {"id": "a", "image": "missing.mvol", "split": "unlabeled"}]}))
        with pytest.raises(ValidationError, match="dangling"):
            load_manifest(mp)

    @pytest.mark.parametrize("fault", BAD_MANIFESTS)
    def test_malformed_manifest(self, tmp_path, fault):
        mp = tmp_path / "manifest.json"
        mp.write_text(BAD_MANIFESTS[fault])
        with pytest.raises(ValidationError):
            load_manifest(mp)

    def test_save_load_roundtrip(self, tmp_path):
        mp = self._write(tmp_path, [
            {"id": "a", "image": "a.mvol", "label": "a_l.mvol", "split": "labeled"},
        ])
        m = load_manifest(mp)
        save_manifest(m, tmp_path / "m2.json")
        m2 = load_manifest(tmp_path / "m2.json")
        assert m2.cases == m.cases

    def test_save_elsewhere_resolves(self, tmp_path):
        # paths are written relative to the new manifest's own directory
        (tmp_path / "data").mkdir()
        m = load_manifest(self._write(tmp_path / "data", [
            {"id": "a", "image": "a.mvol", "label": "a_l.mvol", "split": "labeled"},
            {"id": "b", "image": "b.mvol", "split": "unlabeled"},
        ]))
        out = tmp_path / "other" / "deeper"
        out.mkdir(parents=True)
        save_manifest(m, out / "manifest.json")
        m2 = load_manifest(out / "manifest.json")
        assert [c.image for c in m2.cases] == ["../../data/a.mvol", "../../data/b.mvol"]
        for c, c2 in zip(m.cases, m2.cases):
            assert os.path.samefile(m.image_path(c), m2.image_path(c2))
        assert os.path.samefile(m.label_path(m.cases[0]), m2.label_path(m2.cases[0]))


class TestInvariants:
    def test_label_invariant_enforced(self):
        with pytest.raises(ValidationError):
            LabelMap(np.full((2, 2, 2), 3, np.uint8), (1, 1, 1), 3, frozenset({1}))

    def test_nonfinite_rejected(self):
        bad = np.zeros((2, 2, 2), np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            Volume(bad, (1, 1, 1))

    def test_bad_spacing(self):
        with pytest.raises(ValidationError):
            Volume(np.zeros((2, 2, 2), np.float32), (1.0, 0.0, 1.0))
