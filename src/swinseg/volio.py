"""Volume / label-map containers, the one binary container behind ``.mvol``
and ``.mckp`` files, atomic writes, and dataset manifests with
partial-label availability.

Container: an 8-byte magic, a little-endian uint32 header length, a UTF-8
JSON object header, then the payload. An MVOL (magic ``MVOL0001``) header is
``{kind, dims, spacing, classes, available}``; its payload is little-endian
float32 (images) or uint8 (labels), row-major with W fastest. Axis order is
(D, H, W) everywhere. Every file but the streaming training log is written
through ``atomic_write``, so a failed write leaves the old file in place.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"MVOL0001"


class FormatError(ValueError):
    """Malformed MVOL file; message carries the byte offset of the fault."""

    def __init__(self, msg, offset=None):
        if offset is not None:
            msg = f"{msg} (at byte offset {offset})"
        super().__init__(msg)
        self.offset = offset


class ValidationError(ValueError):
    """In-memory invariant violation (labels, manifests)."""


@dataclass
class Volume:
    voxels: np.ndarray                       # (D,H,W) float32
    spacing_mm: tuple[float, float, float]   # (sz, sy, sx)

    def __post_init__(self):
        self.voxels = np.ascontiguousarray(self.voxels, dtype=np.float32)
        if self.voxels.ndim != 3:
            raise ValidationError(f"Volume must be 3-D, got shape {self.voxels.shape}")
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        if len(self.spacing_mm) != 3 or any(s <= 0 for s in self.spacing_mm):
            raise ValidationError(f"spacing must be 3 positive reals, got {self.spacing_mm}")
        if not np.all(np.isfinite(self.voxels)):
            raise ValidationError("Volume contains non-finite voxels")

    @property
    def dims(self):
        return self.voxels.shape


@dataclass
class LabelMap:
    labels: np.ndarray                       # (D,H,W) uint8, 0 = background
    spacing_mm: tuple[float, float, float]
    num_classes: int                         # J; valid labels are 0..J
    available: frozenset[int] = field(default_factory=frozenset)  # subset of 1..J

    def __post_init__(self):
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
        if self.labels.ndim != 3:
            raise ValidationError(f"LabelMap must be 3-D, got shape {self.labels.shape}")
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        if len(self.spacing_mm) != 3 or any(s <= 0 for s in self.spacing_mm):
            raise ValidationError(f"spacing must be 3 positive reals, got {self.spacing_mm}")
        self.available = frozenset(int(c) for c in self.available)
        if any(c < 1 or c > self.num_classes for c in self.available):
            raise ValidationError(
                f"available classes {sorted(self.available)} outside 1..{self.num_classes}")
        present = set(np.unique(self.labels).tolist()) - {0}
        extra = present - self.available
        if extra:
            raise ValidationError(
                f"label values {sorted(extra)} present but not in available set "
                f"{sorted(self.available)}")

    @property
    def dims(self):
        return self.labels.shape


@dataclass
class CaseEntry:
    case_id: str
    image: str
    label: str | None
    split: str   # labeled | unlabeled | val | pseudo


@dataclass
class DatasetManifest:
    cases: list[CaseEntry]
    root: str = "."

    def split(self, name) -> list[CaseEntry]:
        return [c for c in self.cases if c.split == name]

    def image_path(self, case: CaseEntry) -> str:
        return os.path.join(self.root, case.image)

    def label_path(self, case: CaseEntry) -> str:
        return os.path.join(self.root, case.label)


SPLITS = ("labeled", "unlabeled", "val", "pseudo")


def atomic_write(path, chunks):
    """Write the byte strings ``chunks`` to a temporary file beside ``path``,
    then rename it over ``path``; on failure remove it and leave ``path`` as it
    was. Atomic against a crash of the process, not a power loss (no fsync)."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_json(path, obj):
    """Indented, key-sorted JSON plus a newline, written atomically."""
    atomic_write(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()])


def write_container(path, magic, header, blobs):
    """Frame ``header`` and the payload ``blobs`` behind ``magic``, atomically."""
    hj = json.dumps(header, sort_keys=True).encode("utf-8")
    atomic_write(path, [magic, struct.pack("<I", len(hj)), hj, *blobs])


def read_container(path, magic):
    """``(header, payload memoryview, payload offset)`` of a container file;
    a malformed frame raises ``FormatError``."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12:
        raise FormatError(f"{path}: too short for magic + header length", offset=0)
    if blob[:8] != magic:
        raise FormatError(f"{path}: bad magic {blob[:8]!r}, expected {magic!r}", offset=0)
    (hlen,) = struct.unpack("<I", blob[8:12])
    base = 12 + hlen
    if len(blob) < base:
        raise FormatError(f"{path}: header of {hlen} bytes runs past the end of the file",
                          offset=8)
    try:
        header = json.loads(blob[12:base].decode("utf-8"))
    except (ValueError, RecursionError) as e:   # bad UTF-8 or JSON, or nesting too deep
        raise FormatError(f"{path}: header is not UTF-8 JSON: {e}", offset=12)
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object", offset=12)
    return header, memoryview(blob)[base:], base


def write_mvol(obj, path):
    """Serialize a Volume or LabelMap; roundtrip is bit-exact."""
    if isinstance(obj, Volume):
        header = {
            "kind": "image",
            "dims": list(obj.dims),
            "spacing": list(obj.spacing_mm),
        }
        payload = obj.voxels.astype("<f4", copy=False).tobytes()
    elif isinstance(obj, LabelMap):
        header = {
            "kind": "label",
            "dims": list(obj.dims),
            "spacing": list(obj.spacing_mm),
            "classes": obj.num_classes,
            "available": sorted(obj.available),
        }
        payload = obj.labels.tobytes()
    else:
        raise TypeError(f"write_mvol: unsupported type {type(obj).__name__}")
    write_container(path, MAGIC, header, [payload])


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_ints(v, n=None):
    return isinstance(v, list) and (n is None or len(v) == n) and all(map(_is_int, v))


def read_mvol(path):
    """Deserialize an MVOL file to a Volume or LabelMap."""
    header, payload, off = read_container(path, MAGIC)
    kind = header.get("kind")
    dims = header.get("dims")
    spacing = header.get("spacing")
    if kind not in ("image", "label"):
        raise FormatError(f"{path}: unknown kind {kind!r}", offset=12)
    if not _is_ints(dims, 3) or min(dims) < 0 or max(dims) > np.iinfo(np.intp).max:
        raise FormatError(f"{path}: dims must be 3 non-negative array extents, got {dims!r}",
                          offset=12)
    if not (isinstance(spacing, list) and len(spacing) == 3 and all(
            isinstance(s, (int, float)) and not isinstance(s, bool) and math.isfinite(s)
            for s in spacing)):
        raise FormatError(f"{path}: spacing must be 3 finite numbers, got {spacing!r}",
                          offset=12)
    d, h, w = dims
    n = d * h * w

    if kind == "image":
        if len(payload) != 4 * n:
            raise FormatError(
                f"payload holds {len(payload) // 4} scalars, header declares {n}", offset=off)
        vox = np.frombuffer(payload, dtype="<f4").reshape(d, h, w)
        return Volume(vox.astype(np.float32), tuple(spacing))
    classes = header.get("classes")
    available = header.get("available")
    if not _is_int(classes) or not _is_ints(available):
        raise FormatError(f"{path}: label classes must be an int and available a list of "
                          f"ints, got {classes!r} and {available!r}", offset=12)
    if len(payload) != n:
        raise FormatError(
            f"payload holds {len(payload)} labels, header declares {n}", offset=off)
    labels = np.frombuffer(payload, dtype=np.uint8).reshape(d, h, w)
    return LabelMap(labels.copy(), tuple(spacing), num_classes=classes,
                    available=frozenset(available))


def load_manifest(path) -> DatasetManifest:
    """Parse and validate a dataset manifest JSON; stat-checks file refs."""
    with open(path, "rb") as f:
        try:
            raw = json.load(f)
        except (ValueError, RecursionError) as e:   # bad UTF-8 or JSON, or nesting too deep
            raise ValidationError(f"{path}: manifest is not JSON: {e}")
    cases_raw = raw.get("cases", []) if isinstance(raw, dict) else None
    if not isinstance(cases_raw, list):
        raise ValidationError(f"{path}: manifest must be a JSON object with a 'cases' list")
    root = os.path.dirname(os.path.abspath(path))
    cases = []
    seen = set()
    for entry in cases_raw:
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: case {entry!r} is not a JSON object")
        cid = entry.get("id")
        if not isinstance(cid, str):
            raise ValidationError(f"case id {cid!r} is not a string")
        if cid in seen:
            raise ValidationError(f"duplicate case id {cid!r}")
        seen.add(cid)
        split = entry.get("split")
        if split not in SPLITS:
            raise ValidationError(f"case {cid!r}: unknown split {split!r}")
        image = entry.get("image")
        label = entry.get("label")
        if not isinstance(image, str):
            raise ValidationError(f"case {cid!r}: image path {image!r} is not a string")
        if not isinstance(label, (str, type(None))):
            raise ValidationError(f"case {cid!r}: label path {label!r} is not a string")
        if split in ("labeled", "val", "pseudo") and label is None:
            raise ValidationError(f"case {cid!r}: split {split!r} requires a label path")
        if split == "unlabeled" and label is not None:
            raise ValidationError(f"case {cid!r}: unlabeled case must not carry a label path")
        if not os.path.exists(os.path.join(root, image)):
            raise ValidationError(f"case {cid!r}: dangling image reference {image!r}")
        if label is not None and not os.path.exists(os.path.join(root, label)):
            raise ValidationError(f"case {cid!r}: dangling label reference {label!r}")
        cases.append(CaseEntry(cid, image, label, split))
    return DatasetManifest(cases, root=root)


def save_manifest(manifest: DatasetManifest, path):
    """Write ``manifest`` to ``path`` with every file path relative to the
    directory of ``path``, where ``load_manifest`` resolves it; so a manifest
    may be saved anywhere."""
    base = os.path.dirname(os.path.abspath(path))

    def rel(p):
        return None if p is None else os.path.relpath(os.path.join(manifest.root, p), base)

    write_json(path, {"cases": [
        {k: v for k, v in
         {"id": c.case_id, "image": rel(c.image), "label": rel(c.label),
          "split": c.split}.items()
         if v is not None}
        for c in manifest.cases]})
