"""File formats, intensity normalization and rescaling.

The tensor container is a deliberately tiny binary layout so round trips
are bit-exact and testable without third-party readers:

    magic "OCET" | version u8 = 1 | dtype u8 | ndim u8 | dims u32le * ndim
    | payload, row-major little-endian

dtype codes: 0 = float32, 1 = int32, 2 = uint8.

Checkpoints and other multi-tensor files use the archive layout, which is
a counted sequence of named tensor blocks:

    magic "OCEA" | version u8 = 1 | count u32le
    | (name_len u16le | name utf-8 | tensor block) * count

Dataset directories follow the convention ``images/*.ocet`` with optional
``labels/*.ocet`` under matching stems, each on its image's (H, W) grid.
``dataset_reader`` reads a dataset one stem at a time, an image and, when
asked, its label, so a command need hold only the image it works on;
``load_dataset`` is the whole set in memory.  ``label_reader`` reads the
label masks of a dataset root, a ``segment`` output root or a flat folder
of ``.ocet`` files the same way, one stem at a time.  ``DataConfig`` says
how each image is prepared before the network sees it; images are
(C, H, W) throughout.
Binary PGM is only ever written, to visualise label masks; nothing reads it.
Every file the package writes comes from ``_write_atomic``, which makes the
file's directory and renames a whole temporary file over it, without fsync.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateError,
    FormatError,
    LabelError,
    ShapeError,
    check_bool,
    check_real,
)

TENSOR_MAGIC = b"OCET"
ARCHIVE_MAGIC = b"OCEA"
FORMAT_VERSION = 1

_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<i4"), 2: np.dtype("u1")}
_DTYPE_TO_CODE = {
    np.dtype(np.float32): 0,
    np.dtype(np.int32): 1,
    np.dtype(np.uint8): 2,
}


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr)
    if arr.dtype not in _DTYPE_TO_CODE:
        raise FormatError(f"unsupported dtype {arr.dtype} (use float32, int32 or uint8)")
    if arr.ndim > 255:
        raise FormatError("too many dimensions")
    head = TENSOR_MAGIC + struct.pack(
        "<BBB", FORMAT_VERSION, _DTYPE_TO_CODE[arr.dtype], arr.ndim
    )
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
    payload = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
    return head + dims + payload


def tensor_from_bytes(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one tensor block starting at offset; returns (array, next offset)."""
    if len(buf) - offset < 7:
        raise FormatError("truncated header")
    if buf[offset:offset + 4] != TENSOR_MAGIC:
        raise FormatError(f"bad magic {buf[offset:offset + 4]!r}, expected {TENSOR_MAGIC!r}")
    version, code, ndim = struct.unpack_from("<BBB", buf, offset + 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version (expected {FORMAT_VERSION}, found {version})")
    if code not in _CODE_TO_DTYPE:
        raise FormatError(f"unknown dtype code {code}")
    pos = offset + 7
    if len(buf) - pos < 4 * ndim:
        raise FormatError("truncated dimension list")
    dims = struct.unpack_from(f"<{ndim}I", buf, pos) if ndim else ()
    pos += 4 * ndim
    dtype = _CODE_TO_DTYPE[code]
    count = 1
    for d in dims:
        count *= d
    nbytes = count * dtype.itemsize
    if len(buf) - pos < nbytes:
        raise FormatError(
            f"truncated payload (expected {nbytes} bytes, found {len(buf) - pos})"
        )
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=pos).reshape(dims)
    return arr.astype(dtype.newbyteorder("=")), pos + nbytes


def _write_atomic(path, payload: bytes) -> None:
    """Make ``path``'s directory, write ``payload`` to a temporary file beside
    it and rename that over ``path``: readers see the old file or the whole
    new one, never a truncated one, and a failed write removes its temporary.

    There is no fsync: the rename guards against the process dying, not the
    machine losing power, which keeps dataset and label writes cheap.
    """
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def tensor_write(path, arr: np.ndarray) -> None:
    _write_atomic(path, tensor_to_bytes(arr))


def tensor_read(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    arr, end = tensor_from_bytes(buf)
    if end != len(buf):
        raise FormatError(f"trailing data ({len(buf) - end} extra bytes)")
    return arr


def archive_write(path, tensors: dict[str, np.ndarray]) -> None:
    parts = [ARCHIVE_MAGIC, struct.pack("<BI", FORMAT_VERSION, len(tensors))]
    for name, arr in tensors.items():
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(tensor_to_bytes(arr))
    _write_atomic(path, b"".join(parts))


def archive_read(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 9:
        raise FormatError("truncated archive header")
    if buf[:4] != ARCHIVE_MAGIC:
        raise FormatError(f"bad magic {buf[:4]!r}, expected {ARCHIVE_MAGIC!r}")
    version, count = struct.unpack_from("<BI", buf, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version (expected {FORMAT_VERSION}, found {version})")
    pos = 9
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        if len(buf) - pos < 2:
            raise FormatError("truncated entry name")
        (nlen,) = struct.unpack_from("<H", buf, pos)
        pos += 2
        if len(buf) - pos < nlen:
            raise FormatError("truncated entry name")
        name = buf[pos:pos + nlen].decode("utf-8")
        pos += nlen
        if name in out:
            raise FormatError(f"repeated entry name {name!r}")
        arr, pos = tensor_from_bytes(buf, pos)
        out[name] = arr
    if pos != len(buf):
        raise FormatError(f"trailing data ({len(buf) - pos} extra bytes)")
    return out


# ---------------------------------------------------------------------------
# PGM (binary P5), written for visualisation only

def pgm_write(path, image: np.ndarray) -> None:
    """Write an (H, W) uint8 or uint16 image as binary P5 with maxval 255 or
    65535, the range of its dtype."""
    if image.ndim != 2:
        raise ShapeError("pgm_write expects (H, W)")
    if image.dtype not in (np.uint8, np.uint16):
        raise FormatError(f"pgm_write expects uint8 or uint16, got {image.dtype}")
    maxval = np.iinfo(image.dtype).max
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n".encode("ascii")
    _write_atomic(path, header + image.astype(image.dtype.newbyteorder(">")).tobytes())


def check_labels(labels) -> np.ndarray:
    """``labels`` as an array; a non-integer dtype or negative id raises :class:`LabelError`."""
    lab = np.asarray(labels)
    if not np.issubdtype(lab.dtype, np.integer):
        raise LabelError(f"label ids must be integers, got dtype {lab.dtype}")
    if lab.size and lab.min() < 0:
        raise LabelError(f"label ids must be non-negative, found {lab.min()}")
    return lab


def relabel_consecutive(labels) -> tuple[np.ndarray, np.ndarray]:
    """Number the positive ids 1..n in ascending order, keeping 0 as background;
    returns (int32 mask, the n original ids in the mask's dtype)."""
    lab = check_labels(labels)
    top = int(lab.max(initial=0))
    if top > lab.size:
        # ids beyond the pixel count: sort, as a table by id could be huge
        ids, inverse = np.unique(lab.ravel(), return_inverse=True)
        background = int(ids[0] == 0)
        compact = (inverse.reshape(lab.shape) + (1 - background)).astype(np.int32)
        return compact, ids[background:]
    # index by the labels as they are: a widened copy would cost 8 bytes a pixel
    present = np.zeros(top + 1, bool)
    present[lab] = True
    present[0] = False
    # absent ids are never looked up, so the running count is the whole table
    lut = np.cumsum(present, dtype=np.int32)
    return lut[lab], np.flatnonzero(present).astype(lab.dtype)


def labels_to_gray(labels: np.ndarray) -> np.ndarray:
    """Map the id of rank k among n ids to gray level ``k * maxval // n``: a
    uint8 image (maxval 255) up to 255 ids, else uint16 (maxval 65535)."""
    compact, ids = relabel_consecutive(labels)
    n = len(ids)
    dtype = np.uint8 if n <= 255 else np.uint16
    gray = compact.astype(np.int64) * np.iinfo(dtype).max // max(n, 1)
    return gray.astype(dtype)


# ---------------------------------------------------------------------------
# Normalization and rescaling

@dataclass(frozen=True)
class DataConfig:
    normalize: bool = True   # percentile-normalize each image
    rescale: float = 1.0     # resampling factor applied before the network

    def __post_init__(self):
        check_bool("normalize", self.normalize)
        check_real("rescale", self.rescale)
        if self.rescale <= 0:
            raise ConfigError(f"rescale must be positive, got {self.rescale!r}")


def normalize_percentile(image: np.ndarray) -> np.ndarray:
    """Affinely map the 1st percentile to 0 and the 99.8th to 1, per channel
    of a (C, H, W) image; any other rank, or an image without pixels, raises
    :class:`ShapeError`.

    No clipping is applied; percentiles use linear interpolation of the
    sorted sample.  A constant channel is an error.
    """
    img = np.asarray(image, dtype=np.float32)
    if img.ndim != 3 or img.size == 0:
        raise ShapeError(f"normalize_percentile expects (C, H, W) with pixels, "
                         f"got shape {img.shape}")
    out = np.empty_like(img)
    for c in range(img.shape[0]):
        lo = np.percentile(img[c], 1.0)
        hi = np.percentile(img[c], 99.8)
        if hi <= lo:
            raise DegenerateError(f"channel {c} has no spread between percentiles")
        out[c] = (img[c] - lo) / (hi - lo)
    return out


def _source_coords(n_out: int, n_in: int) -> np.ndarray:
    """Source coordinate of every output line along an axis resampled from
    ``n_in`` to ``n_out`` lines: pixel centres map onto pixel centres,
    (o + 0.5) * n_in / n_out - 0.5, clipped to [0, n_in - 1].  The one grid
    rule of ``rescale_image`` and ``rescale_labels``, so labels found on a
    rescaled image map back onto the pixels they came from."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * n_in / n_out - 0.5
    return np.clip(src, 0.0, n_in - 1)


def rescale_image(image: np.ndarray, factor: float) -> np.ndarray:
    """Bilinear resampling of (C, H, W) intensity data onto the
    round(H * factor) x round(W * factor) grid (``_source_coords``)."""
    if factor <= 0:
        raise ShapeError("factor must be positive")
    img = np.asarray(image, dtype=np.float32)
    _, H, W = img.shape
    Ho, Wo = int(round(H * factor)), int(round(W * factor))
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"output {Ho}x{Wo} smaller than one pixel")
    if factor == 1.0:
        return img.copy()
    ys = _source_coords(Ho, H)
    xs = _source_coords(Wo, W)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, H - 1)
    x1 = np.minimum(x0 + 1, W - 1)
    wy = (ys - y0).astype(np.float32)
    wx = (xs - x0).astype(np.float32)
    top = img[:, y0][:, :, x0] * (1 - wx) + img[:, y0][:, :, x1] * wx
    bot = img[:, y1][:, :, x0] * (1 - wx) + img[:, y1][:, :, x1] * wx
    out = top * (1 - wy)[None, :, None] + bot * wy[None, :, None]
    return out.astype(np.float32)


def rescale_labels(labels: np.ndarray, out_shape) -> np.ndarray:
    """Nearest-neighbour resampling of an (H, W) integer label mask onto an
    ``out_shape`` grid (``_source_coords``, rounded), e.g. to map a mask
    produced at some working scale back onto the exact original grid."""
    lab = np.asarray(labels)
    H, W = lab.shape
    Ho, Wo = out_shape
    if Ho < 1 or Wo < 1:
        raise ShapeError(f"output {Ho}x{Wo} smaller than one pixel")
    ys = np.rint(_source_coords(Ho, H)).astype(np.int64)
    xs = np.rint(_source_coords(Wo, W)).astype(np.int64)
    return lab[ys][:, xs]


# ---------------------------------------------------------------------------
# Dataset directory convention

def save_dataset(root, images, labels=None, stems=None) -> None:
    """Write images (and optional labels) as ``images/<stem>.ocet`` etc."""
    root = os.fspath(root)
    if stems is None:
        stems = [f"im{i:04d}" for i in range(len(images))]
    for i, stem in enumerate(stems):
        tensor_write(os.path.join(root, "images", stem + ".ocet"),
                     np.asarray(images[i], np.float32))
        if labels is not None:
            tensor_write(os.path.join(root, "labels", stem + ".ocet"),
                         np.asarray(labels[i], np.int32))


def ocet_stems(directory) -> list[str]:
    """Sorted stems of the ``.ocet`` files in ``directory``; none is an error."""
    stems = sorted(os.path.splitext(f)[0] for f in os.listdir(directory) if f.endswith(".ocet"))
    if not stems:
        raise FormatError(f"no .ocet files under {directory}")
    return stems


def label_reader(path):
    """The sorted stems of the label masks in the labels/ of a dataset or
    ``segment`` output root, or in a flat directory of .ocet files, and
    ``read(stem)``, which reads that one stem's mask."""
    if os.path.isdir(os.path.join(path, "labels")):
        path = os.path.join(path, "labels")
    if not os.path.isdir(path):
        raise FormatError(f"{path} is not a directory")
    return ocet_stems(path), lambda stem: tensor_read(os.path.join(path, stem + ".ocet"))


def dataset_reader(root, with_labels: bool):
    """The sorted stems of a dataset directory and ``read(stem)``, which reads
    that one stem's (image, label-or-None).

    Labels are read only ``with_labels``; then the root needs a labels/
    directory, ``read`` needs a label on the image's own (H, W) grid, else
    :class:`FormatError`, and labels without an image are never read."""
    img_dir, lab_dir = os.path.join(root, "images"), os.path.join(root, "labels")
    if not os.path.isdir(img_dir):
        raise FormatError(f"no images/ directory under {root}")
    stems = ocet_stems(img_dir)
    if with_labels and not os.path.isdir(lab_dir):
        raise FormatError(f"no labels/ directory under {root}")

    def read(stem):
        image = tensor_read(os.path.join(img_dir, stem + ".ocet"))
        if not with_labels:
            return image, None
        path = os.path.join(lab_dir, stem + ".ocet")
        if not os.path.isfile(path):
            raise FormatError(f"image {stem} has no label")
        label = tensor_read(path)
        if label.shape != image.shape[-2:]:
            raise FormatError(f"label {stem} has shape {label.shape}, "
                              f"not its image's grid {image.shape[-2:]}")
        return image, label

    return stems, read


def load_dataset(root, with_labels: bool = True):
    """The whole dataset ``dataset_reader`` reads, in memory: (stems, images,
    labels-or-None)."""
    stems, read = dataset_reader(root, with_labels)
    images, labels = zip(*map(read, stems))
    return stems, list(images), list(labels) if with_labels else None


def write_text(path, text: str) -> None:
    _write_atomic(path, text.encode("utf-8"))


def write_json(path, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
