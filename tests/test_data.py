import ast
from pathlib import Path

import numpy as np
import pytest

from oceseg import DegenerateError, FormatError, LabelError, ShapeError, data
from oceseg.data import (
    archive_read,
    archive_write,
    labels_to_gray,
    load_dataset,
    normalize_percentile,
    pgm_write,
    rescale_image,
    relabel_consecutive,
    rescale_labels,
    save_dataset,
    tensor_read,
    tensor_write,
    write_json,
    write_text,
)


# ---------------------------------------------------------------------------
# tensor container

def test_tensor_roundtrip_float32(tmp_path):
    arr = np.random.default_rng(0).normal(size=(2, 7, 5)).astype(np.float32)
    path = tmp_path / "t.ocet"
    tensor_write(path, arr)
    back = tensor_read(path)
    assert back.dtype == np.float32 and np.array_equal(arr, back)


@pytest.mark.parametrize("dtype", [np.int32, np.uint8])
def test_tensor_roundtrip_other_dtypes(tmp_path, dtype):
    arr = np.arange(24, dtype=dtype).reshape(2, 3, 4)
    path = tmp_path / "t.ocet"
    tensor_write(path, arr)
    back = tensor_read(path)
    assert back.dtype == dtype and np.array_equal(arr, back)


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.ocet"
    path.write_bytes(b"XXXX" + bytes(16))
    with pytest.raises(FormatError, match="magic"):
        tensor_read(path)


def test_tensor_bad_version(tmp_path):
    arr = np.zeros(3, np.float32)
    path = tmp_path / "v.ocet"
    tensor_write(path, arr)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="expected 1, found 9"):
        tensor_read(path)


def test_tensor_bad_dtype_code(tmp_path):
    arr = np.zeros(3, np.float32)
    path = tmp_path / "d.ocet"
    tensor_write(path, arr)
    raw = bytearray(path.read_bytes())
    raw[5] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="dtype"):
        tensor_read(path)


def test_tensor_truncated_payload(tmp_path):
    arr = np.zeros((4, 4), np.float32)
    path = tmp_path / "t.ocet"
    tensor_write(path, arr)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="truncated payload"):
        tensor_read(path)


def test_tensor_trailing_data(tmp_path):
    arr = np.zeros((2, 2), np.float32)
    path = tmp_path / "t.ocet"
    tensor_write(path, arr)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError, match="trailing"):
        tensor_read(path)


def test_tensor_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(FormatError):
        tensor_write(tmp_path / "x.ocet", np.zeros(3, np.float64))


def test_archive_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {
        "a.w": rng.normal(size=(3, 2)).astype(np.float32),
        "b": np.arange(5, dtype=np.int32),
    }
    path = tmp_path / "a.ocec"
    archive_write(path, tensors)
    back = archive_read(path)
    assert set(back) == set(tensors)
    for k in tensors:
        assert np.array_equal(back[k], tensors[k])


def test_archive_truncation(tmp_path):
    path = tmp_path / "a.ocec"
    archive_write(path, {"x": np.zeros(4, np.float32)})
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError):
        archive_read(path)


# ---------------------------------------------------------------------------
# PGM

def test_pgm_write_bytes_8bit(tmp_path):
    img = np.array([[0, 255, 128], [64, 255, 0]], np.uint8)
    path = tmp_path / "a.pgm"
    pgm_write(path, img)
    assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 255, 128, 64, 255, 0])


def test_pgm_write_bytes_16bit(tmp_path):
    img = np.array([[0, 65535], [1000, 30000]], np.uint16)
    path = tmp_path / "b.pgm"
    pgm_write(path, img)
    assert path.read_bytes() == b"P5\n2 2\n65535\n" + bytes.fromhex("0000ffff03e87530")


@pytest.mark.parametrize("dtype", [np.float32, np.int32])
def test_pgm_write_takes_uint8_or_uint16_only(tmp_path, dtype):
    path = tmp_path / "c.pgm"
    with pytest.raises(FormatError, match="uint8 or uint16"):
        pgm_write(path, np.zeros((2, 3), dtype))
    assert not path.exists()


def test_labels_to_gray_distinct():
    labels = np.array([[0, 1], [2, 3]], np.int32)
    gray = labels_to_gray(labels)
    assert gray.dtype == np.uint8
    vals = {gray[0, 1], gray[1, 0], gray[1, 1]}
    assert len(vals) == 3 and 0 not in vals and gray[0, 0] == 0


def test_labels_to_gray_exact_levels_with_id_gaps():
    labels = np.array([[0, 7, 7], [3, 0, 12]], np.int32)
    gray = labels_to_gray(labels)
    assert gray.dtype == np.uint8
    assert gray.tolist() == [[0, 170, 170], [85, 0, 255]]  # rank * 255 // 3


@pytest.mark.parametrize("count, maxval, dtype", [(255, 255, np.uint8), (300, 65535, np.uint16)])
def test_labels_to_gray_exact_levels_many_ids(count, maxval, dtype):
    rng = np.random.default_rng(count)
    ids = 3 * np.arange(1, count + 1) + 4  # gaps between all ids
    labels = np.concatenate([ids, ids[::7], np.zeros(50, int)])
    labels = rng.permutation(labels).astype(np.int32).reshape(1, -1)
    gray = labels_to_gray(labels)
    rank = np.searchsorted(ids, labels) + 1
    expected = np.where(labels > 0, rank * maxval // count, 0)
    assert gray.dtype == dtype and np.iinfo(gray.dtype).max == maxval
    assert np.array_equal(gray, expected)


def test_labels_to_gray_without_instances():
    for labels in (np.zeros((3, 4), np.int32), np.zeros((0, 4), np.int32)):
        gray = labels_to_gray(labels)
        assert gray.dtype == np.uint8
        assert gray.shape == labels.shape and not gray.any()


# ---------------------------------------------------------------------------
# label masks

@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8, np.uint16])
def test_relabel_consecutive_matches_unique_ranks(dtype):
    rng = np.random.default_rng(6)
    labels = rng.choice([0, 0, 3, 4, 9, 17, 200], size=(13, 11)).astype(dtype)
    compact, ids = relabel_consecutive(labels)
    expected_ids = np.unique(labels[labels > 0])
    assert ids.dtype == labels.dtype and np.array_equal(ids, expected_ids)
    assert compact.dtype == np.int32 and compact.shape == labels.shape
    assert np.array_equal(compact, np.where(labels > 0, np.searchsorted(expected_ids, labels) + 1, 0))


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("background", [True, False])
def test_relabel_consecutive_huge_ids_stay_small(dtype, background):
    # a table indexed by id would take gigabytes for an id of 2**31 - 1
    import tracemalloc

    rng = np.random.default_rng(8)
    choices = [2**31 - 1, 7, 2**31 - 2, 5_000_000] + [0] * background
    labels = rng.choice(choices, size=(8, 8)).astype(dtype)
    tracemalloc.start()
    try:
        compact, ids = relabel_consecutive(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.0f} MB"
    expected_ids = np.unique(labels[labels > 0])
    assert ids.dtype == labels.dtype and np.array_equal(ids, expected_ids)
    assert compact.dtype == np.int32 and compact.shape == labels.shape
    assert np.array_equal(compact, np.where(labels > 0, np.searchsorted(expected_ids, labels) + 1, 0))


def test_relabel_consecutive_without_instances():
    for labels in (np.zeros((2, 3), np.int32), np.zeros((0, 3), np.int32)):
        compact, ids = relabel_consecutive(labels)
        assert compact.shape == labels.shape and not compact.any() and len(ids) == 0


@pytest.mark.parametrize("labels, match", [
    (np.array([[-1, 1, 1, 2]], np.int32), "non-negative"),
    (np.array([[0.0, 1.0]], np.float32), "integers"),
    (np.array([[False, True]]), "integers"),
])
def test_relabel_consecutive_rejects_bad_ids(labels, match):
    with pytest.raises(LabelError, match=match):
        relabel_consecutive(labels)
    with pytest.raises(LabelError, match=match):
        labels_to_gray(labels)


# ---------------------------------------------------------------------------
# atomic writes

class _TornFile:
    """A file whose write stores half of the payload and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, payload):
        self.fh.write(payload[: len(payload) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


@pytest.mark.parametrize("writer, old, new", [
    (tensor_write, np.arange(6, dtype=np.int32), np.arange(600, dtype=np.int32)),
    (archive_write, {"w": np.ones((3, 4), np.float32)}, {"w": np.zeros((30, 40), np.float32)}),
    (write_json, {"a": 1}, {"a": 1, "z": list(range(100))}),
    (pgm_write, np.zeros((2, 3), np.uint8), np.ones((20, 30), np.uint8)),
    (write_text, "epoch\n", "epoch\n" + "0\t1.5\n" * 50),
])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer, old, new):
    path = tmp_path / "target.bin"
    writer(path, old)
    before = path.read_bytes()
    monkeypatch.setattr(data, "open", lambda file, mode="r": _TornFile(open(file, mode)),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        writer(path, new)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["target.bin"]
    monkeypatch.undo()
    writer(path, new)
    assert path.read_bytes() != before
    assert [p.name for p in tmp_path.iterdir()] == ["target.bin"]
    # missing parents are made, and hold the whole file and nothing else
    nested = tmp_path / "a" / "b" / "target.bin"
    writer(nested, new)
    assert nested.read_bytes() == path.read_bytes()
    assert [p.name for p in nested.parent.iterdir()] == ["target.bin"]


def _file_writers(source):
    """(function, call) of each directory made and each file opened in a mode
    other than read in ``source``; a mode that is not a literal counts."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                mode = child.args[1] if len(child.args) > 1 else next(
                    (k.value for k in child.keywords if k.arg == "mode"), None)
                reads = mode is None or (isinstance(mode, ast.Constant)
                                         and set(str(mode.value)) <= set("rbt"))
                if name in ("makedirs", "mkdir") or name == "open" and not reads:
                    found.add((where, name))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_atomic_writer_makes_directories_or_opens_files_to_write():
    src = Path(__file__).resolve().parents[1] / "src" / "oceseg"
    writers = {(path.stem, where, name) for path in src.glob("*.py")
               for where, name in _file_writers(path.read_text(encoding="utf-8"))}
    assert writers == {("data", "_write_atomic", "makedirs"), ("data", "_write_atomic", "open")}


def _touches_allocator(source):
    """Whether ``source`` imports ``ctypes`` or names ``mallopt``, as a name,
    an attribute or a string such as ``getattr`` takes."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        if any(n.split(".")[0] == "ctypes" or n == "mallopt" for n in names):
            return True
    return False


def test_only_the_cli_touches_the_allocator():
    # importing the package must not change the process's malloc settings;
    # only ``oceseg`` main fixes the mmap threshold
    src = Path(__file__).resolve().parents[1] / "src" / "oceseg"
    users = {path.name for path in src.glob("*.py")
             if _touches_allocator(path.read_text(encoding="utf-8"))}
    assert users == {"cli.py"}


def test_write_json_keeps_previous_file_when_a_value_cannot_be_encoded(tmp_path):
    path = tmp_path / "config.json"
    write_json(path, {"a": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"a": 1, "z": object()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


# ---------------------------------------------------------------------------
# normalization

def test_normalize_identity_when_percentiles_are_01():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(1, 50, 50)).astype(np.float32)
    flat = np.sort(x.ravel())
    lo = np.percentile(x, 1.0)
    hi = np.percentile(x, 99.8)
    y = normalize_percentile(x)
    assert np.allclose(y, (x - lo) / (hi - lo), atol=1e-6)


def test_normalize_1_to_1000():
    v = np.arange(1, 1001, dtype=np.float32).reshape(1, 25, 40)
    out = normalize_percentile(v)
    assert np.allclose(out, (v - 10.99) / (998.002 - 10.99), atol=1e-5)


def test_normalize_constant_raises():
    with pytest.raises(DegenerateError):
        normalize_percentile(np.full((1, 10, 10), 3.0, np.float32))


@pytest.mark.parametrize("shape", [(50, 50), (1, 1, 50, 50)])
def test_normalize_rejects_other_ranks(shape):
    with pytest.raises(ShapeError, match="C, H, W"):
        normalize_percentile(np.arange(2500, dtype=np.float32).reshape(shape))


def test_normalize_idempotent_within_rounding():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 80, 80)).astype(np.float32) * 7 + 3
    once = normalize_percentile(x)
    twice = normalize_percentile(once)
    assert np.abs(once - twice).max() < 1e-5


# ---------------------------------------------------------------------------
# rescaling

def test_rescale_identity():
    rng = np.random.default_rng(5)
    img = rng.normal(size=(1, 9, 9)).astype(np.float32)
    assert np.array_equal(rescale_image(img, 1.0), img)
    lab = rng.integers(0, 4, size=(9, 9)).astype(np.int32)
    assert np.array_equal(rescale_labels(lab, (9, 9)), lab)


def test_rescale_labels_blocks_roundtrip():
    lab = np.array([[1, 2], [3, 4]], np.int32)
    up = rescale_labels(lab, (4, 4))
    assert np.array_equal(up, np.repeat(np.repeat(lab, 2, 0), 2, 1))
    assert np.array_equal(rescale_labels(up, (2, 2)), lab)


def test_rescale_too_small_errors():
    with pytest.raises(ShapeError):
        rescale_image(np.zeros((1, 4, 4), np.float32), 0.1)


def test_rescale_bilinear_constant_preserved():
    img = np.full((1, 8, 8), 3.5, np.float32)
    out = rescale_image(img, 1.5)
    assert np.allclose(out, 3.5, atol=1e-6)


def test_rescale_labels_to_shape():
    lab = np.zeros((7, 7), np.int32)
    lab[2:5, 2:5] = 1
    up = rescale_labels(lab, (14, 14))
    back = rescale_labels(up, (7, 7))
    assert back.shape == (7, 7)
    assert np.array_equal(back, lab)


# ---------------------------------------------------------------------------
# dataset convention

def test_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    images = [rng.normal(size=(1, 8, 8)).astype(np.float32) for _ in range(3)]
    labels = [rng.integers(0, 3, size=(8, 8)).astype(np.int32) for _ in range(3)]
    save_dataset(tmp_path / "d", images, labels)
    stems, imgs, labs = load_dataset(tmp_path / "d")
    assert stems == ["im0000", "im0001", "im0002"]
    for a, b in zip(images, imgs):
        assert np.array_equal(a, b)
    for a, b in zip(labels, labs):
        assert np.array_equal(a, b)


def test_dataset_missing_dir(tmp_path):
    with pytest.raises(FormatError):
        load_dataset(tmp_path / "nope")
