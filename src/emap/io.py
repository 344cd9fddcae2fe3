"""On-disk formats: grids, decompositions, datasets, models, reports.

JSON is the canonical interchange; a compact binary form is selected by
file extension (anything but ``.json``).  Binary layouts are little-endian:

* grid:          magic ``EMAPGRID``, version u32, n u64, d u64,
                 then n*n*d float64 values, row-major.
* decomposition: magic ``EMAPDCMP``, version u32, n u64, d u64,
                 then tau (n*d), phi (n*d), mu (d) float64.
* dataset:       magic ``EMAPDATA``, version u32, n u64, d1 u64, d2 u64,
                 num_classes u64, split codes u8[n], labels u32[n],
                 text float64[n*d1], visual float64[n*d2],
                 config-JSON length u64 + UTF-8 bytes.

All writers produce byte-identical output for identical inputs.  Every
loader turns a malformed file into ``InputError``; binary readers check each
length a header claims against the bytes left in the file before reading or
allocating anything, and reject bytes left over after the payload.  Each
array is read straight into its own buffer (``_read_array``), never held as
file bytes plus a copy; a binary grid is read so in blocks of whole rows,
each moved into channel-major planes.  A JSON grid file above
``JSON_GRID_MAX_BYTES`` is refused, at load and before a save whose file
could exceed it.  Only the grid and decomposition readers import
``emap.grid``, and a model file loads only the module of its own kind.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .data import _SPLIT_CODES, PairedDataset
from .exceptions import InputError, NumericError

if TYPE_CHECKING:
    from .grid import AdditiveDecomposition, ScoreGrid

__all__ = [
    "save_grid",
    "load_grid",
    "save_decomposition",
    "load_decomposition",
    "save_dataset",
    "load_dataset",
    "save_model",
    "load_model",
    "dump_json",
]

GRID_MAGIC = b"EMAPGRID"
DECOMP_MAGIC = b"EMAPDCMP"
DATA_MAGIC = b"EMAPDATA"
FORMAT_VERSION = 1
GRID_READ_BLOCK_BYTES = 1 << 22  # a binary grid is read about this many bytes (whole rows) at a time
# Parsing a JSON grid holds about 3x its file size (13.6x the values' bytes) in Python
# floats and lists, so larger files are refused in favour of the binary format, which
# loads with one grid plus one block.
JSON_GRID_MAX_BYTES = 256 << 20
# A saved JSON grid spends at most 34 bytes per value: an 8-space indent, a float64 repr of at
# most 24 characters (such as -2.2250738585072014e-308) and ",\n".  The brackets around each
# cell add 17 bytes, those around each row 13, and the keys, sizes and brackets of the
# object at most 128.
JSON_VALUE_MAX_BYTES = 34


def dump_json(payload: dict, path) -> None:
    try:  # strict JSON: a NaN or an infinity is a numeric failure, and nothing is written
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path}: {exc}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def _load_json(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InputError(f"{path} is not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return payload


@contextmanager
def _malformed(path, what: str):
    """Report a missing field or an unparseable value in ``path`` as ``InputError``."""
    try:
        yield
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"{path}: {what} file has no field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: malformed {what} file ({exc})") from None


def _is_json(path) -> bool:
    return Path(path).suffix.lower() == ".json"


def _check_left(fh, count: int, what: str) -> None:
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise InputError(f"truncated file while reading {what}: need {count} bytes, {left} left")


def _read_array(fh, dtype, shape: tuple, what: str) -> np.ndarray:
    """A fresh ``dtype`` array of ``shape`` read straight from the file, its length checked first."""
    count = np.dtype(dtype).itemsize * math.prod(shape)
    _check_left(fh, count, what)
    out = np.empty(shape, dtype=dtype)
    if fh.readinto(out) != count:
        raise InputError(f"truncated file while reading {what}")
    return out


def _read_exact(fh, count: int, what: str) -> bytes:
    return _read_array(fh, np.uint8, (count,), what).tobytes()


def _read_header(fh, path, magic: bytes, fmt: str, what: str) -> list[int]:
    """Check magic and version; return the header's sizes, each of which must be >= 1."""
    if _read_exact(fh, 8, "magic") != magic:
        raise InputError(f"{path} is not a {what} file (bad magic)")
    version, *sizes = struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt), "header"))
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported {what} format version {version}")
    if min(sizes) < 1:
        raise InputError(f"{what} header claims sizes {sizes}; each must be >= 1")
    return sizes


def _expect_end(fh, path) -> None:
    extra = os.fstat(fh.fileno()).st_size - fh.tell()
    if extra:
        raise InputError(f"{path}: {extra} unexpected bytes after the payload")


# -- grids ------------------------------------------------------------------


def _json_grid_bytes_bound(grid: ScoreGrid) -> int:
    """An upper bound on the size of ``grid`` saved as JSON (see ``JSON_VALUE_MAX_BYTES``)."""
    ids = sum(len(json.dumps(item)) + 6 for item in grid.text_ids + grid.visual_ids)
    return grid.n * grid.n * (JSON_VALUE_MAX_BYTES * grid.d + 17) + 13 * grid.n + ids + 128


def _refuse_large_json_grid(path, size: int, what: str) -> None:
    if size > JSON_GRID_MAX_BYTES:
        raise InputError(
            f"{path} {what} {size / 2**20:.0f} MiB JSON grid; JSON grids above "
            f"{JSON_GRID_MAX_BYTES // 2**20} MiB are refused, save the grid in the binary format"
            " (any extension but .json)"
        )


def save_grid(grid: ScoreGrid, path) -> None:
    if not grid.is_square:
        raise InputError("grid files store square grids only")
    if _is_json(path):
        # refused before serialising, which holds about 28x the values' bytes
        _refuse_large_json_grid(path, _json_grid_bytes_bound(grid), "would be up to a")
        dump_json(
            {
                "n": grid.n,
                "d": grid.d,
                "values": grid.values.tolist(),
                "text_ids": list(grid.text_ids),
                "visual_ids": list(grid.visual_ids),
            },
            path,
        )
        return
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<IQQ", FORMAT_VERSION, grid.n, grid.d))
        fh.write(grid.values.astype("<f8", copy=False).tobytes())  # (i, j, c) order, one copy


def load_grid(path) -> ScoreGrid:
    from .grid import ScoreGrid
    if _is_json(path):
        _refuse_large_json_grid(path, os.stat(path).st_size, "is a")
        payload = _load_json(path)
        with _malformed(path, "grid"):
            values = np.asarray(payload["values"], dtype=np.float64)
            if values.ndim == 2:
                values = values[:, :, np.newaxis]
            n, d = int(payload["n"]), int(payload["d"])
            if values.shape != (n, n, d):
                raise InputError(
                    f"grid file claims n={n}, d={d} but values have shape {values.shape}"
                )
            return ScoreGrid(
                values=values,
                text_ids=tuple(payload.get("text_ids", ())),
                visual_ids=tuple(payload.get("visual_ids", ())),
            )
    with open(path, "rb") as fh:
        n, d = _read_header(fh, path, GRID_MAGIC, "<IQQ", "grid")
        row_bytes = 8 * n * d
        _check_left(fh, row_bytes * n, "values")
        # rows straight from the file's (i, j, c) order into channel-major planes
        planes = np.empty((d, n, n))
        rows = max(1, GRID_READ_BLOCK_BYTES // row_bytes)
        for start in range(0, n, rows):
            count = min(rows, n - start)
            block = _read_array(fh, "<f8", (count, n, d), "values")
            planes[:, start : start + count] = block.transpose(2, 0, 1)
        _expect_end(fh, path)
    return ScoreGrid(values=planes.transpose(1, 2, 0))


# -- decompositions ----------------------------------------------------------


def save_decomposition(dec: AdditiveDecomposition, path) -> None:
    if dec.tau.shape[0] != dec.phi.shape[0]:
        raise InputError("decomposition files store square decompositions only")
    if _is_json(path):
        dump_json(
            {
                "n": dec.tau.shape[0],
                "d": dec.d,
                "tau": dec.tau.tolist(),
                "phi": dec.phi.tolist(),
                "mu": dec.mu.tolist(),
            },
            path,
        )
        return
    n, d = dec.tau.shape[0], dec.d
    with open(path, "wb") as fh:
        fh.write(DECOMP_MAGIC)
        fh.write(struct.pack("<IQQ", FORMAT_VERSION, n, d))
        for arr in (dec.tau, dec.phi, dec.mu):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_decomposition(path) -> AdditiveDecomposition:
    from .grid import AdditiveDecomposition
    if _is_json(path):
        payload = _load_json(path)
        with _malformed(path, "decomposition"):
            return AdditiveDecomposition(
                tau=np.asarray(payload["tau"], dtype=np.float64),
                phi=np.asarray(payload["phi"], dtype=np.float64),
                mu=np.asarray(payload["mu"], dtype=np.float64),
            )
    with open(path, "rb") as fh:
        n, d = _read_header(fh, path, DECOMP_MAGIC, "<IQQ", "decomposition")
        tau = _read_array(fh, "<f8", (n, d), "tau")
        phi = _read_array(fh, "<f8", (n, d), "phi")
        mu = _read_array(fh, "<f8", (d,), "mu")
        _expect_end(fh, path)
    return AdditiveDecomposition(tau=tau, phi=phi, mu=mu)


# -- datasets ----------------------------------------------------------------


def save_dataset(dataset: PairedDataset, path) -> None:
    if _is_json(path):
        dump_json(
            {
                "n": dataset.n,
                "d1": dataset.d1,
                "d2": dataset.d2,
                "num_classes": dataset.num_classes,
                "split": dataset.split_names(),
                "labels": dataset.labels.tolist(),
                "text": dataset.text.tolist(),
                "visual": dataset.visual.tolist(),
                "config": dict(dataset.meta),
            },
            path,
        )
        return
    config_bytes = json.dumps(dict(dataset.meta)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(DATA_MAGIC)
        fh.write(
            struct.pack(
                "<IQQQQ",
                FORMAT_VERSION,
                dataset.n,
                dataset.d1,
                dataset.d2,
                dataset.num_classes,
            )
        )
        fh.write(dataset.split.astype(np.uint8).tobytes())
        fh.write(dataset.labels.astype("<u4").tobytes())
        fh.write(np.ascontiguousarray(dataset.text, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(dataset.visual, dtype="<f8").tobytes())
        fh.write(struct.pack("<Q", len(config_bytes)))
        fh.write(config_bytes)


def load_dataset(path) -> PairedDataset:
    if _is_json(path):
        payload = _load_json(path)
        with _malformed(path, "dataset"):
            names = payload["split"]
            unknown = sorted(set(names) - set(_SPLIT_CODES))
            if unknown:
                raise InputError(f"{path}: unknown split names {unknown}")
            return PairedDataset(
                text=np.asarray(payload["text"], dtype=np.float64),
                visual=np.asarray(payload["visual"], dtype=np.float64),
                labels=np.asarray(payload["labels"], dtype=np.int64),
                split=np.asarray([_SPLIT_CODES[name] for name in names], dtype=np.int8),
                num_classes=int(payload["num_classes"]),
                meta=dict(payload.get("config", {})),
            )
    with open(path, "rb") as fh:
        n, d1, d2, num_classes = _read_header(fh, path, DATA_MAGIC, "<IQQQQ", "dataset")
        split = _read_array(fh, np.int8, (n,), "split")  # the u8 codes; any above 127 fail as negative
        labels = _read_array(fh, "<u4", (n,), "labels")
        text = _read_array(fh, "<f8", (n, d1), "text")
        visual = _read_array(fh, "<f8", (n, d2), "visual")
        (config_len,) = struct.unpack("<Q", _read_exact(fh, 8, "config length"))
        config = _read_exact(fh, config_len, "config")
        _expect_end(fh, path)
    with _malformed(path, "dataset"):
        meta = json.loads(config.decode("utf-8"))
    if not isinstance(meta, dict):
        raise InputError(f"{path}: dataset config is not a JSON object")
    return PairedDataset(
        text=text,
        visual=visual,
        labels=labels,
        split=split,
        num_classes=int(num_classes),
        meta=meta,
    )


# -- models ------------------------------------------------------------------

def save_model(model, path) -> None:
    dump_json(model.to_json_dict(), path)


_MODEL_CLASSES = {"linear": "models.LinearModel", "poly2": "models.Poly2Model",
                  "feedforward": "models.FeedForwardModel", "adaboost": "boosting.AdaBoostModel"}


def load_model(path):
    payload = _load_json(path)
    with _malformed(path, "model"):
        kind = payload.get("kind")
        if kind not in _MODEL_CLASSES:
            raise InputError(f"unknown model kind {kind!r} in {path}")
        module, name = _MODEL_CLASSES[kind].split(".")
        return getattr(importlib.import_module(f".{module}", __package__), name).from_json_dict(payload)
