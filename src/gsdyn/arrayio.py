"""Deterministic single-file array bundles.

Checkpoints must reproduce bitwise when a run is repeated, so zip-based
formats (which embed timestamps) are out.  Layout:

    magic line  b"GSDYN-BUNDLE-1\\n"
    header      UTF-8 JSON on one line: {"meta": {...}, "arrays": [
                    {"name", "shape", "dtype"}, ...]}  then b"\\n"
    payload     raw little-endian array bytes, concatenated in header order

All floats are stored as float64.
"""

import json

import numpy as np

MAGIC = b"GSDYN-BUNDLE-1\n"


def save_bundle(path, meta: dict, arrays: dict) -> None:
    entries = []
    blobs = []
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr)
        if a.dtype.kind == "f":
            a = a.astype("<f8")
        elif a.dtype.kind in "iu":
            a = a.astype("<i8")
        else:
            raise TypeError(f"unsupported dtype {a.dtype} for array {name}")
        entries.append({"name": name, "shape": list(a.shape), "dtype": str(a.dtype)})
        blobs.append(a.tobytes())
    header = json.dumps({"meta": meta, "arrays": entries}, sort_keys=True)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(header.encode("utf-8"))
        f.write(b"\n")
        for b in blobs:
            f.write(b)


def load_bundle(path):
    """Returns (meta dict, arrays dict)."""
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a gsdyn bundle")
        header = json.loads(f.readline().decode("utf-8"))
        arrays = {}
        for entry in header["arrays"]:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = f.read(count * dtype.itemsize)
            if len(buf) != count * dtype.itemsize:
                raise ValueError(
                    f"{path}: array {entry['name']!r} is truncated "
                    f"({len(buf)} of {count * dtype.itemsize} payload bytes)"
                )
            arrays[entry["name"]] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
        if f.read(1):
            raise ValueError(f"{path}: unexpected bytes after the last array")
    return header["meta"], arrays
