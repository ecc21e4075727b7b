"""Deterministic single-file array bundles.

Checkpoints must reproduce bitwise when a run is repeated, so zip-based
formats (which embed timestamps) are out.  Layout:

    magic line  b"GSDYN-BUNDLE-1\\n"
    header      UTF-8 JSON on one line: {"meta": {...}, "arrays": [
                    {"name", "shape", "dtype"}, ...]}  then b"\\n"
    payload     raw little-endian array bytes, concatenated in header order

Every array is stored as float64.
"""

import json
import math
import os

import numpy as np

MAGIC = b"GSDYN-BUNDLE-1\n"


def save_bundle(path, meta: dict, arrays: dict) -> None:
    entries = []
    blobs = []
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr)
        if a.dtype.kind != "f":
            raise TypeError(f"unsupported dtype {a.dtype} for array {name}")
        a = a.astype("<f8")
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
    """Returns (meta, arrays dict).

    A header that is not the layout above, lists an array other than
    float64, or does not match the payload's length raises ValueError.  Each
    array's size is checked against the bytes left in the file before it is
    read, so a header that lists a huge array allocates nothing.
    """
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a gsdyn bundle")
        try:
            header = json.loads(f.readline().decode("utf-8"))
            entries = [(str(e["name"]), e["dtype"], tuple(int(d) for d in e["shape"])) for e in header["arrays"]]
            meta = header["meta"]
        except (ValueError, TypeError, KeyError) as e:
            raise ValueError(f"{path}: malformed bundle header ({e!r})") from e
        arrays = {}
        for name, dtype, shape in entries:
            if dtype != "float64" or min(shape, default=0) < 0:
                raise ValueError(f"{path}: array {name!r} is listed as {dtype!r} of shape {shape}")
            count = math.prod(shape) * 8
            left = os.fstat(f.fileno()).st_size - f.tell()
            if count > left:
                raise ValueError(f"{path}: array {name!r} is truncated ({left} of {count} payload bytes)")
            arrays[name] = np.frombuffer(f.read(count), dtype="<f8").reshape(shape).copy()
        if f.read(1):
            raise ValueError(f"{path}: unexpected bytes after the last array")
    return meta, arrays
