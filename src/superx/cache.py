"""On-disk cache of lambda tables, one ``<group>-table-v3.npy`` entry per group.

File layout: one header line ``superx-cache v3 <group> <sha256>`` followed
by the product table in numpy's NPY format, as the table stores it:
little-endian uint16, so the lambda(C6) payload is 2,646^2 * 2 bytes
(14.0 MB).  The sha256 covers the group's multiplication table, the
enumerator's sorted system words as little-endian uint64, and the NPY
bytes.  A save hashes the NPY header and the table's buffer in memory,
then writes them; a load reads the file once, the NPY header and then the
array, and recomputes the digest over those bytes from the current group
and enumerator.  So a corrupt byte, a changed group layout and a changed
enumerator all read as a miss, and the table is rebuilt and the entry
overwritten.  The systems are not stored: the digest pins their order, so
they come from the enumerator.  Writes go to a temp file first and are
moved into place atomically.
"""

from __future__ import annotations

import hashlib
import io
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConsistencyError
from .families import enumerate_mls
from .groups import FiniteGroup
from .semigroups import SemigroupTable
from .superext import lambda_table

FORMAT_VERSION = "v3"
ENV_VAR = "SUPERX_CACHE_DIR"
_PAYLOAD = np.dtype("<u2")


def resolve_cache_dir(flag_value: str | None = None) -> Path:
    """Cache directory: CLI flag, then environment, then user cache dir."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "superx"


def cache_path(cache_dir: Path, group_name: str) -> Path:
    return cache_dir / f"{group_name.replace(':', '_')}-table-{FORMAT_VERSION}.npy"


def _header(group_name: str, digest: str) -> bytes:
    return f"superx-cache {FORMAT_VERSION} {group_name} {digest}\n".encode()


def _digest(g: FiniteGroup, npy_header: bytes, data: np.ndarray) -> str:
    """sha256 of the group table, the enumerator's words as little-endian uint64, the NPY header and the array's buffer."""
    h = hashlib.sha256(repr(g.mul).encode())
    h.update(np.ascontiguousarray(enumerate_mls(g.order).words, dtype="<u8"))
    h.update(npy_header)
    h.update(data)
    return h.hexdigest()


def save_table(cache_dir: Path, g: FiniteGroup, table: SemigroupTable) -> Path:
    """Write the entry for lambda(g): the NPY bytes are hashed from memory, then written after the header line."""
    data = np.ascontiguousarray(table.product, dtype=_PAYLOAD)
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, np.lib.format.header_data_from_array_1_0(data))
    npy_header = buf.getvalue()
    digest = _digest(g, npy_header, data)
    path = cache_path(cache_dir, g.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_header(g.name, digest) + npy_header)
            data.tofile(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_table(cache_dir: Path, g: FiniteGroup) -> SemigroupTable | None:
    """The cached lambda(g) table, or None when the entry is missing, corrupt or stale.

    The file is read once: the NPY header, then the array, whose bytes must end the file.  A
    save writes NPY format 1.0 and ``<u2``; another format version or dtype, a Fortran-order
    payload or a shape other than the system count's square reads as a miss before any payload
    byte is read, so nothing is unpickled.
    """
    try:
        with open(cache_path(cache_dir, g.name), "rb") as fh:
            head = fh.readline().split()
            if head[:3] != _header(g.name, "").split() or len(head) != 4:
                return None
            start = fh.tell()
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            systems = enumerate_mls(g.order)
            if dtype != _PAYLOAD or fortran_order or shape != (len(systems), len(systems)):
                return None
            npy_header_size = fh.tell() - start
            fh.seek(start)
            npy_header = fh.read(npy_header_size)
            data = np.fromfile(fh, dtype=dtype, count=len(systems) ** 2)
            if data.size != len(systems) ** 2 or fh.read(1):
                return None
            if _digest(g, npy_header, data).encode() != head[3]:
                return None
        return lambda_table(g, systems, data.reshape(shape))
    except (OSError, ValueError, ConsistencyError):
        return None
