"""On-disk cache of lambda tables, one ``<group>-table-v2.npy`` entry per group.

File layout: one header line ``superx-cache v2 <group> <sha256>`` followed
by the product table in numpy's NPY format.  The sha256 covers the
group's multiplication table, the serialized system list from
``enumerate_mls`` in order, and the NPY bytes.  A load recomputes it
from the current group and enumerator, so a corrupt byte, a changed group
layout and a changed enumerator all read as a miss, and the table is
rebuilt and the entry overwritten.  The systems are not stored: the
digest pins their order, so they come from the enumerator.  Writes go to
a temp file first and are moved into place atomically.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConsistencyError
from .families import enumerate_mls
from .groups import FiniteGroup
from .semigroups import SemigroupTable
from .superext import lambda_table

FORMAT_VERSION = "v2"
ENV_VAR = "SUPERX_CACHE_DIR"
_READ_CHUNK = 1 << 20


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


def _digest(g: FiniteGroup, systems, payload) -> str:
    """sha256 of the group table, the system list and the rest of the open payload file."""
    h = hashlib.sha256(repr(g.mul).encode())
    h.update("\n".join(s.serialize() for s in systems).encode() + b"\n")
    for chunk in iter(lambda: payload.read(_READ_CHUNK), b""):
        h.update(chunk)
    return h.hexdigest()


def save_table(cache_dir: Path, g: FiniteGroup, table: SemigroupTable) -> Path:
    """Write the entry for lambda(g); the digest is filled in once the payload is on disk."""
    path = cache_path(cache_dir, g.name)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w+b", buffering=0) as fh:  # a FileIO, so write_array uses tofile
            placeholder = _header(g.name, "0" * 64)
            fh.write(placeholder)
            np.lib.format.write_array(fh, table.product, allow_pickle=False)
            fh.seek(len(placeholder))
            digest = _digest(g, table.elements, fh)
            fh.seek(0)
            fh.write(_header(g.name, digest))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def load_table(cache_dir: Path, g: FiniteGroup) -> SemigroupTable | None:
    """The cached lambda(g) table, or None when the entry is missing, corrupt or stale."""
    try:
        with open(cache_path(cache_dir, g.name), "rb") as fh:
            head = fh.readline().split()
            if head[:3] != _header(g.name, "").split() or len(head) != 4:
                return None
            start = fh.tell()
            systems = enumerate_mls(g.order)
            if _digest(g, systems, fh).encode() != head[3]:
                return None
            fh.seek(start)
            product = np.lib.format.read_array(fh, allow_pickle=False)
        if product.shape != (len(systems), len(systems)):
            return None
        return lambda_table(g, systems, product)
    except (OSError, ValueError, ConsistencyError):
        return None
