"""The file container of checkpoints (`.ckpt`, one block per parameter) and
geodesic embeddings (`.geo1`, the one (n, k) block): a magic line, one
sort-keyed JSON header line, then raw little-endian f64 blocks in the order
the header describes them.

`read` checks the whole layout before it allocates or reads a block: the
header's block sizes, computed with Python ints so no count can overflow, must
add up to exactly the bytes that follow the header. A file that breaks the
layout raises ValidationError naming the file. Header keys the layout does
not read are ignored.
"""

from __future__ import annotations

import json
import math
import os
from typing import Callable, Iterable

import numpy as np

from .errors import ValidationError


def is_count(value) -> bool:
    """A non-negative JSON integer (booleans excluded)."""
    return type(value) is int and value >= 0


def write(path, magic: bytes, header: dict, blocks: Iterable[np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def read(path, magic: bytes, kind: str,
         layout: Callable[[dict], dict[str, tuple[int, ...]]]
         ) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the named blocks of a container file. `layout(header)`
    checks the caller's own header fields, raising ValidationError, and
    returns each block's name and shape (non-negative ints) in file order."""
    with open(path, "rb") as fh:
        found = fh.read(len(magic))
        if found != magic:
            raise ValidationError(f"{path}: not {kind} file (bad magic {found!r})")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (ValueError, RecursionError) as e:
            raise ValidationError(f"{path}: unreadable header: {e}") from None
        try:
            # a header that is not an object lacks every field the caller needs
            shapes = layout(header if isinstance(header, dict) else {})
        except ValidationError as e:
            raise ValidationError(f"{path}: {e}") from None
        sizes = [8 * math.prod(shape) for shape in shapes.values()]
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if sum(sizes) != left:
            raise ValidationError(
                f"{path}: header describes {sum(sizes)} bytes of blocks but "
                f"{left} bytes follow it")
        blocks = {}
        for (name, shape), size in zip(shapes.items(), sizes):
            blocks[name] = np.empty(shape, dtype="<f8")
            if fh.readinto(blocks[name]) != size:
                raise ValidationError(f"{path}: truncated block '{name}'")
    return header, blocks
