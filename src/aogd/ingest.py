"""libsvm text-format ingestion for the classification benchmark.

Lines read "<label> <idx>:<val> ..." with 1-based, strictly increasing
indices. Labels 0/-1 map to -1 and 1/+1 to +1. Trailing '#' comments and
repeated whitespace are tolerated, and the reader skips blank and
comment-only lines; indices below 1 or past 2**63 - 1, duplicate or
non-increasing are rejected loudly rather than silently repaired.

`load_dataset` parses blocks of `_BLOCK_LINES` lines: one split of the
block's `idx:val` tokens, Python's `int` once per distinct index string and
its `float` once per value, so that every spelling a line accepts means the
same, and the checks run as arrays over the block. `parse_libsvm_line` is
the reference for one line and the only writer of a line's `ParseError`: a
block that fails any check goes through it line by line, so the error
names the first bad line of the file. A largest index whose dense matrix
cannot be allocated fails with the path, that index and the shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import NoReturn

import numpy as np


class ParseError(ValueError):
    pass


_LABEL_MAP = {"0": -1, "-1": -1, "1": 1, "+1": 1}
_MAX_INDEX = 2**63 - 1
# Lines per block of `load_dataset`. A block's token strings are what the
# parse holds at once, beside the arrays of the blocks before it: on
# criterion 9's file (20 features a line) 64 lines keep the peak RSS of an
# `aogd run` at the line-by-line parse's, where 128 raised it.
_BLOCK_LINES = 1 << 6


@dataclass(frozen=True)
class Dataset:
    """labels (n,) of -1.0/+1.0 and dense features (n, d), with d the
    largest feature index read."""

    labels: np.ndarray
    features: np.ndarray

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        return self.labels, self.features


def parse_libsvm_line(line: str, lineno: int = 0
                      ) -> tuple[int, list[int], list[float]]:
    """Parse one libsvm line into (label, 1-based indices, values); raises
    ParseError with the line number."""
    text = line.split("#", 1)[0].strip()
    if not text:
        raise ParseError(f"line {lineno}: empty line")
    tokens = text.split()
    label = _LABEL_MAP.get(tokens[0])
    if label is None:
        raise ParseError(f"line {lineno}: unknown label {tokens[0]!r}")
    indices, values = [], []
    prev_idx = 0
    for token in tokens[1:]:
        try:
            idx_str, val_str = token.split(":", 1)
            idx, val = int(idx_str), float(val_str)
        except ValueError:
            raise ParseError(f"line {lineno}: malformed token {token!r}") from None
        if idx < 1:
            raise ParseError(f"line {lineno}: feature index {idx} is below 1")
        if idx > _MAX_INDEX:
            raise ParseError(f"line {lineno}: feature index {idx} is too large; "
                             f"it must be at most 2**63 - 1")
        if idx <= prev_idx:
            raise ParseError(f"line {lineno}: non-increasing feature index {idx}")
        if not math.isfinite(val):
            raise ParseError(f"line {lineno}: non-finite value in {token!r}")
        indices.append(idx)
        values.append(val)
        prev_idx = idx
    return label, indices, values


def _raise_first_error(lines: list[str], lineno: int) -> NoReturn:
    """Raise the ParseError of the first bad line of `lines`, the first of
    which is line `lineno` of the file."""
    for offset, line in enumerate(lines):
        if line.split("#", 1)[0].strip():
            parse_libsvm_line(line, lineno + offset)
    raise AssertionError(f"the block from line {lineno} failed a check "
                         f"but every line of it parses")


def _parse_block(lines: list[str], lineno: int, room: int | None
                 ) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Parse the examples of `lines` (line `lineno` first), at most `room`
    of them. Returns (labels, row of each token, indices, values), rows
    counted from the block's first example."""
    labels, feats = [], []
    for end, line in enumerate(lines, start=1):
        head = line.split("#", 1)[0].split(None, 1)
        if not head:
            continue
        label = _LABEL_MAP.get(head[0])
        if label is None:
            _raise_first_error(lines[:end], lineno)
        labels.append(label)
        feats.append(head[1] if len(head) == 2 else "")
        if len(labels) == room:
            break
    kept = lines[:end]

    text = " ".join(feats)
    if not text.isascii():
        text = " ".join(text.split())   # no whitespace but " " is left
    chars = np.frombuffer(f" {text} ".encode(), np.uint8)
    # bytes up to b" " hold every ASCII whitespace; any other control byte
    # stays in a piece below, whose int() or float() then fails
    space = chars <= ord(" ")
    colon = chars == ord(":")
    # with a space at each end of the text, the space before each token and
    # each colon alternate in text order when every token holds one ":".
    # Its two pieces, idx and val, are then nonempty when there are twice as
    # many pieces as tokens.
    is_colon = colon[((space[:-1] & ~space[1:]) | colon[:-1]).nonzero()[0]]
    n = is_colon.size // 2
    pieces = text.replace(":", " ").split()
    if not (len(pieces) == is_colon.size == 2 * n and is_colon[1::2].all()
            and not is_colon[0::2].any()):
        _raise_first_error(kept, lineno)
    idx_strs = pieces[0::2]
    try:
        as_int = {s: int(s) for s in set(idx_strs)}
        values = np.fromiter(map(float, pieces[1::2]), float, count=n)
    except ValueError:
        _raise_first_error(kept, lineno)
    if not (1 <= min(as_int.values(), default=1)
            and max(as_int.values(), default=1) <= _MAX_INDEX):
        _raise_first_error(kept, lineno)
    indices = np.fromiter(map(as_int.__getitem__, idx_strs), np.int64, count=n)
    rows = np.repeat(np.arange(len(labels)), [f.count(":") for f in feats])
    # indices increase within a line and restart at each new line
    if not (((indices[1:] > indices[:-1]) | (rows[1:] != rows[:-1])).all()
            and np.isfinite(values).all()):
        _raise_first_error(kept, lineno)
    return labels, rows, indices, values


def load_dataset(path: str, max_rows: int | None = None) -> Dataset:
    """Read up to max_rows examples; d is the max feature index seen."""
    if max_rows is not None and max_rows < 1:
        raise ParseError(f"max_rows must be >= 1, got {max_rows}")
    labels, parts = [], []
    with open(path) as fh:
        lineno = 1
        while max_rows is None or len(labels) < max_rows:
            lines = list(islice(fh, _BLOCK_LINES))
            if not lines:
                break
            room = None if max_rows is None else max_rows - len(labels)
            block_labels, rows, indices, values = _parse_block(lines, lineno, room)
            parts.append((rows + len(labels), indices - 1, values))
            labels += block_labels
            lineno += len(lines)
    if not labels:
        raise ParseError(f"{path}: no examples found")
    rows, cols, values = map(np.concatenate, zip(*parts))
    shape = (len(labels), int(cols.max()) + 1 if cols.size else 0)
    try:
        features = np.zeros(shape)
    except (ValueError, MemoryError):  # numpy's "array is too big", or no room
        raise ParseError(f"{path}: largest feature index {shape[1]} asks for a "
                         f"dense (n, d) = {shape} matrix, which cannot be "
                         f"allocated") from None
    features[rows, cols] = values
    return Dataset(labels=np.array(labels, dtype=float), features=features)
