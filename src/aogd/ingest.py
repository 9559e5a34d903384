"""libsvm text-format ingestion for the classification benchmark.

Lines read "<label> <idx>:<val> ..." with 1-based, strictly increasing
indices. Labels 0/-1 map to -1 and 1/+1 to +1. Trailing '#' comments and
repeated whitespace are tolerated, and the reader skips blank and
comment-only lines; indices below 1, duplicate or non-increasing are
rejected loudly rather than silently repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    pass


_LABEL_MAP = {"0": -1, "-1": -1, "1": 1, "+1": 1}


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
        if idx <= prev_idx:
            raise ParseError(f"line {lineno}: non-increasing feature index {idx}")
        if not math.isfinite(val):
            raise ParseError(f"line {lineno}: non-finite value in {token!r}")
        indices.append(idx)
        values.append(val)
        prev_idx = idx
    return label, indices, values


def load_dataset(path: str, max_rows: int | None = None) -> Dataset:
    """Read up to max_rows examples; d is the max feature index seen."""
    if max_rows is not None and max_rows < 1:
        raise ParseError(f"max_rows must be >= 1, got {max_rows}")
    labels, counts, cols, vals = [], [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.split("#", 1)[0].strip():
                continue
            label, indices, values = parse_libsvm_line(line, lineno)
            labels.append(label)
            counts.append(len(indices))
            cols += indices
            vals += values
            if max_rows is not None and len(labels) >= max_rows:
                break
    if not labels:
        raise ParseError(f"{path}: no examples found")
    cols = np.array(cols, dtype=np.intp) - 1
    features = np.zeros((len(labels), int(cols.max()) + 1 if cols.size else 0))
    features[np.repeat(np.arange(len(labels)), counts), cols] = vals
    return Dataset(labels=np.array(labels, dtype=float), features=features)
