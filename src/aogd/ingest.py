"""libsvm text-format ingestion for the classification benchmark.

Lines read "<label> <idx>:<val> ..." with 1-based, strictly increasing
indices. Labels 0/-1 map to -1 and 1/+1 to +1. Trailing '#' comments and
repeated whitespace are tolerated; duplicate or non-increasing indices are
rejected loudly rather than silently repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class ParseError(ValueError):
    pass


_LABEL_MAP = {"0": -1, "-1": -1, "1": 1, "+1": 1}


@dataclass(frozen=True)
class SparseExample:
    label: int
    features: Sequence[tuple[int, float]]  # (1-based index, value), increasing


@dataclass(frozen=True)
class Dataset:
    examples: Sequence[SparseExample]
    d: int

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Densify into (labels, features) arrays."""
        labels = np.array([ex.label for ex in self.examples], dtype=float)
        features = np.zeros((len(self.examples), self.d))
        for i, ex in enumerate(self.examples):
            for idx, val in ex.features:
                features[i, idx - 1] = val
        return labels, features


def parse_libsvm_line(line: str, lineno: int = 0) -> SparseExample:
    """Parse one libsvm line; raises ParseError with the line number."""
    text = line.split("#", 1)[0].strip()
    if not text:
        raise ParseError(f"line {lineno}: empty line")
    tokens = text.split()
    label = _LABEL_MAP.get(tokens[0])
    if label is None:
        raise ParseError(f"line {lineno}: unknown label {tokens[0]!r}")
    features = []
    prev_idx = 0
    for token in tokens[1:]:
        try:
            idx_str, val_str = token.split(":", 1)
            idx, val = int(idx_str), float(val_str)
        except ValueError:
            raise ParseError(f"line {lineno}: malformed token {token!r}") from None
        if idx <= prev_idx:
            raise ParseError(f"line {lineno}: non-increasing feature index {idx}")
        if not np.isfinite(val):
            raise ParseError(f"line {lineno}: non-finite value in {token!r}")
        features.append((idx, val))
        prev_idx = idx
    return SparseExample(label=label, features=tuple(features))


def serialize_example(ex: SparseExample) -> str:
    parts = [f"{ex.label:+d}"] + [f"{i}:{v:g}" for i, v in ex.features]
    return " ".join(parts)


def load_dataset(path: str, max_rows: int | None = None,
                 dim_hint: int = 0) -> Dataset:
    """Read up to max_rows examples; d is the max feature index seen
    (or dim_hint, whichever is larger)."""
    if max_rows is not None and max_rows < 1:
        raise ParseError(f"max_rows must be >= 1, got {max_rows}")
    examples = []
    d = dim_hint
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            ex = parse_libsvm_line(line, lineno)
            examples.append(ex)
            if ex.features:
                d = max(d, ex.features[-1][0])
            if max_rows is not None and len(examples) >= max_rows:
                break
    if not examples:
        raise ParseError(f"{path}: no examples found")
    return Dataset(examples=tuple(examples), d=d)
