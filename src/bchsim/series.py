"""Column-oriented time series with canonical CSV round-tripping.

The same codec reads and writes every CSV table of the program: run
series, snapshots, initial-data files, wave and eigenvalue tables.

Floats are written with repr, the shortest representation that parses back
to the same double, so read-then-rewrite reproduces a file byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["TimeSeries"]


class TimeSeries:
    """Ordered named columns of equal length."""

    def __init__(self, **columns: np.ndarray):
        if not columns:
            raise ValueError("a TimeSeries needs at least one column")
        self.columns: dict[str, np.ndarray] = {}
        length = None
        for name, values in columns.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"column {name} is not one-dimensional")
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise ValueError(f"column {name} has length {arr.size}, expected {length}")
            self.columns[name] = arr

    def __len__(self) -> int:
        return next(iter(self.columns.values())).size

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def to_csv(self, path) -> None:
        lines = [",".join(self.names)]
        cols = list(self.columns.values())
        for i in range(len(self)):
            lines.append(",".join(repr(float(c[i])) for c in cols))
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        text = Path(path).read_text().strip().splitlines()
        if not text:
            raise ValueError(f"{path} is empty")
        names = [h.strip() for h in text[0].split(",")]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"{path}: the header names column {name!r} twice")
        rows = [line.split(",") for line in text[1:] if line.strip()]
        for r in rows:
            if len(r) != len(names):
                raise ValueError(f"{path}: a row has {len(r)} fields, "
                                 f"the header names {len(names)}")
        data = {n: np.array([float(r[j]) for r in rows]) for j, n in enumerate(names)}
        return cls(**data)
