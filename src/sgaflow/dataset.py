"""Regression datasets: CSV loading, bootstrap resampling, and target dithering.

All sampling is a pure function of (inputs, seed); the generator is numpy's
PCG64 so a seed reproduces bit-identical draws across runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import isfinite

import numpy as np

VALID_TAGS = ("original", "train", "validation", "dithered")


@dataclass(frozen=True)
class Dataset:
    """Immutable (x, y) sample collection with provenance tag."""

    x: np.ndarray  # shape (m, d)
    y: np.ndarray  # shape (m,)
    tag: str = "original"

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if x.shape[0] < 1:
            raise ValueError("dataset must contain at least one point")
        if x.shape[1] < 1:
            raise ValueError("feature dimension must be >= 1")
        if self.tag not in VALID_TAGS:
            raise ValueError(f"unknown tag {self.tag!r}")
        x = x.copy()
        y = y.copy()
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def load_csv(path) -> Dataset:
    """Read a dataset from CSV with header x1,...,xd,y.

    Malformed rows, and rows holding nan or inf, are reported with their
    1-based line number.
    """
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise FileNotFoundError(f"dataset file not found: {path}")
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header x1,...,xd,y")
        header = [h.strip() for h in header]
        if len(header) < 2 or header[-1] != "y":
            raise ValueError(f"{path}: header must be x1,...,xd,y, got {header}")
        ncols = len(header)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != ncols:
                raise ValueError(
                    f"{path}:{lineno}: expected {ncols} columns, got {len(row)}"
                )
            try:
                vals = [float(tok) for tok in row]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value in row {row}")
            if not all(map(isfinite, vals)):
                raise ValueError(f"{path}:{lineno}: non-finite value in row {row}")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no rows")
    arr = np.asarray(rows, dtype=float)
    return Dataset(arr[:, :-1], arr[:, -1], tag="original")


def save_csv(ds: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i+1}" for i in range(ds.d)] + ["y"])
        for xi, yi in zip(ds.x, ds.y):
            writer.writerow([repr(float(v)) for v in xi] + [repr(float(yi))])


def bootstrap(src: Dataset, m_k: int, replacement: bool, seed: int,
              tag: str = "train") -> Dataset:
    """Resample m_k points from src, with or without replacement."""
    if m_k < 1:
        raise ValueError("resample size must be >= 1")
    if not replacement and m_k > src.m:
        raise ValueError(
            f"cannot draw {m_k} points without replacement from {src.m}"
        )
    rng = np.random.default_rng(seed)
    if replacement:
        idx = rng.integers(0, src.m, size=m_k)
    else:
        idx = rng.permutation(src.m)[:m_k]
    return Dataset(src.x[idx], src.y[idx], tag=tag)


def dither(src: Dataset, c: float, seed: int) -> Dataset:
    """Perturb targets with Gaussian noise of scale sigma = c * max|y|.

    Inputs x are untouched; only y receives i.i.d. N(0, sigma^2) noise.
    """
    if c < 0:
        raise ValueError("noise level must be >= 0")
    sigma = c * np.max(np.abs(src.y))
    rng = np.random.default_rng(seed)
    noise = sigma * rng.standard_normal(src.m)
    return Dataset(src.x, src.y + noise, tag="dithered")
