"""Seeded synthetic classification worlds and CSV ingestion.

Inputs are always min-max normalized per dimension to [0, 1] so PSNR and
sigmoid reconstruction heads are well defined. The map is fitted on the
training rows only, so no test row moves a training input; it is applied
to every row and clipped to [0, 1]. Dimensions with zero range on the
training rows map to 0.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import LabelOutOfRange, ParseError, ShapeMismatch
from .numerics import seeded_rng


@dataclass
class Dataset:
    inputs: np.ndarray       # (N, d) float64 in [0, 1]
    labels: np.ndarray       # (N,) int64 in [0, n_classes)
    n_classes: int
    train_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def train_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.inputs[self.train_idx], self.labels[self.train_idx]

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.inputs[self.test_idx], self.labels[self.test_idx]


def normalize_unit(values: np.ndarray, fit_rows=None) -> np.ndarray:
    """Per-dimension min-max map fitted on the rows ``fit_rows`` (an index
    array; every row by default), applied to every row and clipped to
    [0, 1]; dims with zero range on the fitted rows map to 0. Idempotent
    for the same ``fit_rows``: a second application is the identity."""
    x = np.asarray(values, dtype=np.float64)
    fit = x if fit_rows is None else x[fit_rows]
    lo = fit.min(axis=0)
    hi = fit.max(axis=0)
    span = hi - lo
    out = np.zeros_like(x)
    live = span > 0
    out[:, live] = np.clip((x[:, live] - lo[live]) / span[live], 0.0, 1.0)
    return out


def _stratified_split(
    labels: np.ndarray, train_frac: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    train, test = [], []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        members = members[rng.permutation(members.size)]
        cut = int(round(train_frac * members.size))
        train.append(members[:cut])
        test.append(members[cut:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def synth_blobs(
    n_classes: int, d: int, per_class: int, spread: float, seed: int
) -> Dataset:
    """Gaussian blobs with one class mean per simplex vertex.

    Class means sit on scaled standard basis vectors (requires d >=
    n_classes), with isotropic within-class noise of scale ``spread``.
    Deterministic per seed; 80/20 stratified split.
    """
    if per_class < 2:
        raise ValueError("need at least 2 samples per class")
    if d < n_classes:
        raise ValueError(f"simplex placement needs d >= n_classes, got d={d}")
    rng = seeded_rng(seed, 0xDA)
    means = np.zeros((n_classes, d))
    means[np.arange(n_classes), np.arange(n_classes)] = 1.0

    labels = np.repeat(np.arange(n_classes), per_class)
    raw = means[labels] + spread * rng.standard_normal((labels.size, d))
    order = rng.permutation(labels.size)
    raw, labels = raw[order], labels[order]

    # The split draws from rng after the data; normalization draws nothing.
    train_idx, test_idx = _stratified_split(labels, 0.8, rng)
    inputs = normalize_unit(raw, train_idx)
    return Dataset(
        inputs=inputs,
        labels=labels.astype(np.int64),
        n_classes=n_classes,
        train_idx=train_idx,
        test_idx=test_idx,
    )


def save_csv(ds: Dataset, path) -> None:
    """Write rows as label,v1,...,vd with 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for label, row in zip(ds.labels, ds.inputs):
            fh.write(f"{int(label)}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def load_csv(path, n_classes: int, seed: int = 0) -> Dataset:
    """Read label,v1,...,vd rows (header optional), build a seeded 80/20
    stratified split, and normalize to [0, 1] with the training rows'
    range."""
    labels, rows = [], []
    width = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1:
                try:
                    int(row[0])
                except ValueError:
                    continue  # header row
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ShapeMismatch(
                    f"{path}: line {lineno} has {len(row)} fields, expected {width}"
                )
            try:
                label = int(row[0])
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            if not 0 <= label < n_classes:
                raise LabelOutOfRange(
                    f"{path}: line {lineno}: label {label} outside [0, {n_classes})"
                )
            labels.append(label)
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    labels = np.array(labels, dtype=np.int64)
    rng = seeded_rng(seed, 0xDA)
    train_idx, test_idx = _stratified_split(labels, 0.8, rng)
    inputs = normalize_unit(np.array(rows, dtype=np.float64), train_idx)
    return Dataset(
        inputs=inputs,
        labels=labels,
        n_classes=n_classes,
        train_idx=train_idx,
        test_idx=test_idx,
    )
