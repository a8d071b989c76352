"""Synthetic datasets and labeled/unlabeled mixture splits.

Unlabeled pools are a mixture of in-distribution examples (P) and an
out-of-distribution component (Q) materialized at split time; ground
truth and provenance are retained on every row for diagnostics only.
"""

import functools
import hashlib
import math
import os
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

PROV_LABELED = "labeled"
PROV_UNLABELED_P = "unlabeled_P"
PROV_UNLABELED_Q = "unlabeled_Q"
PROVENANCES = (PROV_LABELED, PROV_UNLABELED_P, PROV_UNLABELED_Q)

OOD_NONE = "none"
OOD_LABEL_FLIP = "label-flip"
OOD_CLUSTER_SHIFT = "cluster-shift"
OOD_KINDS = (OOD_NONE, OOD_LABEL_FLIP, OOD_CLUSTER_SHIFT)


@dataclass
class Examples:
    """One split as arrays: features X (n, d) float64, labels y (n,) int with
    -1 for no label, and provenance (n,) str."""

    X: np.ndarray
    y: np.ndarray
    provenance: np.ndarray

    def __len__(self) -> int:
        return len(self.y)


def _no_rows(dim: int) -> Examples:
    return Examples(np.empty((0, dim)), np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=str))


@dataclass
class SplitSpec:
    """How to carve a pool into labeled data and a P/Q unlabeled mixture."""

    labels_per_class: int
    q: float
    ood_kind: str = OOD_NONE
    ood_offset: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.labels_per_class < 1:
            raise ValueError("labels_per_class must be >= 1")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if self.ood_kind not in OOD_KINDS:
            raise ValueError(f"unknown ood_kind {self.ood_kind!r}")
        if self.ood_kind == OOD_CLUSTER_SHIFT:
            if self.ood_offset is None:
                raise ValueError("cluster-shift requires an offset vector")
            self.ood_offset = np.asarray(self.ood_offset, dtype=np.float64)


@dataclass
class DatasetBundle:
    labeled: Examples
    unlabeled: Examples
    test: Examples
    num_classes: int
    input_dim: int

    def validate(self) -> "DatasetBundle":
        if not self.labeled:
            raise ValueError("bundle needs at least one labeled example")
        if self.num_classes < 2 or self.input_dim < 1:
            raise ValueError("bundle needs num_classes >= 2 and input_dim >= 1")
        if len(self.unlabeled) < len(self.labeled):
            raise ValueError("unlabeled pool must be at least as large as labeled set")
        if np.any(self.labeled.y < 0):
            raise ValueError("labeled examples must carry a true label")
        if np.any(self.test.y < 0):
            raise ValueError("test examples must carry a true label")
        for split in (self.labeled, self.unlabeled, self.test):
            if split.X.shape != (len(split), self.input_dim):
                raise ValueError("inconsistent feature dimension in bundle")
            if np.any(split.y >= self.num_classes):
                raise ValueError("label out of range for bundle num_classes")
        return self


def make_two_moons(n: int, noise: float, seed: int) -> Examples:
    """Two interleaved half-circle classes in the plane.

    Class 0 sits on the unit circle (angles in [0, pi]); class 1 on the
    unit circle centered at (1, 0.5) (mirrored angles).  Gaussian noise
    with the given standard deviation is added to both coordinates.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if noise < 0:
        raise ValueError("noise must be >= 0")
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    t0 = rng.uniform(0.0, math.pi, size=n0)
    t1 = rng.uniform(0.0, math.pi, size=n1)
    pts0 = np.column_stack([np.cos(t0), np.sin(t0)])
    pts1 = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    X = np.concatenate([pts0, pts1])
    y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    X = X + noise * rng.standard_normal(X.shape)
    order = rng.permutation(n)
    return Examples(X[order], y[order], np.full(n, PROV_LABELED))


def _blob_centers(num_classes: int, dim: int, separation: float) -> np.ndarray:
    """Cluster centers with pairwise (adjacent) distance equal to separation."""
    centers = np.zeros((num_classes, dim))
    if num_classes <= dim:
        # scaled standard-basis simplex: every pairwise distance == separation
        scale = separation / math.sqrt(2.0)
        for k in range(num_classes):
            centers[k, k] = scale
    else:
        radius = separation / (2.0 * math.sin(math.pi / num_classes))
        for k in range(num_classes):
            ang = 2.0 * math.pi * k / num_classes
            centers[k, 0] = radius * math.cos(ang)
            centers[k, 1] = radius * math.sin(ang)
    return centers


def make_blobs(n: int, num_classes: int, dim: int, separation: float,
               noise: float, seed: int) -> Examples:
    """Isotropic Gaussian clusters, one per class, balanced labels."""
    if n < num_classes:
        raise ValueError("need at least one point per class")
    if num_classes < 2 or dim < 2:
        raise ValueError("need num_classes >= 2 and dim >= 2")
    if separation < 0 or noise < 0:
        raise ValueError("separation and noise must be >= 0")
    rng = np.random.default_rng(seed)
    centers = _blob_centers(num_classes, dim, separation)
    y = np.arange(n) % num_classes
    X = centers[y] + noise * rng.standard_normal((n, dim))
    order = rng.permutation(n)
    return Examples(X[order], y[order], np.full(n, PROV_LABELED))


def split_ssl(full: Examples, spec: SplitSpec, seed: int,
              test: Optional[Examples] = None) -> DatasetBundle:
    """Stratified labeled/unlabeled split with Q materialized at split time.

    Exactly labels_per_class examples per class keep their labels; the
    rest form the unlabeled pool, of which floor((1-q) * N_u) are
    transformed into the out-of-distribution component Q.  Both splits
    keep the pool's row order.
    """
    rng = np.random.default_rng(seed)
    if not len(full) or np.any(full.y < 0):
        raise ValueError("split_ssl needs a fully labeled input pool")
    counts = np.bincount(full.y)
    num_classes = len(counts)
    dim = full.X.shape[1]
    if spec.ood_kind == OOD_CLUSTER_SHIFT and spec.ood_offset.shape != (dim,):
        raise ValueError(f"cluster-shift offset has shape {spec.ood_offset.shape}, "
                         f"expected ({dim},)")
    is_labeled = np.zeros(len(full), dtype=bool)
    for c in np.flatnonzero(counts):
        idx = np.flatnonzero(full.y == c)
        if len(idx) < spec.labels_per_class:
            raise ValueError(
                f"class {c} has {len(idx)} examples, fewer than "
                f"labels_per_class={spec.labels_per_class}")
        chosen = rng.choice(len(idx), size=spec.labels_per_class, replace=False)
        is_labeled[idx[chosen]] = True
    labeled = Examples(full.X[is_labeled], full.y[is_labeled],
                       np.full(int(is_labeled.sum()), PROV_LABELED))
    Xu, yu = full.X[~is_labeled], full.y[~is_labeled]
    n_u = len(yu)
    n_q = int(math.floor((1.0 - spec.q) * n_u))
    is_q = np.zeros(n_u, dtype=bool)
    if n_q:
        is_q[rng.choice(n_u, size=n_q, replace=False)] = True
    if spec.ood_kind == OOD_LABEL_FLIP:
        yu[is_q] = (yu[is_q] + 1) % num_classes
    elif spec.ood_kind == OOD_CLUSTER_SHIFT:
        Xu[is_q] += spec.ood_offset
    unlabeled = Examples(Xu, yu, np.where(is_q, PROV_UNLABELED_Q, PROV_UNLABELED_P))
    bundle = DatasetBundle(labeled, unlabeled, _no_rows(dim) if test is None else test,
                           num_classes, dim)
    return bundle.validate()


# ---------------------------------------------------------------------------
# CSV round-trip

def save_examples_csv(examples: Examples, path: str) -> None:
    d = examples.X.shape[1]
    header = [f"x{i}" for i in range(d)] + ["label", "provenance"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        # row by row: one tolist() of the whole split would hold every float
        # as a Python object at once
        for x, label, provenance in zip(examples.X, examples.y.tolist(),
                                        examples.provenance.tolist()):
            fh.write(f"{','.join(map(repr, x.tolist()))},{label},{provenance}\n")


def load_examples_csv(path: str) -> Examples:
    """Read a file written by save_examples_csv.

    A path is parsed once per process for each content it holds: the
    sha256 of the file's bytes (not its size or mtime, which a same-size
    rewrite can keep) keys a cache of read-only arrays, and every call
    returns a fresh Examples around them.  A file that fails to parse
    fails on every load.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # block by block: one read() of a whole split is a transient as big as the file
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return replace(_parse_examples_csv(path, digest.hexdigest()))


@functools.lru_cache(maxsize=3)  # the three splits of one bundle
def _parse_examples_csv(path: str, digest: str) -> Examples:
    """Labels and provenances in one streaming pass that checks every row's
    width, features with np.loadtxt (correctly rounded, so equal to
    ``float()``'s); digest only keys the cache."""
    with open(path) as fh:
        line = fh.readline()
        if not line:
            raise ValueError(f"{path}: empty file")
        header = line.rstrip("\n").split(",")
        if len(header) < 3 or header[-2:] != ["label", "provenance"]:
            raise ValueError(f"{path}: malformed header {header!r}")
        d = len(header) - 2
        if header[:d] != [f"x{i}" for i in range(d)]:
            raise ValueError(f"{path}: malformed feature columns {header[:d]!r}")
        labels, provenances = [], []
        for line in fh:
            if line.count(",") != d + 1:
                raise ValueError(f"{path}: row with {line.count(',') + 1} fields, "
                                 f"expected {d + 2}")
            _, label, provenance = line.rsplit(",", 2)
            labels.append(int(label))
            provenances.append(provenance.rstrip("\n"))
    if not labels:
        return _read_only(_no_rows(d))
    y = np.array(labels, dtype=np.int64)
    provenance = np.array(provenances)
    if np.any(y < -1) or not np.isin(provenance, PROVENANCES).all():
        raise ValueError(f"{path}: label below -1 or provenance not in {PROVENANCES}")
    X = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(d), ndmin=2,
                   comments=None)
    return _read_only(Examples(X, y, provenance))


def _read_only(examples: Examples) -> Examples:
    """Freeze a cached split, so no caller can change what later loads return."""
    for array in (examples.X, examples.y, examples.provenance):
        array.flags.writeable = False
    return examples


def save_bundle(bundle: DatasetBundle, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    save_examples_csv(bundle.labeled, os.path.join(directory, "labeled.csv"))
    save_examples_csv(bundle.unlabeled, os.path.join(directory, "unlabeled.csv"))
    if len(bundle.test):
        save_examples_csv(bundle.test, os.path.join(directory, "test.csv"))


def load_bundle(directory: str) -> DatasetBundle:
    labeled = load_examples_csv(os.path.join(directory, "labeled.csv"))
    unlabeled = load_examples_csv(os.path.join(directory, "unlabeled.csv"))
    test_path = os.path.join(directory, "test.csv")
    dim = labeled.X.shape[1]
    test = load_examples_csv(test_path) if os.path.exists(test_path) else _no_rows(dim)
    top = int(np.concatenate([labeled.y, unlabeled.y, test.y]).max(initial=-1))
    bundle = DatasetBundle(labeled, unlabeled, test, top + 1 if top >= 0 else 2, dim)
    return bundle.validate()


def examples_xy(examples: Examples) -> Tuple[np.ndarray, np.ndarray]:
    """Features and labels (-1 = no label) of a split."""
    return examples.X, examples.y
