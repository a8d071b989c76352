"""Synthetic datasets and labeled/unlabeled mixture splits.

Unlabeled pools are a mixture of in-distribution examples (P) and an
out-of-distribution component (Q) materialized at split time; ground
truth and provenance are retained on every example for diagnostics only.
"""

import math
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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
class Example:
    x: np.ndarray
    true_label: Optional[int]
    provenance: str

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.ndim != 1:
            raise ValueError("example features must be a vector")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.true_label is not None:
            self.true_label = int(self.true_label)
            if self.true_label < 0:
                raise ValueError("true_label must be a nonnegative class index")


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
    labeled: List[Example]
    unlabeled: List[Example]
    test: List[Example]
    num_classes: int
    input_dim: int

    def validate(self) -> "DatasetBundle":
        if not self.labeled:
            raise ValueError("bundle needs at least one labeled example")
        if self.num_classes < 2 or self.input_dim < 1:
            raise ValueError("bundle needs num_classes >= 2 and input_dim >= 1")
        if len(self.unlabeled) < len(self.labeled):
            raise ValueError("unlabeled pool must be at least as large as labeled set")
        for ex in self.labeled:
            if ex.true_label is None:
                raise ValueError("labeled examples must carry a true label")
        for ex in self.labeled + self.unlabeled + self.test:
            if ex.x.shape[0] != self.input_dim:
                raise ValueError("inconsistent feature dimension in bundle")
            if ex.true_label is not None and ex.true_label >= self.num_classes:
                raise ValueError("label out of range for bundle num_classes")
        return self


def make_two_moons(n: int, noise: float, seed: int) -> List[Example]:
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
    return [Example(X[i], int(y[i]), PROV_LABELED) for i in order]


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
               noise: float, seed: int) -> List[Example]:
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
    return [Example(X[i], int(y[i]), PROV_LABELED) for i in order]


def _apply_ood(ex: Example, spec: SplitSpec, num_classes: int) -> Example:
    if spec.ood_kind == OOD_LABEL_FLIP:
        flipped = (ex.true_label + 1) % num_classes if ex.true_label is not None else None
        return Example(ex.x.copy(), flipped, PROV_UNLABELED_Q)
    if spec.ood_kind == OOD_CLUSTER_SHIFT:
        return Example(ex.x + spec.ood_offset, ex.true_label, PROV_UNLABELED_Q)
    return Example(ex.x.copy(), ex.true_label, PROV_UNLABELED_Q)


def split_ssl(full: Sequence[Example], spec: SplitSpec, seed: int,
              test: Sequence[Example] = ()) -> DatasetBundle:
    """Stratified labeled/unlabeled split with Q materialized at split time.

    Exactly labels_per_class examples per class keep their labels; the
    rest form the unlabeled pool, of which floor((1-q) * N_u) are
    transformed into the out-of-distribution component Q.
    """
    rng = np.random.default_rng(seed)
    labels = sorted({ex.true_label for ex in full if ex.true_label is not None})
    if not labels or any(l is None for l in labels):
        raise ValueError("split_ssl needs a fully labeled input pool")
    num_classes = max(labels) + 1
    dim = int(full[0].x.shape[0])
    if spec.ood_kind == OOD_CLUSTER_SHIFT and spec.ood_offset.shape != (dim,):
        raise ValueError(f"cluster-shift offset has shape {spec.ood_offset.shape}, "
                         f"expected ({dim},)")
    by_class = {c: [i for i, ex in enumerate(full) if ex.true_label == c]
                for c in labels}
    labeled_idx = set()
    for c in labels:
        idx = by_class[c]
        if len(idx) < spec.labels_per_class:
            raise ValueError(
                f"class {c} has {len(idx)} examples, fewer than "
                f"labels_per_class={spec.labels_per_class}")
        chosen = rng.choice(len(idx), size=spec.labels_per_class, replace=False)
        labeled_idx.update(idx[j] for j in chosen)
    labeled = [Example(full[i].x.copy(), full[i].true_label, PROV_LABELED)
               for i in sorted(labeled_idx)]
    rest = [i for i in range(len(full)) if i not in labeled_idx]
    n_u = len(rest)
    n_q = int(math.floor((1.0 - spec.q) * n_u))
    q_positions = set(rng.choice(n_u, size=n_q, replace=False).tolist()) if n_q else set()
    unlabeled = []
    for pos, i in enumerate(rest):
        src = full[i]
        if pos in q_positions:
            unlabeled.append(_apply_ood(src, spec, num_classes))
        else:
            unlabeled.append(Example(src.x.copy(), src.true_label, PROV_UNLABELED_P))
    bundle = DatasetBundle(labeled, unlabeled, list(test), num_classes, dim)
    return bundle.validate()


# ---------------------------------------------------------------------------
# CSV round-trip

def save_examples_csv(examples: Sequence[Example], path: str) -> None:
    if not examples:
        raise ValueError("refusing to write an empty example list")
    d = examples[0].x.shape[0]
    header = [f"x{i}" for i in range(d)] + ["label", "provenance"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for ex in examples:
            if ex.x.shape[0] != d:
                raise ValueError("inconsistent feature dimension")
            label = ex.true_label if ex.true_label is not None else -1
            fh.write(f"{','.join(map(repr, ex.x.tolist()))},{label},{ex.provenance}\n")


def load_examples_csv(path: str) -> List[Example]:
    """Read a file written by save_examples_csv: labels and provenances in one
    streaming pass that checks every row's width, features with np.loadtxt
    (correctly rounded, so equal to ``float()``'s)."""
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
        return []
    X = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(d), ndmin=2,
                   comments=None)
    return [Example(x, None if label < 0 else label, provenance)
            for x, label, provenance in zip(X, labels, provenances)]


def save_bundle(bundle: DatasetBundle, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    save_examples_csv(bundle.labeled, os.path.join(directory, "labeled.csv"))
    save_examples_csv(bundle.unlabeled, os.path.join(directory, "unlabeled.csv"))
    if bundle.test:
        save_examples_csv(bundle.test, os.path.join(directory, "test.csv"))


def load_bundle(directory: str) -> DatasetBundle:
    labeled = load_examples_csv(os.path.join(directory, "labeled.csv"))
    unlabeled = load_examples_csv(os.path.join(directory, "unlabeled.csv"))
    test_path = os.path.join(directory, "test.csv")
    test = load_examples_csv(test_path) if os.path.exists(test_path) else []
    known = [ex.true_label for ex in labeled + unlabeled + test
             if ex.true_label is not None]
    num_classes = max(known) + 1 if known else 2
    bundle = DatasetBundle(labeled, unlabeled, test, num_classes,
                           labeled[0].x.shape[0] if labeled else 0)
    return bundle.validate()


def examples_xy(examples: Sequence[Example]) -> Tuple[np.ndarray, np.ndarray]:
    """Stack features and labels (missing labels become -1)."""
    X = np.stack([ex.x for ex in examples])
    y = np.array([-1 if ex.true_label is None else ex.true_label for ex in examples])
    return X, y
