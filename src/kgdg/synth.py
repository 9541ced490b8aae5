"""Seeded multi-domain synthetic data with controllable shift.

Per domain: grades from a prior, Poisson lesion counts whose rates grow
with grade (scaled by a per-domain bias), detection boxes consistent
with those counts, vein morphology as a grade trend plus a
domain-specific Gaussian offset, and a simulated neural branch that hits
a configured accuracy. Everything derives from named RNG streams, so a
config and seed fully determine every output byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import GRADE_COUNT, LESION_TYPES, DetectionTable, DomainId, DomainTable
from .errors import InvalidConfig
from .io import save_detections, save_feature_table, save_manifest, save_probability_table
from .learn.config import softmax
from .rules import aggregate_detections

COUNTABLE_LESIONS = LESION_TYPES[:5]  # the counted kinds, in their count columns' order

# Per-grade Poisson rates for the countable lesions, monotone in grade.
DEFAULT_COUNT_RATES: tuple[tuple[float, ...], ...] = (
    (0.2, 0.05, 0.05, 0.02, 0.01),
    (3.0, 0.3, 0.5, 0.2, 0.05),
    (6.0, 2.5, 2.5, 1.0, 0.6),
    (9.0, 4.0, 8.0, 4.0, 2.0),
    (12.0, 6.0, 12.0, 6.0, 3.5),
)

# Vein morphology: value = base + step * grade (+ domain offset + jitter).
VEIN_BASE = np.array([1.0, 8.0, 70.0])
VEIN_STEP = np.array([0.45, 1.1, 7.0])
VEIN_JITTER = np.array([0.05, 0.15, 1.2])
VEIN_CLIP_LO = np.array([0.0, 0.0, 0.0])
VEIN_CLIP_HI = np.array([np.inf, np.inf, 180.0])

DEFAULT_GRADE_PRIOR = (0.30, 0.20, 0.20, 0.15, 0.15)


@dataclass(frozen=True)
class DomainSpec:
    """Shift knobs for one synthetic domain."""

    name: str
    n_samples: int
    grade_prior: tuple[float, ...] = DEFAULT_GRADE_PRIOR
    count_bias: float = 1.0
    vein_noise_sigma: float = 0.1
    neural_in_domain_accuracy: float = 0.85
    neural_ood_accuracy: float = 0.60
    neural_temperature: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_samples, int) or self.n_samples >= 2**63:
            raise InvalidConfig(f"n_samples must be an integer below 2**63, got {self.n_samples!r}")
        if self.n_samples < 1:
            raise InvalidConfig("n_samples must be >= 1")
        if len(self.grade_prior) != 5 or any(p < 0 for p in self.grade_prior):
            raise InvalidConfig("grade_prior must be 5 nonnegative values")
        if abs(sum(self.grade_prior) - 1.0) > 1e-9:
            raise InvalidConfig("grade_prior must sum to 1")
        if self.count_bias < 0:
            raise InvalidConfig("count_bias must be >= 0")
        if self.vein_noise_sigma < 0:
            raise InvalidConfig("vein_noise_sigma must be >= 0")
        for name in ("neural_in_domain_accuracy", "neural_ood_accuracy"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise InvalidConfig(f"{name} must be in [0,1]")
        if self.neural_temperature <= 0:
            raise InvalidConfig("neural_temperature must be > 0")


@dataclass(frozen=True)
class SynthConfig:
    domains: tuple[DomainSpec, ...]
    count_rates: tuple[tuple[float, ...], ...] = DEFAULT_COUNT_RATES
    pdr_flag_prob: float = 0.9
    neural_source: str = ""
    with_vein: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.domains:
            raise InvalidConfig("need at least one domain")
        names = [DomainId(d.name) for d in self.domains]
        if len(set(names)) != len(names):
            raise InvalidConfig("domain names must be unique")
        rates = np.asarray(self.count_rates, dtype=np.float64)
        if rates.shape != (5, len(COUNTABLE_LESIONS)):
            raise InvalidConfig(f"count_rates must be 5x{len(COUNTABLE_LESIONS)}")
        if (rates < 0).any():
            raise InvalidConfig("count_rates must be >= 0")
        if not (0.0 <= self.pdr_flag_prob <= 1.0):
            raise InvalidConfig("pdr_flag_prob must be in [0,1]")
        if self.neural_source and DomainId(self.neural_source) not in names:
            raise InvalidConfig(f"neural_source {self.neural_source!r} is not a domain")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be a nonnegative integer, got {self.seed!r}")

    def source_domain(self) -> DomainId:
        return DomainId(self.neural_source or self.domains[0].name)


@dataclass
class SynthOutput:
    """Per domain: the features table, with the deep branch's ``(n, 5)`` rows
    in ``probs`` as load_domain_dataset returns it, and the detections of
    every image (``ids`` covers images without any)."""

    tables: dict[DomainId, DomainTable] = field(default_factory=dict)
    detections: dict[DomainId, DetectionTable] = field(default_factory=dict)


def _stream(seed: int, *tokens: object) -> np.random.Generator:
    """Independent, platform-stable generator for a named stream."""
    key = "/".join(str(t) for t in tokens) + f"#{seed}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "big")))


def _round6(values: np.ndarray) -> np.ndarray:
    """round(v, 6) of each value: correctly rounded, as np.round is not.

    For ``|v| < 1e3`` the product ``v * 1e6`` is within 1.2e-7 of the exact
    ``v * 10**6``, so unless its fraction is within 1e-6 of a half, ``rint``
    picks the integer ``k`` that correct rounding picks, and ``k / 1e6`` is
    the double nearest ``k * 10**-6``, which ``round`` returns. The other
    values, non-finite ones included, go through ``round`` itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 1e6
        k = np.rint(scaled)
        slow = ~(np.abs(values) < 1e3) | (np.abs(scaled - k) >= 0.5 - 1e-6)
    out = k / 1e6
    out[slow] = [round(v, 6) for v in values[slow].tolist()]
    return out


def _lesion_counts(rng: np.random.Generator, grades: np.ndarray, rates: np.ndarray, pdr_flag_prob: float) -> np.ndarray:
    """An ``(images, 7)`` count per lesion code: each image's five Poisson
    counts at its grade's ``rates``, then for a grade-4 image its two flags
    (subhyaloid hemorrhage, then neovascularization).

    The draws are those of one image at a time: an array draw fills its
    elements in order from the same bit generator, so the Poisson counts
    of a run of images that ends at a grade-4 image are one call, followed
    by that image's two uniforms.
    """
    lam = rates[grades]
    lesions = np.zeros((len(grades), len(LESION_TYPES)), dtype=np.int64)
    start = 0
    for end in [*(np.flatnonzero(grades == 4) + 1).tolist(), len(grades)]:
        lesions[start:end, :5] = rng.poisson(lam[start:end])
        if end > start and grades[end - 1] == 4:
            lesions[end - 1, 5:] = rng.random(2) < (pdr_flag_prob / 2, pdr_flag_prob)
        start = end
    return lesions


def _detections(rng: np.random.Generator, ids: tuple[str, ...], lesions: np.ndarray) -> DetectionTable:
    """One detection per lesion of ``lesions`` (an ``(images, 7)`` count per
    lesion code), in image then code order. Each takes w, h, x, y and score
    from one row of ``rng``'s uniforms, as ``rng.uniform(lo, hi)`` computes
    them: ``lo + (hi - lo) * u``."""
    image = np.repeat(np.arange(len(ids)), lesions.sum(axis=1))
    lesion = np.repeat(np.tile(np.arange(len(LESION_TYPES)), len(ids)), lesions.ravel())
    u = rng.random((lesion.size, 5))
    w = _round6(0.01 + (0.06 - 0.01) * u[:, 0])
    h = _round6(0.01 + (0.06 - 0.01) * u[:, 1])
    x = _round6(0.0 + (1.0 - w) * u[:, 2])
    y = _round6(0.0 + (1.0 - h) * u[:, 3])
    lo = np.where(lesion < len(COUNTABLE_LESIONS), 0.5, 0.6)  # the two flag lesions score higher
    return DetectionTable(ids, image, lesion, np.column_stack((x, y, w, h)), _round6(lo + (1.0 - lo) * u[:, 4]))


def simulate_neural_table(
    grades: Sequence[int] | np.ndarray,
    accuracy: float,
    temperature: float,
    seed: int,
    stream: str = "neural",
) -> np.ndarray:
    """Accuracy-parameterized stand-in for a deep model's confidences: an
    ``(n, 5)`` row per grade.

    The true grade wins with probability ``accuracy``, otherwise a
    uniformly random wrong grade wins; ``temperature`` sets how peaked
    the softmax row is around the winner.
    """
    if not (0.0 <= accuracy <= 1.0):
        raise InvalidConfig("accuracy must be in [0,1]")
    if temperature <= 0:
        raise InvalidConfig("temperature must be > 0")
    rng = _stream(seed, stream)
    logits = np.empty((len(grades), GRADE_COUNT))
    for n, grade in enumerate(np.asarray(grades).tolist()):
        winner = grade
        if rng.random() >= accuracy:  # a uniformly random wrong grade
            winner = int(rng.integers(0, 4))
            winner += winner >= grade
        logits[n] = rng.uniform(0.0, 0.5, size=5)
        logits[n, winner] = 1.0 + rng.uniform(0.0, 0.25)
    return softmax(logits / temperature)


def gen_dataset(cfg: SynthConfig) -> SynthOutput:
    """Generate every domain's features table, detections and deep-branch rows."""
    rates = np.asarray(cfg.count_rates, dtype=np.float64)
    out = SynthOutput()
    source = cfg.source_domain()
    for spec in cfg.domains:
        domain = DomainId(spec.name)
        label_rng = _stream(cfg.seed, domain, "labels")
        offset_rng = _stream(cfg.seed, domain, "vein-offset")
        vein_offset = offset_rng.normal(0.0, 1.0, size=3) * VEIN_STEP * spec.vein_noise_sigma

        grades = label_rng.choice(5, size=spec.n_samples, p=np.asarray(spec.grade_prior))
        lesions = _lesion_counts(label_rng, grades, rates * spec.count_bias, cfg.pdr_flag_prob)
        ids = tuple(f"{domain}-{i:05d}" for i in range(spec.n_samples))
        dets = _detections(_stream(cfg.seed, domain, "boxes"), ids, lesions)
        vein = None
        if cfg.with_vein:
            jitter = _stream(cfg.seed, domain, "vein").normal(size=(spec.n_samples, 3)) * VEIN_JITTER
            vein = np.round(np.clip(VEIN_BASE + VEIN_STEP * grades[:, None] + vein_offset + jitter,
                                    VEIN_CLIP_LO, VEIN_CLIP_HI), 6)
        acc = spec.neural_in_domain_accuracy if domain == source else spec.neural_ood_accuracy
        probs = simulate_neural_table(grades, acc, spec.neural_temperature, cfg.seed, stream=f"{domain}/neural")
        probs.setflags(write=False)
        # every image's features are its detections' counts (all scores kept) plus its vein values
        out.tables[domain] = DomainTable(ids, (domain,) * len(ids), grades, aggregate_detections(dets, 0.0), vein,
                                         domain, probs)
        out.detections[domain] = dets
    return out


def _alone(cfg: SynthConfig, spec: DomainSpec) -> SynthConfig:
    """``cfg`` with ``spec`` its only domain, generating the bytes ``cfg``
    generates for it: every stream is named by seed and domain, and a domain
    alone is its own source, so one off the source takes the out-of-domain
    accuracy as its in-domain one."""
    if DomainId(spec.name) != cfg.source_domain():
        spec = replace(spec, neural_in_domain_accuracy=spec.neural_ood_accuracy)
    return replace(cfg, domains=(spec,), neural_source="")


def write_dataset(cfg: SynthConfig, out_dir: str | Path) -> Path:
    """Generate and write the data-io file layout; returns the manifest path.

    Domains are generated, written and dropped one at a time, so the peak
    memory is that of the largest domain, not of all of them."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for spec in cfg.domains:
        generated = gen_dataset(_alone(cfg, spec))
        ((domain, table),) = generated.tables.items()
        features = f"{domain}_features.csv"
        probs = f"{domain}_probs.csv"
        dets = f"{domain}_detections.json"
        save_feature_table(out_dir / features, table)
        save_probability_table(out_dir / probs, dict(zip(table.ids, table.probs.tolist())))
        save_detections(out_dir / dets, generated.detections[domain])
        entries.append({"name": str(domain), "features": features, "probs": probs, "detections": dets})
        del generated, table  # the loop names would keep this domain alive while the next is generated
    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest_path, entries, seeds=(0, 1, 2))
    return manifest_path


# per profile: each domain's count bias, the vein noise, the deep branch's accuracy off its source
SHIFT_PROFILES = {
    "mild": ((1.0, 0.92, 1.1), 0.1, 0.62),
    "severe": ((1.0, 0.55, 1.7), 1.0, 0.45),
    "vein_hostile": ((1.0, 0.95, 1.05), 3.0, 0.55),
}


def shift_profile(name: str, seed: int = 0, n_samples: int = 2000) -> SynthConfig:
    """Named presets: ``mild`` (benign shift), ``severe`` (strong count
    shift), ``vein_hostile`` (vein features informative in-domain but
    offset hard across domains, while lesion counts stay stable)."""
    if name not in SHIFT_PROFILES:
        raise InvalidConfig(f"unknown shift profile {name!r}")
    biases, sigma, ood = SHIFT_PROFILES[name]
    domains = tuple(
        DomainSpec(domain, n_samples=n_samples, grade_prior=DEFAULT_GRADE_PRIOR, count_bias=bias,
                   vein_noise_sigma=sigma, neural_in_domain_accuracy=0.85, neural_ood_accuracy=ood,
                   neural_temperature=0.25 if domain == "clinic_a" else 1.2)
        for domain, bias in zip(("clinic_a", "clinic_b", "clinic_c"), biases)
    )
    return SynthConfig(domains=domains, neural_source="clinic_a", seed=seed)
