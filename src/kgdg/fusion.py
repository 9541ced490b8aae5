"""Confidence fusion of the deep and knowledge branches.

Four strategies: selective (branch with the higher peak wins), global
max confidence, class-wise max, and weighted blending. Tie rules are
fixed so every strategy is a deterministic total function: the deep
branch wins cross-branch ties, and within a vector the lower grade wins.

Scaling both blend weights by c > 0 (scaled weights normal, blend finite)
keeps the weighted grade unless the unscaled blend's top two cells lie within
2**-49 * (alpha_dl + alpha_kl) of each other. Exact invariance cannot hold:
the scaled weights, products and sum round, which moves each cell of a
probability-row blend, scaled back by c, at most 3 * 2**-53 * (alpha_dl +
alpha_kl) from the exact blend.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .core import GRADE_COUNT, DRGrade, FusionWeights, ProbabilityVector
from .errors import InvalidConfig, UnknownImageId


class FusionSource(str, Enum):
    DEEP = "deep"
    SYMBOLIC = "symbolic"
    BLENDED = "blended"


class FusionStrategy(str, Enum):
    SELECTIVE = "selective"
    MAX_CONFIDENCE = "max"
    CLASSWISE_MAX = "classwise"
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class FusedPrediction:
    grade: DRGrade
    source: FusionSource
    winning_score: float


# The cells of a stacked row (deep grades 0-4, then knowledge grades 0-4)
# in tie order; the first maximal cell wins. With every deep cell first,
# the branch with the higher peak wins whole, so selective and max
# confidence coincide. Class-wise max visits the grades in order, deep
# before knowledge within a grade.
_TIE_ORDER = {
    FusionStrategy.SELECTIVE: tuple(range(2 * GRADE_COUNT)),
    FusionStrategy.MAX_CONFIDENCE: tuple(range(2 * GRADE_COUNT)),
    FusionStrategy.CLASSWISE_MAX: tuple(
        cell for g in range(GRADE_COUNT) for cell in (g, g + GRADE_COUNT)
    ),
}


_GRADES = tuple(DRGrade)


class FusedArrays(NamedTuple):
    """Fusion decisions for n row pairs."""

    grades: np.ndarray  # (n,) winning grade
    sources: np.ndarray  # (n,) FusionSource value of the winner
    scores: np.ndarray  # (n,) winning score
    probs: np.ndarray  # (n, 5) rows whose argmax is the grade, for rank metrics


def fuse_arrays(
    strategy: FusionStrategy | str,
    p_dl: np.ndarray,
    p_kd: np.ndarray,
    weights: FusionWeights | None = None,
) -> FusedArrays:
    """The decision kernel over (n, 5) deep and knowledge rows."""
    strategy = FusionStrategy(strategy)
    p_dl = np.asarray(p_dl, dtype=np.float64)
    p_kd = np.asarray(p_kd, dtype=np.float64)
    if strategy is FusionStrategy.WEIGHTED:
        if weights is None:
            raise InvalidConfig("weighted fusion needs FusionWeights")
        blend = weights.alpha_dl * p_dl + weights.alpha_kl * p_kd
        grades = blend.argmax(axis=1)
        sources = np.full(grades.size, FusionSource.BLENDED.value)
        return FusedArrays(grades, sources, blend.max(axis=1), blend / (weights.alpha_dl + weights.alpha_kl))
    order = np.asarray(_TIE_ORDER[strategy])
    stack = np.concatenate((p_dl, p_kd), axis=1)
    winner = order[stack[:, order].argmax(axis=1)]
    deep = winner < GRADE_COUNT
    if strategy is FusionStrategy.CLASSWISE_MAX:
        peak = np.maximum(p_dl, p_kd)
        # summed left to right, as sum() over one row does
        probs = peak / sum(peak[:, g] for g in range(GRADE_COUNT))[:, None]
    else:
        probs = np.where(deep[:, None], p_dl, p_kd)
    sources = np.where(deep, FusionSource.DEEP.value, FusionSource.SYMBOLIC.value)
    return FusedArrays(winner % GRADE_COUNT, sources, stack.max(axis=1), probs)


def _decisions(fused: FusedArrays) -> list[FusedPrediction]:
    """One FusedPrediction per fused row."""
    return [
        FusedPrediction(_GRADES[grade], FusionSource(source), score)
        for grade, source, score in zip(fused.grades.tolist(), fused.sources.tolist(), fused.scores.tolist())
    ]


def fuse(
    strategy: FusionStrategy | str,
    p_dl: ProbabilityVector,
    p_kd: ProbabilityVector,
    weights: FusionWeights | None = None,
) -> FusedPrediction:
    """Fuse one row pair: fuse_arrays on a single row."""
    return _decisions(fuse_arrays(strategy, (p_dl.probs,), (p_kd.probs,), weights))[0]


def fused_probability(
    strategy: FusionStrategy | str,
    p_dl: ProbabilityVector,
    p_kd: ProbabilityVector,
    weights: FusionWeights | None = None,
) -> ProbabilityVector:
    """A probability row whose argmax matches the fusion decision, used to
    score fused predictions with rank metrics (AUC)."""
    fused = fuse_arrays(strategy, (p_dl.probs,), (p_kd.probs,), weights)
    return ProbabilityVector(tuple(float(v) for v in fused.probs[0]))  # type: ignore[arg-type]


def require_same_images(dl_ids: Iterable[str], kd_ids: Iterable[str]) -> None:
    """Two tables to fuse must cover the same images."""
    dl_set, kd_set = set(dl_ids), set(kd_ids)
    missing_kd, missing_dl = sorted(dl_set - kd_set), sorted(kd_set - dl_set)
    if missing_kd or missing_dl:
        sample = (missing_kd + missing_dl)[0]
        raise UnknownImageId(
            f"tables disagree on image ids (e.g. {sample!r}): "
            f"{len(missing_dl)} missing from deep, {len(missing_kd)} from symbolic"
        )


def batch_fuse(
    strategy: FusionStrategy | str,
    dl_table: Mapping[str, ProbabilityVector],
    kd_table: Mapping[str, ProbabilityVector],
    weights: FusionWeights | None = None,
) -> dict[str, FusedPrediction]:
    """Fuse two image-indexed tables; both must cover the same images."""
    require_same_images(dl_table, kd_table)
    ids = list(dl_table)
    fused = fuse_arrays(
        strategy,
        np.asarray([dl_table[i].probs for i in ids], dtype=np.float64).reshape(-1, GRADE_COUNT),
        np.asarray([kd_table[i].probs for i in ids], dtype=np.float64).reshape(-1, GRADE_COUNT),
        weights,
    )
    return dict(zip(ids, _decisions(fused)))
