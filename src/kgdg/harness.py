"""Single- and multi-domain generalization experiments.

One driver, ``run_experiment``, runs both protocols over a fold plan of
(sources, targets) pairs: SDG is one source against many targets, MDG
holds each domain out once. Each fold trains the symbolic branch on its
sources' splits (60/20/20 by default, stratified per grade), optionally
standardizes its domains onto the first source's feature statistics, and
evaluates symbolic-only, neural-only, and fused predictions on each
target's full data; per-seed metrics aggregate into benchmark-style
mean +/- std tables.

Each domain is read once into a DomainTable: a feature matrix, a grade
array and ``(n, 5)`` deep-branch rows; splits are row-index arrays into
them.

The caller loads the data, builds the feature matrices, splits each seed
and checks for leakage, then lists one ``FitTask`` per (seed, fold).
``run_task`` fits, searches the fusion weights and scores one task. The
tasks are independent and run concurrently: ``process_count`` sets how
many processes run them from the task count and the usable cores (its
docstring gives the rule), the caller being one and the others forked.
With one task, one core, no ``os.fork``, or a Python thread running
beside the caller, every task runs inline. The report is put
together in (seed, fold) order, so its bytes do not depend on the core
count, and a failing run raises the first failing task's exception.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping, NamedTuple, Sequence

import numpy as np

from .core import DomainId, DomainTable, FusionWeights, check_field_types
from .errors import (
    InvalidConfig,
    LeakageError,
    MissingProbabilityTable,
)
from .fusion import TIE_ORDER, FusionStrategy, fuse
from .fusion import fuse as fused_probability  # noqa: F401  unused here; the benchmark's tracer patches it by this module's name
from .io import (DomainEntry, Manifest, canonical_json, content_digest, file_digest, load_domain_dataset,
                 parse_json, read_text)
from .learn import TrainConfig, feature_matrix, fit_model, resolve_schema
from .metrics import DomainStats, domain_kl, score, seeded_summary
from .metrics import accuracy, auc_ovr_macro, macro_f1  # noqa: F401  unused here; the benchmark's tracer patches them by this module's name

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

DEFAULT_WEIGHT_GRID: tuple[tuple[float, float], ...] = tuple(
    (round(a / 10, 1), round(1 - a / 10, 1)) for a in range(9, 0, -1)
)

FUSION_MAPPING_NOTE = (
    'row mapping: "Non Weighted (DL + KL)" = max-confidence fusion; '
    '"Weighted (DL + KL)" = weighted fusion with the blend searched on the '
    "source validation split; ties go to the deep branch, and within one "
    "vector to the lower grade."
)


@dataclass(frozen=True)
class SplitFractions:
    train: float = 0.6
    validation: float = 0.2
    test: float = 0.2

    def __post_init__(self) -> None:
        check_field_types(self)
        parts = (self.train, self.validation, self.test)
        if any(p < 0 for p in parts):
            raise InvalidConfig("split fractions must be nonnegative")
        if abs(sum(parts) - 1.0) > 1e-9:
            raise InvalidConfig("split fractions must sum to 1")


@dataclass(frozen=True)
class FusionSpec:
    """Which decision rows an experiment evaluates beyond symbolic-only."""

    strategies: tuple[str, ...] = ("selective", "max", "classwise", "weighted")
    include_neural: bool = True

    def __post_init__(self) -> None:
        check_field_types(self)
        for s in self.strategies:
            try:
                FusionStrategy(s)
            except ValueError:
                raise InvalidConfig(f"unknown fusion strategy {s!r}") from None
        if len(set(self.strategies)) < len(self.strategies):
            raise InvalidConfig(f"fusion strategies {list(self.strategies)} name a strategy twice")


def checked_weights(alpha_dl: Any, alpha_kl: Any) -> FusionWeights:
    """Fusion weights given by a caller; anything but two finite,
    nonnegative numbers with a positive, finite sum raises InvalidConfig."""
    for value in (alpha_dl, alpha_kl):
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise InvalidConfig(f"fusion weights must be finite numbers, got {value!r}")
    try:
        return FusionWeights(alpha_dl, alpha_kl)
    except ValueError as exc:
        raise InvalidConfig(str(exc)) from None


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "sdg"
    source: str | None = None
    targets: tuple[str, ...] | None = None
    seeds: tuple[int, ...] = (0, 1, 2)
    split: SplitFractions = field(default_factory=SplitFractions)
    symbolic: TrainConfig = field(default_factory=TrainConfig)
    fusion: FusionSpec = field(default_factory=FusionSpec)
    alignment: bool = False

    def __post_init__(self) -> None:
        check_field_types(self)
        if self.mode not in ("sdg", "mdg"):
            raise InvalidConfig(f"mode must be sdg or mdg, got {self.mode!r}")
        if not self.seeds:
            raise InvalidConfig("seeds must be nonempty")
        for seed in self.seeds:
            if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
                raise InvalidConfig(f"seeds must be nonnegative integers, got {seed!r}")
        if len(set(self.seeds)) < len(self.seeds):
            raise InvalidConfig(f"seeds {list(self.seeds)} name a seed twice")
        if self.mode == "sdg" and not self.source:
            raise InvalidConfig("sdg mode needs a source domain")
        if self.targets == ():
            raise InvalidConfig("targets must be null (every other domain) or a nonempty list, got []")

    def as_dict(self) -> dict[str, Any]:
        """The settings every mode reads, ``symbolic`` as its learner reads it."""
        out = asdict(self)
        del out["source"], out["targets"]
        out.update(seeds=list(self.seeds), symbolic=self.symbolic.as_dict())
        return out


@dataclass(frozen=True)
class CellStat:
    mean: float
    std: float
    n_seeds: int


def _number_or_null(value: float) -> float | None:
    """Strict JSON has no NaN or infinity: a metric without a value (AUC
    on a single-grade target) is written as null."""
    return value if math.isfinite(value) else None


@dataclass(eq=False)  # reports compare by to_json_dict(); an array has no single truth value
class ExperimentReport:
    """Per-seed scores of each (method, column, metric), plus run provenance.

    ``scores`` is shaped ``(methods, columns, metrics, seeds)``; the columns
    are the targets and then ``average``. Each cell's mean +/- std is the
    ``seeded_summary`` of its contiguous per-seed vector.
    """

    mode: str
    source_label: str
    columns: tuple[str, ...]
    methods: tuple[str, ...]
    scores: np.ndarray
    seeds: tuple[int, ...]
    config_fingerprint: str
    alignment_enabled: bool = False
    kl_before: float | None = None
    kl_after: float | None = None
    selected_alphas: tuple[float, ...] = ()

    metrics: ClassVar[tuple[str, ...]] = ("accuracy", "macro_f1", "auc")
    aggregation: ClassVar[str] = "seeds"
    fusion_note: ClassVar[str] = FUSION_MAPPING_NOTE

    def cell(self, method: str, column: str, metric: str = "accuracy") -> CellStat:
        values = self.scores[self.methods.index(method), self.columns.index(column), self.metrics.index(metric)]
        return CellStat(*seeded_summary(values), len(values))

    def _table(self, leaf: Callable[[np.ndarray], Any]) -> dict[str, dict[str, dict[str, Any]]]:
        """``leaf`` of each per-seed vector, as {method: {column: {metric: leaf}}}."""
        return {
            m: {c: dict(zip(self.metrics, map(leaf, by_column))) for c, by_column in zip(self.columns, by_method)}
            for m, by_method in zip(self.methods, self.scores)
        }

    def to_json_dict(self) -> dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "scores"}
        out.update({name: list(out[name]) for name in ("columns", "methods", "seeds", "selected_alphas")})
        out.update(
            metrics=list(self.metrics),
            aggregation=self.aggregation,
            fusion_note=self.fusion_note,
            cells=self._table(lambda v: [*map(_number_or_null, seeded_summary(v)), len(v)]),
            raw=self._table(lambda v: [_number_or_null(x) for x in v.tolist()]),
        )
        return out

    @classmethod
    def from_json_dict(cls, raw: Mapping[str, Any]) -> "ExperimentReport":
        """The report a ``to_json_dict`` wrote, rebuilt from its ``raw``
        values (null read as NaN); its ``cells`` are derived, not read."""
        values = {f.name: raw[f.name] for f in fields(cls) if f.name != "scores"}
        values.update({name: tuple(values[name]) for name in ("columns", "methods", "seeds", "selected_alphas")})
        per_seed = raw["raw"]
        scores = np.array(
            [[[per_seed[m][c][k] for k in cls.metrics] for c in values["columns"]] for m in values["methods"]],
            dtype=np.float64,
        )
        if scores.shape[3:] != (len(values["seeds"]),):
            raise ValueError(f"raw holds no list of one value per seed: array shape {scores.shape}")
        return cls(**values, scores=scores)


# --- splitting ---------------------------------------------------------------


def split_indices(
    n: int, grades: np.ndarray, fractions: SplitFractions, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified disjoint-exhaustive index split, deterministic per seed.

    Within each grade the quota is the largest-remainder apportionment of
    (train, validation, test); leftover units go to the split with the
    biggest fractional part, ties favoring train, then validation.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    parts = tuple([np.empty(0, np.int64)] for _ in range(3))
    fracs = (fractions.train, fractions.validation, fractions.test)
    for g in range(5):
        idx = np.nonzero(grades == g)[0]
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        exact = [f * idx.size for f in fracs]
        quota = [int(np.floor(e)) for e in exact]
        leftover = idx.size - sum(quota)
        remainders = sorted(
            range(3), key=lambda i: (-(exact[i] - quota[i]), i)
        )
        for i in range(leftover):
            quota[remainders[i % 3]] += 1
        offset = 0
        for part, q in zip(parts, quota):
            part.append(idx[offset : offset + q])
            offset += q
    return tuple(np.sort(np.concatenate(p)) for p in parts)  # type: ignore[return-value]


def split_dataset(
    dataset: DomainTable, fractions: SplitFractions, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified (train, validation, test) row indices into ``dataset``."""
    return split_indices(len(dataset), dataset.y, fractions, seed)


# --- alignment --------------------------------------------------------------


def align_domains(
    matrices: Mapping[DomainId, np.ndarray], reference: DomainId | str
) -> tuple[dict[DomainId, np.ndarray], float, float]:
    """Standardize every domain's feature matrix onto the reference
    domain's mean/variance (rows keep their order). Returns the transformed
    matrices plus the summed pairwise Gaussian KL before and after, summed
    in the mapping's order."""
    reference = DomainId(reference)
    if reference not in matrices:
        raise InvalidConfig(f"reference domain {reference!r} not among datasets")
    stats = {name: DomainStats.from_matrix(m) for name, m in matrices.items()}
    kl_before = _pairwise_kl(stats)
    ref = stats[reference]
    ref_mean = np.asarray(ref.mean)
    ref_sd = np.sqrt(np.asarray(ref.variance))
    transformed: dict[DomainId, np.ndarray] = {}
    for name, m in matrices.items():
        st = stats[name]
        mu = np.asarray(st.mean)
        sd = np.sqrt(np.asarray(st.variance))
        transformed[name] = (m - mu) / sd * ref_sd + ref_mean
    after = {name: DomainStats.from_matrix(m) for name, m in transformed.items()}
    return transformed, kl_before, _pairwise_kl(after)


def _pairwise_kl(stats: Mapping[DomainId, DomainStats]) -> float:
    names = list(stats)
    total = 0.0
    for p in names:
        for q in names:
            if p != q:
                total += domain_kl(stats[p], stats[q])
    return total


# --- weight selection ----------------------------------------------------------


def select_weights(validation: tuple[np.ndarray, np.ndarray, np.ndarray]) -> FusionWeights:
    """Search ``DEFAULT_WEIGHT_GRID`` for the blend maximizing validation
    accuracy on the (grades, deep rows, knowledge rows) arrays; ties prefer
    the deep branch (smallest knowledge weight)."""
    y, p_dl, p_kd = validation
    if y.size == 0:
        raise InvalidConfig("weight selection needs validation predictions")
    best: FusionWeights | None = None
    best_acc = -1.0
    for a_dl, a_kl in DEFAULT_WEIGHT_GRID:
        w = FusionWeights(a_dl, a_kl)
        acc = int((fuse("weighted", p_dl, p_kd, w).grades == y).sum()) / y.size
        if acc > best_acc:
            best_acc = acc
            best = w
    assert best is not None
    return best


# --- experiment driver -----------------------------------------------------------


def _method_rows(cfg: ExperimentConfig, have_probs: bool) -> list[str]:
    rows = ["symbolic"]
    wants_neural = cfg.fusion.include_neural
    wants_fusion = bool(cfg.fusion.strategies)
    if (wants_neural or wants_fusion) and not have_probs:
        raise MissingProbabilityTable(
            "neural-only or fusion rows requested but a domain lacks a probability table"
        )
    if wants_neural:
        rows.append("neural")
    rows.extend(f"fusion-{s}" for s in cfg.fusion.strategies)
    return rows


def _guard_leakage(
    image_ids: Mapping[DomainId, Sequence[str]],
    trained: Mapping[DomainId, np.ndarray],
    targets: Sequence[DomainId],
) -> None:
    """Raise LeakageError when a target domain holds an image of the rows
    ``trained`` maps its domain to (indices into ``image_ids``); only a
    domain that is both trained on and evaluated is compared."""
    for domain in targets:
        if domain not in trained:
            continue
        ids = image_ids[domain]
        overlap = {ids[i] for i in trained[domain].tolist()} & set(ids)
        if overlap:
            raise LeakageError(
                f"{len(overlap)} training image(s) leaked into evaluation of "
                f"{domain!r} (e.g. {min(overlap)!r})"
            )


def _config_fingerprint(cfg: ExperimentConfig, folds: list, schema: tuple[str, ...],
                        entries: Sequence[DomainEntry]) -> str:
    """Hash what the run reads: the config, SDG's source and resolved targets,
    the schema, and the features and probs of each domain a fold uses, in
    manifest order."""
    digests = []
    for entry in entries:
        item = {"features": file_digest(entry.features)}
        if entry.probs is not None:
            item["probs"] = file_digest(entry.probs)
        digests.append([str(entry.name), item])
    plan = {"source": folds[0][0][0], "targets": folds[0][1]} if cfg.mode == "sdg" else {}
    return content_digest(
        canonical_json({"config": {**cfg.as_dict(), **plan}, "schema": list(schema), "data": digests})
    )[:16]


def _evaluate_rows(
    methods: Sequence[str],
    y_true: np.ndarray,
    kd_matrix: np.ndarray,
    dl_matrix: np.ndarray | None,
    weights: FusionWeights | None,
) -> np.ndarray:
    """The ``(methods, metrics)`` accuracy / macro F1 / AUC rows of one
    evaluation set, in ``ExperimentReport.metrics`` order. Methods that
    decide alike, as selective and max fusion do, are scored once."""
    by_rule: dict[Any, tuple[float, float, float]] = {}
    out = []
    for method in methods:
        strategy = None if method in ("symbolic", "neural") else FusionStrategy(method.removeprefix("fusion-"))
        rule = method if strategy is None else TIE_ORDER.get(strategy, strategy)
        if rule not in by_rule:
            if strategy is None:
                probs = kd_matrix if method == "symbolic" else dl_matrix
                assert probs is not None
                preds = probs.argmax(axis=1)
            else:
                assert dl_matrix is not None
                fused = fuse(strategy, dl_matrix, kd_matrix, weights)
                preds, probs = fused.grades, fused.probs
            scores = score(y_true, preds, probs)
            auc = scores.auc_ovr_macro
            # NaN marks a degenerate single-grade evaluation set
            by_rule[rule] = (scores.accuracy, scores.macro_f1, float("nan") if auc is None else auc)
        out.append(by_rule[rule])
    return np.array(out)


def fold_plan(
    cfg: ExperimentConfig, domains: Sequence[DomainId]
) -> list[tuple[list[DomainId], list[DomainId]]]:
    """The (sources, targets) folds of a run over the manifest's domains:
    SDG is one source against its targets (every other domain unless the
    config names them), MDG holds each domain out once and trains on the
    rest."""
    if cfg.mode == "mdg":
        if len(domains) < 2:
            raise InvalidConfig("mdg needs at least two domains")
        return [([d for d in domains if d != held_out], [held_out]) for held_out in domains]
    source = DomainId(cfg.source)  # type: ignore[arg-type]
    if source not in domains:
        raise InvalidConfig(f"source domain {cfg.source!r} not in manifest")
    if cfg.targets:
        targets = [DomainId(t) for t in cfg.targets]
        unknown = [t for t in targets if t not in domains]
        if unknown:
            raise InvalidConfig(f"target domains {unknown} not in manifest")
        if source in targets:
            raise InvalidConfig(f"sdg targets name the source domain {cfg.source!r}")
        if len(set(targets)) != len(targets):
            raise InvalidConfig(f"sdg targets {list(cfg.targets)} name a domain twice")
    else:
        targets = [d for d in domains if d != source]
    if not targets:
        raise InvalidConfig("sdg needs at least one target domain")
    return [([source], targets)]


def _fold_kl(values: list[float], n_seeds: int) -> float | None:
    """One fold reports its KL as is; several report the mean over every
    (seed, fold) run, so each fold's value counts once per seed. That mean
    is taken over the repeated list on purpose: ``np.mean(values)`` can
    differ from it in the last bit, as the longer sum rounds otherwise, and
    the MDG report bytes with alignment keep this one."""
    if len(values) < 2:
        return values[0] if values else None
    return float(np.mean(values * n_seeds))


class FitTask(NamedTuple):
    """One (seed, fold) task of a run. It refers to the run's tables and
    matrices; nothing is copied."""

    cfg: ExperimentConfig
    methods: tuple[str, ...]
    schema: tuple[str, ...]
    datasets: Mapping[DomainId, DomainTable]
    matrices: Mapping[DomainId, np.ndarray]  # the fold's, aligned when configured
    sources: list[DomainId]
    targets: list[DomainId]
    train: Mapping[DomainId, np.ndarray]  # the seed's rows of each source
    valid: Mapping[DomainId, np.ndarray]


# each target's (methods, metrics) rows, and the alpha_dl the weight search chose
TaskResult = tuple[list[np.ndarray], float | None]


def run_task(task: FitTask) -> TaskResult:
    """Fit the fold's model on its sources' train rows, search the fusion
    weights on their validation rows when ``fusion-weighted`` needs them,
    and score every method on each target's full data."""
    tables, matrices = task.datasets, task.matrices
    x_valid = np.vstack([matrices[d][task.valid[d]] for d in task.sources])
    y_valid = np.concatenate([tables[d].y[task.valid[d]] for d in task.sources])
    model = fit_model(
        np.vstack([matrices[d][task.train[d]] for d in task.sources]),
        np.concatenate([tables[d].y[task.train[d]] for d in task.sources]),
        x_valid,
        y_valid,
        task.schema,
        task.cfg.symbolic,
    )
    weights = alpha = None
    if "fusion-weighted" in task.methods:
        dl_valid = np.vstack([tables[d].probs[task.valid[d]] for d in task.sources])
        weights = select_weights((y_valid, dl_valid, model.predict_proba_matrix(x_valid)))
        alpha = weights.alpha_dl
    scores = [
        _evaluate_rows(task.methods, tables[t].y, model.predict_proba_matrix(matrices[t]), tables[t].probs, weights)
        for t in task.targets
    ]
    return scores, alpha


def _usable_cores() -> int:
    """The cores this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def process_count(n_tasks: int) -> int:
    """How many processes, the caller included, run ``n_tasks`` tasks.

    Each process takes every p-th task. Were the tasks of one run to cost
    about the same, p processes on c cores would finish after about
    ceil(n / p) * max(p, c) / c task times. The count is the p that
    minimizes this, at most 2c of them, the fewest on a tie: the 3 tasks of
    a one-seed MDG run on 2 cores go to 3 processes (1.5 task times; 2
    processes take 2), 9 tasks to 3, 4 tasks to 2. Tasks need not cost the
    same: a GBM fit stops once validation accuracy is 1.0, so the folds of
    one MDG seed train from 3 to 10 rounds (``vein_hostile``, 2000 rows per
    domain, seed 7, ``n_trees: 10``), and the rule does not weigh them.
    Measured on 2 cores, those inputs, with each fit training on to its
    patience: a one-seed MDG eval took 0.71 s per call with 3 processes and
    0.79 s with 2 (1.04 s inline); with the default config and 3 seeds (9
    tasks), 2, 3 and 9 processes each took about 1.6 s against 2.5 s inline.

    One core, one task, no ``os.fork``, or a Python thread running beside
    the caller (which makes ``fork`` unsafe) give 1: the tasks run inline.
    """
    if n_tasks < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cores = _usable_cores()
    return min(range(1, min(n_tasks, 2 * cores) + 1), key=lambda p: (-(-n_tasks // p) * max(p, cores), p))


def _run_share(tasks: Sequence[FitTask]) -> list:
    """Each task's result in order, up to the first that raises, whose
    exception ends the list."""
    outcomes: list = []
    for task in tasks:
        try:
            outcomes.append(run_task(task))
        except Exception as exc:  # carried to the caller, which raises it in task order
            outcomes.append(exc)
            break
    return outcomes


def _send_share(tasks: Sequence[FitTask], conn: Connection) -> None:
    """A forked process's body: run its tasks and send their outcomes."""
    with conn:
        conn.send(_run_share(tasks))


def run_tasks(tasks: Sequence[FitTask]) -> list[TaskResult]:
    """Every task's result, in task order, from ``process_count`` processes:
    the caller runs tasks 0, p, 2p, ... and a forked child each other
    residue. The results are the same bytes however many processes ran
    them. The first task to fail, in task order, raises its own exception;
    every child is joined before this returns or raises."""
    n = process_count(len(tasks))
    if n == 1:
        return [run_task(task) for task in tasks]
    import multiprocessing  # here, so that a run with one task, and every other command, never imports it

    ctx = multiprocessing.get_context("fork")
    children: dict[int, tuple[BaseProcess, Connection]] = {}
    try:
        for p in range(1, n):
            receive, send = ctx.Pipe(duplex=False)
            with send:
                child = ctx.Process(target=_send_share, args=(tasks[p::n], send), daemon=True)
                try:
                    child.start()
                except OSError:  # no process to spare: the caller runs the rest
                    break
            children[p] = (child, receive)
        shares = [_run_share(tasks[0::n])]
        for p in range(1, n):
            share = None
            if p in children:
                try:
                    share = children[p][1].recv()
                except Exception:  # the child died, or its exception does not unpickle here
                    pass
            # tasks are deterministic, so a share run here has the child's outcome
            shares.append(_run_share(tasks[p::n]) if share is None else share)
    except BaseException:  # an interrupt, say: stop the children, then re-raise
        for child, _receive in children.values():
            child.terminate()
        raise
    finally:
        for child, receive in children.values():
            receive.close()
            child.join()
    outcomes: list = [None] * len(tasks)
    for p, share in enumerate(shares):
        outcomes[p : p + n * len(share) : n] = share
    for outcome in outcomes:  # a process stops at its first failure, so no None comes before one
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def run_experiment(cfg: ExperimentConfig, manifest: Manifest) -> ExperimentReport:
    """Train on each fold's source domains and evaluate on the full data of
    its targets, once per seed. The (seed, fold) tasks run concurrently
    (``run_tasks``); the report does not depend on how many processes ran
    them."""
    folds = fold_plan(cfg, [entry.name for entry in manifest.domains])
    used = {d for fold in folds for part in fold for d in part}
    entries = [entry for entry in manifest.domains if entry.name in used]  # a domain no fold uses is not read
    datasets = {entry.name: load_domain_dataset(entry) for entry in entries}
    methods = tuple(_method_rows(cfg, all(table.probs is not None for table in datasets.values())))
    training = [d for d in datasets if any(d in sources for sources, _ in folds)]
    # an auto feature set follows the first manifest domain any fold trains on
    schema = resolve_schema(cfg.symbolic, datasets[training[0]])
    features = {d: feature_matrix(table, schema) for d, table in datasets.items()}
    image_ids = {d: table.ids for d, table in datasets.items()}

    # alignment depends on the fold's domains only, not on the seed
    fold_matrices: list[dict[DomainId, np.ndarray]] = []
    kl_befores: list[float] = []
    kl_afters: list[float] = []
    for sources, targets in folds:
        matrices = dict(features)
        if cfg.alignment:
            aligned, kb, ka = align_domains({d: features[d] for d in sources + targets}, sources[0])
            matrices.update(aligned)
            kl_befores.append(kb)
            kl_afters.append(ka)
        fold_matrices.append(matrices)

    tasks: list[FitTask] = []
    for seed in cfg.seeds:
        # each training domain is split once per seed, for every fold it trains in
        train, valid = {}, {}
        for d in training:
            train[d], valid[d], _test = split_dataset(datasets[d], cfg.split, seed)
        for (sources, targets), matrices in zip(folds, fold_matrices):
            _guard_leakage(image_ids, {d: np.concatenate((train[d], valid[d])) for d in sources}, targets)
            tasks.append(FitTask(cfg, methods, schema, datasets, matrices, sources, targets, train, valid))

    results = run_tasks(tasks)
    columns = tuple(str(t) for _, targets in folds for t in targets)
    # (methods, metrics, seeds, targets), so that each per-seed target vector is contiguous
    rows = np.array([row for scores, _alpha in results for row in scores])
    rows = rows.reshape(len(cfg.seeds), len(columns), *rows.shape[1:])
    by_target = np.ascontiguousarray(rows.transpose(2, 3, 0, 1))
    scores = np.concatenate((by_target, by_target.mean(axis=-1, keepdims=True)), axis=-1)
    return ExperimentReport(
        mode=cfg.mode,
        source_label="leave-one-domain-out" if cfg.mode == "mdg" else str(folds[0][0][0]),
        columns=columns + ("average",),
        methods=methods,
        scores=np.ascontiguousarray(scores.transpose(0, 3, 1, 2)),
        seeds=cfg.seeds,
        config_fingerprint=_config_fingerprint(cfg, folds, schema, entries),
        alignment_enabled=cfg.alignment,
        kl_before=_fold_kl(kl_befores, len(cfg.seeds)),
        kl_after=_fold_kl(kl_afters, len(cfg.seeds)),
        selected_alphas=tuple(alpha for _scores, alpha in results if alpha is not None),
    )


# --- config file -------------------------------------------------------------


_CONFIG_SECTIONS = {"mode", "domains", "seeds", "split", "symbolic", "fusion", "alignment"}


def build_section(section: str, cls, raw: Any):
    """Build the dataclass ``cls`` from one config-file section: a field
    whose default is a config dataclass is built as a nested section, and a
    list is made a tuple for a tuple-typed field. Unknown keys and bad
    values raise InvalidConfig."""
    if not isinstance(raw, Mapping):
        raise InvalidConfig(f"the {section!r} section must be a JSON object")
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise InvalidConfig(f"unknown keys in {section!r} section: {sorted(unknown)}")
    values = {}
    for f in fields(cls):
        if f.name in raw:
            value = raw[f.name]
            if is_dataclass(f.default_factory):
                value = build_section(f.name, f.default_factory, value)
            elif isinstance(value, list) and str(f.type).startswith("tuple["):
                value = tuple(value)
            values[f.name] = value
    try:
        return cls(**values)
    except TypeError as exc:
        raise InvalidConfig(f"bad {section!r} section: {exc}") from exc


def read_config_file(path: str | Path) -> dict[str, Any]:
    """Parse a config JSON object whose top-level keys are known sections."""
    def unreadable(exc: Exception) -> InvalidConfig:
        return InvalidConfig(f"{path}: cannot read config: {exc}")
    try:
        raw = parse_json(read_text(path, error=InvalidConfig), unreadable)
    except OSError as exc:
        raise unreadable(exc) from exc
    if not isinstance(raw, dict):
        raise InvalidConfig(f"{path}: a config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_SECTIONS
    if unknown:
        raise InvalidConfig(f"{path}: unknown config sections: {sorted(unknown)}")
    return raw


def load_experiment_config(path: str | Path) -> tuple[ExperimentConfig, Path]:
    """Parse experiment.json; returns the config and the manifest path
    (resolved relative to the config file)."""
    path = Path(path)
    raw = read_config_file(path)
    domains = raw.get("domains", {})
    if not isinstance(domains, Mapping) or not isinstance(domains.get("manifest"), str):
        raise InvalidConfig(f"{path}: the domains section must point at a manifest")
    unknown = set(domains) - {"manifest", "source", "targets"}
    if unknown:
        raise InvalidConfig(f"{path}: unknown keys in 'domains' section: {sorted(unknown)}")
    manifest_path = (path.parent / domains["manifest"]).resolve()
    if not isinstance(raw.get("seeds", []), list):
        raise InvalidConfig(f"{path}: seeds must be a list of integers")
    sections = {k: v for k, v in raw.items() if k != "domains"}
    sections.update({k: domains[k] for k in ("source", "targets") if k in domains})
    return build_section("experiment", ExperimentConfig, sections), manifest_path
