"""Output checks for the benchmark, computed apart from the program.

Each check returns a list of problems; an empty list means the output is
correct. The references are numpy recomputations from the input tables
or properties the method must have, never a stored copy of an earlier
output. Tie rules follow the program's documentation: within a vector
the lower grade wins, across branches the deep branch wins.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

GRADES = 5
TOL = 1e-9
WEIGHT_GRID = tuple(round(a / 10, 1) for a in range(9, 0, -1))
LESION_COUNT_FIELDS = {
    "microaneurysm": "microaneurysm_count",
    "hard_exudate": "exudate_count",
    "hard_hemorrhage": "hard_hemorrhage_count",
    "soft_hemorrhage": "soft_hemorrhage_count",
    "cotton_wool_spot": "cotton_wool_count",
}
FLAG_FIELDS = ("subhyaloid_present", "neovascularization_present")


def sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- independent readers ---------------------------------------------------------


def read_features(path: str | Path) -> tuple[list[str], np.ndarray, dict[str, np.ndarray]]:
    """(image ids, true grades, feature columns by name) of a features.csv."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [r for r in rows[1:] if r]
    ids = [r[0] for r in body]
    grades = np.array([int(r[2]) for r in body], dtype=np.int64)
    columns = {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header) if i >= 3}
    return ids, grades, columns


def read_probs(path: str | Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh)][1:]
    return [r[0] for r in rows if r], np.array([[float(c) for c in r[1:6]] for r in rows if r])


def read_table(path: str | Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- metric references --------------------------------------------------------


def first_argmax(m: np.ndarray) -> np.ndarray:
    """Row argmax; np.argmax already returns the first (lowest-grade) maximum."""
    return np.argmax(m, axis=1)


def accuracy(y: np.ndarray, p: np.ndarray) -> float:
    return float(np.mean(y == p))


def macro_f1(y: np.ndarray, p: np.ndarray) -> float:
    """Mean F1 over the grades present in the truth; 0 where undefined."""
    scores = []
    for g in np.unique(y):
        tp = np.sum((y == g) & (p == g))
        fp = np.sum((y != g) & (p == g))
        fn = np.sum((y == g) & (p != g))
        scores.append(2.0 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0)
    return float(np.mean(scores))


def auc_ovr_macro(y: np.ndarray, probs: np.ndarray) -> float:
    """P(score_pos > score_neg) + P(tie)/2 per grade, averaged over grades
    with both positives and negatives (counted directly, not by ranks)."""
    aucs = []
    for g in range(GRADES):
        pos, neg = probs[y == g, g], np.sort(probs[y != g, g])
        if pos.size == 0 or neg.size == 0:
            continue
        below = np.searchsorted(neg, pos, side="left")
        ties = np.searchsorted(neg, pos, side="right") - below
        aucs.append(float((below.sum() + 0.5 * ties.sum()) / (pos.size * neg.size)))
    return float(np.mean(aucs))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


# --- eval reports ---------------------------------------------------------------


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite JSON token {token}")


def check_report(
    text: str,
    truth: dict[str, np.ndarray],
    neural: dict[str, np.ndarray],
    targets: list[str],
    n_seeds: int,
    n_alphas: int,
) -> list[str]:
    """Check an `eval --format json` report.

    ``truth`` and ``neural`` map each target domain to its true grades and
    deep-branch probability rows, in table order.
    """
    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    problems = []
    if report["columns"] != targets + ["average"]:
        problems.append(f"columns {report['columns']} != {targets + ['average']}")
        return problems
    raw, cells = report["raw"], report["cells"]
    for t in targets:
        y, probs = truth[t], neural[t]
        pred = first_argmax(probs)
        want = {"accuracy": accuracy(y, pred), "macro_f1": macro_f1(y, pred), "auc": auc_ovr_macro(y, probs)}
        for metric, value in want.items():
            got = raw["neural"][t][metric]
            if len(got) != n_seeds or not all(_close(v, value) for v in got):
                problems.append(f"neural {metric} on {t}: {got} != {value}")
    if raw["fusion-selective"] != raw["fusion-max"] or cells["fusion-selective"] != cells["fusion-max"]:
        problems.append("fusion-selective and fusion-max rows differ")
    for method in report["methods"]:
        for metric in report["metrics"]:
            per_target = np.array([raw[method][t][metric] for t in targets])
            for i, avg in enumerate(raw[method]["average"][metric]):
                if not _close(avg, float(np.mean(per_target[:, i]))):
                    problems.append(f"{method} {metric} seed {i}: average {avg} is not the target mean")
            for column in targets + ["average"]:
                values = np.array(raw[method][column][metric])
                mean, std, n = cells[method][column][metric]
                if not (_close(mean, float(values.mean())) and _close(std, float(values.std())) and n == n_seeds):
                    problems.append(f"{method}/{column}/{metric}: cell {[mean, std, n]} disagrees with raw")
    alphas = report["selected_alphas"]
    if len(alphas) != n_alphas or any(a not in WEIGHT_GRID for a in alphas):
        problems.append(f"selected alphas {alphas} are not {n_alphas} values on the grid")
    return problems


# --- model artifacts ------------------------------------------------------------------


def _canonical(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def check_artifact(path: str | Path) -> list[str]:
    """Recompute the `KGDG1` body and schema digests with hashlib."""
    text = Path(path).read_text()
    parts = text.split("\n", 3)
    if len(parts) != 4 or parts[0] != "KGDG1":
        return ["artifact has no KGDG1 header"]
    try:
        payload = json.loads(parts[3])
    except ValueError as exc:
        return [f"artifact payload is not JSON: {exc}"]
    body = {k: payload[k] for k in ("model_kind", "params", "train_fingerprint")}
    problems = []
    if hashlib.sha256(_canonical(body)).hexdigest() != parts[1]:
        problems.append("artifact body digest does not match its body")
    if hashlib.sha256(_canonical(payload["feature_schema"])).hexdigest() != parts[2]:
        problems.append("artifact schema digest does not match its schema")
    return problems


def check_predictions(probs: np.ndarray, y: np.ndarray) -> list[str]:
    """Rows on the simplex, and held-out accuracy above the majority-class rate."""
    problems = []
    if probs.shape != (y.size, GRADES) or (probs < 0).any() or not np.allclose(probs.sum(axis=1), 1.0, atol=TOL):
        problems.append("probability rows are not on the simplex")
        return problems
    acc = accuracy(y, first_argmax(probs))
    majority = np.bincount(y, minlength=GRADES).max() / y.size
    if acc <= majority:
        problems.append(f"held-out accuracy {acc:.4f} does not beat the majority rate {majority:.4f}")
    return problems


# --- rule grading ---------------------------------------------------------------------


def ladder(f: dict[str, float], cws_severe: int = 5) -> tuple[str, int]:
    """The R1-R8 clinical ladder: first matching rule wins."""
    hemorrhages = f["hard_hemorrhage_count"] + f["soft_hemorrhage_count"]
    if f["neovascularization_present"]:
        return "R1", 4
    if f["subhyaloid_present"]:
        return "R2", 4
    if hemorrhages > 20 and f["hemorrhage_quadrants"] == 4:
        return "R3", 3
    if f["cotton_wool_count"] >= cws_severe:
        return "R4", 3
    if f["cotton_wool_count"] >= 1:
        return "R5", 2
    if f["exudate_count"] >= 1 or hemorrhages >= 1:
        return "R6", 2
    if f["microaneurysm_count"] >= 1:
        return "R7", 1
    return "R8", 0


def features_from_detections(records: list[dict], min_score: float = 0.25) -> dict[str, dict[str, float]]:
    """Per-image lesion counts, flags and hemorrhage quadrant spread."""
    out: dict[str, dict[str, float]] = {}
    quadrants: dict[str, set[int]] = {}
    for rec in records:
        f = out.setdefault(rec["image_id"], {k: 0 for k in (*LESION_COUNT_FIELDS.values(), *FLAG_FIELDS)})
        seen = quadrants.setdefault(rec["image_id"], set())
        if rec["score"] < min_score:
            continue
        kind = rec["lesion"]
        if kind in LESION_COUNT_FIELDS:
            f[LESION_COUNT_FIELDS[kind]] += 1
        if kind in ("hard_hemorrhage", "soft_hemorrhage"):
            cx, cy = rec["x"] + rec["w"] / 2.0, rec["y"] + rec["h"] / 2.0
            seen.add((0 if cy <= 0.5 else 2) + (1 if cx <= 0.5 else 2))
        elif kind == "subhyaloid_hemorrhage":
            f["subhyaloid_present"] = 1
        elif kind == "neovascularization":
            f["neovascularization_present"] = 1
    for image_id, f in out.items():
        f["hemorrhage_quadrants"] = len(quadrants[image_id])
    return out


def check_grades(rows: list[dict[str, str]], expected: dict[str, tuple[str, int]], ordered: bool) -> list[str]:
    """A `grade` table must hold exactly the expected images, each with the
    expected rule and grade; ``ordered`` asks for ascending image ids."""
    ids = [r["image_id"] for r in rows]
    problems = []
    if set(ids) != set(expected) or len(ids) != len(expected):
        missing = sorted(set(expected) - set(ids))
        problems.append(f"graded {len(ids)} images, expected {len(expected)} (missing e.g. {missing[:1]})")
    if ordered and ids != sorted(ids):
        problems.append("grade table is not sorted by image id")
    wrong = [r["image_id"] for r in rows if r["image_id"] in expected
             and (r["fired_rules"], int(r["grade"])) != expected[r["image_id"]]]
    if wrong:
        problems.append(f"{len(wrong)} images graded unlike the ladder (e.g. {wrong[0]})")
    return problems


def check_grade_agreement(by_detections: list[dict[str, str]], by_features: list[dict[str, str]]) -> list[str]:
    """`--detections` must agree with `--features` on every image it emits."""
    feature_grades = {r["image_id"]: r["grade"] for r in by_features}
    wrong = [r["image_id"] for r in by_detections if feature_grades.get(r["image_id"]) != r["grade"]]
    return [f"{len(wrong)} detection grades disagree with feature grades (e.g. {wrong[0]})"] if wrong else []


# --- fusion and scoring ------------------------------------------------------------------


def expected_fusion(strategy: str, p_dl: np.ndarray, p_kd: np.ndarray, alpha: tuple[float, float]):
    """(grades, sources, winning scores) of one strategy over aligned rows."""
    n = p_dl.shape[0]
    if strategy in ("selective", "max"):
        s_dl, s_kd = p_dl.max(axis=1), p_kd.max(axis=1)
        deep = s_dl >= s_kd
        grades = np.where(deep, first_argmax(p_dl), first_argmax(p_kd))
        return grades, np.where(deep, "deep", "symbolic"), np.where(deep, s_dl, s_kd)
    if strategy == "classwise":
        m = np.maximum(p_dl, p_kd)
        grades = first_argmax(m)
        rows = np.arange(n)
        deep = p_dl[rows, grades] >= p_kd[rows, grades]
        return grades, np.where(deep, "deep", "symbolic"), m[rows, grades]
    blend = alpha[0] * p_dl + alpha[1] * p_kd
    grades = first_argmax(blend)
    return grades, np.full(n, "blended"), blend[np.arange(n), grades]


def check_fused(
    rows: list[dict[str, str]],
    ids: list[str],
    p_dl: np.ndarray,
    p_kd: np.ndarray,
    strategy: str,
    alpha: tuple[float, float] = (0.6, 0.4),
) -> list[str]:
    """Compare a `fuse` table (sorted by image id) with the recomputation."""
    grades, sources, scores = expected_fusion(strategy, p_dl, p_kd, alpha)
    want = sorted(
        (image_id, str(int(g)), str(s), f"{float(v):.6f}")
        for image_id, g, s, v in zip(ids, grades, sources, scores)
    )
    got = [(r["image_id"], r["grade"], r["source"], r["winning_score"]) for r in rows]
    if len(got) != len(want):
        return [f"fuse --strategy {strategy}: {len(got)} rows, expected {len(want)}"]
    for g, w in zip(got, want):
        if g != w:
            return [f"fuse --strategy {strategy}: row {g} != expected {w}"]
    return []


def check_scores(payload: dict, y: np.ndarray, pred: np.ndarray) -> list[str]:
    """`kgdg metrics` output against numpy accuracy, macro-F1 and confusion."""
    confusion = np.zeros((GRADES, GRADES), dtype=np.int64)
    np.add.at(confusion, (y, pred), 1)
    problems = []
    if not _close(payload["accuracy"], accuracy(y, pred)):
        problems.append(f"accuracy {payload['accuracy']} != {accuracy(y, pred)}")
    if not _close(payload["macro_f1"], macro_f1(y, pred)):
        problems.append(f"macro_f1 {payload['macro_f1']} != {macro_f1(y, pred)}")
    if payload["confusion"] != confusion.tolist() or payload["support"] != confusion.sum(axis=1).tolist():
        problems.append("confusion matrix or support disagrees with the tables")
    return problems
