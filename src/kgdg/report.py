"""Report rendering and comparison against published reference tables.

The reference tables ship verbatim as informational fixtures: synthetic
runs are never comparable to them (different data entirely), so a
comparison against a live report is annotated, not judged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from .errors import DataError, InvalidConfig, UnknownReference
from .harness import CellStat, ExperimentReport
from .io import parse_json, read_text

# --- embedded reference fixtures ----------------------------------------------


@dataclass(frozen=True)
class ReferenceTable:
    """A published accuracy table, cells kept as verbatim strings."""

    table_id: str
    caption: str
    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[str, ...]], ...]

    def cell(self, row_label: str, column: str) -> str:
        for label, cells in self.rows:
            if label == row_label:
                return cells[self.columns.index(column)]
        raise KeyError(f"{self.table_id} has no row {row_label!r}")

    def row_labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.rows)


REFERENCES: dict[str, ReferenceTable] = {}


def _add(table: ReferenceTable) -> None:
    REFERENCES[table.table_id] = table


_add(ReferenceTable(
    table_id="sdg_aptos",
    caption="Single-source runs trained on APTOS: cross-domain accuracy (%)",
    columns=("Eyepacs", "Messidor", "Messidor2", "Average"),
    rows=(
        ("DRGen", ("67.5±1.8", "46.7±0.1", "61.0±0.1", "58.4±0.57")),
        ("ERM-ViT", ("67.8±1.4", "45.5±0.2", "58.8±0.4", "57.3±0.76")),
        ("SD-ViT", ("72.0±0.8", "45.4±0.1", "58.5±0.2", "58.6±0.22")),
        ("SPSD-ViT", ("71.4±0.8", "45.6±0.1", "58.8±0.2", "58.6±0.42")),
        ("VIT (DL)", ("66.6±0.4", "46.4±0.3", "48.9±0.2", "53.9±0.5")),
        ("Knowledge (KL)", ("66.4±0.8", "49.6±0.2", "53.9±0.7", "56.6±0.3")),
        ("Non Weighted (DL + KL)", ("72.8±0.5", "50.6±0.4", "54.3±0.4", "59.9±0.2")),
        ("Weighted (DL + KL)", ("67.4±0.3", "49.6±0.3", "53.9±0.6", "57.0±0.2")),
    ),
))

_add(ReferenceTable(
    table_id="sdg_messidor",
    caption="Single-source runs trained on MESSIDOR: cross-domain accuracy (%)",
    columns=("Aptos", "Eyepacs", "Messidor2", "Average"),
    rows=(
        ("DRGen", ("41.7±4.3", "43.1±7.9", "44.8±0.9", "43.2±0.65")),
        ("ERM-ViT", ("45.3±1.3", "52.4±3.2", "58.2±3.2", "51.9±0.71")),
        ("SD-ViT", ("44.3±0.9", "53.2±1.6", "57.8±2.4", "51.7±0.35")),
        ("SPSD-ViT", ("48.3±1.1", "57.4±2.1", "62.2±1.6", "55.9±0.88")),
        ("VIT (DL)", ("49.8±0.4", "62.1±0.3", "59.1±0.3", "57.0±0.5")),
        ("Knowledge (KL)", ("74.0±0.5", "63.6±0.4", "63.8±0.3", "67.1±0.2")),
        ("Non Weighted (DL + KL)", ("52.7±0.7", "63.4±0.4", "61.4±0.5", "59.2±0.4")),
        ("Weighted (DL + KL)", ("74.1±0.5", "63.3±0.2", "63.8±0.6", "67.1±0.7")),
    ),
))

_add(ReferenceTable(
    table_id="sdg_messidor2",
    caption="Single-source runs trained on MESSIDOR2: cross-domain accuracy (%)",
    columns=("Aptos", "Eyepacs", "Messidor", "Average"),
    rows=(
        ("DRGen", ("40.9±3.9", "69.3±1.0", "61.3±0.8", "57.7±0.67")),
        ("ERM-ViT", ("47.9±2.1", "67.4±0.9", "59.6±3.9", "58.3±0.33")),
        ("SD-ViT", ("51.8±0.9", "68.7±0.6", "62.0±1.7", "60.8±0.58")),
        ("SPSD-ViT", ("52.8±2.0", "72.5±0.3", "61.0±0.8", "62.1±0.85")),
        ("VIT (DL)", ("29.2±0.4", "44.7±0.5", "49.4±0.7", "41.1±0.7")),
        ("Knowledge (KL)", ("69.1±0.3", "71.1±0.4", "55.3±0.9", "65.2±0.5")),
        ("Non Weighted (DL + KL)", ("63.6±0.6", "71.1±0.8", "56.4±0.2", "63.7±0.6")),
        ("Weighted (DL + KL)", ("69.5±0.4", "71.0±0.2", "55.9±0.6", "65.5±0.3")),
    ),
))

_add(ReferenceTable(
    table_id="sdg_eyepacs",
    caption="Single-source runs trained on EYEPACS: cross-domain accuracy (%)",
    columns=("Aptos", "Messidor", "Messidor2", "Average"),
    rows=(
        ("DRGen", ("61.3±1.9", "54.6±1.5", "65.4±0.1", "60.4±0.25")),
        ("ERM-ViT", ("69.1±1.4", "50.4±0.3", "62.8±0.2", "60.8±0.58")),
        ("SD-ViT", ("69.3±0.3", "50.0±0.5", "62.9±0.2", "60.7±0.41")),
        ("SPSD-ViT", ("75.1±0.5", "50.5±0.8", "62.2±0.4", "62.5±0.62")),
        ("VIT (DL)", ("49.7±0.9", "52.9±0.2", "49.1±0.9", "50.6±0.4")),
        ("Knowledge (KL)", ("60.2±0.2", "53.7±0.6", "66.5±0.4", "60.13±0.5")),
        ("Non Weighted (DL + KL)", ("63.9±0.2", "53.8±0.3", "67.2±0.6", "61.7±0.4")),
        ("Weighted (DL + KL)", ("60.2±0.3", "48.7±0.2", "66.4±0.7", "58.4±0.9")),
    ),
))

_add(ReferenceTable(
    table_id="mdg_methods",
    caption="Leave-one-domain-out accuracy (%) across methods and backbones",
    columns=("Backbone", "Aptos", "Eyepacs", "Messidor", "Messidor 2", "Avg."),
    rows=(
        ("ERM", ("ResNet50 (23.5M)", "47.6±1.7", "71.3±0.3", "63.0±0.4", "69.0±1.5", "62.7")),
        ("IRM", ("ResNet50", "52.1±1.7", "73.2±0.3", "51.3±3.8", "57.2±1.7", "58.4")),
        ("ARM", ("ResNet50", "45.6±1.5", "71.7±0.5", "62.4±1.0", "60.0±3.4", "59.9")),
        ("Fish", ("ResNet50", "44.6±2.2", "72.7±0.7", "62.1±0.7", "66.4±1.7", "61.4")),
        ("Fishr", ("ResNet50", "47.0±1.8", "71.9±0.6", "63.3±0.5", "66.4±0.2", "62.2")),
        ("GroupDRO", ("ResNet50", "44.9±3.8", "72.0±0.3", "63.1±0.9", "67.8±1.9", "62.0")),
        ("MLDG", ("ResNet50", "44.1±1.6", "72.7±0.6", "62.7±0.6", "64.4±0.4", "61.0")),
        ("Mixup", ("ResNet50", "47.3±1.7", "72.0±0.3", "59.8±2.8", "65.8±1.4", "61.2")),
        ("Coral", ("ResNet50", "49.8±1.0", "71.7±0.9", "58.6±2.8", "68.2±0.6", "62.1")),
        ("MMD", ("ResNet50", "49.3±1.0", "69.3±1.1", "64.1±4.8", "69.6±0.6", "63.1")),
        ("DANN", ("ResNet50", "54.4±0.8", "72.9±1.4", "57.0±1.1", "58.6±1.7", "60.7")),
        ("CDANN", ("ResNet50", "48.1±0.7", "73.1±0.3", "55.8±1.8", "61.2±1.3", "59.5")),
        ("ERM-ViT (DeiT-Small)", ("DeiT-Small (22M)", "48.5±0.9", "70.7±1.7", "62.7±1.6", "69.5±2.5", "62.9")),
        ("ERM-ViT (T2T-14)", ("T2T-14 (21.5M)", "54.0±3.0", "73.2±0.4", "60.8±1.7", "72.0±0.2", "62.5")),
        ("ERM-ViT (CvT-13)", ("CvT-13 (20M)", "51.3±1.7", "73.3±0.2", "64.8±0.6", "72.4±0.6", "65.5")),
        ("SD-ViT (DeiT-Small)", ("DeiT-Small (22M)", "48.2±2.5", "69.6±1.5", "63.9±1.3", "65.0±1.7", "61.8")),
        ("SD-ViT (T2T-14)", ("T2T-14 (21.5M)", "46.5±0.8", "71.1±0.7", "63.9±0.9", "71.4±0.2", "63.2")),
        ("SPSD-ViT (DeiT-Small)", ("DeiT-Small (22M)", "51.6±1.1", "73.3±0.4", "64.0±1.4", "72.9±0.1", "65.5")),
        ("SPSD-ViT (T2T-14)", ("T2T-14 (21.5M)", "50.0±2.8", "73.6±0.3", "65.2±0.3", "73.3±0.2", "65.5")),
        ("SPSD-ViT (CvT-13)", ("CvT-13 (20M)", "51.7±1.2", "73.3±0.2", "64.8±0.6", "72.4±0.6", "65.5")),
        ("ViT (Ours)", ("Vit (22M)", "50.1±1.7", "69.4±0.3", "58.13±3.8", "67.1±1.7", "61.18")),
        ("ViT +KL (Ours)", ("Vit (21.5M)", "53.1±1.7", "72.2±0.3", "51.3±3.8", "56.2±1.7", "58.4")),
        ("KL (Ours)", ("Knowledge (20M)", "60.70±1.2", "68.45±0.2", "58.67±0.6", "67.66±0.6", "63.67")),
    ),
))

_add(ReferenceTable(
    table_id="aptos_ablation",
    caption="APTOS-trained ablation: neural-only vs symbolic-only vs fused accuracy (%)",
    columns=("Eyepacs", "Messidor", "Messidor2"),
    rows=(
        ("Neural Only (ViT)", ("66.6", "46.4", "48.9")),
        ("Symbolic Only (KL)", ("66.4", "49.6", "53.9")),
        ("Neural + Symbolic (Non-Weighted)", ("72.8", "50.6", "54.3")),
        ("Neural + Symbolic (Weighted)", ("67.4", "49.6", "53.9")),
    ),
))

_add(ReferenceTable(
    table_id="feature_ablation",
    caption="Symbolic classifiers with lesion features alone vs lesions plus vein morphology",
    columns=("Feature Set", "Accuracy", "F1-Score", "Precision", "Recall", "AUC"),
    rows=(
        ("Logistic Regression / Lesions Only", ("Lesions Only", "0.7732", "0.7322", "0.59", "0.49", "0.74")),
        ("Random Forest / Lesions Only", ("Lesions Only", "0.8169", "0.8115", "0.82", "0.80", "0.81")),
        ("SVM / Lesions Only", ("Lesions Only", "0.7814", "0.7432", "0.59", "0.50", "0.76")),
        ("Gradient Boosting / Lesions Only", ("Lesions Only", "0.8465", "0.8412", "0.82", "0.76", "0.84")),
        ("K-Nearest Neighbors / Lesions Only", ("Lesions Only", "0.7814", "0.7896", "0.63", "0.56", "0.77")),
        ("Logistic Regression / Lesions + Vein", ("Lesions + Vein", "0.6424", "0.6019", "0.25", "0.33", "0.58")),
        ("Random Forest / Lesions + Vein", ("Lesions + Vein", "0.7384", "0.7038", "0.55", "0.47", "0.70")),
        ("SVM / Lesions + Vein", ("Lesions + Vein", "0.6556", "0.6083", "0.26", "0.34", "0.58")),
        ("Gradient Boosting / Lesions + Vein", ("Lesions + Vein", "0.7252", "0.7389", "0.51", "0.44", "0.69")),
        ("K-Nearest Neighbors / Lesions + Vein", ("Lesions + Vein", "0.6987", "0.6369", "0.43", "0.44", "0.66")),
    ),
))

_add(ReferenceTable(
    table_id="indomain_benchmark",
    caption="In-domain APTOS benchmark: knowledge-guided accuracy vs transformer baseline (%)",
    columns=("Accuracy",),
    rows=(
        ("Knowledge-guided", ("84.65",)),
        ("ViT baseline", ("78.40",)),
    ),
))


def reference_ids() -> tuple[str, ...]:
    return tuple(REFERENCES)


def get_reference(reference_id: str) -> ReferenceTable:
    try:
        return REFERENCES[reference_id]
    except KeyError:
        raise UnknownReference(
            f"unknown reference {reference_id!r}; known: {', '.join(REFERENCES)}"
        ) from None


# Which published row each live method row corresponds to, per table family.
_SDG_METHOD_MAP = {
    "neural": "VIT (DL)",
    "symbolic": "Knowledge (KL)",
    "fusion-max": "Non Weighted (DL + KL)",
    "fusion-weighted": "Weighted (DL + KL)",
}
_MDG_METHOD_MAP = {
    "neural": "ViT (Ours)",
    "symbolic": "KL (Ours)",
}
_ABLATION_METHOD_MAP = {
    "neural": "Neural Only (ViT)",
    "symbolic": "Symbolic Only (KL)",
    "fusion-max": "Neural + Symbolic (Non-Weighted)",
    "fusion-weighted": "Neural + Symbolic (Weighted)",
}


def _method_map(reference_id: str) -> dict[str, str]:
    if reference_id.startswith("sdg_"):
        return _SDG_METHOD_MAP
    if reference_id == "mdg_methods":
        return _MDG_METHOD_MAP
    if reference_id == "aptos_ablation":
        return _ABLATION_METHOD_MAP
    raise InvalidConfig(
        f"reference {reference_id!r} is not row/column comparable to an experiment report"
    )


@dataclass(frozen=True)
class ComparisonEntry:
    row: str
    column: str
    ours: str
    reference: str
    note: str


@dataclass(frozen=True)
class ComparisonReport:
    reference_id: str
    compared: int
    diffs: tuple[ComparisonEntry, ...]

    @property
    def zero_diffs(self) -> bool:
        return not self.diffs

    def render(self) -> str:
        lines = [f"comparison against reference {self.reference_id!r}: "
                 f"{self.compared} cells compared, {len(self.diffs)} differ"]
        for d in self.diffs:
            lines.append(
                f"  {d.row} / {d.column}: ours={d.ours} reference={d.reference} [{d.note}]"
            )
        return "\n".join(lines)


def compare_to_reference(
    report: ExperimentReport | ReferenceTable, reference_id: str
) -> ComparisonReport:
    """Diff a report (or another fixture) against an embedded fixture.

    Output is informational only: live reports come from different data,
    so each differing cell carries a not-comparable annotation.
    """
    reference = get_reference(reference_id)
    if isinstance(report, ReferenceTable):
        diffs = []
        compared = 0
        ref_labels = reference.row_labels()
        for label, cells in report.rows:
            if label not in ref_labels:
                continue
            for col, ours in zip(report.columns, cells):
                if col not in reference.columns:
                    continue
                compared += 1
                expected = reference.cell(label, col)
                if ours != expected:
                    diffs.append(ComparisonEntry(label, col, ours, expected, "fixture mismatch"))
        return ComparisonReport(reference_id, compared, tuple(diffs))

    mapping = _method_map(reference_id)
    ref_targets = [c for c in reference.columns if c not in ("Average", "Avg.", "Backbone", "Feature Set")]
    our_targets = [c for c in report.columns if c != "average"]
    diffs = []
    compared = 0
    for method in report.methods:
        ref_row = mapping.get(method)
        if ref_row is None or ref_row not in reference.row_labels():
            continue
        pairs = list(zip(our_targets, ref_targets))
        pairs += [("average", name) for name in ("Average", "Avg.") if name in reference.columns][:1]
        for ours_col, ref_col in pairs:
            compared += 1
            ours = _format_cell(report.cell(method, ours_col, "accuracy"))
            diffs.append(ComparisonEntry(ref_row, ref_col, ours, reference.cell(ref_row, ref_col),
                                         "not comparable: synthetic data"))
    return ComparisonReport(reference_id, compared, tuple(diffs))


# --- rendering -------------------------------------------------------------------


_METRIC_TITLES = {
    "accuracy": "Cross-domain accuracy (%)",
    "macro_f1": "Macro F1 (%)",
    "auc": "AUC-ROC (%)",
}


def _format_cell(stat: CellStat) -> str:
    return f"{stat.mean * 100:.1f}±{stat.std * 100:.1f}"


def _best_rows(means: list[float]) -> set[int]:
    """The rows of one column whose mean is the highest, within 1e-12."""
    best = None
    winners: set[int] = set()
    for row, v in enumerate(means):
        if v != v:  # skip NaN cells
            continue
        if best is None or v > best + 1e-12:
            best = v
            winners = {row}
        elif abs(v - best) <= 1e-12:
            winners.add(row)
    return winners


def _metric_rows(report: ExperimentReport, metric: str, best: str) -> list[list[str]]:
    """Each method's name and formatted cells for one metric, the best of
    each column put through ``best``; every cell is summarized once."""
    stats = [[report.cell(method, column, metric) for column in report.columns] for method in report.methods]
    winners = [_best_rows([row[j].mean for row in stats]) for j in range(len(report.columns))]
    rows = []
    for i, (method, row) in enumerate(zip(report.methods, stats)):
        cells = [_format_cell(stat) for stat in row]
        rows.append([method] + [best.format(cell) if i in w else cell for cell, w in zip(cells, winners)])
    return rows


def render_markdown(report: ExperimentReport) -> str:
    lines = [
        "# Domain-generalization report",
        "",
        f"- mode: {report.mode}",
        f"- source: {report.source_label}",
        f"- seeds: {', '.join(str(s) for s in report.seeds)} "
        f"(each cell is mean±std over {len(report.seeds)} {report.aggregation})",
        f"- config fingerprint: {report.config_fingerprint}",
        f"- alignment: {'on' if report.alignment_enabled else 'off'}",
    ]
    if report.kl_before is not None and report.kl_after is not None:
        lines.append(
            f"- summed pairwise domain KL: {report.kl_before:.6f} before, "
            f"{report.kl_after:.6f} after alignment"
        )
    if report.selected_alphas:
        alphas = ", ".join(f"{a:.1f}" for a in report.selected_alphas)
        lines.append(f"- weighted fusion deep-branch weight per run: {alphas}")
    lines.append("")
    for metric in report.metrics:
        lines.append(f"## {_METRIC_TITLES.get(metric, metric)}")
        lines.append("")
        header = ["Method"] + [c for c in report.columns]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for row in _metric_rows(report, metric, "**{}**"):
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    lines.append(f"note: {report.fusion_note}")
    lines.append("")
    return "\n".join(lines)


def render_csv(report: ExperimentReport) -> str:
    lines = ["metric,method," + ",".join(report.columns)]
    for metric in report.metrics:
        for row in _metric_rows(report, metric, "{}*"):
            lines.append(",".join([metric] + row))
    lines.append(f"# seeds: {' '.join(str(s) for s in report.seeds)} ({report.aggregation})")
    lines.append(f"# config fingerprint: {report.config_fingerprint}")
    lines.append(f"# {report.fusion_note}")
    return "\n".join(lines) + "\n"


def render_report(report: ExperimentReport, fmt: str) -> str:
    """The report as markdown, CSV or strict JSON text; best column values
    are flagged (bold / trailing asterisk) in the two tables."""
    if fmt == "markdown":
        return render_markdown(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "json":
        return json.dumps(report.to_json_dict(), indent=1, sort_keys=True, allow_nan=False) + "\n"
    raise InvalidConfig(f"unknown report format {fmt!r}")


def emit_report(report: ExperimentReport, fmt: str, path: str | Path) -> Path:
    """Write ``render_report(report, fmt)`` to ``path``."""
    out = Path(path)
    out.write_text(render_report(report, fmt), encoding="utf-8")
    return out


def load_report_json(path: str | Path) -> ExperimentReport:
    """Read a report written by ``eval --format json``; any other file is a DataError."""
    def not_a_report(exc: Exception) -> DataError:
        return DataError(f"{path}: not an eval --format json report: {type(exc).__name__}: {exc}")
    try:
        return ExperimentReport.from_json_dict(parse_json(read_text(path), not_a_report))
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        raise not_a_report(exc) from None
