"""Each output check passes on real program output and fails on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _run(name: str, tmp: Path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "ROWS", 200)
        wl = workloads.make(name, tmp, seed=3)
        wl.setup()
        ops = wl.ops()
    for op in ops:
        assert worker.call(op.argv) == 0, op.argv
    return wl, ops


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Run a workload's round once per module, on 200 rows per domain."""
    done = {}

    def get(name: str):
        if name not in done:
            done[name] = _run(name, tmp_path_factory.mktemp(name))
        return done[name]

    return get


def corrupted(wl, op, text: str, path: Path | None = None) -> list[str]:
    """Problems the check of ``op`` finds with ``text`` in place of ``path``
    (by default the op's output); restores the file."""
    path = path or op.output
    original = path.read_bytes()
    path.write_text(text)
    try:
        return wl.check_op(op)
    finally:
        path.write_bytes(original)


@pytest.mark.parametrize("name", ["sdg", "mdg", "train", "serve"])
def test_real_outputs_pass(outputs, name):
    wl, ops = outputs(name)
    assert [wl.check_op(op) for op in ops] == [[] for _ in ops]


@pytest.mark.parametrize("edit", [
    lambda r: r["raw"]["symbolic"]["clinic_b"]["auc"].__setitem__(0, float("nan")),
    lambda r: r["raw"]["neural"]["clinic_b"]["accuracy"].__setitem__(0, r["raw"]["neural"]["clinic_b"]["accuracy"][0] + 1e-3),
    lambda r: r["cells"]["fusion-max"]["clinic_c"]["accuracy"].__setitem__(0, 0.5),
    lambda r: r["raw"]["symbolic"]["average"]["macro_f1"].__setitem__(0, 0.25),
    lambda r: r["cells"]["symbolic"]["clinic_b"]["accuracy"].__setitem__(1, 0.3),
    lambda r: r["selected_alphas"].__setitem__(0, 0.35),
], ids=["nan-token", "neural-row", "selective-vs-max", "average", "cell-vs-raw", "alpha-off-grid"])
def test_report_corruption_fails(outputs, edit):
    wl, ops = outputs("sdg")
    report = json.loads(ops[0].output.read_text())
    edit(report)
    assert corrupted(wl, ops[0], json.dumps(report, indent=1, sort_keys=True))


def test_artifact_edit_fails_digest(outputs):
    wl, ops = outputs("train")
    text = ops[0].output.read_text()
    assert corrupted(wl, ops[0], text.replace('"learning_rate":0.1', '"learning_rate":0.2'))


def test_artifact_that_does_not_round_trip_fails(outputs):
    wl, ops = outputs("train")
    lines = ops[1].output.read_text().split("\n", 3)
    spaced = json.dumps(json.loads(lines[3]), sort_keys=True)  # same content, not canonical
    assert corrupted(wl, ops[1], "\n".join(lines[:3] + [spaced]) + "\n")


def test_model_worse_than_majority_fails(outputs):
    from kgdg.io import ModelArtifact, load_model, save_model

    wl, ops = outputs("train")
    op = next(o for o in ops if o.command == "train_logistic")
    artifact = load_model(op.output)
    params = dict(artifact.params, weights=np.zeros_like(artifact.params["weights"]).tolist(),
                  bias=[0.0, 0.0, 0.0, 0.0, 5.0])  # always the rarest grade
    broken = op.output.with_suffix(".broken")
    save_model(ModelArtifact("logistic", artifact.feature_schema, params, artifact.train_fingerprint), broken)
    assert corrupted(wl, op, broken.read_text())


def test_predictions_off_simplex_fail():
    y = np.array([0, 1, 2, 3, 4, 0])
    probs = np.eye(5)[y] * 0.9
    assert checks.check_predictions(probs, y)
    assert not checks.check_predictions(np.eye(5)[y], y)


def _edit_csv(path: Path, row: int, column: str, value: str | None) -> str:
    """The CSV with one cell changed, or with one row dropped when value is None."""
    rows = checks.read_table(path)
    if value is None:
        del rows[row]
    else:
        rows[row][column] = value
    header = list(checks.read_table(path)[0])
    return "\n".join([",".join(header)] + [",".join(r[h] for h in header) for r in rows]) + "\n"


def _serve_op(ops, command: str, flag: str = ""):
    return next(o for o in ops if o.command == command and (not flag or flag in o.argv))


def test_rule_grade_corruption_fails(outputs):
    wl, ops = outputs("serve")
    by_feat = _serve_op(ops, "grade", "--features")
    first = checks.read_table(by_feat.output)[0]
    assert corrupted(wl, by_feat, _edit_csv(by_feat.output, 0, "grade", str((int(first["grade"]) + 1) % 5)))


def test_detection_grade_missing_image_fails(outputs):
    wl, ops = outputs("serve")
    by_det = _serve_op(ops, "grade", "--detections")
    assert corrupted(wl, by_det, _edit_csv(by_det.output, 3, "", None))


def test_detection_grade_disagreeing_with_features_fails(outputs):
    wl, ops = outputs("serve")
    by_feat = _serve_op(ops, "grade", "--features")
    first = checks.read_table(by_feat.reads)[0]
    edited = _edit_csv(by_feat.reads, 0, "grade", str((int(first["grade"]) + 1) % 5))
    assert any("disagree" in p for p in corrupted(wl, by_feat, edited, by_feat.reads))


@pytest.mark.parametrize("column,value", [("grade", None), ("source", "symbolic"), ("winning_score", "0.000001")])
def test_fusion_corruption_fails(outputs, column, value):
    wl, ops = outputs("serve")
    fused = _serve_op(ops, "fuse", "classwise")
    first = checks.read_table(fused.output)[0]
    if value is None:
        value = str((int(first["grade"]) + 1) % 5)
    if column == "source" and first["source"] == "symbolic":
        value = "deep"
    assert corrupted(wl, fused, _edit_csv(fused.output, 0, column, value))


@pytest.mark.parametrize("key", ["accuracy", "macro_f1", "confusion"])
def test_score_corruption_fails(outputs, key):
    wl, ops = outputs("serve")
    score = _serve_op(ops, "score")
    payload = json.loads(score.output.read_text())
    payload[key] = [[0] * 5] * 5 if key == "confusion" else payload[key] + 0.01
    assert corrupted(wl, score, json.dumps(payload))


def test_bytes_differing_between_rounds_fail(outputs):
    wl, ops = outputs("sdg")
    n = len(ops)
    same = worker.Round(1.0, [1.0] * n, [1.0] * n, [0] * n, ["aa"] * n)
    other = worker.Round(1.0, [1.0] * n, [1.0] * n, [0] * n, ["aa"] * (n - 1) + ["bb"])
    assert worker.check_outputs(wl, ops, [same, same]) == [[]] * n
    assert worker.check_outputs(wl, ops, [same, other]) == [[]] * (n - 1) + [["output bytes differ between rounds"]]


def test_op_costs_cancel_machine_speed():
    quiet = worker.Round(0.0, [0.5, 2.0], [0.04, 0.04], [0, 0], ["", ""])
    slow = worker.Round(0.0, [0.75, 3.0], [0.06, 0.06], [0, 0], ["", ""])
    scale = worker.calibration.REFERENCE_S / 0.04
    assert worker.op_costs([quiet]) == pytest.approx([0.5 * scale, 2.0 * scale])
    assert worker.op_costs([quiet, slow, slow]) == pytest.approx([0.5 * scale, 2.0 * scale])


def test_tracer_counts_outermost_spans_and_self_time():
    tracer = spans.Tracer()

    def inner():
        return [1, 2, 3]

    wrapped_inner = tracer.wrap(inner, "io", ("io.load_s",), "io.calls", lambda a, r: {"io.rows": len(r)})

    def outer():
        return wrapped_inner() + wrapped_inner()

    wrapped_outer = tracer.wrap(outer, "io", ("io.load_s",), "io.calls", None)
    wrapped_outer()  # inactive: nothing recorded
    assert tracer.take() == {"harness.self_s": 0.0}
    tracer.active = True
    wrapped_outer()
    got = tracer.take()
    assert got["io.calls"] == 1 and got["io.rows"] == 6
    assert 0 < got["io.load_s"] and tracer.self_s == {}
