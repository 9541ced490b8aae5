"""The (seed, fold) tasks of ``run_experiment`` run concurrently in forked
processes; none of that shows in what a run returns, writes or raises.

Each comparison runs once with one usable core, where every task runs
inline, and once with two, where the tasks go to several processes.
"""

import json
import multiprocessing
import multiprocessing.context
import os
import threading
import warnings

import pytest

import kgdg.harness as harness
from kgdg.cli import main
from kgdg.errors import SingleClassTrain
from kgdg.harness import ExperimentConfig, process_count, run_experiment
from kgdg.io import canonical_json, content_digest, load_manifest
from kgdg.learn import TrainConfig
from kgdg.synth import shift_profile, write_dataset

FAST_SYMBOLIC = dict(n_trees=25, min_leaf=2, early_stop_patience=5)


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    return write_dataset(shift_profile("mild", seed=0, n_samples=150), tmp_path_factory.mktemp("tasks"))


def write_config(tmp_path, manifest_path, mode, seeds):
    path = tmp_path / f"{mode}.json"
    domains = {"manifest": str(manifest_path), "source": "clinic_a" if mode == "sdg" else None}
    path.write_text(json.dumps({"mode": mode, "domains": domains, "seeds": list(seeds), "symbolic": FAST_SYMBOLIC}))
    return path


def experiment(mode, seeds):
    return ExperimentConfig(mode=mode, source="clinic_a" if mode == "sdg" else None, seeds=seeds,
                            symbolic=TrainConfig(**FAST_SYMBOLIC))


def report_digest(cfg, manifest):
    return content_digest(canonical_json(run_experiment(cfg, manifest).to_json_dict()))


@pytest.fixture
def forks(monkeypatch):
    """The number of processes run_experiment forks, counted in the caller."""
    started = []
    original = multiprocessing.context.ForkProcess.start

    def counting_start(self):
        started.append(self)
        return original(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counting_start)
    return started


def use_cores(monkeypatch, cores):
    monkeypatch.setattr(harness, "_usable_cores", lambda: cores)


def test_process_count_rule(monkeypatch):
    use_cores(monkeypatch, 1)
    assert [process_count(n) for n in range(1, 10)] == [1] * 9
    use_cores(monkeypatch, 2)
    assert [process_count(n) for n in range(1, 13)] == [1, 2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 2]
    use_cores(monkeypatch, 4)
    assert [process_count(n) for n in (3, 4, 8, 9)] == [3, 4, 4, 5]


def test_a_running_python_thread_keeps_the_tasks_inline(monkeypatch):
    use_cores(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert process_count(3) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert process_count(3) == 3


@pytest.mark.parametrize("mode", ["mdg", "sdg"])
def test_report_bytes_do_not_depend_on_the_core_count(tmp_path, monkeypatch, manifest_path, forks, mode):
    config = write_config(tmp_path, manifest_path, mode, seeds=(0, 1, 2))
    written = {}
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        for fmt in ("json", "markdown"):
            out = tmp_path / f"report_{cores}.{fmt}"
            assert main(["eval", "--config", str(config), "--format", fmt, "--out", str(out), "--quiet"]) == 0
            written[cores, fmt] = out.read_bytes()
        if cores == 1:
            assert forks == []
    assert len(forks) == 2 * (process_count(9 if mode == "mdg" else 3) - 1) > 0
    for fmt in ("json", "markdown"):
        assert written[1, fmt] == written[2, fmt]


def task_order(monkeypatch, manifest, cfg):
    """The digest of each task's training matrix, in task order."""
    order = []
    fit = harness.fit_model

    def recording_fit(x, *args):
        order.append(content_digest(x.tobytes()))
        return fit(x, *args)

    use_cores(monkeypatch, 1)
    monkeypatch.setattr(harness, "fit_model", recording_fit)
    run_experiment(cfg, manifest)
    monkeypatch.setattr(harness, "fit_model", fit)
    assert len(set(order)) == len(order)
    return order


def fail_tasks(monkeypatch, order, failing, error=lambda i: SingleClassTrain(f"task {i} has a single grade")):
    fit = harness.fit_model

    def failing_fit(x, *args):
        i = order.index(content_digest(x.tobytes()))
        if i in failing:
            raise error(i)
        return fit(x, *args)

    monkeypatch.setattr(harness, "fit_model", failing_fit)


# With two cores the 6 tasks of a two-seed MDG run go to 2 processes: the
# caller runs tasks 0, 2 and 4, the child 1, 3 and 5.
@pytest.mark.parametrize("failing", [(1, 2), (2, 3), (3, 5), (0, 1)])
def test_first_failing_task_in_task_order_raises(tmp_path, monkeypatch, manifest_path, capsys, forks, failing):
    config = write_config(tmp_path, manifest_path, "mdg", seeds=(0, 1))
    cfg = experiment("mdg", (0, 1))
    manifest = load_manifest(manifest_path)
    fail_tasks(monkeypatch, task_order(monkeypatch, manifest, cfg), failing)
    expected = f"task {min(failing)} has a single grade"
    seen = []
    for cores in (1, 2):
        use_cores(monkeypatch, cores)
        with pytest.raises(SingleClassTrain, match=expected):
            run_experiment(cfg, manifest)
        capsys.readouterr()
        code = main(["eval", "--config", str(config), "--format", "json", "--out", str(tmp_path / "r.json")])
        seen.append((code, capsys.readouterr().err))
        assert multiprocessing.active_children() == []
    assert forks
    assert seen[0] == seen[1]
    assert seen[0][0] == SingleClassTrain.exit_code == 3
    assert f"error[SINGLE_CLASS_TRAIN]: {expected}" in seen[0][1]


class TwoPartError(Exception):
    """Pickles, but does not unpickle: its one stored arg is not two."""

    def __init__(self, head, tail):
        super().__init__(f"{head}-{tail}")


def test_exception_that_does_not_unpickle_is_raised_as_itself(monkeypatch, manifest_path, forks):
    cfg = experiment("mdg", (0, 1))
    manifest = load_manifest(manifest_path)
    fail_tasks(monkeypatch, task_order(monkeypatch, manifest, cfg), (3,), lambda i: TwoPartError("task", i))
    use_cores(monkeypatch, 2)
    with pytest.raises(TwoPartError, match="task-3"):
        run_experiment(cfg, manifest)
    assert forks and multiprocessing.active_children() == []


def test_a_child_that_dies_or_cannot_start_leaves_its_tasks_to_the_caller(monkeypatch, manifest_path, forks):
    cfg = experiment("mdg", (0,))
    manifest = load_manifest(manifest_path)
    use_cores(monkeypatch, 1)
    inline = report_digest(cfg, manifest)
    use_cores(monkeypatch, 2)
    monkeypatch.setattr(harness, "_send_share", lambda tasks, conn: os._exit(1))
    assert report_digest(cfg, manifest) == inline
    assert [p.exitcode for p in forks] == [1, 1]

    def no_fork(self):
        raise OSError("no process to spare")

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", no_fork)
    assert report_digest(cfg, manifest) == inline
    assert multiprocessing.active_children() == []


def test_no_child_outlives_a_run_and_nothing_warns(monkeypatch, manifest_path, forks):
    cfg = experiment("sdg", (0, 1, 2))
    manifest = load_manifest(manifest_path)
    use_cores(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_experiment(cfg, manifest)
    assert len(forks) == 2
    assert multiprocessing.active_children() == []
    fail_tasks(monkeypatch, task_order(monkeypatch, manifest, cfg), (1,))
    use_cores(monkeypatch, 2)
    with pytest.raises(SingleClassTrain):
        run_experiment(cfg, manifest)
    assert len(forks) == 4
    assert multiprocessing.active_children() == []
