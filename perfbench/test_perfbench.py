"""Self-tests of the benchmark's checks and tracer.

    python3 -m pytest perfbench

A corrupted CSV value, a missing manifest and a ``pass: false`` oracle
report must each count as a failed operation; a traced run must survive a
refactor that deletes a traced function.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import omitlab  # noqa: E402
import omitlab.cli  # noqa: E402
import omitlab.util  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402

SPECTRUM = ["spectrum", "--out", "spectrum.csv"]
ORACLE = ["oracle", "--out", "oracle.json"]


def _run(argv, d, monkeypatch):
    monkeypatch.chdir(d)
    assert omitlab.cli.main(argv) == 0
    return str(d)


def _check(argv, d, returncode=0):
    return checks.check(argv, str(d), returncode, random.Random(0))


def _edit_row(path, i, col, value):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[1 + i].split(",")
    cells[col] = value(cells[col])
    lines[1 + i] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_clean_spectrum_passes(tmp_path, monkeypatch):
    out = _check(SPECTRUM, _run(SPECTRUM, tmp_path, monkeypatch))
    assert not out.failed, out.problems
    assert out.checked == checks.SAMPLES
    assert out.ref_max_rel_err <= checks.LINEAR_SOLVE_RTOL


def test_corrupted_value_fails(tmp_path, monkeypatch):
    d = _run(SPECTRUM, tmp_path, monkeypatch)
    # row 0 is always among the sampled rows
    _edit_row(tmp_path / "spectrum.csv", 0, 1,
              lambda v: repr(float(v) * (1.0 + 1e-6)))
    out = _check(SPECTRUM, d)
    assert out.failed
    assert "linear solve" in out.problems[0]


def test_unparseable_value_fails(tmp_path, monkeypatch):
    d = _run(SPECTRUM, tmp_path, monkeypatch)
    _edit_row(tmp_path / "spectrum.csv", -2, 2, lambda v: "x")
    assert _check(SPECTRUM, d).failed


def test_missing_manifest_fails(tmp_path, monkeypatch):
    d = _run(SPECTRUM, tmp_path, monkeypatch)
    os.remove(tmp_path / "spectrum.manifest.json")
    out = _check(SPECTRUM, d)
    assert out.failed
    assert "missing output spectrum.manifest.json" in out.problems


def test_nonzero_exit_fails(tmp_path, monkeypatch):
    d = _run(SPECTRUM, tmp_path, monkeypatch)
    assert _check(SPECTRUM, d, returncode=2).failed


def _oracle_report(d, passed):
    manifest = {"config": omitlab.config_to_dict(omitlab.default_config())}
    with open(os.path.join(d, "oracle.manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    with open(os.path.join(d, "oracle.json"), "w") as fh:
        json.dump({"a0_rel_err": 2e-6, "pass": passed}, fh)


def test_failing_oracle_report_fails(tmp_path):
    _oracle_report(tmp_path, passed=False)
    out = _check(ORACLE, tmp_path)
    assert out.failed and out.verdict_false
    assert out.problems == []
    _oracle_report(tmp_path, passed=True)
    assert not _check(ORACLE, tmp_path).failed


def test_tracer_counts_and_restores(tmp_path, monkeypatch):
    original = omitlab.cli.spectrum_sweep
    tracer = Tracer()
    with tracer.installed():
        assert omitlab.cli.spectrum_sweep is not original
        _run(SPECTRUM, tmp_path, monkeypatch)
    assert omitlab.cli.spectrum_sweep is original
    times = tracer.self_times()
    assert times["cli.main"][0] == 1
    assert times["sweep.spectrum_sweep"][0] == 1
    assert tracer.counts.probe_points == tracer.counts.probe_calls * 4161
    # self times partition the invocation's wall time
    total = sum(s for _, s in times.values())
    main_span = [s for s in tracer.spans if s[3] == "cli.main"][0]
    assert abs(total - (main_span[5] - main_span[4])) < 1e-6


def test_tracer_survives_a_deleted_function(tmp_path, monkeypatch):
    monkeypatch.delattr(omitlab.util, "parallel_map")
    tracer = Tracer()
    assert "util.parallel_map" in tracer.absent
    with tracer.installed():
        _run(SPECTRUM, tmp_path, monkeypatch)
    assert tracer.self_times()["cli.main"][0] == 1


def test_workload_lists_depend_on_the_seed_alone():
    import workloads
    for name, make in workloads.WORKLOADS.items():
        assert make(random.Random(f"{name}:7")) == make(random.Random(f"{name}:7"))
    for seed in range(20):
        ops = workloads.WORKLOADS["maps-oracle"](random.Random(seed))
        deltas = [float(argv[2]) for kind, argv in ops if kind == "oracle"]
        # one known a0 failure and one known pass, from opposite halves
        assert sum(x in workloads.A0_FAILS for x in deltas) == 1
        assert sum(x in workloads.A0_PASSES for x in deltas) == 1
        assert min(deltas) < 1.0 <= max(deltas)
