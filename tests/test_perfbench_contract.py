"""The benchmark in perfbench/ still finds every name it traces and reads.

The tracer reads its span targets at import and checks by identity after
each traced iteration that the real functions are bound again, so a refactor
that drops one of those names makes the benchmark crash, not just slow down.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_tracer_imports_and_finds_the_real_functions_bound():
    assert tracer._pristine()


def test_tracer_install_and_restore_round_trip():
    t = tracer.Tracer()
    t.install()
    t.restore()
    assert tracer._pristine()


def test_workload_config_loads_with_a_seed_override():
    cfg = workloads.load_config(workloads.WORKLOADS["edge-1080p"], 0)
    assert cfg.seed == 0 and cfg.name == "edge-nominal"
