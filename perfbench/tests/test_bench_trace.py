import pytest

import layertrace
import workloads


def test_self_time_subtracts_only_direct_children():
    # 0: [0, 10] has children 1: [1, 4] and 2: [5, 6]; 3: [2, 3] is a child of 1.
    parents = [-1, 0, 0, 1]
    starts = [0.0, 1.0, 5.0, 2.0]
    ends = [10.0, 4.0, 6.0, 3.0]
    assert layertrace.self_times(parents, starts, ends) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    parents = [-1, 0, 0]
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 4.0, 5.0]
    assert layertrace.self_times(parents, starts, ends)[0] == pytest.approx(6.0)


def test_wrapped_decompose_counts_grid_points_times_trials(tiny_config, run_sweep):
    from otfslink import link_sim, precoding

    original = link_sim.decompose
    tracer = layertrace.Tracer()
    with tracer:
        assert link_sim.decompose is not original
        assert precoding.decompose is link_sim.decompose
        run_sweep(tiny_config)
    assert link_sim.decompose is original and precoding.decompose is original

    summary = tracer.summary()
    assert summary["precoding.decompose"]["calls"] == workloads.links_per_sweep(tiny_config) == 6
    assert summary["cli.main"]["calls"] == 1
    assert summary["cli.parse_config"]["calls"] == 1
    assert tracer.counters["precoding.rank_min"] == 8
    assert 0 < tracer.counters["precoding.cond_min"] <= 1
    assert tracer.counters["channel.h_mib"] == pytest.approx(6 * 8 * 8 * 16 / 2**20)
    # Every span nests inside cli.main, so the self times add up to its duration.
    total_self = sum(entry["self_s"] for entry in summary.values())
    assert total_self == pytest.approx(summary["cli.main"]["total_s"], rel=1e-9)


def test_report_fails_when_a_listed_layer_metric_is_missing():
    import argparse

    import run

    spec = {"per_layer": [{"name": "precoding.decompose.calls", "unit": "count", "better": "lower"}]}
    res = {"sweeps": [{"kind": "traced", "links": 1, "failed": 0, "problems": []}],
           "env": dict.fromkeys(("python", "numpy", "scipy", "blas", "nproc", "blas_threads"), "?"),
           "reference": True, "traced_sweep_s": 1.0,
           "layers": {"trace.overhead_ratio": 1.0, "modem.erasures": 0}}
    args = argparse.Namespace(workload="grid16", seed=0, trace=1)
    with pytest.raises(run.BenchError, match="precoding.decompose.calls"):
        run.report(args, spec, [], res)
