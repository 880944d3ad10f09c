import math

import pytest

from rbmatch.estimators import recursive_estimate, step_length_correction
from rbmatch.montecarlo import (
    EdgePoint,
    ExperimentConfig,
    ExperimentKind,
    NetworkPoint,
    SegmentPoint,
    SummaryRecord,
    records_to_csv,
    records_to_json,
    relative_error_table,
    run_experiment,
)


def test_single_pair_mean_matches_analytic_third():
    cfg = ExperimentConfig(
        kind=ExperimentKind.SEGMENT,
        grid=(SegmentPoint(m=1, n=1),),
        replications=10_000,
        master_seed=7,
    )
    rec = run_experiment(cfg)[0]
    tolerance = 3.0 * rec.sim_std / math.sqrt(cfg.replications)
    assert abs(rec.sim_mean - 1.0 / 3.0) <= tolerance


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(ExperimentKind.SEGMENT, ())
    with pytest.raises(ValueError):
        ExperimentConfig(ExperimentKind.SEGMENT, (EdgePoint(1.0, 2.0, 1.0),))
    with pytest.raises(ValueError):
        ExperimentConfig(ExperimentKind.SEGMENT, (SegmentPoint(1, 1),), replications=0)


def test_grid_points_validate_and_name_the_point():
    with pytest.raises(ValueError, match=r"SegmentPoint\(m=3, n=2\)"):
        SegmentPoint(3, 2)
    with pytest.raises(ValueError, match=r"EdgePoint\(mu=1.5, lam=2.5, length=1.1\).*integral"):
        EdgePoint(mu=1.5, lam=2.5, length=1.1)
    with pytest.raises(ValueError, match=r"EdgePoint\(.*lam must be at least mu"):
        EdgePoint(mu=3.0, lam=2.0, length=1.0)
    # demand above supply would leave the network redraw loop without an exit
    with pytest.raises(ValueError, match=r"NetworkPoint\(degree=4, mu=10.*lam must be at least mu"):
        NetworkPoint(degree=4, mu=10.0, lam=5.0, length=1.0, edge_count=36)
    with pytest.raises(ValueError, match=r"NetworkPoint\(.*mu must be positive"):
        NetworkPoint(degree=4, mu=0.0, lam=5.0, length=1.0, edge_count=36)
    with pytest.raises(ValueError, match=r"NetworkPoint\(degree=5.*degree must be one of"):
        NetworkPoint(degree=5, mu=1.0, lam=2.0, length=1.0, edge_count=36)
    with pytest.raises(ValueError, match=r"NetworkPoint\(.*integral"):
        NetworkPoint(degree=4, mu=1.5, lam=2.0, length=1.0, edge_count=36)


def test_recursive_columns_share_one_table():
    grid = (SegmentPoint(3, 7), SegmentPoint(10, 13), SegmentPoint(50, 121))
    cfg = ExperimentConfig(ExperimentKind.SEGMENT, grid, replications=2, master_seed=1)
    for point, rec in zip(grid, run_experiment(cfg)):
        m, n = point.m, point.n
        est = rec.estimates
        assert est["recursive"] == est["recursive_uncorrected"] - step_length_correction(m, n)
        assert est["recursive"] == recursive_estimate(m, n).value
        assert est["recursive_uncorrected"] == recursive_estimate(m, n, apply_correction=False).value


def test_deterministic_reruns_and_worker_invariance():
    grid = (SegmentPoint(2, 4), SegmentPoint(3, 3), SegmentPoint(5, 9))
    kwargs = dict(kind=ExperimentKind.SEGMENT, grid=grid, replications=40, master_seed=99)
    first = records_to_csv(run_experiment(ExperimentConfig(**kwargs)))
    second = records_to_csv(run_experiment(ExperimentConfig(**kwargs)))
    parallel = records_to_csv(run_experiment(ExperimentConfig(**kwargs, workers=2)))
    assert first == second
    assert first == parallel


def test_estimator_attachment_by_kind():
    cfg = ExperimentConfig(
        ExperimentKind.SEGMENT, (SegmentPoint(2, 2), SegmentPoint(2, 5)), replications=5,
        master_seed=0,
    )
    balanced, unbalanced = run_experiment(cfg)
    assert set(balanced.estimates) == {"balanced", "baseline"}
    assert set(unbalanced.estimates) == {
        "baseline",
        "closed",
        "closed_uncorrected",
        "recursive",
        "recursive_uncorrected",
    }
    edge_cfg = ExperimentConfig(
        ExperimentKind.EDGE, (EdgePoint(mu=2.0, lam=3.0, length=1.0),), replications=5,
        master_seed=0,
    )
    (edge_rec,) = run_experiment(edge_cfg)
    assert set(edge_rec.estimates) == {"edge", "dispatch"}
    net_cfg = ExperimentConfig(
        ExperimentKind.NETWORK,
        (NetworkPoint(degree=4, mu=1.0, lam=2.0, length=1.0, edge_count=36),),
        replications=3,
        master_seed=0,
    )
    (net_rec,) = run_experiment(net_cfg)
    assert set(net_rec.estimates) == {"edge", "dispatch", "network"}
    assert "resampled" in net_rec.meta and "alpha" in net_rec.meta


def test_relative_errors_definition():
    cfg = ExperimentConfig(
        ExperimentKind.SEGMENT, (SegmentPoint(4, 4),), replications=20, master_seed=3
    )
    rec = run_experiment(cfg)[0]
    for name, value in rec.estimates.items():
        assert rec.rel_errors[name] == pytest.approx(
            (value - rec.sim_mean) / rec.sim_mean
        )
        assert math.isfinite(rec.rel_errors[name])


def test_relative_error_table_trivial_and_aggregate():
    rec = SummaryRecord(
        kind=ExperimentKind.SEGMENT,
        params={"m": 1, "n": 1},
        sim_mean=0.25,
        sim_std=0.0,
        estimates={"balanced": 0.25},
        rel_errors={"balanced": 0.0},
    )
    assert relative_error_table([rec]) == {"balanced": 0.0}
    rec2 = SummaryRecord(
        kind=ExperimentKind.SEGMENT,
        params={"m": 1, "n": 2},
        sim_mean=0.2,
        sim_std=0.0,
        estimates={"balanced": 0.3},
        rel_errors={"balanced": 0.5},
    )
    assert relative_error_table([rec, rec2]) == {"balanced": 0.25}
    with pytest.raises(ValueError):
        relative_error_table([])


def test_balanced_estimator_beats_baseline_at_moderate_size():
    # the closed form tracks simulation closely at n = m = 100 while the
    # prior-work double sum lands roughly 40-50% low
    cfg = ExperimentConfig(
        ExperimentKind.SEGMENT, (SegmentPoint(100, 100),), replications=100, master_seed=11
    )
    rec = run_experiment(cfg)[0]
    assert abs(rec.rel_errors["balanced"]) < 0.10
    assert 0.30 <= abs(rec.rel_errors["baseline"]) <= 0.55


def test_csv_and_json_schemas():
    cfg = ExperimentConfig(
        ExperimentKind.SEGMENT, (SegmentPoint(2, 2), SegmentPoint(2, 4)), replications=5,
        master_seed=1,
    )
    records = run_experiment(cfg)
    text = records_to_csv(records)
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["kind", "m", "n", "sim_mean", "sim_std"]
    assert "est_balanced" in header and "relerr_balanced" in header
    assert "est_recursive" in header and "replications" in header
    assert len(lines) == 3
    # empty cells where an estimator does not apply
    first = dict(zip(header, lines[1].split(",")))
    assert first["est_recursive"] == ""
    import json

    payload = json.loads(records_to_json(records))
    assert len(payload) == 2
    assert payload[0]["kind"] == "segment"
    assert payload[1]["estimates"]["recursive"] > 0


def test_network_records_report_resampling():
    cfg = ExperimentConfig(
        ExperimentKind.NETWORK,
        (NetworkPoint(degree=4, mu=5.0, lam=5.0, length=1.0, edge_count=36),),
        replications=10,
        master_seed=4,
    )
    rec = run_experiment(cfg)[0]
    assert rec.meta["resampled"] >= 0
    assert rec.sim_mean > 0
