import json

import pytest

from rbmatch import cli
from rbmatch.cli import main
from rbmatch.montecarlo import (
    EdgePoint,
    ExperimentConfig,
    ExperimentKind,
    NetworkPoint,
    SegmentPoint,
    records_to_csv,
    records_to_json,
    run_experiment,
)


def test_estimate_balanced_segment(capsys):
    assert main(["estimate", "--segment", "100", "100"]) == 0
    out = capsys.readouterr().out
    assert "method=balanced" in out
    assert "0.0443" in out


def test_estimate_closed_uncorrected(capsys):
    assert main(["estimate", "--segment", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert "method=closed_uncorrected value=0.3333333333" in out


def test_estimate_all_methods(capsys):
    assert main(["estimate", "--segment", "3", "7"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert names == [
        f"method={name}"
        for name in ("baseline", "closed", "closed_uncorrected", "recursive", "recursive_uncorrected")
    ]


def _printed_estimates(out: str) -> dict:
    """``method=<name> value=<v>`` lines as {name: printed value}."""
    pairs = [line.removeprefix("method=").split(" value=") for line in out.splitlines()]
    assert all(len(pair) == 2 for pair in pairs), out
    return dict(pairs)


@pytest.mark.parametrize(
    "argv, kind, point",
    [
        (["--segment", "1", "2"], ExperimentKind.SEGMENT, SegmentPoint(1, 2)),
        (["--segment", "3", "3"], ExperimentKind.SEGMENT, SegmentPoint(3, 3)),
        (["--segment", "50", "60"], ExperimentKind.SEGMENT, SegmentPoint(50, 60)),
        (["--edge", "10", "11", "1"], ExperimentKind.EDGE, EdgePoint(10.0, 11.0, 1.0)),
        (["--edge", "10", "30", "1"], ExperimentKind.EDGE, EdgePoint(10.0, 30.0, 1.0)),
        (["--edge", "4", "4", "2.5"], ExperimentKind.EDGE, EdgePoint(4.0, 4.0, 2.5)),
        (["--network", "3", "5", "5", "1"], ExperimentKind.NETWORK, NetworkPoint(3, 5.0, 5.0, 1.0, 36)),
        (["--network", "4", "5", "25", "1"], ExperimentKind.NETWORK, NetworkPoint(4, 5.0, 25.0, 1.0, 36)),
        (["--network", "6", "4", "4", "2.5"], ExperimentKind.NETWORK, NetworkPoint(6, 4.0, 4.0, 2.5, 36)),
        (["--network", "6", "5", "10", "1"], ExperimentKind.NETWORK, NetworkPoint(6, 5.0, 10.0, 1.0, 36)),
    ],
)
def test_estimate_prints_the_simulate_columns(capsys, argv, kind, point):
    assert main(["estimate", *argv]) == 0
    out = capsys.readouterr().out
    if kind is ExperimentKind.NETWORK:  # the last line holds the network estimate's parts
        out, parts = out.rstrip("\n").rsplit("\n", 1)
        assert parts.startswith("  alpha=")
    printed = _printed_estimates(out)
    assert list(printed) == sorted(printed)
    (record,) = run_experiment(ExperimentConfig(kind, (point,), replications=1))
    assert printed == {name: f"{value:.10g}" for name, value in record.estimates.items()}


def test_estimate_network_reports_parts(capsys):
    assert main(["estimate", "--network", "4", "5", "25", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "method=network value=0.02150340008" in lines
    (parts,) = [line for line in lines if "alpha=" in line]
    assert parts == "  alpha=1.56228e-05 local=0.0215024 d1=0.0429193 d2=6.3613e-12 d3=0.040004"


def test_estimate_edge_dispatch(capsys):
    assert main(["estimate", "--edge", "10", "30", "1"]) == 0
    out = capsys.readouterr().out
    assert _printed_estimates(out) == {"dispatch": "0.01666666667", "edge": "0.02024373168"}


def test_invalid_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--segment", "5", "2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--edge", "3", "2", "1"])  # supply density below demand
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["compare", "--preset", "fig9"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["simulate", "segment", "--m", "5"])  # missing --n
    assert err.value.code == 2


def test_invalid_run_settings_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["compare", "--preset", "fig5", "--reps", "0"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["simulate", "edge", "--mu", "1.5", "--lam", "2.5", "--length", "1.1"])
    assert err.value.code == 2
    assert "EdgePoint(mu=1.5, lam=2.5, length=1.1)" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["simulate", "network", "--degree", "4", "--mu", "10", "--lam", "5", "--reps", "1"])
    assert err.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["simulate", "network", "--degree", "4", "--mu", "5", "--lam", "5", "--edges", "7"])
    assert err.value.code == 2
    assert "edge_count=7" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["compare", "--preset", "fig4a", "--reps", "1", "--seed", "-1"])
    assert err.value.code == 2
    assert "master_seed must be an integer of at least 0, got -1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["simulate", "segment", "--m", "2", "--n", "3", "--reps", "1", "--seed", "-5"])
    assert err.value.code == 2
    assert "master_seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["estimate", "--edge", "1", "inf", "1"], "lam"),
        (["estimate", "--edge", "1", "2", "inf"], "length"),
        (["estimate", "--edge", "1", "nan", "1"], "lam"),
        (["estimate", "--network", "4", "5", "inf", "1"], "lam"),
        (["simulate", "edge", "--mu", "1", "--lam", "inf", "--reps", "1"], "lam"),
        # finite densities and lengths whose point counts overflow
        (["estimate", "--edge", "1e308", "1e308", "10"], "lam*length"),
        (["simulate", "edge", "--mu", "1e200", "--lam", "1e200", "--length", "1e200"], "lam*length"),
        (["estimate", "--network", "4", "1e200", "1e200", "1e200"], "lam*length"),
    ],
)
def test_non_finite_edge_values_exit_two(capsys, argv, field):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"{field} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("degree", ["4.5", "nan", "inf"])
def test_non_integral_network_degree_exits_two(capsys, degree):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--network", degree, "5", "10", "1"])
    assert err.value.code == 2
    assert "--network degree must be an integer" in capsys.readouterr().err


_SEGMENT = ["simulate", "segment", "--m", "2", "--n", "3", "--reps", "3"]
_EDGE = ["simulate", "edge", "--mu", "2", "--lam", "3", "--reps", "3"]
_NETWORK = ["simulate", "network", "--degree", "4", "--mu", "5", "--lam", "5", "--reps", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_SEGMENT + ["--length", "5"], "unrecognized arguments: --length 5"),
        (_SEGMENT + ["--mu", "1"], "unrecognized arguments: --mu 1"),
        (_SEGMENT + ["--lam", "1"], "unrecognized arguments: --lam 1"),
        (_SEGMENT + ["--degree", "4"], "unrecognized arguments: --degree 4"),
        (_SEGMENT + ["--edges", "7"], "unrecognized arguments: --edges 7"),
        (_SEGMENT + ["--kappa", "0"], "unrecognized arguments: --kappa 0"),
        (_EDGE + ["--m", "2"], "unrecognized arguments: --m 2"),
        (_EDGE + ["--n", "3"], "unrecognized arguments: --n 3"),
        (_EDGE + ["--degree", "4"], "unrecognized arguments: --degree 4"),
        (_EDGE + ["--edges", "7"], "unrecognized arguments: --edges 7"),
        (_EDGE + ["--kappa", "0"], "unrecognized arguments: --kappa 0"),
        (_NETWORK + ["--m", "2"], "unrecognized arguments: --m 2"),
        (_NETWORK + ["--n", "3"], "unrecognized arguments: --n 3"),
        (["estimate", "--segment", "2", "3", "--kappa", "0"], "unrecognized arguments: --kappa 0"),
        (["estimate", "--network", "4", "5", "25", "1", "--kappa", "10"], "unrecognized arguments: --kappa 10"),
        (_SEGMENT + ["--format", "json"], "unrecognized arguments: --format json"),
        (["compare", "--preset", "fig4b", "--format", "json"], "unrecognized arguments: --format json"),
        (["simulate", "segment", "--n", "3"], "the following arguments are required: --m"),
        (["simulate", "edge", "--mu", "2"], "the following arguments are required: --lam"),
        (["simulate", "network", "--mu", "5", "--lam", "5"], "arguments are required: --degree"),
        (["simulate"], "the following arguments are required: kind"),
    ],
)
def test_inapplicable_or_missing_flags_exit_two(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["estimate", "--segment", "5", "2"], "rbmatch estimate"),
        (["estimate", "--network", "5", "5", "25", "1"], "rbmatch estimate"),
        (["simulate", "segment", "--m", "5", "--n", "3", "--reps", "1"], "rbmatch simulate segment"),
        (_EDGE + ["--m", "2"], "rbmatch simulate edge"),
        (["simulate", "network", "--degree", "4", "--mu", "10", "--lam", "5"], "rbmatch simulate network"),
        (["compare", "--preset", "fig4b", "--reps", "2", "--workers", "0"], "rbmatch compare"),
    ],
)
def test_usage_error_prints_the_subcommand_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: {usage} [-h]")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_worker_counts_below_one_exit_two(capsys, workers):
    flags = ["--workers", workers]
    argv = ["simulate", "segment", "--m", "2", "--n", "3", "--reps", "2"] + flags
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"workers must be an integer of at least 1, got {workers}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["compare", "--preset", "fig5", "--reps", "1"] + flags)
    assert err.value.code == 2
    assert f"workers must be an integer of at least 1, got {workers}" in capsys.readouterr().err


def test_simulate_deterministic_output(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["simulate", "segment", "--m", "2", "--n", "2,4", "--reps", "30", "--seed", "5"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2), "--workers", "2"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("kind,m,n,sim_mean,sim_std")


def test_csv_table_and_estimate_share_one_column_order(tmp_path, capsys):
    # the first point, (2, 3), is unbalanced: first appearance would put
    # est_balanced last, name order puts it first
    out = tmp_path / "mixed.csv"
    argv = ["simulate", "segment", "--m", "2,3", "--n", "3,5", "--reps", "2", "--out", str(out)]
    assert main(argv) == 0
    table_header = capsys.readouterr().out.splitlines()[0].split()
    names = []
    for point in (["2", "3"], ["3", "3"]):
        assert main(["estimate", "--segment", *point]) == 0
        names += _printed_estimates(capsys.readouterr().out)
    order = sorted(set(names))
    assert order[0] == "balanced"
    assert table_header == ["m", "n", "sim_mean", "sim_std", *order]
    csv_header = out.read_text().splitlines()[0].split(",")
    assert csv_header == [
        "kind", "m", "n", "sim_mean", "sim_std",
        *(f"est_{name}" for name in order),
        *(f"relerr_{name}" for name in order),
        "replications",
    ]


def test_unwritable_out_exits_two_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(cfg):
        raise AssertionError("run_experiment reached")

    monkeypatch.setattr(cli, "run_experiment", no_sweep)
    for out in (tmp_path / "missing" / "x.csv", tmp_path, ""):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "segment", "--m", "2", "--n", "3", "--reps", "2", "--out", str(out)])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith("usage: rbmatch simulate segment")
        assert f"--out {out}" in stderr


def test_failed_sweep_leaves_out_untouched(tmp_path, capsys, monkeypatch):
    def failing_sweep(cfg):
        raise RuntimeError("sweep failed")

    monkeypatch.setattr(cli, "run_experiment", failing_sweep)
    out = tmp_path / "x.csv"
    out.write_text("kept")
    assert main(["compare", "--preset", "fig4b", "--reps", "2", "--out", str(out)]) == 1
    assert "error: sweep failed" in capsys.readouterr().err
    assert out.read_text() == "kept"


def test_simulate_json_format(tmp_path, capsys):
    out = tmp_path / "records.json"
    argv = [
        "simulate", "edge", "--mu", "2", "--lam", "2,4", "--length", "1",
        "--reps", "10", "--seed", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert len(payload) == 2
    assert payload[0]["params"] == {"mu": 2.0, "lam": 2.0, "length": 1.0}


@pytest.mark.parametrize(
    "name, as_json",
    [
        ("x.json", True), ("X.JSON", True), ("x.Json", True),
        ("x.csv", False), ("x", False), ("x.json.csv", False),
    ],
)
def test_out_suffix_picks_the_format(tmp_path, capsys, name, as_json):
    out = tmp_path / name
    argv = ["simulate", "segment", "--m", "2", "--n", "2,4", "--reps", "3", "--seed", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    cfg = ExperimentConfig(ExperimentKind.SEGMENT, (SegmentPoint(2, 2), SegmentPoint(2, 4)), 3, 5)
    records = run_experiment(cfg)
    assert out.read_text() == (records_to_json(records) if as_json else records_to_csv(records))


def test_simulate_rejects_bad_grid(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "segment", "--m", "5", "--n", "3", "--reps", "5"])
    assert err.value.code == 2


def test_compare_small_network_preset(tmp_path, capsys):
    out = tmp_path / "fig6.csv"
    assert main(["compare", "--preset", "fig6", "--reps", "1", "--seed", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert len(lines) == 16  # 3 degrees x 5 supply densities
    assert "est_network" in lines[0]


def test_compare_table_on_stdout(capsys):
    assert main(["compare", "--preset", "fig4b", "--reps", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "sim_mean" in out
    assert len(out.splitlines()) == 16  # header + 15 supply counts
