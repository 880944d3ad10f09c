import json

import pytest

from rbmatch.cli import main


def test_estimate_balanced_segment(capsys):
    assert main(["estimate", "--segment", "100", "100"]) == 0
    out = capsys.readouterr().out
    assert "method=balanced" in out
    assert "0.0443" in out


def test_estimate_closed_uncorrected(capsys):
    assert main(["estimate", "--segment", "1", "2", "--method", "closed", "--no-correction"]) == 0
    out = capsys.readouterr().out
    assert "0.3333333333" in out
    assert "corrected=false" in out


def test_estimate_all_methods(capsys):
    assert main(["estimate", "--segment", "3", "7", "--method", "all"]) == 0
    out = capsys.readouterr().out
    assert "method=closed" in out and "method=recursive" in out and "method=baseline" in out


def test_estimate_network_reports_parts(capsys):
    assert main(["estimate", "--network", "4", "5", "25", "1"]) == 0
    out = capsys.readouterr().out
    assert "method=network" in out
    value = float(out.splitlines()[0].split("value=")[1])
    assert value > 0
    alpha = float(out.splitlines()[1].split("alpha=")[1].split()[0])
    assert alpha < 0.01


def test_estimate_edge_dispatch(capsys):
    assert main(["estimate", "--edge", "10", "30", "1"]) == 0
    out = capsys.readouterr().out
    assert "0.01666666667" in out


def test_invalid_flags_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--segment", "5", "2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--edge", "3", "2", "1"])  # supply density below demand
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--segment", "2", "3", "--method", "dispatch"])
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
        main(["simulate", "network", "--degree", "4", "--mu", "5", "--lam", "10", "--kappa", "0", "--reps", "1"])
    assert err.value.code == 2
    assert "kappa=0" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["compare", "--preset", "fig4a", "--reps", "1", "--seed", "-1"])
    assert err.value.code == 2
    assert "master_seed must be a nonnegative integer, got -1" in capsys.readouterr().err
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
    ],
)
def test_non_finite_edge_values_exit_two(capsys, argv, field):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"{field} must be finite" in capsys.readouterr().err


def test_method_balanced_needs_equal_counts(capsys):
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--segment", "3", "5", "--method", "balanced"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "--method balanced requires M == N" in captured.err
    assert captured.out == ""
    with pytest.raises(SystemExit) as err:
        main(["estimate", "--segment", "4", "4", "--method", "recursive"])
    assert err.value.code == 2
    assert "--method recursive requires M < N" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_worker_counts_below_one_exit_two(capsys, workers):
    flags = ["--workers", workers]
    argv = ["simulate", "segment", "--m", "2", "--n", "3", "--reps", "2"] + flags
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--workers must be at least 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        main(["compare", "--preset", "fig5", "--reps", "1"] + flags)
    assert err.value.code == 2


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


def test_simulate_json_format(tmp_path, capsys):
    out = tmp_path / "records.json"
    argv = [
        "simulate", "edge", "--mu", "2", "--lam", "2,4", "--length", "1",
        "--reps", "10", "--seed", "1", "--out", str(out), "--format", "json",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert len(payload) == 2
    assert payload[0]["params"] == {"mu": 2.0, "lam": 2.0, "length": 1.0}


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
