import json

import pytest

from entswap.cli import run


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_swap_werner_perfect(capsys):
    code, payload = run_json(capsys, ["swap", "--family", "werner", "--p", "1,1", "--eta", "1"])
    assert code == 0
    assert payload["c_in"] == [1.0, 1.0]
    assert payload["c_out"] == pytest.approx(1.0, abs=1e-9)
    assert payload["f_out"] == pytest.approx(1.0, abs=1e-9)
    T = payload["final_state_bloch"]["T"]
    assert len(T) == 3 and len(T[0]) == 3
    assert payload["final_state_bloch"]["r"] == pytest.approx([0, 0, 0], abs=1e-9)


def test_swap_at_eta_threshold(capsys):
    code, payload = run_json(
        capsys, ["swap", "--family", "werner", "--p", "1,1", "--eta", "0.6666666667"]
    )
    assert code == 0
    assert payload["c_out"] <= 1e-9


def test_swap_bds_bell_links(capsys):
    code, payload = run_json(
        capsys, ["swap", "--family", "bds", "--t", "(1,-1,1);(1,-1,1)", "--eta", "1"]
    )
    assert code == 0
    assert payload["c_out"] == pytest.approx(1.0, abs=1e-9)


def test_swap_povm_mode(capsys):
    code, payload = run_json(
        capsys,
        ["swap", "--family", "werner", "--p", "1,1", "--eta", "0.5", "--mode", "povm"],
    )
    assert code == 0
    # povm mixing keeps visibility eta p1 p2 = 0.5, so C = (3*0.5 - 1)/2
    assert payload["c_out"] == pytest.approx(0.25, abs=1e-9)


def test_swap_usage_errors(capsys):
    assert run(["swap", "--family", "werner", "--p", "1,1,1"]) == 2
    assert run(["swap", "--family", "werner"]) == 2
    assert run(["swap", "--family", "bds", "--t", "1,-1,1"]) == 2
    assert run(["swap", "--family", "general", "--p", "1,1"]) == 2
    assert run(["swap", "--family", "werner", "--p", "1,1", "--eta", "1.5"]) == 2
    capsys.readouterr()


def test_non_finite_input_is_a_usage_error(capsys):
    assert run(["swap", "--family", "bds", "--t", "(nan,0,0);(1,-1,1)"]) == 2
    assert run(["swap", "--family", "werner", "--p", "nan,0.5"]) == 2
    assert run(["chain", "--family", "bds", "--t", "(inf,0,0);(1,-1,1)", "--etas", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_chain_closedform_example(capsys):
    code, payload = run_json(
        capsys, ["chain", "--family", "werner", "--p", "0.9,0.9,0.9", "--etas", "1,1"]
    )
    assert code == 0
    assert payload["c_out"] == pytest.approx(0.5935, abs=1e-9)


def test_chain_swap_count_limit(capsys):
    code, payload = run_json(
        capsys, ["chain", "--family", "werner", "--p", "1,1,1", "--etas", "0.85,0.85"]
    )
    assert code == 0
    assert payload["c_out"] > 0
    code, payload = run_json(
        capsys, ["chain", "--family", "werner", "--p", "1,1,1,1", "--etas", "0.85,0.85,0.85"]
    )
    assert code == 0
    assert payload["c_out"] == 0.0


def test_chain_engines_agree(capsys):
    argv = ["chain", "--family", "bds", "--t", "(0.8,-0.7,0.6);(0.9,-0.5,0.4);(0.7,-0.6,0.5)",
            "--etas", "0.9,0.95"]
    code, closed = run_json(capsys, argv + ["--engine", "closedform"])
    assert code == 0
    code, oracle = run_json(capsys, argv + ["--engine", "oracle"])
    assert code == 0
    assert closed["c_out"] == pytest.approx(oracle["c_out"], abs=1e-9)
    assert closed["f_out"] == pytest.approx(oracle["f_out"], abs=1e-9)
    for row_c, row_o in zip(closed["final_state_bloch"]["T"], oracle["final_state_bloch"]["T"]):
        assert row_c == pytest.approx(row_o, abs=1e-9)


def test_chain_usage_errors(capsys):
    assert run(["chain", "--family", "werner", "--p", "1,1,1", "--etas", "1"]) == 2
    assert run(["chain", "--family", "werner", "--p", "1", "--etas", ""]) == 2
    assert run(["chain", "--family", "werner", "--p", "1,1", "--etas", "1",
                "--mode", "povm", "--engine", "closedform"]) == 2
    capsys.readouterr()


def test_threshold_outputs(capsys):
    code, payload = run_json(capsys, ["threshold", "--max-swaps", "0.99"])
    assert code == 0
    assert payload["n_max"] == 27
    code, payload = run_json(capsys, ["threshold", "--max-swaps", "0.85"])
    assert payload["n_max"] == 2
    code, payload = run_json(capsys, ["threshold", "--max-swaps", "1", "--p", "1"])
    assert payload["n_max"] == "unbounded"
    code, payload = run_json(capsys, ["threshold", "--eta-star"])
    assert code == 0
    assert payload["eta_star"] == pytest.approx(2 / 3, abs=1e-12)


def test_threshold_usage_errors(capsys):
    assert run(["threshold"]) == 2
    assert run(["threshold", "--eta-star", "--max-swaps", "0.9"]) == 2
    assert run(["threshold", "--max-swaps", "0.9", "--p", "0.2"]) == 2
    capsys.readouterr()


def test_unknown_subcommand(capsys):
    assert run(["teleport"]) == 2
    capsys.readouterr()


def sweep_config(tmp_path, **overrides):
    config = {
        "family": "werner",
        "mode": "random",
        "sample_count": 25,
        "n_repeaters": 1,
        "eta_spec": [0.8, 1.0],
        "seed": 7,
        "engine": "closedform",
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_sweep_writes_deterministic_files(tmp_path, capsys):
    config = sweep_config(tmp_path)
    out_a, sum_a = tmp_path / "a.csv", tmp_path / "a.json"
    out_b, sum_b = tmp_path / "b.csv", tmp_path / "b.json"
    assert run(["sweep", "--config", str(config), "--out", str(out_a), "--summary", str(sum_a)]) == 0
    assert run(["sweep", "--config", str(config), "--out", str(out_b), "--summary", str(sum_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert sum_a.read_bytes() == sum_b.read_bytes()
    summary = json.loads(sum_a.read_text(encoding="utf-8"))
    assert summary["totals"]["samples"] == 50


def test_sweep_grid_matches_product_threshold(tmp_path, capsys):
    config = sweep_config(tmp_path, mode="grid", grid_steps=10, sample_count=None, eta_spec=1.0)
    out, summary_path = tmp_path / "grid.csv", tmp_path / "grid.json"
    assert run(["sweep", "--config", str(config), "--out", str(out), "--summary", str(summary_path)]) == 0
    capsys.readouterr()
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 101
    for line in lines[1:]:
        fields = line.split(",")
        p1, p2 = (float(x) for x in fields[3].split(";"))
        assert (fields[9] == "true") == (p1 * p2 > 1 / 3)


def test_sweep_config_errors(tmp_path, capsys):
    config = sweep_config(tmp_path, family="general")
    assert run(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv"),
                "--summary", str(tmp_path / "x.json")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["sweep", "--config", str(bad), "--out", str(tmp_path / "y.csv"),
                "--summary", str(tmp_path / "y.json")]) == 2

    assert run(["sweep", "--config", str(tmp_path / "missing.json"),
                "--out", str(tmp_path / "z.csv"), "--summary", str(tmp_path / "z.json")]) == 2
    capsys.readouterr()


def test_sweep_io_error(tmp_path, capsys):
    config = sweep_config(tmp_path)
    assert run(["sweep", "--config", str(config),
                "--out", str(tmp_path / "no-such-dir" / "out.csv"),
                "--summary", str(tmp_path / "s.json")]) == 3
    capsys.readouterr()


def test_validate_passes_at_sane_tolerance(capsys):
    code, payload = run_json(capsys, ["validate", "--samples", "100", "--seed", "42", "--tol", "1e-9"])
    assert code == 0
    assert payload["passed"] is True
    assert payload["werner_max_deviation"] <= 1e-9
    assert payload["bds_max_deviation"] <= 1e-9
    assert payload["normalization_max_deviation"] <= 1e-9


def test_validate_fails_at_zero_tolerance(capsys):
    code, payload = run_json(capsys, ["validate", "--samples", "50", "--seed", "1", "--tol", "0"])
    assert code == 1
    assert payload["passed"] is False
    assert payload["werner_max_deviation"] > 0


def test_validate_rejects_zero_samples(capsys):
    assert run(["validate", "--samples", "0"]) == 2
    capsys.readouterr()
