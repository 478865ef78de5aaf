import concurrent.futures
import csv
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ghzdfs import cli

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASE_N2 = """
protocol.n = 2
coupling.mu1 = 2pi*10 MHz
coupling.mu1_prime = 2pi*10 MHz
coupling.mu = 2pi*10 MHz
coupling.mu_prime = 2pi*10 MHz
coupling.delta = 2pi*100 MHz
coupling.delta_prime = auto
run.alpha = 0.7071067811865476
run.beta = 0.7071067811865476
"""


def write_config(tmp_path: Path, text: str, name: str = "test.cfg") -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


# -- quantity parsing ------------------------------------------------------------


def test_parse_quantity_forms():
    assert cli.parse_quantity("2pi*10 MHz") == pytest.approx(2 * math.pi * 10e6)
    assert cli.parse_quantity("2pi*5 GHz") == pytest.approx(2 * math.pi * 5e9)
    assert cli.parse_quantity("6.28e7 rad/s") == pytest.approx(6.28e7)
    assert cli.parse_quantity("10 ns") == pytest.approx(1e-8)
    assert cli.parse_quantity("2 us") == pytest.approx(2e-6)
    assert cli.parse_quantity("5e5") == pytest.approx(5e5)


def test_parse_quantity_rejects_bare_frequency_unit():
    with pytest.raises(cli.ConfigError, match="ambiguous"):
        cli.parse_quantity("10 MHz")


# -- run ----------------------------------------------------------------------------


def test_run_reference_config_ideal(tmp_path):
    out = tmp_path / "run.csv"
    code = cli.main(["run", "--config", str(CONFIG_DIR / "flux_transmon_n3.cfg"),
                     "--out", str(out), "--mode", "ideal"])
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1
    rec = rows[0]
    assert rec["fidelity"] == "1.000000"
    assert float(rec["total_time"]) == pytest.approx(6.18e-7, rel=1e-9)
    assert float(rec["p_estimate"]) == pytest.approx(4 / 104, rel=1e-9)
    assert float(rec["kappa_inv"]) == pytest.approx(15.9e-6, rel=0.01)
    # the record carries the fully resolved parameter set
    assert float(rec["delta_prime"]) == pytest.approx(2 * math.pi * 100e6, rel=1e-9)
    assert rec["mode"] == "ideal" and rec["n"] == "3"


def test_run_malformed_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "protocol.n 3\n")
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_run_unknown_key_exits_2(tmp_path):
    path = write_config(tmp_path, BASE_N2 + "protocol.qubits = 3\n")
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG


def test_run_missing_file_exits_2(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == cli.EXIT_CONFIG


def test_run_commensurability_violation_exits_2(tmp_path):
    path = write_config(tmp_path, BASE_N2.replace(
        "coupling.delta_prime = auto", "coupling.delta_prime = 2pi*110 MHz"))
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG


def test_run_random_coefficients_are_seeded(tmp_path):
    cfg = BASE_N2.replace("run.alpha = 0.7071067811865476", "run.coeffs = random:3")
    path = write_config(tmp_path, cfg.replace("run.beta = 0.7071067811865476", ""))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["run", "--config", path, "--out", str(out_a), "--seed", "5"]) == 0
    assert cli.main(["run", "--config", path, "--out", str(out_b), "--seed", "5"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = read_csv(out_a)
    assert len(rows) == 3
    for rec in rows:
        assert rec["fidelity"] == "1.000000"


def test_run_simulation_failure_exits_1(tmp_path, monkeypatch):
    def boom(*_args, **_kwargs):
        raise RuntimeError("integrator fell over")

    monkeypatch.setattr(cli, "run_transfer", boom)
    path = write_config(tmp_path, BASE_N2)
    assert cli.main(["run", "--config", path]) == cli.EXIT_SIMULATION


def test_run_json_mirrors_csv(tmp_path):
    path = write_config(tmp_path, BASE_N2)
    out_csv, out_json = tmp_path / "r.csv", tmp_path / "r.json"
    assert cli.main(["run", "--config", path, "--out", str(out_csv)]) == 0
    assert cli.main(["run", "--config", path, "--out", str(out_json),
                     "--format", "json"]) == 0
    csv_rec = read_csv(out_csv)[0]
    json_rec = json.loads(out_json.read_text())[0]
    assert list(json_rec.keys()) == list(cli.RUN_COLUMNS) == list(csv_rec.keys())
    assert json_rec["fidelity"] == pytest.approx(float(csv_rec["fidelity"]), abs=1e-6)
    assert json_rec["total_time"] == pytest.approx(float(csv_rec["total_time"]))


def test_run_oversized_register_exits_2_before_allocating(tmp_path, capsys):
    path = write_config(tmp_path, BASE_N2.replace("protocol.n = 2", "protocol.n = 5"))
    start = time.perf_counter()
    assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG
    assert time.perf_counter() - start < 5.0
    assert "MiB limit" in capsys.readouterr().err


@pytest.mark.parametrize("n, cutoff, fits", [(4, 2, True), (4, 3, True), (5, 1, False),
                                             (5, 2, False), (10**9, 2, False)])
def test_register_size_guard_at_the_config_boundary(n, cutoff, fits):
    entries = cli.parse_config(CONFIG_DIR / "flux_transmon_n3.cfg")
    entries.update({"protocol.n": str(n), "protocol.fock_cutoff": str(cutoff)})
    if fits:
        assert cli.resolve_params(entries).n == n
    else:
        with pytest.raises(cli.ConfigError, match="MiB limit"):
            cli.resolve_params(entries)


def test_run_full_mode_fock_cutoff_convergence(tmp_path):
    # truncation-convergence oracle: raising the cutoff must not move the
    # full-dynamics fidelity (the interaction conserves total excitation)
    base = BASE_N2.replace("protocol.n = 2", "protocol.n = 3")
    fidelities = []
    for cutoff in (2, 3):
        path = write_config(tmp_path, base + f"protocol.fock_cutoff = {cutoff}\n",
                            name=f"cut{cutoff}.cfg")
        out = tmp_path / f"cut{cutoff}.csv"
        assert cli.main(["run", "--config", path, "--out", str(out),
                         "--mode", "full"]) == 0
        rec = read_csv(out)[0]
        assert rec["fock_cutoff"] == str(cutoff)
        fidelities.append(float(rec["fidelity"]))
    assert abs(fidelities[0] - fidelities[1]) < 1e-3


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "ghzdfs", "run", "--config",
         str(CONFIG_DIR / "flux_transmon_n3.cfg"), "--mode", "ideal"],
        capture_output=True, text=True, check=False)
    assert result.returncode == 0
    assert result.stdout.splitlines()[0].startswith("mode,seed,n,")


# -- sweep -------------------------------------------------------------------------


def test_sweep_reference_grid_full_mode(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--config", str(CONFIG_DIR / "sweep_n2.cfg"),
                     "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert [float(r["ratio"]) for r in rows] == [5.0, 10.0, 20.0]
    predictions = [float(r["p_estimate"]) for r in rows]
    assert predictions == pytest.approx([0.1379, 0.0385, 0.0099], abs=5e-5)
    infidelities = [1.0 - float(r["fidelity"]) for r in rows]
    assert infidelities[0] > infidelities[1] > infidelities[2]
    measured = [float(r["leakage_f_max"]) for r in rows]
    assert all(m > 0 for m in measured)
    assert rows[0]["mode"] == "full"


@pytest.mark.parametrize("cpus, expected", [(2, 2), (None, 1), (8, 5)])
def test_sweep_pool_is_capped_at_the_core_count(tmp_path, monkeypatch, cpus, expected):
    recorded = []

    class InProcessPool:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    path = write_config(tmp_path, BASE_N2.replace("protocol.n = 2", "protocol.n = 1")
                        + "sweep.ratios = 5, 10, 20, 40, 80\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", path, "--mode", "ideal", "--out", str(out)]) == 0
    assert recorded == [expected]
    assert len(read_csv(out)) == 5


def test_sweep_single_ratio_exits_2(tmp_path):
    path = write_config(tmp_path, BASE_N2 + "sweep.ratios = 10\n")
    assert cli.main(["sweep", "--config", path]) == cli.EXIT_CONFIG


def test_sweep_missing_grid_exits_2(tmp_path):
    path = write_config(tmp_path, BASE_N2)
    assert cli.main(["sweep", "--config", path]) == cli.EXIT_CONFIG


# -- dephase -----------------------------------------------------------------------


def dephase_config(trials: int = 4000) -> str:
    return (BASE_N2.replace("protocol.n = 2", "protocol.n = 1")
            + f"dephase.sigmas = 0.0, 0.5, 1.0\ndephase.trials = {trials}\n")


def test_dephase_encoded_column_is_one(tmp_path):
    path = write_config(tmp_path, dephase_config())
    out = tmp_path / "dephase.csv"
    assert cli.main(["dephase", "--config", path, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [float(r["sigma"]) for r in rows] == [0.0, 0.5, 1.0]
    for rec in rows:
        assert rec["encoded_mean"] == "1.000000"
        assert float(rec["encoded_stderr"]) == 0.0


def test_dephase_bare_column_decays(tmp_path):
    path = write_config(tmp_path, dephase_config())
    out = tmp_path / "dephase.csv"
    assert cli.main(["dephase", "--config", path, "--out", str(out),
                     "--seed", "11"]) == 0
    rows = read_csv(out)
    by_sigma = {float(r["sigma"]): r for r in rows}
    assert by_sigma[0.0]["bare_mean"] == "1.000000"
    rec = by_sigma[0.5]
    closed_form = 0.5 * (1 + math.exp(-8 * 0.25))
    assert abs(float(rec["bare_mean"]) - closed_form) < 3 * float(rec["bare_stderr"])


def test_dephase_output_is_byte_stable(tmp_path):
    path = write_config(tmp_path, dephase_config(trials=500))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["dephase", "--config", path, "--out", str(out_a),
                     "--seed", "3"]) == 0
    assert cli.main(["dephase", "--config", path, "--out", str(out_b),
                     "--seed", "3"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_dephase_rejects_bad_trials(tmp_path):
    path = write_config(tmp_path, dephase_config(trials=1))
    assert cli.main(["dephase", "--config", path]) == cli.EXIT_CONFIG


# -- golden output -----------------------------------------------------------------

GOLDEN_DIR = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("command, config", [
    ("run", "flux_transmon_n3"),
    ("sweep", "sweep_n2"),
    ("dephase", "dephase_pair"),
])
def test_reference_config_output_matches_golden(tmp_path, command, config):
    # The CLI output is the behavioural contract.  A golden is regenerated with
    #   ghzdfs COMMAND --config configs/CONFIG.cfg --seed 0 --out tests/data/COMMAND-CONFIG-seed0.csv
    # and only together with a note of every changed byte.
    out = tmp_path / "out.csv"
    assert cli.main([command, "--config", str(CONFIG_DIR / f"{config}.cfg"),
                     "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"{command}-{config}-seed0.csv").read_bytes()
