"""End-to-end checks of the command line front end via subprocess."""

import csv
import hashlib
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from homrisk import CSV_HEADER, cli, geometry, harness, homology, occupancy, save_points

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "homrisk", *args],
        capture_output=True,
        text=True,
    )


def parse_kv(stdout):
    pairs = {}
    for line in stdout.splitlines():
        if "=" in line and not line.startswith("#") and not line.startswith(" "):
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def test_pack_reports_geometry_and_checks():
    proc = run_cli("pack", "--d", "1", "--D", "2", "--tau", "0.0625")
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout)
    assert kv["d"] == "1"
    assert kv["D"] == "2"
    assert kv["g"] == "4"
    assert kv["m"] == "4"
    assert kv["total_volume"] == "1.5707963267948966"
    assert kv["density_floor"] == "0.6366197723675814"
    assert "centers (first 4 of 4):" in proc.stdout
    # every validation check is reported and passing
    check_lines = [l for l in proc.stdout.splitlines() if l.startswith("check ")]
    assert len(check_lines) == 4
    assert all(": pass (" in l for l in check_lines)


def test_pack_rejects_bad_dimensions():
    proc = run_cli("pack", "--d", "3", "--D", "3", "--tau", "0.0625")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_pack_too_large_fails_fast():
    # 2500**3 spheres: the size guard answers before any allocation
    proc = run_cli("pack", "--d", "3", "--D", "4", "--tau", "0.0001")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "above the limit of" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_memory_error_is_reported_not_raised(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("cannot allocate the centre array")

    monkeypatch.setattr(geometry, "build_pack", exhausted)
    assert cli.main(["pack", "--d", "3", "--D", "4", "--tau", "1e-4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot allocate the centre array\n"


def test_coupon_exact():
    proc = run_cli("coupon", "--exact", "--m", "2", "--n", "2")
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout)
    assert kv["all_occupied"] == "0.5"
    assert kv["miss_prob"] == "0.5"


def test_coupon_asymptotic():
    proc = run_cli("coupon", "--asymptotic", "--c", "0.0")
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout)
    assert float(kv["miss_prob_limit"]) == -math.expm1(-1.0)


def test_coupon_asymptotic_rejects_nan_offset():
    proc = run_cli("coupon", "--asymptotic", "--c", "nan")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "nan" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_negative_infinity_needs_the_equals_form():
    # argparse reads a bare "-inf" as an option, so these take --c=-inf and --tau=-inf
    proc = run_cli("coupon", "--asymptotic", "--c=-inf")
    assert proc.returncode == 0
    assert parse_kv(proc.stdout)["miss_prob_limit"] == "0.0"
    proc = run_cli("pack", "--d", "1", "--D", "2", "--tau=-inf")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_coupon_flag_validation():
    assert run_cli("coupon", "--exact").returncode == 1
    assert run_cli("coupon", "--asymptotic").returncode == 1


def test_coupon_beyond_recurrence_limit_fails_fast():
    proc = run_cli("coupon", "--exact", "--m", "1000000", "--n", "10000000")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "above the limit of" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_risk_exact_values():
    proc = run_cli("risk-exact", "--m", "2", "--n", "3")
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout)
    assert kv["m"] == "2"
    assert kv["n"] == "3"
    assert kv["k_threshold"] == "0.25"
    assert kv["type_I"] == "0.25"
    assert kv["type_II"] == "0.0"
    assert kv["total"] == "0.25"


def test_risk_exact_needs_two_spheres():
    proc = run_cli("risk-exact", "--m", "1", "--n", "3")
    assert proc.returncode == 1
    assert "at least two spheres" in proc.stderr


def test_risk_mc_lrt_output_and_determinism():
    args = (
        "risk-mc", "--d", "1", "--D", "2", "--tau", "0.15",
        "--n", "3", "--trials", "400", "--seed", "5", "--test", "lrt",
    )
    proc = run_cli(*args)
    assert proc.returncode == 0
    first = proc.stdout.splitlines()[0]
    assert first == "# risk measured over the constructed sphere-pack hypothesis pair only"
    kv = parse_kv(proc.stdout)
    assert kv["test"] == "lrt"
    assert kv["n"] == "3"
    assert kv["trials"] == "400"
    assert kv["type_I_hat"] == "0.2725"
    # exact companions are emitted alongside the estimates for the lrt
    assert "exact_type_I" in kv and "exact_type_II" in kv
    again = run_cli(*args)
    assert again.stdout == proc.stdout


def test_risk_mc_occupancy_has_no_exact_columns():
    proc = run_cli(
        "risk-mc", "--d", "1", "--D", "2", "--tau", "0.15",
        "--n", "3", "--trials", "50", "--seed", "1", "--test", "occupancy",
    )
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout)
    assert "exact_type_I" not in kv
    assert "exact_type_II" not in kv


def test_risk_mc_estimator_smoke():
    proc = run_cli(
        "risk-mc", "--d", "1", "--D", "2", "--tau", "0.15",
        "--n", "40", "--trials", "20", "--seed", "3",
        "--test", "estimator", "--scale", "0.15",
    )
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout)
    assert 0.0 <= float(kv["risk_hat"]) <= 2.0


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli(
        "sweep", "--d", "1", "--D", "2", "--tau", "0.15",
        "--n-min", "2", "--n-max", "6", "--n-step", "2",
        "--trials", "30", "--seed", "2", "--test", "lrt",
        "--delta", "0.5", "--out", str(out),
    )
    assert proc.returncode == 0
    assert f"wrote 3 rows to {out}" in proc.stdout
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == [2, 4, 6]
    for row in rows:
        # two spheres: some sphere stays unsampled with prob 2^(1-n)
        assert float(row["miss_prob"]) == 2.0 ** (1 - int(row["n"]))
        assert row["test"] == "lrt"


def test_sweep_rejects_empty_range():
    proc = run_cli(
        "sweep", "--d", "1", "--D", "2", "--tau", "0.15",
        "--n-min", "5", "--n-max", "2", "--n-step", "2",
        "--trials", "5", "--seed", "1", "--test", "lrt",
        "--delta", "0.5", "--out", "/tmp/unused.csv",
    )
    assert proc.returncode == 1
    assert proc.stderr.strip() == "error: no sample sizes to sweep"


def test_sweep_rejects_delta_outside_unit_interval(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli(
        "sweep", "--d", "1", "--D", "2", "--tau", "0.0625",
        "--n-min", "10", "--n-max", "20", "--n-step", "10",
        "--trials", "20000", "--seed", "1", "--test", "lrt",
        "--delta", "2", "--out", str(out),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "delta" in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not out.exists()


def test_complexity_finds_threshold():
    proc = run_cli(
        "complexity", "--d", "1", "--D", "2", "--tau", "0.15",
        "--epsilon", "0.25", "--n-max", "10",
    )
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout)
    assert kv["n_epsilon"] == "3"


def test_complexity_beyond_scan_limit_fails_fast(monkeypatch, capsys):
    # the m = 64 answer, 345, lies past a limit of 64 * 300 bin updates
    monkeypatch.setattr(occupancy, "_RECURRENCE_WORK", 64 * 300)
    argv = ["complexity", "--d", "1", "--D", "2", "--tau", "0.00390625", "--epsilon", "0.25", "--n-max", "2000"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"above the limit of {64 * 300}" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        "risk-mc --d 1 --D 2 --tau 0.00390625 --n 311 --trials 10000 --seed 2013 --test lrt",
        "risk-mc --d 1 --D 2 --tau 0.00390625 --n 311 --trials 10000 --seed 2013 --test occupancy",
        "sweep --d 1 --D 2 --tau 0.00390625 --n-min 200 --n-max 600 --n-step 25 --trials 200 "
        "--seed 5 --test lrt --delta 0.5 --out sweep.csv",
    ],
)
def test_monte_carlo_beyond_draw_limit_fails_fast(argv, tmp_path, monkeypatch, capsys):
    # the README's Monte Carlo commands draw more than 10**5 sphere choices a side
    monkeypatch.setattr(harness, "_MAX_DRAWS", 10**5)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"above the limit of {10**5}" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "module, name, limit, argv",
    [
        # 400 estimator points in the plane hold 400 * (2 + 2) floats
        (geometry, "_MAX_PACK_FLOATS", 1000, "risk-mc --d 1 --D 2 --tau 0.15 --n 400 --trials 1 --seed 3 "
         "--test estimator --scale 0.15"),
        # 2100 points lie above the point budget, so only betti0_linkage's sweep runs
        (homology, "_MAX_PAIRS", 1000, "homology --input big.csv --scale 0.05 --max-dim 2"),
    ],
    ids=["sample-floats", "linkage-pairs"],
)
def test_array_limits_fail_fast(module, name, limit, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    save_points("big.csv", np.random.default_rng(0).random((2100, 2)))
    monkeypatch.setattr(module, name, limit)
    assert cli.main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"above the limit of {limit}" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_risk_mc_refuses_a_negative_seed(capsys):
    argv = "risk-mc --d 1 --D 2 --tau 0.15 --n 3 --trials 50 --seed -1 --test lrt".split()
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: master seed -1 outside 0..{2**64 - 1}\n"


def readme_commands():
    """Each `homrisk ...` line of the README's command-line block, continuations joined."""
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = block.group(1).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("homrisk ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "pack", "coupon", "risk-exact", "risk-mc", "sweep", "complexity", "homology",
    }
    monkeypatch.chdir(tmp_path)
    angles = 2.0 * math.pi * np.arange(8) / 8
    save_points("points.csv", np.stack([np.cos(angles), np.sin(angles)], axis=1))
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    # the sweep reads every row off one draw per trial, so its CSV keeps the bytes it had when each row was drawn
    # on its own; this fails loudly if a numpy release changes what Generator.integers draws
    sweep_sha256 = hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
    assert sweep_sha256 == "b8fe481743fda84cdd5330dcfe29b97cd2629e9cb00bf15c1214b53bacd32466"


POINT_FILES = {
    "squares.csv": "0,0\n1,0\n1,1\n0,1\n10,0\n11,0\n11,1\n10,1\n",
    "pair.csv": "0.0,0.0,0.0\n0.0625,3.026798367500305e-09,0.0625\n",
    "grid.csv": "0,0\n1,0\n2,0\n0,1\n1,1\n2,1\n0,2\n1,2\n2,2\n",
}


# each case is an argv and its whole stdout but the last line break
@pytest.mark.parametrize(
    "argv, stdout",
    [
        # (2000, 10000) takes the banded throw recurrence for both laws: the bytes the full-state recurrence printed
        ("risk-exact --m 2000 --n 10000", "m=2000\nn=10000\nk_threshold=13.459054044293335\ntype_I=0.4782958907083198\n"
         "type_II=0.4148159535570764\ntotal=0.8931118442653962"),
        # (4096, 36909) cuts the log series at 182 terms: the bytes the whole series printed
        ("risk-exact --m 4096 --n 36909", "m=4096\nn=36909\nk_threshold=0.49941377701238093\ntype_I=0.39329869049013844\n"
         "type_II=0.0\ntotal=0.39329869049013844"),
        # (2000, 10000) takes the banded throw recurrence: the bytes the full-state recurrence printed
        ("coupon --exact --m 2000 --n 10000", "all_occupied=1.0774367759280787e-06\nmiss_prob=0.9999989225632241"),
        # (256, 1500) sums P(K = 0) without the difference table: the bytes the table printed
        ("coupon --exact --m 256 --n 1500", "all_occupied=0.48234032695234985\nmiss_prob=0.5176596730476501"),
        # the m = 64 sample-complexity scan steps the throw recurrence to its answer, 345
        ("complexity --d 1 --D 2 --tau 0.00390625 --epsilon 0.25 --n-max 2000", "n_epsilon=345"),
        # two unit squares 9 apart at scale 1 give two components and two cycles through the neighbour sweep
        ("homology --input squares.csv --scale 1 --max-dim 2",
         "points=8\nscale=1.0\nbetti_0=2\nbetti_1=2\nbetti_2=0\neuler_characteristic=0"),
        # a 3-D pair whose squares, added in axis order, sum to just above scale**2 stays two components
        ("homology --input pair.csv --scale=0.08838834764831849 --max-dim 1",
         "points=2\nscale=0.08838834764831849\nbetti_0=2\nbetti_1=0\neuler_characteristic=2"),
        # a 3x3 unit grid at scale 1.5 is contractible; Betti numbers below the top come from its edge-collapsed core
        ("homology --input grid.csv --scale 1.5 --max-dim 3",
         "points=9\nscale=1.5\nbetti_0=1\nbetti_1=0\nbetti_2=0\nbetti_3=0\neuler_characteristic=1"),
        # 2400 seeded points in the unit cube, past the 2000-point budget, with 337 934 sweep candidates:
        # betti0_linkage counts them over clique cells, as the sweep did before it
        ("homology --input cloud.csv --scale 0.06 --max-dim 2",
         "points=2400\nscale=0.06\nbetti_0=656\n# 2400 points exceed the full-complex budget of 2000; higher degrees skipped"),
    ],
    ids=["risk-2000", "risk-4096", "coupon-2000", "coupon-256", "complexity-64", "squares", "pair", "grid", "cells"],
)
def test_cli_prints_recorded_bytes(argv, stdout, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in POINT_FILES.items():
        (tmp_path / name).write_text(text, encoding="ascii")
    save_points(tmp_path / "cloud.csv", np.random.default_rng(24).uniform(size=(2400, 3)))
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == stdout + "\n"


def test_homology_circle_file(tmp_path):
    angles = 2.0 * math.pi * np.arange(8) / 8
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    path = tmp_path / "circle.csv"
    save_points(path, pts)
    proc = run_cli("homology", "--input", str(path), "--scale", "0.8", "--max-dim", "2")
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout)
    assert kv["points"] == "8"
    assert kv["betti_0"] == "1"
    assert kv["betti_1"] == "1"
    assert kv["betti_2"] == "0"
    assert kv["euler_characteristic"] == "0"


def test_homology_large_input_uses_cluster_path(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.random((2100, 2))
    path = tmp_path / "big.csv"
    save_points(path, pts)
    proc = run_cli("homology", "--input", str(path), "--scale", "0.05", "--max-dim", "2")
    assert proc.returncode == 0
    kv = parse_kv(proc.stdout)
    assert "betti_0" in kv
    assert "betti_1" not in kv
    assert "exceed the full-complex budget" in proc.stdout


def test_homology_missing_file():
    proc = run_cli("homology", "--input", "/nonexistent", "--scale", "0.5", "--max-dim", "1")
    assert proc.returncode == 1
    assert "No such file or directory" in proc.stderr


def test_homology_bad_scale(tmp_path):
    path = tmp_path / "pts.csv"
    save_points(path, np.zeros((3, 2)))
    proc = run_cli("homology", "--input", str(path), "--scale", "-1", "--max-dim", "1")
    assert proc.returncode == 1
    assert "scale must be positive" in proc.stderr


def test_homology_nan_scale(tmp_path):
    path = tmp_path / "pts.csv"
    save_points(path, np.zeros((3, 2)))
    proc = run_cli("homology", "--input", str(path), "--scale", "nan", "--max-dim", "1")
    assert proc.returncode == 1
    assert "scale must be positive" in proc.stderr
    assert proc.stdout == ""


def test_homology_rejects_non_finite_points(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("0,0\nnan,0\n0.05,inf\n", encoding="ascii")
    proc = run_cli("homology", "--input", str(path), "--scale", "0.1", "--max-dim", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: point 1 has a non-finite coordinate")
    assert proc.stdout == ""


def test_homology_bad_max_dim_above_point_budget(tmp_path):
    path = tmp_path / "big.csv"
    save_points(path, np.random.default_rng(0).random((2100, 2)))
    proc = run_cli("homology", "--input", str(path), "--scale", "0.05", "--max-dim", "7")
    assert proc.returncode == 1
    assert "max_dim must lie in 1..3" in proc.stderr
    assert proc.stdout == ""


def test_homology_refuses_a_dense_complex(tmp_path):
    path = tmp_path / "dense.csv"
    save_points(path, np.random.default_rng(0).uniform(size=(300, 2)) * 0.01)
    proc = run_cli("homology", "--input", str(path), "--scale", "1", "--max-dim", "3")
    assert proc.returncode == 1
    assert proc.stderr == "error: level 2 holds 4455100 simplices, above the simplex budget of 1000000\n"
    assert proc.stdout == ""
