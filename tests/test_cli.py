"""Command-line interface tests: config parsing, the four subcommands, exit
statuses, and byte-level determinism of the written files."""

from __future__ import annotations

import csv
import importlib
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccdet import RankError
from ccdet.cli import FIGURES, load_config, main

DETERMINISTIC_INI = """\
[signal]
ambient_dim = 40
mean = constant:0.223606797749979
signal_variance = 0
noise_variance = 1

[scenario]
compressed_dim = 8
num_nodes = 5
seed = 7
trials = 200
"""

RANDOM_INI = """\
[signal]
ambient_dim = 30
mean = zeros
signal_variance = 1
noise_variance = 5

[scenario]
compressed_dim = 15
num_nodes = 6
seed = 11
trials = 200
"""

INJECTION_INI = """\
[signal]
ambient_dim = 12
mean = constant:0.5
signal_variance = 0.6
noise_variance = 1.2

[scenario]
compressed_dim = 5
num_nodes = 5
seed = 13
trials = 200

[injection]
fraction = 0.4
p10 = 0.8
p20 = 0.1
p11 = 0.1
p21 = 0.8
kappa = 1.0
art_variance = 0.5
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_full_roundtrip(tmp_path):
    path = _write(tmp_path, "exp.ini", INJECTION_INI)
    config = load_config(path)
    scenario = config.scenario
    assert scenario.model.ambient_dim == 12
    assert scenario.model.mean[0] == 0.5
    assert scenario.model.signal_variance == 0.6
    assert scenario.compressed_dim == 5
    assert scenario.num_nodes == 5
    assert scenario.priors == (0.5, 0.5)
    assert scenario.seed == 13
    assert scenario.trials == 200
    assert scenario.injection is not None
    assert scenario.injection.fraction == 0.4
    assert scenario.injection.art_variance == 0.5
    assert config.analysis_eps == 0.1
    assert config.design is None


def test_load_config_mean_syntaxes(tmp_path):
    inline = DETERMINISTIC_INI.replace(
        "ambient_dim = 40", "ambient_dim = 3"
    ).replace("compressed_dim = 8", "compressed_dim = 2").replace(
        "mean = constant:0.223606797749979", "mean = 1.0, 2.0, -0.5"
    )
    config = load_config(_write(tmp_path, "inline.ini", inline))
    assert np.allclose(config.scenario.model.mean, [1.0, 2.0, -0.5])

    (tmp_path / "mean.txt").write_text("1.0\n2.0\n-0.5\n")
    from_file = inline.replace("mean = 1.0, 2.0, -0.5", "mean = file:mean.txt")
    config = load_config(_write(tmp_path, "fromfile.ini", from_file))
    assert np.allclose(config.scenario.model.mean, [1.0, 2.0, -0.5])

    zeros = inline.replace("mean = 1.0, 2.0, -0.5", "mean = zeros").replace(
        "signal_variance = 0", "signal_variance = 1"
    )
    config = load_config(_write(tmp_path, "zeros.ini", zeros))
    assert config.scenario.model.mean_energy == 0.0


def test_load_config_optional_sections(tmp_path):
    text = RANDOM_INI + "\n[analysis]\nembedding_eps = 0.25\n\n[design]\nmode = perfect\nc_max = 0.5\nfraction_min = 0.2\n"
    config = load_config(_write(tmp_path, "full.ini", text))
    assert config.analysis_eps == 0.25
    assert config.design["mode"] == "perfect"
    assert config.design["c_max"] == "0.5"


def test_load_config_rejects_unknown_keys_and_sections(tmp_path, capsys):
    out = tmp_path / "x.txt"
    # the Scenario field name, not the config keys prior_h0 / prior_h1
    misspelt = _write(
        tmp_path, "key.ini", RANDOM_INI.replace("seed = 11", "seed = 11\npriors = 0.3, 0.7")
    )
    assert main(["analyze", "--config", str(misspelt), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'priors'" in err and "[scenario]" in err and "prior_h0, prior_h1" in err
    section = _write(tmp_path, "section.ini", RANDOM_INI + "\n[injections]\nfraction = 0.3\n")
    assert main(["analyze", "--config", str(section), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[injections]" in err and "[injection]" in err
    default = _write(tmp_path, "default.ini", "[DEFAULT]\nseed = 3\n\n" + RANDOM_INI)
    assert main(["analyze", "--config", str(default), "--out", str(out)]) == 2
    assert "[DEFAULT]" in capsys.readouterr().err
    assert not out.exists()


def test_readme_example_config_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
    config = _write(tmp_path, "readme.ini", block)
    scenario = load_config(config).scenario
    assert (scenario.model.ambient_dim, scenario.compressed_dim, scenario.num_nodes) == (100, 20, 5)
    assert scenario.trials == 20000 and scenario.injection.kappa == 2.381
    report = tmp_path / "report.txt"
    assert main(["analyze", "--config", str(config), "--out", str(report)]) == 0
    assert _read_report(report)["case"] == "injection"
    solution = tmp_path / "design.txt"
    assert main(["design", "--config", str(config), "--out", str(solution)]) == 0
    assert _read_report(solution)["regime"] == "perfect"


def _read_report(path):
    pairs = {}
    for line in path.read_text().strip().splitlines():
        key, value = line.split(" = ", 1)
        pairs[key] = value
    return pairs


def test_analyze_deterministic_report(tmp_path):
    config = _write(tmp_path, "exp.ini", DETERMINISTIC_INI)
    out = tmp_path / "report.txt"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 0
    report = _read_report(out)
    assert report["case"] == "deterministic"
    assert float(report["snr"]) == pytest.approx(2.0, rel=1e-12)
    assert float(report["compression_ratio"]) == 0.2
    pe = float(report["pe_exact"])
    assert 0.0 < pe < 0.5
    assert float(report["pe_lower"]) <= float(report["pe_approx"]) <= float(
        report["pe_upper"]
    )
    assert float(report["pe_chernoff"]) >= pe
    # companion CSV mirrors the report
    with open(str(out) + ".csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][rows[0].index("case")] == "case"
    assert rows[1][rows[0].index("case")] == "deterministic"


def test_analyze_random_report(tmp_path):
    config = _write(tmp_path, "exp.ini", RANDOM_INI)
    out = tmp_path / "report.txt"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 0
    report = _read_report(out)
    assert report["case"] == "random"
    assert "statistic_note" in report  # zero mean reduces to the energy detector
    assert float(report["tau0"]) > 0.0
    assert float(report["pe_exact"]) == pytest.approx(
        float(report["pe_approx"]), abs=0.05
    )
    assert float(report["threshold_transformed"]) > float(report["threshold_raw"])


def test_analyze_random_report_at_large_noncentrality(tmp_path):
    # H0 noncentrality about 6e4: the exact tails still come out finite
    text = RANDOM_INI.replace("ambient_dim = 30", "ambient_dim = 100").replace(
        "mean = zeros", "mean = constant:1"
    ).replace("noise_variance = 5", "noise_variance = 20").replace(
        "compressed_dim = 15", "compressed_dim = 50"
    ).replace("num_nodes = 6", "num_nodes = 50")
    config = _write(tmp_path, "exp.ini", text)
    out = tmp_path / "report.txt"
    assert main(["analyze", "--config", str(config), "--out", str(out), "--seed", "5"]) == 0
    pe_exact = float(_read_report(out)["pe_exact"])
    assert math.isfinite(pe_exact)
    assert pe_exact == pytest.approx(5.736e-10, rel=1e-3)


def test_analyze_injection_report(tmp_path):
    config = _write(tmp_path, "exp.ini", INJECTION_INI)
    out = tmp_path / "report.txt"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) == 0
    report = _read_report(out)
    assert report["case"] == "injection"
    assert float(report["p_b"]) == pytest.approx(1.4, rel=1e-12)
    assert float(report["d_fc"]) > 0.0
    assert float(report["d_ev"]) > 0.0
    assert report["eavesdropper_blinded"] == "False"
    assert float(report["kappa_perfect"]) == pytest.approx(
        1.0 / (0.4 * 1.4), rel=1e-12
    )
    assert int(report["num_injecting"]) == 2


def test_analyze_reruns_are_byte_identical(tmp_path):
    config = _write(tmp_path, "exp.ini", DETERMINISTIC_INI)
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    assert main(["analyze", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["analyze", "--config", str(config), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_deterministic_theory_uses_the_priors(tmp_path):
    # with priors 0.9/0.1 the Bayes test moves its threshold, and the
    # closed-form column must follow it: the equal-priors formula sits far
    # outside the estimate's Wald interval
    text = DETERMINISTIC_INI.replace(
        "trials = 200", "trials = 20000\nprior_h0 = 0.9\nprior_h1 = 0.1"
    )
    config = _write(tmp_path, "exp.ini", text)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--seed", "1"]) == 0
    with open(out, newline="") as handle:
        row = next(csv.DictReader(handle))
    pe_emp = float(row["pe_fc_emp"])
    pe_theory = float(row["pe_fc_theory"])
    standard_error = math.sqrt(pe_emp * (1.0 - pe_emp) / 20000)
    assert abs(pe_theory - pe_emp) < 4.0 * standard_error
    report = tmp_path / "report.txt"
    assert main(["analyze", "--config", str(config), "--out", str(report), "--seed", "1"]) == 0
    assert float(_read_report(report)["pe_exact"]) == pe_theory


def test_simulate_writes_single_row_csv(tmp_path, capsys):
    config = _write(tmp_path, "exp.ini", DETERMINISTIC_INI)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "trials",
        "pe_fc_emp",
        "pe_fc_ci",
        "pf_fc",
        "pd_fc",
        "pe_ev_emp",
        "pe_ev_ci",
        "pe_fc_theory",
        "d_fc",
        "d_ev",
        "seed",
    ]
    assert len(rows) == 2
    assert rows[1][0] == "200"
    assert rows[1][rows[0].index("pe_ev_emp")] == ""
    assert rows[1][rows[0].index("pe_fc_theory")] != ""
    assert rows[1][rows[0].index("seed")] == "7"
    # progress goes to stderr, never into the file
    captured = capsys.readouterr()
    assert "simulate:" in captured.err
    assert captured.out == ""


def test_simulate_reruns_are_byte_identical(tmp_path):
    config = _write(tmp_path, "exp.ini", RANDOM_INI)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(config), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_trials_and_seed_overrides(tmp_path):
    config = _write(tmp_path, "exp.ini", DETERMINISTIC_INI)
    out = tmp_path / "sim.csv"
    assert (
        main(
            [
                "simulate",
                "--config",
                str(config),
                "--out",
                str(out),
                "--trials",
                "300",
                "--seed",
                "99",
            ]
        )
        == 0
    )
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[1][0] == "300"
    assert rows[1][-1] == "99"


@pytest.mark.parametrize("prior_h0, rate", [("1", "0.0"), ("0", "1.0")])
def test_simulate_random_degenerate_priors(tmp_path, prior_h0, rate):
    # the certain hypothesis is always decided, in the simulation and in theory
    prior_h1 = "0" if prior_h0 == "1" else "1"
    text = RANDOM_INI.replace(
        "seed = 11", f"seed = 11\nprior_h0 = {prior_h0}\nprior_h1 = {prior_h1}"
    )
    config = _write(tmp_path, "exp.ini", text)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        header, row = list(csv.reader(handle))
    values = dict(zip(header, row))
    assert (values["pf_fc"], values["pd_fc"]) == (rate, rate)
    assert values["pe_fc_emp"] == values["pe_fc_theory"] == "0.0"


def test_simulate_injection_populates_eavesdropper_columns(tmp_path):
    config = _write(tmp_path, "exp.ini", INJECTION_INI)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    assert rows[1][header.index("pe_ev_emp")] != ""
    assert rows[1][header.index("d_fc")] != ""
    assert rows[1][header.index("pe_fc_theory")] == ""


def test_design_perfect_mode(tmp_path):
    text = INJECTION_INI + "\n[design]\nmode = perfect\nc_max = 0.8\nfraction_min = 0.25\n"
    config = _write(tmp_path, "exp.ini", text)
    out = tmp_path / "design.txt"
    assert main(["design", "--config", str(config), "--out", str(out)]) == 0
    report = _read_report(out)
    assert report["regime"] == "perfect"
    assert float(report["c_star"]) == 0.8
    assert float(report["noise_variance_star"]) == 0.0


def test_design_constrained_mode_and_infeasible(tmp_path):
    kappa_star = 1.0 / (0.5 * 1.4)
    text = INJECTION_INI + (
        "\n[design]\nmode = constrained\ntau = 0.05\n"
        "c_grid = 0.2,0.5\nfraction_grid = 0.25,0.5\n"
        f"kappa_grid = 0.0,1.0,{kappa_star!r}\ngamma_inv_grid = 0.0\n"
    )
    config = _write(tmp_path, "exp.ini", text)
    out = tmp_path / "design.txt"
    assert main(["design", "--config", str(config), "--out", str(out)]) == 0
    report = _read_report(out)
    assert report["regime"] == "constrained-grid"
    assert float(report["d_ev_star"]) <= 0.05 + 1e-9

    # kappa = 0 cannot blind anyone, so a zero budget is infeasible
    infeasible = text.replace("tau = 0.05", "tau = 0").replace(
        f"kappa_grid = 0.0,1.0,{kappa_star!r}", "kappa_grid = 0.0"
    )
    config_bad = _write(tmp_path, "bad.ini", infeasible)
    assert main(["design", "--config", str(config_bad), "--out", str(out)]) == 3


def test_design_unbounded_tau_spellings_agree(tmp_path):
    # tau is read with float(), which takes inf and Infinity in any case and
    # with surrounding spaces; an unbounded budget picks the same design as
    # a finite budget no design reaches
    grids = (
        "c_grid = 0.2,0.5\nfraction_grid = 0.25,0.5\n"
        "kappa_grid = 0.0,1.0,2.5\ngamma_inv_grid = 0.0,1.0\n"
    )
    solutions = []
    for tau in ("inf", "Infinity", " INF ", "1e300"):
        text = INJECTION_INI + f"\n[design]\nmode = constrained\ntau = {tau}\n" + grids
        config = _write(tmp_path, "exp.ini", text)
        out = tmp_path / "design.txt"
        assert main(["design", "--config", str(config), "--out", str(out)]) == 0
        solutions.append(out.read_bytes())
    assert solutions[0] != b""
    assert all(solution == solutions[0] for solution in solutions)


def test_design_mode_flag_overrides_config(tmp_path):
    text = INJECTION_INI + (
        "\n[design]\nmode = constrained\ntau = 0.05\n"
        "c_grid = 0.5\nfraction_grid = 0.4\nkappa_grid = 1.785714285714286\n"
        "gamma_inv_grid = 0.0\nc_max = 0.8\nfraction_min = 0.25\n"
    )
    config = _write(tmp_path, "exp.ini", text)
    out = tmp_path / "design.txt"
    assert (
        main(["design", "--config", str(config), "--out", str(out), "--mode", "perfect"])
        == 0
    )
    assert _read_report(out)["regime"] == "perfect"


def test_design_requires_injection_and_mean(tmp_path):
    config = _write(tmp_path, "exp.ini", RANDOM_INI + "\n[design]\nmode = perfect\nc_max = 0.5\nfraction_min = 0.2\n")
    out = tmp_path / "design.txt"
    assert main(["design", "--config", str(config), "--out", str(out)]) == 2


def test_figure_describe_prints_without_writing(capsys):
    assert main(["figure", "--figure", "6", "--describe"]) == 0
    captured = capsys.readouterr()
    assert "figure 6" in captured.out
    assert "snr" in captured.out


def test_figure_all_presets_write_csv(tmp_path):
    for figure_id in FIGURES:
        out = tmp_path / f"fig{figure_id}.csv"
        assert main(["figure", "--figure", figure_id, "--out", str(out)]) == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) > 2
        for cell in rows[1]:
            float(cell)


def test_figure_deflection_shapes(tmp_path):
    out = tmp_path / "fig6.csv"
    assert main(["figure", "--figure", "6", "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    by_c: dict[str, list[tuple[float, float]]] = {}
    for row in rows[1:]:
        by_c.setdefault(row[header.index("c")], []).append(
            (float(row[header.index("fraction")]), float(row[header.index("d_fc")]))
        )
    for series in by_c.values():
        values = [v for _, v in sorted(series)]
        # injecting at every node blinds the fusion center along with the
        # eavesdropper, so each compression-ratio column ends at zero
        assert values[-1] == 0.0
        assert all(v > 0.0 for v in values[:-1])
    # at full compression the preset is past the high-snr knee and the
    # tradeoff is monotone in the injecting fraction
    top = [v for _, v in sorted(by_c["1.0"])]
    assert all(b < a for a, b in zip(top, top[1:]))

    # artificial-noise variance only hurts on the blinding manifold
    out7 = tmp_path / "fig7.csv"
    assert main(["figure", "--figure", "7", "--out", str(out7)]) == 0
    with open(out7, newline="") as handle:
        rows7 = list(csv.reader(handle))
    values7 = [float(row[1]) for row in rows7[1:]]
    assert all(b < a for a, b in zip(values7, values7[1:]))


def test_figure_error_paths(tmp_path, capsys):
    assert main(["figure", "--figure", "9z"]) == 2
    assert "unknown figure" in capsys.readouterr().err
    assert main(["figure", "--figure", "2"]) == 2  # no --out, no --describe


def test_exit_status_config_errors(tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert main(["analyze", "--config", str(tmp_path / "missing.ini"), "--out", str(out)]) == 2
    bad_syntax = _write(tmp_path, "broken.ini", "not an ini file at all\n")
    assert main(["analyze", "--config", str(bad_syntax), "--out", str(out)]) == 2
    bad_value = _write(
        tmp_path, "bad.ini", DETERMINISTIC_INI.replace("noise_variance = 1", "noise_variance = -1")
    )
    assert main(["analyze", "--config", str(bad_value), "--out", str(out)]) == 2
    bad_priors = _write(
        tmp_path,
        "priors.ini",
        DETERMINISTIC_INI.replace("seed = 7", "seed = 7\nprior_h0 = 0.9\nprior_h1 = 0.9"),
    )
    assert main(["analyze", "--config", str(bad_priors), "--out", str(out)]) == 2
    capsys.readouterr()


def test_exit_status_numeric_errors(tmp_path, monkeypatch, capsys):
    config = _write(tmp_path, "exp.ini", DETERMINISTIC_INI)
    out = tmp_path / "sim.csv"

    def explode(*args, **kwargs):
        raise RankError("projection stayed rank deficient")

    monkeypatch.setattr("ccdet.cli.estimate_errors", explode)
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 4
    assert "rank deficient" in capsys.readouterr().err


def test_console_script_target_runs(monkeypatch, capsys):
    # resolve the [project.scripts] entry the installer would wrap and run it
    # as the wrapper does: no arguments, the command line in sys.argv
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"ccdet": "ccdet.cli:main"}
    module_name, attr = scripts["ccdet"].split(":")
    entry = getattr(importlib.import_module(module_name), attr)
    monkeypatch.setattr(sys, "argv", ["ccdet", "figure", "--figure", "2", "--describe"])
    assert entry() == 0
    assert "figure 2" in capsys.readouterr().out


def test_console_script_entry_point():
    exe = shutil.which("ccdet")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run(
        [exe, "figure", "--figure", "2", "--describe"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "figure 2" in proc.stdout
