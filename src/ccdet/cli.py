"""Batch experiment runner.

Subcommands:
    analyze   closed-form report (error probabilities, deflections) for a
              scenario config
    simulate  Monte Carlo error estimation for a scenario config
    design    secrecy-constrained system design (perfect | constrained mode)
    figure    reference parameter studies as CSV grids (ids 2, 3a, 3b, 4a,
              4b, 5a, 5b, 6, 7)

Configs are INI files; see the README for the exact key names. Every command
is deterministic given (config, seed): data files are written with shortest
round-trip float formatting and contain no timing information, so repeated
runs produce byte-identical files. Exit statuses: 0 success, 2 config or
validation error, 3 infeasible design, 4 internal numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analytics, secrecy
from .errors import (
    DimensionError,
    DomainError,
    InfeasibleError,
    PriorError,
    ProbabilityError,
    RankError,
    SingularCovarianceError,
    UnknownFigureError,
    ZeroVectorError,
)
from .model import InjectionPolicy, RngContract, Scenario, SignalModel
from .montecarlo import (
    PHI_STREAM_BASE,
    closed_form_columns,
    estimate_errors,
    format_value,
)
from .projection import gen_projection

_VALIDATION_ERRORS = (
    DimensionError,
    ProbabilityError,
    PriorError,
    DomainError,
    ZeroVectorError,
    UnknownFigureError,
    configparser.Error,
    ValueError,
    OSError,
)
_NUMERIC_ERRORS = (
    RankError,
    SingularCovarianceError,
    np.linalg.LinAlgError,
    ArithmeticError,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment configuration.

    Attributes:
        scenario: Validated scenario.
        analysis_eps: Embedding tolerance used by the analyze report's
            stable-embedding bounds.
        design: Raw key-value pairs of the [design] section (None when the
            section is absent).
    """

    scenario: Scenario
    analysis_eps: float = 0.1
    design: dict | None = None


def _parse_vector(text: str, length: int, base_dir: Path) -> np.ndarray:
    """Parse a mean-vector spec: 'zeros', 'constant:x', 'file:PATH', or an
    inline comma-separated list of exactly `length` numbers."""
    text = text.strip()
    if text == "zeros":
        return np.zeros(length)
    if text.startswith("constant:"):
        return float(text.split(":", 1)[1]) * np.ones(length)
    if text.startswith("file:"):
        path = Path(text.split(":", 1)[1].strip())
        if not path.is_absolute():
            path = base_dir / path
        vec = np.loadtxt(path, dtype=float).reshape(-1)
        return vec
    values = [float(part) for part in text.split(",") if part.strip() != ""]
    return np.asarray(values, dtype=float)


def _get_float(section, key: str, default: float | None = None) -> float:
    if key not in section:
        if default is None:
            raise DomainError(f"missing required key {key!r}")
        return default
    return float(section[key])


# the documented sections of a config and the keys each may hold
_CONFIG_KEYS = {
    "signal": ("ambient_dim", "mean", "signal_variance", "noise_variance"),
    "scenario": ("compressed_dim", "num_nodes", "prior_h0", "prior_h1", "seed", "trials"),
    "injection": ("fraction", "p10", "p20", "p11", "p21", "kappa", "art_variance"),
    "analysis": ("embedding_eps",),
    "design": ("mode", "c_max", "fraction_min", "tau",
               "c_grid", "fraction_grid", "kappa_grid", "gamma_inv_grid"),
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Read an INI experiment config; see the README for the schema."""
    path = Path(path)
    # default_section="" cannot be named in a file, so a [DEFAULT] section is
    # an ordinary section here and is rejected as unknown below
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), default_section="")
    with open(path) as handle:
        parser.read_file(handle)
    for name in parser.sections():
        if name not in _CONFIG_KEYS:
            raise DomainError(
                f"unknown config section [{name}]; allowed sections: "
                + ", ".join(f"[{known}]" for known in _CONFIG_KEYS)
            )
        unknown = [key for key in parser[name] if key not in _CONFIG_KEYS[name]]
        if unknown:
            raise DomainError(
                f"unknown key {unknown[0]!r} in [{name}]; allowed keys: "
                + ", ".join(_CONFIG_KEYS[name])
            )
    for name in ("signal", "scenario"):
        if name not in parser:
            raise DomainError(f"config must have a [{name}] section")
    signal = parser["signal"]
    ambient_dim = int(signal.get("ambient_dim", "0"))
    if ambient_dim < 1:
        raise DimensionError("signal.ambient_dim must be a positive integer")
    mean = _parse_vector(signal.get("mean", "zeros"), ambient_dim, path.parent)
    model = SignalModel(
        ambient_dim=ambient_dim,
        mean=mean,
        signal_variance=_get_float(signal, "signal_variance", 0.0),
        noise_variance=_get_float(signal, "noise_variance"),
    )
    sc = parser["scenario"]
    injection = None
    if "injection" in parser:
        inj = parser["injection"]
        injection = InjectionPolicy(
            fraction=_get_float(inj, "fraction"),
            p10=_get_float(inj, "p10"),
            p20=_get_float(inj, "p20"),
            p11=_get_float(inj, "p11"),
            p21=_get_float(inj, "p21"),
            kappa=_get_float(inj, "kappa", 0.0),
            art_variance=_get_float(inj, "art_variance", 0.0),
        )
    scenario = Scenario(
        model=model,
        compressed_dim=int(sc.get("compressed_dim", "0")),
        num_nodes=int(sc.get("num_nodes", "0")),
        priors=(
            _get_float(sc, "prior_h0", 0.5),
            _get_float(sc, "prior_h1", 0.5),
        ),
        seed=int(sc.get("seed", "0")),
        trials=int(sc.get("trials", "10000")),
        injection=injection,
    )
    analysis_eps = 0.1
    if "analysis" in parser:
        analysis_eps = _get_float(parser["analysis"], "embedding_eps", 0.1)
    design = dict(parser["design"]) if "design" in parser else None
    return ExperimentConfig(
        scenario=scenario, analysis_eps=analysis_eps, design=design
    )


def _scenario_operator(scenario: Scenario):
    return gen_projection(
        scenario.compressed_dim,
        scenario.model.ambient_dim,
        RngContract(scenario.seed, PHI_STREAM_BASE),
    )


def _write_report(path, pairs: list[tuple[str, object]]) -> None:
    with open(path, "w") as handle:
        for key, value in pairs:
            handle.write(f"{key} = {format_value(value)}\n")


def _write_csv(path, header: list[str], rows: list[list[object]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(cell) for cell in row])


def _analyze_pairs(config: ExperimentConfig) -> list[tuple[str, object]]:
    scenario = config.scenario
    model = scenario.model
    op = _scenario_operator(scenario)
    c = scenario.compression_ratio
    n = scenario.num_nodes
    pairs: list[tuple[str, object]] = [
        ("ambient_dim", model.ambient_dim),
        ("compressed_dim", scenario.compressed_dim),
        ("compression_ratio", c),
        ("num_nodes", n),
        ("prior_h0", scenario.priors[0]),
        ("prior_h1", scenario.priors[1]),
        ("seed", scenario.seed),
    ]
    energy = op.projector_energy(model.mean)
    if scenario.injection is not None:
        policy = scenario.injection
        pairs.append(("case", "injection"))
        sigma2 = model.signal_variance + model.noise_variance + policy.art_variance
        pairs += [
            ("fraction", policy.fraction),
            ("kappa", policy.kappa),
            ("art_variance", policy.art_variance),
            ("p_b", policy.p_b),
            ("p_t", policy.p_t),
            ("p_t_e", policy.p_t_e),
            ("sigma2", sigma2),
            ("num_injecting", scenario.num_injecting),
        ]
        report = analytics.deflection_report(policy, c, model.mean_energy, sigma2)
        pairs += [
            ("d_fc", report.d_fc),
            ("d_ev", report.d_ev),
            ("d_clean", report.d_clean),
            ("d_tilde", report.d_tilde),
            ("r_b", report.intermediates["r_b"]),
        ]
        blinding = policy.fraction * policy.p_b * policy.kappa
        pairs.append(("blinding_product", blinding))
        pairs.append(("eavesdropper_blinded", abs(blinding - 1.0) <= 1e-12))
        if policy.p_b > 0:
            pairs.append(
                ("kappa_perfect", secrecy.perfect_secrecy_kappa(policy.fraction, policy.p_b))
            )
    elif model.is_deterministic:
        pairs.append(("case", "deterministic"))
        snr = model.mean_energy / model.noise_variance
        lower, upper = analytics.pe_deterministic_bounds(c, n, snr, config.analysis_eps)
        deflection = analytics.deterministic_deflection(
            energy, model.noise_variance, n
        )
        pe_exact = analytics.pe_deterministic_exact(
            energy, model.noise_variance, n, scenario.priors
        )
        pairs += [
            ("snr", snr),
            ("projected_energy", energy),
            ("pe_exact", pe_exact),
            ("pe_approx", analytics.pe_deterministic_approx(c, n, snr)),
            ("embedding_eps", config.analysis_eps),
            ("pe_lower", lower),
            ("pe_upper", upper),
            ("pe_chernoff", analytics.pe_deterministic_chernoff(c, n, snr)),
            ("deflection", deflection),
        ]
    else:
        pairs.append(("case", "random"))
        approx = analytics.pe_random_approx(
            c, n, model.ambient_dim, model.mean_energy,
            model.signal_variance, model.noise_variance,
        )
        exact = analytics.pe_random_exact(
            model, scenario.compressed_dim, n, energy, scenario.priors
        )
        pairs += [
            ("mean_energy", model.mean_energy),
            ("projected_mean_energy", energy),
            ("threshold_raw", exact.threshold),
            ("threshold_transformed", exact.threshold_transformed),
            ("tau0", approx.tau0),
            ("tau1", approx.tau1),
            ("pe_approx", approx.pe),
            ("pe_exact", exact.pe),
            ("pf_exact", exact.pf),
            ("pd_exact", exact.pd),
            ("pe_chernoff", analytics.pe_random_chernoff(c, n, approx.tau0, approx.tau1)),
        ]
        if model.mean_energy == 0.0:
            pairs.append(("statistic_note", "zero mean: test reduces to the energy detector"))
    return pairs


def cmd_analyze(config: ExperimentConfig, out: str) -> int:
    """Write the closed-form report to `out` and the same values as a
    one-row CSV to `out`.csv."""
    pairs = _analyze_pairs(config)
    _write_report(out, pairs)
    _write_csv(
        str(out) + ".csv",
        [key for key, _ in pairs],
        [[value for _, value in pairs]],
    )
    return 0


def cmd_simulate(config: ExperimentConfig, out: str) -> int:
    """Run estimate_errors on the config's scenario and write a one-row CSV."""
    scenario = config.scenario
    op = _scenario_operator(scenario)
    result = estimate_errors(scenario, op, scenario.trials)
    theory, d_fc, d_ev = closed_form_columns(scenario, op)
    header = [
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
    row = [
        result.trials,
        result.pe_fc,
        result.pe_fc_ci,
        result.pf_fc,
        result.pd_fc,
        result.pe_ev,
        result.pe_ev_ci,
        theory,
        d_fc,
        d_ev,
        result.seed,
    ]
    _write_csv(out, header, [row])
    print(
        f"simulate: {result.trials} trials in {result.wallclock:.2f}s "
        f"(pe_fc={result.pe_fc:.5f})",
        file=sys.stderr,
    )
    return 0


def _design_grid(design: dict, key: str) -> list[float]:
    if key not in design:
        raise DomainError(f"constrained mode needs {key!r} in the [design] section")
    return [float(part) for part in str(design[key]).split(",") if part.strip() != ""]


def cmd_design(config: ExperimentConfig, out: str, mode: str | None) -> int:
    """Solve the secrecy design problem and serialize the solution."""
    scenario = config.scenario
    model = scenario.model
    policy = scenario.injection
    if policy is None:
        raise DomainError("design needs a scenario with an [injection] section")
    design = config.design or {}
    mode = mode or str(design.get("mode", "perfect"))
    if mode not in ("perfect", "constrained"):
        raise DomainError(f"mode must be 'perfect' or 'constrained', got {mode!r}")
    if model.mean_energy <= 0.0:
        raise DomainError("design needs a nonzero signal mean")
    if mode == "perfect":
        if "c_max" not in design or "fraction_min" not in design:
            raise DomainError(
                "perfect mode needs c_max and fraction_min in the [design] section"
            )
        solution = secrecy.optimize_perfect(
            float(design["c_max"]),
            float(design["fraction_min"]),
            policy,
            model.mean_energy,
            model.signal_variance + model.noise_variance,
        )
    else:
        if "tau" not in design:
            raise DomainError("constrained mode needs tau in the [design] section")
        tau = float(design["tau"])
        grids = {
            "c": _design_grid(design, "c_grid"),
            "fraction": _design_grid(design, "fraction_grid"),
            "kappa": _design_grid(design, "kappa_grid"),
            "gamma_inv": _design_grid(design, "gamma_inv_grid"),
        }
        solution = secrecy.optimize_constrained(
            tau,
            grids,
            policy,
            model.mean_energy,
            (model.signal_variance, model.noise_variance),
        )
    secrecy.write_solution(solution, out)
    return 0


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------


def _figure_policy(fraction: float, kappa: float, art_variance: float = 0.0) -> InjectionPolicy:
    return InjectionPolicy(
        fraction=fraction,
        p10=0.8,
        p20=0.1,
        p11=0.1,
        p21=0.8,
        kappa=kappa,
        art_variance=art_variance,
    )


def _fig2() -> tuple[list[str], list[list[object]]]:
    snr = 2.0
    rows: list[list[object]] = []
    for n in range(1, 26):
        for c in np.linspace(0.1, 1.0, 10):
            rows.append([n, float(c), analytics.pe_deterministic_approx(float(c), n, snr)])
    return ["n", "c", "pe"], rows


def _fig3(mean_norm2: float) -> tuple[list[str], list[list[object]]]:
    rows: list[list[object]] = []
    for c in np.linspace(0.05, 1.0, 20):
        for n in (1, 2, 5, 10, 20, 50):
            approx = analytics.pe_random_approx(float(c), n, 100, mean_norm2, 1.0, 20.0)
            rows.append([float(c), n, approx.pe])
    return ["c", "n", "pe"], rows


def _fig45(axis: str, quantity: str) -> tuple[list[str], list[list[object]]]:
    fn = analytics.deflection_fc if quantity == "d_fc" else analytics.deflection_ev
    rows: list[list[object]] = []
    kappas = np.linspace(0.0, 3.0, 31)
    if axis == "c":
        # injecting fraction fixed, mean_norm2 / sigma2 = 3
        for c in np.linspace(0.05, 1.0, 20):
            for kappa in kappas:
                policy = _figure_policy(0.3, float(kappa))
                rows.append([float(c), float(kappa), fn(policy, float(c), 3.0, 1.0)])
        return [axis, "kappa", quantity], rows
    # fraction axis: c * mean_norm2 / sigma2 = 3 held fixed via c = 1
    for fraction in np.linspace(0.05, 1.0, 20):
        for kappa in kappas:
            policy = _figure_policy(float(fraction), float(kappa))
            rows.append([float(fraction), float(kappa), fn(policy, 1.0, 3.0, 1.0)])
    return ["fraction", "kappa", quantity], rows


def _fig6() -> tuple[list[str], list[list[object]]]:
    snr = 10.0**0.5
    policy = _figure_policy(0.3, 1.0)
    rows: list[list[object]] = []
    for fraction in np.linspace(0.1, 1.0, 19):
        for c in np.linspace(0.05, 1.0, 20):
            rows.append(
                [
                    float(fraction),
                    float(c),
                    secrecy.dfc_perfect(float(c), float(fraction), policy.p_b, policy.p_t, snr),
                ]
            )
    return ["fraction", "c", "d_fc"], rows


def _fig7() -> tuple[list[str], list[list[object]]]:
    policy_base = _figure_policy(0.3, 0.0)
    kappa = secrecy.perfect_secrecy_kappa(0.3, policy_base.p_b)
    rows: list[list[object]] = []
    for gamma_inv in np.linspace(0.0, 10.0, 41):
        policy = _figure_policy(0.3, kappa, float(gamma_inv))
        sigma2 = 1.0 + 10.0 + float(gamma_inv)
        rows.append([float(gamma_inv), analytics.deflection_fc(policy, 0.2, 5.0, sigma2)])
    return ["gamma_inv", "d_fc"], rows


FIGURES: dict[str, dict] = {
    "2": {
        "describe": "deterministic-signal error probability over node count and "
        "compression ratio at snr=2 (3 dB)",
        "params": {"snr": 2.0, "n": "1..25", "c": "0.1..1.0"},
        "build": _fig2,
    },
    "3a": {
        "describe": "random-signal error probability over compression ratio and "
        "node count; zero mean, variances (1, 20), ambient_dim 100",
        "params": {"alpha_inv": 1.0, "beta_inv": 20.0, "ambient_dim": 100, "mean_norm2": 0.0},
        "build": lambda: _fig3(0.0),
    },
    "3b": {
        "describe": "random-signal error probability with mean energy 1e-3; "
        "variances (1, 20), ambient_dim 100",
        "params": {"alpha_inv": 1.0, "beta_inv": 20.0, "ambient_dim": 100, "mean_norm2": 1e-3},
        "build": lambda: _fig3(1e-3),
    },
    "4a": {
        "describe": "fusion-center deflection over compression ratio and "
        "injection scale; fraction 0.3, flips 0.8/0.1, mean_norm2/sigma2 = 3",
        "params": {"fraction": 0.3, "flips": "0.8/0.1", "mean_over_sigma2": 3.0},
        "build": lambda: _fig45("c", "d_fc"),
    },
    "4b": {
        "describe": "eavesdropper deflection over compression ratio and "
        "injection scale; fraction 0.3, flips 0.8/0.1, mean_norm2/sigma2 = 3",
        "params": {"fraction": 0.3, "flips": "0.8/0.1", "mean_over_sigma2": 3.0},
        "build": lambda: _fig45("c", "d_ev"),
    },
    "5a": {
        "describe": "fusion-center deflection over injecting fraction and "
        "injection scale; c * mean_norm2 / sigma2 = 3",
        "params": {"flips": "0.8/0.1", "c_times_mean_over_sigma2": 3.0},
        "build": lambda: _fig45("fraction", "d_fc"),
    },
    "5b": {
        "describe": "eavesdropper deflection over injecting fraction and "
        "injection scale; c * mean_norm2 / sigma2 = 3",
        "params": {"flips": "0.8/0.1", "c_times_mean_over_sigma2": 3.0},
        "build": lambda: _fig45("fraction", "d_ev"),
    },
    "6": {
        "describe": "fusion-center deflection on the blinding manifold over "
        "fraction and compression ratio at snr = 10^0.5 (5 dB)",
        "params": {"snr": 10.0**0.5, "flips": "0.8/0.1"},
        "build": _fig6,
    },
    "7": {
        "describe": "fusion-center deflection versus artificial-noise variance; "
        "mean_norm2 5, noise variance 10, signal variance 1, c 0.2, fraction "
        "0.3, kappa on the blinding manifold",
        "params": {"mean_norm2": 5.0, "beta_inv": 10.0, "alpha_inv": 1.0, "c": 0.2, "fraction": 0.3},
        "build": _fig7,
    },
}


def cmd_figure(figure_id: str, out: str | None, describe: bool) -> int:
    """Emit one reference parameter study as CSV (or print its parameters)."""
    if figure_id not in FIGURES:
        raise UnknownFigureError(
            f"unknown figure id {figure_id!r}; known ids: {sorted(FIGURES)}"
        )
    preset = FIGURES[figure_id]
    if describe:
        print(f"figure {figure_id}: {preset['describe']}")
        for key, value in preset["params"].items():
            print(f"{key} = {value}")
        return 0
    if out is None:
        raise DomainError("figure needs --out when --describe is not given")
    header, rows = preset["build"]()
    _write_csv(out, header, rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccdet",
        description="Collaborative compressive detection experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="closed-form report for a config")
    analyze.add_argument("--config", required=True, help="INI config path")
    analyze.add_argument("--out", required=True, help="report output path")
    analyze.add_argument("--seed", type=int, default=None, help="override scenario seed")

    simulate = sub.add_parser("simulate", help="Monte Carlo error estimation")
    simulate.add_argument("--config", required=True, help="INI config path")
    simulate.add_argument("--out", required=True, help="CSV output path")
    simulate.add_argument("--trials", type=int, default=None, help="override trial budget")
    simulate.add_argument("--seed", type=int, default=None, help="override scenario seed")

    design = sub.add_parser("design", help="secrecy-constrained design")
    design.add_argument("--config", required=True, help="INI config path")
    design.add_argument("--out", required=True, help="solution output path")
    design.add_argument(
        "--mode", choices=("perfect", "constrained"), default=None,
        help="override the [design] mode",
    )

    figure = sub.add_parser("figure", help="reference parameter studies")
    figure.add_argument("--figure", required=True, help="figure id (2, 3a, ... 7)")
    figure.add_argument("--out", default=None, help="CSV output path")
    figure.add_argument(
        "--describe", action="store_true", help="print the preset parameters and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "figure":
            return cmd_figure(args.figure, args.out, args.describe)
        config = load_config(args.config)
        if getattr(args, "seed", None) is not None:
            config = replace(
                config, scenario=replace(config.scenario, seed=args.seed)
            )
        if args.command == "analyze":
            return cmd_analyze(config, args.out)
        if args.command == "simulate":
            if args.trials is not None:
                config = replace(
                    config, scenario=replace(config.scenario, trials=args.trials)
                )
            return cmd_simulate(config, args.out)
        return cmd_design(config, args.out, args.mode)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
