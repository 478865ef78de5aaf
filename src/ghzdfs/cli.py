"""Command-line front end: single runs, detuning-ratio sweeps and storage
dephasing tests, with plot-ready CSV/JSON output.

Subcommands
-----------
``run``      one transfer per coefficient pair, scored against the target
``sweep``    full-dynamics transfer across a grid of delta/mu ratios
``dephase``  encoded vs bare storage fidelity across a phase-noise grid

Configuration is a flat ``section.key = value`` text file (``#`` comments).
Frequencies must be annotated to avoid 2*pi ambiguity: either ``2pi*10 MHz``
(converted to rad/s at parse time) or an explicit ``6.28e7 rad/s``.  Times
take ``s``/``ms``/``us``/``ns`` suffixes.  A bare number is taken verbatim
in internal units (rad/s, seconds).

Recognized keys::

    protocol.n, protocol.m, protocol.k, protocol.fock_cutoff,
    protocol.tau_p, protocol.tau_d, protocol.omega_c, protocol.quality_factor
    coupling.mu1, coupling.mu1_prime, coupling.mu, coupling.mu_prime,
    coupling.delta, coupling.delta_prime  (value or "auto")
    run.alpha, run.beta                   (complex literals)
    run.coeffs = random:N                 (N seeded draws instead)
    sweep.ratios = 5, 10, 20              (at least two)
    dephase.sigmas, dephase.trials, dephase.model, dephase.couplings

A register whose state vector would exceed ``MAX_STATE_BYTES`` (256 MiB,
so n <= 4) is a configuration error.

Exit codes: 0 success, 1 simulation failure, 2 configuration error.  Output
is byte-stable: the same config and seed always produce identical files.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .dephasing import DephasingModel, bare_ghz_memory_state, storage_fidelity_ensemble
from .hilbert import build_space
from .operators import CouplingParams
from .protocol import (
    GhzCoefficients,
    ProtocolParams,
    cavity_lifetime,
    leakage_estimate,
    matched_deltap,
    run_transfer,
    target_state,
)

EXIT_OK = 0
EXIT_SIMULATION = 1
EXIT_CONFIG = 2

# Largest full-register state vector a config may ask for: n = 4 at cutoff 2
# needs 25.5 MB, n = 5 needs 689 MB and is refused at any cutoff.
MAX_STATE_BYTES = 256 * 2**20
_AMPLITUDE_BYTES = 16


class ConfigError(ValueError):
    """Anything wrong with the configuration file or parameter values."""


# -- quantity and config parsing ----------------------------------------------

_FREQ_SCALE = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
_TIME_SCALE = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
_NUMBER = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"


def parse_quantity(text: str) -> float:
    """One annotated physical quantity to internal units (rad/s or seconds)."""
    text = text.strip()
    m = re.fullmatch(rf"2pi\s*\*\s*({_NUMBER})\s*(Hz|kHz|MHz|GHz)", text)
    if m:
        return 2.0 * math.pi * float(m.group(1)) * _FREQ_SCALE[m.group(2)]
    m = re.fullmatch(rf"({_NUMBER})\s*rad/s", text)
    if m:
        return float(m.group(1))
    m = re.fullmatch(rf"({_NUMBER})\s*(s|ms|us|ns)", text)
    if m:
        return float(m.group(1)) * _TIME_SCALE[m.group(2)]
    m = re.fullmatch(rf"({_NUMBER})\s*(Hz|kHz|MHz|GHz)", text)
    if m:
        raise ConfigError(
            f"ambiguous frequency {text!r}: write '2pi*{m.group(1)} {m.group(2)}' "
            "for an ordinary frequency or give the value in rad/s"
        )
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"cannot parse quantity {text!r}") from None


_KNOWN_KEYS = {
    "protocol.n", "protocol.m", "protocol.k", "protocol.fock_cutoff",
    "protocol.tau_p", "protocol.tau_d", "protocol.omega_c", "protocol.quality_factor",
    "coupling.mu1", "coupling.mu1_prime", "coupling.mu", "coupling.mu_prime",
    "coupling.delta", "coupling.delta_prime",
    "run.alpha", "run.beta", "run.coeffs",
    "sweep.ratios",
    "dephase.sigmas", "dephase.trials", "dephase.model", "dephase.couplings",
}


def parse_config(path: str | Path) -> dict[str, str]:
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        entries[key] = value
    return entries


def _get_int(entries: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in entries:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(entries[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {entries[key]!r}") from None


def _get_quantity(entries: dict[str, str], key: str,
                  default: float | None = None) -> float:
    if key not in entries:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return parse_quantity(entries[key])
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _get_float_list(entries: dict[str, str], key: str) -> list[float]:
    if key not in entries:
        raise ConfigError(f"missing required key {key!r}")
    try:
        return [float(part) for part in entries[key].split(",")]
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list of numbers") from None


def resolve_params(entries: dict[str, str]) -> ProtocolParams:
    """ProtocolParams from a parsed config; 'auto' matches delta' to the
    commensurability condition."""
    n = _get_int(entries, "protocol.n")
    m = _get_int(entries, "protocol.m", 0)
    k = _get_int(entries, "protocol.k", 0)
    defaults = ProtocolParams.__dataclass_fields__
    kwargs = dict(
        mu1=_get_quantity(entries, "coupling.mu1"),
        mu1p=_get_quantity(entries, "coupling.mu1_prime"),
        mu=_get_quantity(entries, "coupling.mu"),
        mup=_get_quantity(entries, "coupling.mu_prime"),
        delta=_get_quantity(entries, "coupling.delta"),
    )
    deltap_raw = entries.get("coupling.delta_prime", "auto")
    try:
        if deltap_raw.strip() == "auto":
            coupling = matched_deltap(
                CouplingParams(deltap=kwargs["delta"], **kwargs), m, k)
        else:
            coupling = CouplingParams(deltap=parse_quantity(deltap_raw), **kwargs)
        params = ProtocolParams(
            n=n,
            coupling=coupling,
            m=m,
            k=k,
            fock_cutoff=_get_int(entries, "protocol.fock_cutoff",
                                 defaults["fock_cutoff"].default),
            tau_p=_get_quantity(entries, "protocol.tau_p", defaults["tau_p"].default),
            tau_d=_get_quantity(entries, "protocol.tau_d", defaults["tau_d"].default),
            omega_c=_get_quantity(entries, "protocol.omega_c",
                                  defaults["omega_c"].default),
            quality_factor=_get_quantity(entries, "protocol.quality_factor",
                                         defaults["quality_factor"].default),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _require_register_fits(params)
    return params


def _require_register_fits(params: ProtocolParams) -> None:
    """Refuse a register whose state vector would exceed MAX_STATE_BYTES.

    The 3n qutrits and the cavity give 3^(3n) (cutoff + 1) amplitudes.  The
    comparison runs in logarithms so a huge n costs nothing to reject.
    """
    log_bytes = (3 * params.n * math.log(3)
                 + math.log(_AMPLITUDE_BYTES * (params.fock_cutoff + 1)))
    if log_bytes > math.log(MAX_STATE_BYTES):
        raise ConfigError(
            f"protocol.n = {params.n} with fock_cutoff = {params.fock_cutoff} needs "
            f"3^{3 * params.n} * {params.fock_cutoff + 1} amplitudes per state vector, "
            f"over the {MAX_STATE_BYTES // 2**20} MiB limit"
        )


def resolve_coefficients(entries: dict[str, str], seed: int) -> list[GhzCoefficients]:
    """Coefficient pairs from the config: explicit alpha/beta or 'random:N'."""
    if "run.coeffs" in entries:
        if "run.alpha" in entries or "run.beta" in entries:
            raise ConfigError("give either run.coeffs or run.alpha/run.beta, not both")
        m = re.fullmatch(r"random:(\d+)", entries["run.coeffs"].strip())
        if not m:
            raise ConfigError("run.coeffs must look like 'random:N'")
        count = int(m.group(1))
        if count < 1:
            raise ConfigError("run.coeffs draw count must be positive")
        rng = np.random.default_rng(seed)
        return [GhzCoefficients.random(rng) for _ in range(count)]
    try:
        alpha = complex(entries["run.alpha"]) if "run.alpha" in entries else None
        beta = complex(entries["run.beta"]) if "run.beta" in entries else None
    except ValueError:
        raise ConfigError("run.alpha / run.beta must be complex literals") from None
    if alpha is None and beta is None:
        return [GhzCoefficients.balanced()]
    if alpha is None or beta is None:
        raise ConfigError("run.alpha and run.beta must be given together")
    try:
        return [GhzCoefficients(alpha, beta)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- records and serialization -------------------------------------------------

# fixed column order; documented in the README
RUN_COLUMNS = (
    "mode", "seed", "n", "m", "k", "fock_cutoff",
    "mu1", "mu1_prime", "mu", "mu_prime", "delta", "delta_prime",
    "tau_p", "tau_d", "omega_c", "quality_factor",
    "alpha_re", "alpha_im", "beta_re", "beta_im",
    "t1", "t2", "t3", "total_time",
    "p_estimate", "p_prime_estimate", "kappa_inv",
    "fidelity", "leakage_f_max", "leakage_photon",
)
SWEEP_COLUMNS = ("ratio",) + RUN_COLUMNS
DEPHASE_COLUMNS = (
    "sigma", "trials", "model", "seed", "n",
    "alpha_re", "alpha_im", "beta_re", "beta_im",
    "encoded_mean", "encoded_stderr", "bare_mean", "bare_stderr",
)

_FIXED6 = {"fidelity", "encoded_mean", "bare_mean"}
_PLAIN = {"mode", "model", "seed", "n", "m", "k", "fock_cutoff", "trials"}


def _format_value(column: str, value) -> str:
    if column in _PLAIN:
        return str(value)
    if column in _FIXED6:
        return f"{value:.6f}"
    return f"{value:.12e}"


def write_records(records: list[dict], columns: Sequence[str], out: str | None,
                  fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_format_value(c, rec[c]) for c in columns) for rec in records]
        text = "\n".join(lines) + "\n"
    else:
        rows = [{c: (rec[c] if c in _PLAIN else float(rec[c])) for c in columns}
                for rec in records]
        text = json.dumps(rows, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _run_record(params: ProtocolParams, coeffs: GhzCoefficients, mode: str,
                seed: int) -> dict:
    result = run_transfer(params, coeffs, mode)
    p, pp = leakage_estimate(params)
    c = params.coupling
    return {
        "mode": mode, "seed": seed, "n": params.n, "m": params.m, "k": params.k,
        "fock_cutoff": params.fock_cutoff,
        "mu1": c.mu1, "mu1_prime": c.mu1p, "mu": c.mu, "mu_prime": c.mup,
        "delta": c.delta, "delta_prime": c.deltap,
        "tau_p": params.tau_p, "tau_d": params.tau_d,
        "omega_c": params.omega_c, "quality_factor": params.quality_factor,
        "alpha_re": coeffs.alpha.real, "alpha_im": coeffs.alpha.imag,
        "beta_re": coeffs.beta.real, "beta_im": coeffs.beta.imag,
        "t1": params.t1, "t2": params.t2, "t3": params.t3,
        "total_time": result.total_time,
        "p_estimate": p, "p_prime_estimate": pp,
        "kappa_inv": cavity_lifetime(params),
        "fidelity": result.fidelity_to_target,
        "leakage_f_max": result.max_f_leakage,
        "leakage_photon": result.leakage_photon,
    }


# -- subcommands ----------------------------------------------------------------


def cmd_run(entries: dict[str, str], args: argparse.Namespace) -> list[dict]:
    params = resolve_params(entries)
    mode = args.mode or "ideal"
    return [_run_record(params, coeffs, mode, args.seed)
            for coeffs in resolve_coefficients(entries, args.seed)]


def _sweep_point(base: ProtocolParams, coeffs: GhzCoefficients, ratio: float,
                 mode: str, seed: int) -> dict:
    c = base.coupling
    coupling = matched_deltap(
        CouplingParams(mu1=c.mu1, mu1p=c.mu1p, mu=c.mu, mup=c.mup,
                       delta=ratio * c.mu, deltap=ratio * c.mup),
        base.m, base.k)
    params = ProtocolParams(
        n=base.n, coupling=coupling, m=base.m, k=base.k,
        fock_cutoff=base.fock_cutoff, tau_p=base.tau_p, tau_d=base.tau_d,
        omega_c=base.omega_c, quality_factor=base.quality_factor)
    record = {"ratio": ratio}
    record.update(_run_record(params, coeffs, mode, seed))
    return record


def cmd_sweep(entries: dict[str, str], args: argparse.Namespace) -> list[dict]:
    base = resolve_params(entries)
    ratios = sorted(_get_float_list(entries, "sweep.ratios"))
    if len(ratios) < 2:
        raise ConfigError("sweep.ratios needs a grid of at least two ratios")
    if any(r <= 0 for r in ratios):
        raise ConfigError("detuning ratios must be positive")
    coeffs_list = resolve_coefficients(entries, args.seed)
    if len(coeffs_list) != 1:
        raise ConfigError("sweep uses a single coefficient pair")
    mode = args.mode or "full"
    jobs = [(base, coeffs_list[0], ratio, mode, args.seed) for ratio in ratios]
    try:
        workers = min(len(jobs), os.cpu_count() or 1)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_point_star, jobs))
    except (OSError, PermissionError):  # restricted environments: run in-process
        records = [_sweep_point_star(job) for job in jobs]
    return records


def _sweep_point_star(job) -> dict:
    return _sweep_point(*job)


def cmd_dephase(entries: dict[str, str], args: argparse.Namespace) -> list[dict]:
    params = resolve_params(entries)
    sigmas = _get_float_list(entries, "dephase.sigmas")
    if any(s < 0 for s in sigmas):
        raise ConfigError("dephase.sigmas must be non-negative")
    trials = _get_int(entries, "dephase.trials", 2000)
    if trials < 2:
        raise ConfigError("dephase.trials must be at least 2")
    model_mode = entries.get("dephase.model", "collective_pair")
    coeffs_list = resolve_coefficients(entries, args.seed)
    if len(coeffs_list) != 1:
        raise ConfigError("dephase uses a single coefficient pair")
    coeffs = coeffs_list[0]

    space = build_space(params.n, params.fock_cutoff)
    if "dephase.couplings" in entries:
        couplings = _get_float_list(entries, "dephase.couplings")
        if len(couplings) == 1:
            couplings = couplings * space.n_pairs
        if len(couplings) not in (space.n_pairs, 2 * space.n_pairs):
            raise ConfigError("dephase.couplings must broadcast over the memory register")
    else:
        couplings = [1.0] * space.n_pairs
    encoded = target_state(space, params, coeffs)
    bare = bare_ghz_memory_state(space, coeffs.alpha, coeffs.beta)

    records = []
    for sigma in sigmas:
        try:
            model = DephasingModel(model_mode, tuple(couplings), sigma, trials)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        enc_mean, enc_err = storage_fidelity_ensemble(encoded, space, model, args.seed)
        bare_mean, bare_err = storage_fidelity_ensemble(bare, space, model, args.seed)
        records.append({
            "sigma": sigma, "trials": trials, "model": model_mode, "seed": args.seed,
            "n": params.n,
            "alpha_re": coeffs.alpha.real, "alpha_im": coeffs.alpha.imag,
            "beta_re": coeffs.beta.real, "beta_im": coeffs.beta.imag,
            "encoded_mean": enc_mean, "encoded_stderr": enc_err,
            "bare_mean": bare_mean, "bare_stderr": bare_err,
        })
    return records


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzdfs",
        description="GHZ-to-memory transfer simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run one transfer per configured coefficient pair"),
        ("sweep", "transfer across a grid of delta/mu ratios"),
        ("dephase", "encoded vs bare storage fidelity under phase noise"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the configuration file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0, help="seed for all random draws")
        p.add_argument("--mode", choices=("ideal", "full"), default=None,
                       help="dispersive-stage dynamics (default: ideal for run, "
                            "full for sweep)")
    return parser


_COMMANDS = {"run": (cmd_run, RUN_COLUMNS),
             "sweep": (cmd_sweep, SWEEP_COLUMNS),
             "dephase": (cmd_dephase, DEPHASE_COLUMNS)}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, columns = _COMMANDS[args.command]
    try:
        entries = parse_config(args.config)
        records = handler(entries, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - simulation failures map to exit 1
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    write_records(records, columns, args.out, args.format)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
