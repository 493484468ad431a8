"""Experiment harness: config-driven subcommands with reproducible artifacts.

Every subcommand writes `report.json`, `summary.csv`, and `manifest.json`
into its output directory (plus subcommand-specific extras).  Report and
summary bodies are byte-identical across reruns with the same config;
wall-clock information lives only in the manifest.  Each artifact is
renamed into place whole, and the manifest, written last, marks a complete
run.  Exit codes: 0 success, 1 when at least one emitted row has
pass=false, 2 on configuration errors, non-finite samples, a run too large
to allocate, or output errors.
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import click
import numpy as np
import scipy

from . import __version__
from .calculus import REGISTRY_DEFAULT_SELECTION, make_registry_function
from .config import (
    ConfigError,
    ExperimentConfig,
    build_form,
    canonical_text,
    format_value,
    parse_config,
)
from .diffusion import (
    SPACE_REDUCED,
    PathConfig,
    _verdict,
    _z,
    endpoint_moments,
    heat_equation_report,
    levy_area_char_function,
    sample_unit_endpoints,
)
from .distance import cc_distance, cc_distance_reduced, lift
from .group import GroupElement, ReducedElement, wrap_angle
from .lsi import lsi_scan, quotient_invariance_report
from .model import SymplecticForm

SCHEMA_VERSION = 14

HEAT_DEFAULT_FS = ("poly_radial", "vertical_sq", "gauss_bump(1.0)")
QUOTIENT_DEFAULT_FS = ("cos_theta",)


# ---------------------------------------------------------------------------
# formatting helpers (deterministic, repr-based)


def _scrub(obj):
    """Make a structure JSON-safe: cast numpy scalars, map non-finite to null."""
    if isinstance(obj, dict):
        return {key: _scrub(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scrub(val) for val in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if math.isfinite(val) else None
    return obj


def _csv_text(echo_lines, rows) -> str:
    """Config echo, then a header taken from the first row's keys, then rows."""
    lines = [f"# {line}" for line in echo_lines]
    lines.append(",".join(rows[0]))
    for row in rows:
        lines.append(",".join(format_value(val) for val in row.values()))
    return "\n".join(lines) + "\n"


def _dat_text(echo_lines, columns, pairs) -> str:
    lines = [f"# {line}" for line in echo_lines]
    lines.append(f"# columns: {columns}")
    for x, y in pairs:
        lines.append(f"{format_value(x)} {format_value(y)}")
    return "\n".join(lines) + "\n"


@dataclass
class _Payload:
    results: dict
    rows: list  # summary.csv rows; every row has the same keys, "pass" among them
    # extra artifacts: name -> list of row dicts (.csv) or (columns, pairs) (.dat)
    extra_files: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# subcommand implementations: each is runner(cfg, workers, dump_endpoints)


def _sampled(cfg: ExperimentConfig, workers: int):
    """The config's form and one batch of its exact endpoints."""
    form = build_form(cfg)
    return form, sample_unit_endpoints([form], None, cfg.seed, cfg.m, workers)[0]


def _functions(cfg: ExperimentConfig, default, reduced: bool = False) -> list:
    """(selector, function) pairs of cfg.f, or else of the subcommand's
    default, built at the dimension 2n of the config's form.  Only periodic
    functions live on the reduced group G~ = G/2piZ: where they are read
    there, an explicit aperiodic f is a config error, raised before any
    sampling, and the default keeps its periodic members."""
    pairs = [(sel, make_registry_function(sel, 2 * cfg.n)) for sel in cfg.f or default]
    if reduced:
        errors = [f"f = {sel} is not vertical-periodic; only periodic functions live on "
                  f"{SPACE_REDUCED} = G/2piZ" for sel, f in pairs if not f.periodic]
        if cfg.f and errors:
            raise ConfigError(errors)
        pairs = [(sel, f) for sel, f in pairs if f.periodic]
    return pairs


def _run_simulate(cfg: ExperimentConfig, workers: int, dump_endpoints: bool) -> _Payload:
    """Endpoint moments of the hypoelliptic diffusion vs exact references."""
    form, batch = _sampled(cfg, workers)
    rows = []
    for t in cfg.t:
        mom = endpoint_moments(batch, t)
        for metric in ("hnorm_sq", "c_sq"):
            est, expected = mom[metric], mom[f"{metric}_expected"]
            rows.append(
                {
                    "t": float(t),
                    "metric": metric,
                    "mean": est.mean,
                    "std_error": est.std_error,
                    "expected": float(expected),
                    "z": _z(est.mean - expected, est.std_error),
                    "pass": _verdict(est.mean, est.std_error, expected),
                }
            )
    payload = _Payload(results={"moments": rows}, rows=rows)
    if dump_endpoints:
        t0 = cfg.t[0]
        w, c, theta = batch.w_at(t0), batch.c_at(t0), batch.theta_at(t0)
        payload.extra_files["endpoints.csv"] = [
            {
                "sample": i,
                **{f"w_{j + 1}": w[i, j] for j in range(form.dim)},
                "c": c[i],
                "theta": theta[i],
            }
            for i in range(batch.m)
        ]
        payload.results["endpoints_csv_ref"] = "endpoints.csv"
    return payload


def _run_heat_check(cfg: ExperimentConfig, workers: int, dump_endpoints: bool) -> _Payload:
    """Heat-equation residual d/dt E[f] - 0.5 E[L f]."""
    fs = _functions(cfg, HEAT_DEFAULT_FS)
    form, batch = _sampled(cfg, workers)
    rows = []
    for t in cfg.t:
        pcfg = PathConfig(t=float(t), base_seed=cfg.seed)
        for _, f in fs:
            rep = heat_equation_report(form, pcfg, f, cfg.m, workers=workers, batch=batch)
            rows.append(
                {
                    "t": float(t),
                    "f": f.name,
                    # the signed mean per-sample difference that z and pass test
                    "residual": math.copysign(rep.residual, rep.z),
                    "std_error": rep.std_error,
                    "skew": rep.skew,
                    "ddt_mean": rep.ddt.mean,
                    "half_generator_mean": rep.half_generator.mean,
                    "pass": rep.passed,
                }
            )
    return _Payload(results={"heat_check": rows}, rows=rows)


def _worst_cells(cells, t: float, key: str) -> dict:
    """The cell with the largest defined ratio at time t, per value of the
    LsiReport attribute `key`; undefined and error cells have no ratio."""
    out: dict = {}
    for rep in cells:
        if rep.t == t and rep.ratio is not None:
            k = getattr(rep, key)
            if k not in out or rep.ratio > out[k].ratio:
                out[k] = rep
    return out


def _run_lsi_scan(cfg: ExperimentConfig, workers: int, dump_endpoints: bool) -> _Payload:
    """Entropy/energy ratio grid over dimensions, forms, times, functions."""
    # lsi_scan builds each function again at every scanned dimension
    reduced = cfg.space == SPACE_REDUCED
    sels = [sel for sel, _ in _functions(cfg, REGISTRY_DEFAULT_SELECTION, reduced)]
    cells = lsi_scan(cfg.scan_forms, cfg.dims, cfg.t, sels, cfg.m,
                     base_seed=cfg.seed, c_ref=cfg.c_ref, space=cfg.space, workers=workers)
    rows = [rep.row() for rep in cells]
    json_rows = [asdict(rep) for rep in cells]
    summaries = {}
    extra = {}
    for idx, t in enumerate(cfg.t):
        by_dim = _worst_cells(cells, float(t), "n")
        by_f = _worst_cells(cells, float(t), "f_name")
        summaries[repr(float(t))] = {
            "per_dimension_max": {str(n): r.row() for n, r in sorted(by_dim.items())},
            "per_form_max": {name: r.row() for name, r in sorted(by_f.items())},
        }
        pairs = [(n, by_dim[n].ratio) for n in sorted(by_dim)]
        extra[f"max_ratio_vs_n_t{idx}.dat"] = ("n max_ratio", pairs)
    return _Payload({"cells": json_rows, "summaries": summaries}, rows, extra)


def _run_quotient_check(cfg: ExperimentConfig, workers: int, dump_endpoints: bool) -> _Payload:
    """Bitwise comparison of reduced-group vs lifted full-group functionals."""
    fs = _functions(cfg, QUOTIENT_DEFAULT_FS, reduced=True)
    form, batch = _sampled(cfg, workers)
    rows = []
    for t in cfg.t:
        pcfg = PathConfig(t=float(t), base_seed=cfg.seed)
        for _, f in fs:
            rep = quotient_invariance_report(form, pcfg, f, cfg.m, workers, batch)
            rows.append(
                {
                    "t": float(t),
                    "f": f.name,
                    "value_max_diff": rep.value_max_abs_diff,
                    "gradsq_max_diff": rep.grad_sq_max_abs_diff,
                    "l2_reduced": rep.l2_reduced,
                    "l2_lifted": rep.l2_lifted,
                    "entropy_reduced": rep.entropy_reduced,
                    "entropy_lifted": rep.entropy_lifted,
                    "energy_reduced": rep.energy_reduced,
                    "energy_lifted": rep.energy_lifted,
                    "pass": rep.bitwise_equal,
                }
            )
    return _Payload(results={"quotient_check": rows}, rows=rows)


def _run_distance(cfg: ExperimentConfig, workers: int, dump_endpoints: bool) -> _Payload:
    """Constrained-path distance to a configured target element."""
    form = build_form(cfg)
    w = np.asarray(cfg.target_w, dtype=float)
    if w.shape != (form.dim,):
        raise ConfigError([f"target_w has {w.size} entries but the form needs {form.dim}"])
    if cfg.space == SPACE_REDUCED:
        res = cc_distance_reduced(form, ReducedElement(w, wrap_angle(cfg.target_c)), K=cfg.K)
    else:
        res = cc_distance(form, GroupElement(w, float(cfg.target_c)), K=cfg.K)
    row = {
        "estimate": res.estimate,
        "residual": res.c_residual,
        "winning_k": res.winning_k,
        "converged": res.converged,
        "pass": res.converged,
    }
    results = {key: val for key, val in row.items() if key != "pass"}
    results["path_csv_ref"] = "path.csv"

    lifted = lift(form, res.path)
    path_rows = [
        {
            "node": k,
            **{f"w_{j + 1}": lifted.nodes[k, j] for j in range(form.dim)},
            "c": lifted.vertical[k],
        }
        for k in range(lifted.nodes.shape[0])
    ]
    plane_pairs = [(lifted.nodes[k, 0], lifted.nodes[k, 1]) for k in range(lifted.nodes.shape[0])]
    return _Payload(
        results=results,
        rows=[row],
        extra_files={"path.csv": path_rows, "path_plane.dat": ("w_1 w_2", plane_pairs)},
    )


def _levy_reference(form: SymplecticForm, lam: float, t: float) -> float:
    with np.errstate(over="ignore"):  # cosh overflows to inf, where the reference is 0
        return float(np.prod(1.0 / np.cosh(form.weights * lam * t / 2.0)))


def _run_levy_cf(cfg: ExperimentConfig, workers: int, dump_endpoints: bool) -> _Payload:
    """Characteristic function of the vertical coordinate vs closed form."""
    form, batch = _sampled(cfg, workers)
    rows = []
    extra = {}
    for idx, t in enumerate(cfg.t):
        pcfg = PathConfig(t=float(t), base_seed=cfg.seed)
        points = levy_area_char_function(form, pcfg, cfg.m, cfg.lambdas, workers, batch)
        first = len(rows)
        for pt in points:
            ref = _levy_reference(form, pt.lam, float(t))
            # the mean of cos(lam c) and the reference both lie in [-1, 1]: a band
            # of 2 or more passes any sample, so the cosine has no verdict
            cos_ok = _verdict(pt.cos_mean, pt.cos_se, ref, pt.allowance, span=2.0)
            # the sine vanishes in law; its allowance is a rounding floor
            ok = _verdict(pt.sin_mean, pt.sin_se, 0.0, 1e-12) and cos_ok
            rows.append(
                {
                    "t": float(t),
                    "lambda": pt.lam,
                    "cos_mean": pt.cos_mean,
                    "cos_se": pt.cos_se,
                    "sin_mean": pt.sin_mean,
                    "sin_se": pt.sin_se,
                    "reference": ref,
                    "pass": ok,
                }
            )
        for name, col in (("cf_curve", "cos_mean"), ("cf_reference", "reference")):
            pairs = [(row["lambda"], row[col]) for row in rows[first:]]
            extra[f"{name}_t{idx}.dat"] = (f"lambda {col}", pairs)
    return _Payload(results={"char_function": rows}, rows=rows, extra_files=extra)


# ---------------------------------------------------------------------------
# dispatch and artifact writing

# name -> runner; its docstring is the command's help
_SUBCOMMANDS = {
    "simulate": _run_simulate,
    "heat-check": _run_heat_check,
    "lsi-scan": _run_lsi_scan,
    "quotient-check": _run_quotient_check,
    "distance": _run_distance,
    "levy-cf": _run_levy_cf,
}


def run(
    subcommand: str,
    cfg: ExperimentConfig,
    workers: int = 1,
    out: Optional[str] = None,
    dump_endpoints: bool = False,
) -> int:
    """Execute one subcommand and write its artifacts; returns the exit code."""
    started = time.perf_counter()
    if subcommand not in _SUBCOMMANDS:
        click.echo(
            f"unknown subcommand {subcommand!r}; expected one of {tuple(_SUBCOMMANDS)}", err=True
        )
        return 2
    try:
        payload = _SUBCOMMANDS[subcommand](cfg, workers, dump_endpoints)
    except ConfigError as exc:
        for msg in exc.errors:
            click.echo(f"config error: {msg}", err=True)
        return 2
    except (RuntimeError, MemoryError) as exc:  # non-finite samples, or m too large
        click.echo(f"error: {subcommand}: {exc}", err=True)
        return 2

    out_dir = out or f"{subcommand}-out"
    echo_lines = canonical_text(cfg).splitlines()
    overall = all(row["pass"] is not False for row in payload.rows)
    report = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "config": echo_lines,
        "results": payload.results,
        "overall_pass": overall,
    }
    files = {
        "report.json": json.dumps(_scrub(report), sort_keys=True, indent=2) + "\n",
        "summary.csv": _csv_text(echo_lines, payload.rows),
    }
    for name, spec in payload.extra_files.items():
        files[name] = (
            _dat_text(echo_lines, *spec) if isinstance(spec, tuple) else _csv_text(echo_lines, spec)
        )
    try:
        os.makedirs(out_dir, exist_ok=True)
        # manifest.json marks a complete run, so an earlier run's goes first
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, "manifest.json"))
        for name, text in files.items():
            _write(out_dir, name, text)
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "subcommand": subcommand,
            "config": echo_lines,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "click": importlib.metadata.version("click"),
                "package": __version__,
            },
            "wall_time_s": time.perf_counter() - started,
            "generated_unix": time.time(),
        }
        _write(out_dir, "manifest.json", json.dumps(_scrub(manifest), sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        click.echo(f"cannot write artifact {exc.filename or out_dir!r}: {exc}", err=True)
        return 2
    click.echo(f"{subcommand}: {'ok' if overall else 'FAIL'} ({len(payload.rows)} rows) -> {out_dir}")
    return 0 if overall else 1


def _write(out_dir: str, name: str, text: str) -> None:
    """Write one artifact whole or not at all: the text goes to a temporary
    file in out_dir, which is then renamed over the final name."""
    tmp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# click wiring


def _common(fn):
    fn = click.option("--config", "config_file", default=None,
                      type=click.File("r", encoding="utf-8"),
                      help="Path to a key = value config file.")(fn)
    fn = click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                      help="Override one config key (repeatable; later wins).")(fn)
    fn = click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True,
                      metavar="INTEGER",
                      help="Worker threads, at most one per CPU; results are identical "
                           "for any count.")(fn)
    fn = click.option("--out", "out_dir", default=None, type=click.Path(file_okay=False),
                      help="Output directory (default: <subcommand>-out).")(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="heislab")
def main():
    """Heisenberg-group diffusion laboratory: simulate, check, scan, measure."""


def _register(subcommand: str, help_text: str) -> None:
    def command(config_file, overrides, workers, out_dir, dump_endpoints=False):
        try:
            cfg = parse_config(config_file.read() if config_file else "", overrides)
        except UnicodeDecodeError as exc:  # raised by the read, before any parsing
            click.echo(f"config error: {config_file.name}: {exc}", err=True)
            sys.exit(2)
        except ConfigError as exc:
            for msg in exc.errors:
                click.echo(f"config error: {msg}", err=True)
            sys.exit(2)
        sys.exit(run(subcommand, cfg, workers=workers, out=out_dir, dump_endpoints=dump_endpoints))

    if subcommand == "simulate":
        command = click.option("--dump-endpoints", is_flag=True,
                               help="Also write raw endpoints.csv.")(command)
    main.command(subcommand, help=help_text)(_common(command))


for _name, _runner in _SUBCOMMANDS.items():
    _register(_name, _runner.__doc__)


if __name__ == "__main__":
    main()
