"""Command-line interface: one subcommand per scenario, plus identity
verification and an `all` target that runs the subcommands of its table
`_ALL_RUNS` into one directory, each exactly as the command line would.

Contract: every successful run writes its outputs atomically together with
a JSON run manifest (command, flags, config, output list, status); identical
invocations produce byte-identical files, and all.manifest.json lists the
outputs of `all`'s runs.  Exit codes: 0 success, 1 runtime or verification
failure, 2 bad flags, config or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import amplitude_grid, find_w_crossings
from .dynamics import PropagationError
from .experiments import (
    DEFAULT_CHI_T_MAX_OVER_PI,
    DEFAULT_POINTS,
    ScenarioResult,
    _make_dirs,
    optimize_g1,
    optimize_to_scenario,
    reference_spec,
    scenario_population,
    sweep_fidelity_map_g2,
    sweep_fidelity_vs_time,
    sweep_gm,
    sweep_werner,
    write_json,
    write_result,
)
from .hamiltonians import verify_sw_identities
from .model import DISPERSIVE_WARN_RATIO, _chi_homogeneous, dispersive_validity, load_spec

#: residual bounds that sw-verify enforces for exit status
SW_R1_BOUND = 1.0e-10
SW_DRIFT_BOUND = 1.0e-10

#: the runs `all` stands for: subcommand argv and output file name in --outdir
_ALL_RUNS = (
    (["evolve", "--n", "3", "--kappa-mhz", "0.5"], "population_n3.csv"),
    (["fidelity", "--n", "3"], "fidelity_n3.csv"),
    (["crossings", "--n", "3"], "crossings_n3.csv"),
    (["evolve", "--n", "4", "--kappa-mhz", "0.5"], "population_n4.csv"),
    (["fidelity", "--n", "4"], "fidelity_n4.csv"),
    (["crossings", "--n", "4"], "crossings_n4.csv"),
    (["optimize-g1", "--n", "5"], "optimize_g1_n5.csv"),
    (["gm-sweep"], "gm_sweep.csv"),
    (["werner"], "werner_sweep.csv"),
    (["map-g2"], "fidelity_map_g2.csv"),
    (["sw-verify", "--n", "3"], "sw_verify.json"),
)


def main(argv=None) -> int:
    return _run(_build_parser().parse_args(argv))


def _run(args) -> int:
    """Run a parsed command; bad input or an unusable path exits 2, a failed propagation 1."""
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PropagationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it
    unchanged and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="resonatorsim",
        description="Dispersive bus-coupled resonator network simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags several subcommands share, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=None,
                        help="system JSON file (default: standard working point)")
    both = [config, out]
    n_help = "number of distant resonators, default {} without --config"

    p = sub.add_parser("evolve", parents=both,
                       help="population trajectories (closed form vs ab initio)")
    p.add_argument("--n", type=int, default=None, help=n_help.format(3))
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--chi-t-max", type=float, default=None,
                     help="time-axis end in units of pi (chi*t/pi), "
                          f"default {DEFAULT_CHI_T_MAX_OVER_PI:g}")
    grp.add_argument("--t-max-us", type=float, default=None,
                     help="time-axis end in microseconds")
    p.add_argument("--points", type=int, default=DEFAULT_POINTS)
    p.add_argument("--kappa-mhz", type=float, default=None,
                   help="also tabulate damped populations at this uniform rate")
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser("crossings", parents=[out], help="equal-population times of the closed form")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--chi-t-max", type=float, default=1.5,
                   help="search window end in units of pi")
    p.set_defaults(handler=_cmd_crossings)

    p = sub.add_parser("fidelity", parents=both, help="fidelity vs time for several decay rates")
    p.add_argument("--n", type=int, default=None, help=n_help.format(3))
    p.add_argument("--kappas-mhz", default=_default(sweep_fidelity_vs_time, "kappas_mhz"),
                   help="comma-separated decay rates in MHz")
    p.add_argument("--chi-t-max", type=float, default=DEFAULT_CHI_T_MAX_OVER_PI)
    p.add_argument("--points", type=int, default=DEFAULT_POINTS)
    p.set_defaults(handler=_cmd_fidelity)

    p = sub.add_parser("optimize-g1", parents=both, help="calibrate the first coupling for n >= 5")
    p.add_argument("--n", type=int, default=None, help=n_help.format(5))
    p.add_argument("--search-mhz", default=_default(optimize_g1, "search_mhz", ":"),
                   help="search interval lo:hi in MHz")
    p.set_defaults(handler=_cmd_optimize_g1)

    p = sub.add_parser("gm-sweep", parents=both,
                       help="fidelity vs direct resonator-resonator coupling")
    p.add_argument("--ratios", default=_default(sweep_gm, "ratios"),
                   help="comma-separated g/G_M ratios (inf = no direct coupling)")
    p.add_argument("--kappas-mhz", default=_default(sweep_gm, "kappas_mhz"))
    p.set_defaults(handler=_cmd_gm_sweep)

    p = sub.add_parser("werner", parents=both,
                       help="fidelity vs Werner mixing at the operation time")
    p.add_argument("--p-grid", default=None,
                   help="comma-separated purities, default 0,0.1,...,1")
    p.add_argument("--thetas-pi", default=_default(sweep_werner, "thetas_pi"),
                   help="comma-separated overlap angles in units of pi")
    p.set_defaults(handler=_cmd_werner)

    p = sub.add_parser("map-g2", parents=both, help="fidelity map over second coupling and time")
    p.add_argument("--ratios", default=None,
                   help="comma-separated g2/g ratios, default 0.5,0.55,...,1.5")
    p.add_argument("--kappa-mhz", type=float,
                   default=_default(sweep_fidelity_map_g2, "kappa_mhz"))
    p.set_defaults(handler=_cmd_map_g2)

    p = sub.add_parser("sw-verify", parents=both, help="frame-transformation identity residuals")
    p.add_argument("--n", type=int, default=None, help=n_help.format(3))
    p.set_defaults(handler=_cmd_sw_verify)

    p = sub.add_parser("all", help="run every scenario subcommand into one directory")
    p.add_argument("--outdir", default="results")
    p.set_defaults(handler=_cmd_all)
    return parser


def _default(scenario, param: str, sep: str = ",") -> str:
    """The default of scenario's param as its flag takes it: each value with
    :g, joined by sep (argparse applies the flag's type to a string default)."""
    value = inspect.signature(scenario).parameters[param].default
    return sep.join(f"{v:g}" for v in np.atleast_1d(value))


# --- subcommand handlers ----------------------------------------------------


def _cmd_evolve(args) -> int:
    spec = _load_or_reference(args, 3)
    if args.t_max_us is not None:
        chi = _chi_homogeneous(spec)
        chi_t_max = args.t_max_us * chi / np.pi
    else:
        chi_t_max = args.chi_t_max if args.chi_t_max is not None else DEFAULT_CHI_T_MAX_OVER_PI
    res = scenario_population(
        spec.n, spec,
        with_kappa_mhz=args.kappa_mhz,
        chi_t_max_over_pi=chi_t_max,
        points=args.points,
    )
    _emit(args, res, f"population_n{spec.n}.csv")
    _warn_out_of_regime(spec)
    return 0


def _cmd_crossings(args) -> int:
    n = args.n
    roots = find_w_crossings(n, np.pi * args.chi_t_max)
    pops = np.abs(amplitude_grid(n, roots)) ** 2
    columns: dict = {"chi_t_over_pi": roots / np.pi}
    for j in range(n):
        columns[f"p_{j + 1}"] = pops[:, j]
    meta = {"name": f"crossings_n{n}", "n": n, "chi_t_max_over_pi": args.chi_t_max,
            "version": __version__}
    if len(roots):
        print("chi*t/pi: " + ", ".join(f"{r:g}" for r in np.round(roots / np.pi, 6)))
    else:
        print(f"no equal-population times for n={n} up to chi*t/pi = {args.chi_t_max:g}")
    _emit(args, ScenarioResult(meta["name"], columns, meta), f"crossings_n{n}.csv")
    return 0


def _cmd_fidelity(args) -> int:
    spec = _load_or_reference(args, 3)
    kappas = _float_list(args.kappas_mhz, "--kappas-mhz")
    res = sweep_fidelity_vs_time(
        spec.n, spec, kappas,
        chi_t_max_over_pi=args.chi_t_max,
        points=args.points,
    )
    _emit(args, res, f"fidelity_n{spec.n}.csv")
    x, *cols = res.columns.values()
    for k, col in zip(kappas, cols):
        i = int(np.argmax(col))
        print(f"kappa {k:g} MHz: peak fidelity {col[i]:.4f} at chi*t/pi = {x[i]:.3f}")
    _warn_out_of_regime(spec)
    return 0


def _cmd_optimize_g1(args) -> int:
    spec = _load_or_reference(args, 5)
    search = _parse_interval(args.search_mhz, "--search-mhz")
    result = optimize_g1(spec.n, spec, search)
    res = optimize_to_scenario(result, spec.n, spec)
    _emit(args, res, f"optimize_g1_n{spec.n}.csv")
    times = ", ".join(f"{t:.4f}" for t in result.chi_t_over_pi_equal)
    print(f"g1* = {result.g1_mhz:.3f} MHz (objective {result.objective:.3e})")
    print(f"near-equal times chi*t/pi: {times}")
    _warn_out_of_regime(spec)
    return 0


def _cmd_gm_sweep(args) -> int:
    spec = _load_or_reference(args, 3)
    ratios = _float_list(args.ratios, "--ratios", allow_inf=True)
    kappas = _float_list(args.kappas_mhz, "--kappas-mhz")
    res = sweep_gm(spec, ratios, kappas)
    _emit(args, res, "gm_sweep.csv")
    _, _, *cols = res.columns.values()
    for k, col in zip(kappas, cols):
        print(f"kappa {k:g} MHz: fidelity {col[0]:.4f} -> {col[-1]:.4f} over ratios")
    _warn_out_of_regime(spec)
    return 0


def _cmd_werner(args) -> int:
    spec = _load_or_reference(args, 3)
    p_grid = None if args.p_grid is None else _float_list(args.p_grid, "--p-grid")
    thetas = _float_list(args.thetas_pi, "--thetas-pi")
    res = sweep_werner(spec, p_grid, thetas)
    _emit(args, res, "werner_sweep.csv")
    _, *cols = res.columns.values()
    for th, col in zip(thetas, cols):
        print(f"theta = {th:g} pi: fidelity spans [{col.min():.4f}, {col.max():.4f}]")
    _warn_out_of_regime(spec)
    return 0


def _cmd_map_g2(args) -> int:
    spec = _load_or_reference(args, 3)
    ratios = None if args.ratios is None else _float_list(args.ratios, "--ratios")
    res = sweep_fidelity_map_g2(spec, ratios, kappa_mhz=args.kappa_mhz)
    _emit(args, res, "fidelity_map_g2.csv")
    _, *names = res.columns
    x, *cols = res.columns.values()
    # the flat argmax is row-major, so a tie goes to the first column
    b, i = np.unravel_index(np.argmax(cols), (len(cols), len(x)))
    print(f"map maximum {cols[b][i]:.4f} in column {names[b]} at chi*t/pi = {x[i]:.3f}")
    _warn_out_of_regime(spec)
    return 0


def _cmd_sw_verify(args) -> int:
    spec = _load_or_reference(args, 3)
    out = Path(args.out) if args.out else Path("sw_verify.json")
    rep = verify_sw_identities(spec)
    passed = rep.r1 <= SW_R1_BOUND and rep.eigenvalue_drift <= SW_DRIFT_BOUND
    report = {
        "r1_interaction_cancellation": rep.r1,
        "r2_second_order_truncation": rep.r2,
        "r2_relative": rep.r2_relative,
        "r3_dispersive_form_match": rep.r3,
        "eigenvalue_drift": rep.eigenvalue_drift,
        "spectrum_relative_error": rep.spectrum_relative_error,
        "passed": passed,
        "version": __version__,
    }
    write_json(out, report)
    _write_manifest(args, [out], "ok" if passed else "check_failed")
    for key, val in report.items():
        if isinstance(val, float):
            print(f"{key} = {val:.3e}")
    print(f"sw_verify: {'PASS' if passed else 'FAIL'} -> {out}")
    _warn_out_of_regime(spec)
    return 0 if passed else 1


def _cmd_all(args) -> int:
    outdir = Path(args.outdir)
    # refused once, before any run, rather than by every run's write
    _make_dirs(outdir)
    outputs: list = []
    codes = []
    parser = _build_parser()
    for argv, name in _ALL_RUNS:
        out = outdir / name
        codes.append(_run(parser.parse_args([*argv, "--out", str(out)])))
        manifest = out.with_name(out.stem + ".manifest.json")
        if codes[-1] == 0:  # a failed run has said why, and may have left no manifest
            listed = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
            outputs += [*listed, manifest]
    manifest = _write_manifest(args, outputs, "failed" if any(codes) else "ok",
                               manifest_path=outdir / "all.manifest.json")
    print(f"{codes.count(0)}/{len(codes)} runs ok, {len(outputs)} output files + {manifest}")
    return max(codes)


# --- shared plumbing --------------------------------------------------------


def _load_or_reference(args, default_n: int):
    """Spec from --config, which sets the resonator count (an explicit --n
    must agree with it), otherwise the standard working point with --n
    resonators, default_n when the command has no --n or it is not given.
    A scenario for a fixed count checks the spec itself."""
    n = getattr(args, "n", None)
    if args.config is None:
        return reference_spec(default_n if n is None else n)
    spec = load_spec(args.config)
    if n is not None and spec.n != n:
        raise ValueError(f"config {args.config} has {spec.n} resonators but the command needs {n}")
    return spec


def _warn_out_of_regime(spec) -> None:
    """One stderr line per resonator whose g/|Delta| dispersive_validity
    flags.  A command calls it after its run, so that a refusal comes first
    and alone; it prints rather than warnings.warn, which -W error would
    turn into a failure of the run."""
    for j, (ratio, flag) in enumerate(dispersive_validity(spec)):
        if flag == "warn":
            print(f"warning: resonator {j + 1} g/|Delta| = {ratio:.3g} is above "
                  f"{DISPERSIVE_WARN_RATIO:g}: the dispersive approximation may not hold",
                  file=sys.stderr)


def _emit(args, res: ScenarioResult, default_name: str) -> None:
    """Write res to --out (default_name when absent) with its manifest and
    report the row count under the default name's stem."""
    out = Path(args.out) if args.out else Path(default_name)
    files = write_result(res, out)
    _write_manifest(args, files, "ok")
    print(f"{Path(default_name).stem}: {res.rows} rows -> {out}")


def _write_manifest(args, outputs: list[Path], status: str,
                    manifest_path: Path | None = None) -> Path:
    path = manifest_path or outputs[0].with_name(outputs[0].stem + ".manifest.json")
    flags = {
        k: v
        for k, v in vars(args).items()
        if k != "command" and not callable(v)
    }
    payload = {
        "command": args.command,
        "args": flags,
        "config": getattr(args, "config", None),
        "outputs": [str(p) for p in outputs],
        "status": status,
        "version": __version__,
    }
    return write_json(path, payload)


def _float_list(raw: str, flag: str, allow_inf: bool = False) -> list[float]:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise ValueError(f"{flag} expects comma-separated numbers, got {token!r}") from None
        if not allow_inf and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {token!r}")
        values.append(value)
    if not values:
        raise ValueError(f"{flag} received no values")
    return values


def _parse_interval(raw: str, flag: str) -> tuple[float, float]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects lo:hi, got {raw!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"{flag} expects lo:hi numbers, got {raw!r}") from None
    return lo, hi
