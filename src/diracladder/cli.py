"""Command-line front end: spectrum tables, wavefunction export, verification.

The four table commands share one driver, `_cmd_table`: it resolves the
precision and the coupling and starts the metadata, the command's row builder
returns one list of rows (dicts of raw values) and adds its own metadata keys,
and `_emit` renders both to stdout as CSV with `#`-prefixed metadata lines, or
as JSON with a single {"meta": ..., "rows": ...} object.  Every run echoes the
working precision and the two convention flags in the metadata.  Exit codes:
0 success, 1 runtime/verification failure (or a reader that closed the pipe
early, which ends the run quietly), 2 usage error, 3 physics error
(supercritical channel or excluded state).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, precision, verify
from .channels import (
    bound_energy,
    make_channel,
    spectrum_table,
    zeta_from_charge,
)
from .errors import (
    DiracLadderError,
    DomainError,
    InvalidQuantumNumber,
    Supercritical,
    SupercriticalChannelWarning,
    UnphysicalState,
)
from .ladder import negative_branch_ground
from .oracle import compare_spectrum, divergence_check, truncated_norms
from .radial import build_solution, physical_normalize
from .report import _sup

# The two conventions that differ from a naive reading of the source
# relations; echoed in every output so downstream consumers know them.
CONVENTION_FLAGS = (
    "mu = zeta*E/kappa + 1/2 (half-unit offset; labels are mu = lambda + k)",
    "omega = j*(j+1) - zeta^2 (coupling enters squared)",
)


# most --grid points, 100x the benchmark's 1000-point grids: a huge count
# would exhaust memory in np.linspace before anything is evaluated
_MAX_GRID_POINTS = 100_000


def _grid_type(text: str):
    try:
        lo_s, hi_s, n_s = text.split(",")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must be 'min,max,count', got {text!r}") from exc
    if not (0 < lo < hi < math.inf) or not 1 <= n <= _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid needs 0 < min < max < inf and "
                                         f"1 <= count <= {_MAX_GRID_POINTS}, got {text!r}")
    return lo, hi, n


def _cutoffs_type(text: str):
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cutoffs must be comma-separated radii, got {text!r}") from exc


def _add_common(parser: argparse.ArgumentParser, extended: bool):
    # --precision only where the arithmetic honours it
    if extended:
        parser.add_argument("--precision", type=int, default=None, metavar="BITS",
                            help="working precision in bits, 53 to "
                                 f"{_MAX_PRECISION_BITS} (default 53)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_coupling(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--zeta", type=str, default=None,
                       help="Coulomb coupling zeta = Z*alpha, directly")
    group.add_argument("--Z", type=str, default=None,
                       help="nuclear charge; zeta = Z*alpha with the CODATA 2018 "
                            f"alpha = {precision.FINE_STRUCTURE_ALPHA}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracladder",
        description="Algebraic radial Dirac-Coulomb bound states with an "
                    "independent numerical oracle.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form bound-state table")
    _add_coupling(p)
    p.add_argument("--j-max", type=float, default=0.5)
    p.add_argument("--k-max", type=int, default=3, help=f"at most {_MAX_LEVEL}")
    p.add_argument("--no-collapse", action="store_true",
                   help="one row per (j, eps, k) state instead of merging "
                        "exactly degenerate eps pairs")
    p.add_argument("--si", action="store_true",
                   help="energies in MeV instead of units of mass, at the CODATA "
                        f"2018 electron rest energy {precision.ELECTRON_MASS_MEV} MeV")
    _add_common(p, extended=True)
    p.set_defaults(func=_cmd_table, body=_spectrum_rows)

    p = sub.add_parser("wavefunction", help="evaluate (rho, F, G) on a grid")
    _add_coupling(p)
    p.add_argument("--j", type=float, required=True)
    p.add_argument("--eps", type=int, choices=(-1, 1), required=True)
    p.add_argument("--k", type=int, required=True, help=f"at most {_MAX_LEVEL}")
    p.add_argument("--grid", type=_grid_type, default=(0.01, 20.0, 200),
                   metavar="MIN,MAX,COUNT")
    p.add_argument("--log", action="store_true", help="log-spaced grid")
    p.add_argument("--normalize", choices=("algebraic", "physical"),
                   default="algebraic")
    _add_common(p, extended=True)
    p.set_defaults(func=_cmd_table, body=_wavefunction_rows)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", action="append", choices=verify.SUITE_NAMES + ("all",),
                   default=None, help="repeatable; default all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle-compare",
                       help="algebraic vs shooting energies, side by side")
    _add_coupling(p)
    p.add_argument("--j-max", type=float, default=0.5)
    p.add_argument("--k-max", type=int, default=2, help=f"at most {_MAX_LEVEL}")
    _add_common(p, extended=False)
    p.set_defaults(func=_cmd_table, body=_oracle_compare_rows)

    p = sub.add_parser("demo-divergence",
                       help="truncated-norm growth of the negative branch")
    _add_coupling(p)
    p.add_argument("--j", type=float, default=0.5)
    p.add_argument("--eps", type=int, choices=(-1, 1), default=-1)
    p.add_argument("--cutoffs", type=_cutoffs_type, default=(5.0, 10.0, 20.0, 40.0),
                   metavar="R1,R2,...")
    _add_common(p, extended=False)
    p.set_defaults(func=_cmd_table, body=_demo_divergence_rows)
    return parser


# ---------------------------------------------------------------------------
# shared plumbing

# oracle-compare and demo-divergence compute in float64 only and take no
# --precision; their metadata says so
_FLOAT64_ONLY = (53, "fixed (float64 command)")

# highest --precision: mpmath's cost grows steeply with the bits, and an
# unbounded value can run for minutes
_MAX_PRECISION_BITS = 1024
# highest --k and --k-max: 10 000 takes about a second; far above, memory runs out
_MAX_LEVEL = 10_000
# most states a sweep command may hold, counted from --j-max and --k-max as
# (j_max + 1/2)(2 k_max + 1); cold, on a 2-core Xeon: spectrum's 100 005 states
# (--j-max 4.5 --k-max 10000) took 1.5 s, oracle-compare's 31 shots (--k-max 15) 6.4 s
_MAX_STATES = {"spectrum": 100_000, "oracle-compare": 32}
# oracle-compare's gate on the worst rel_delta (in nu); a NaN row fails it too
_AGREEMENT = 1e-6


def _resolve_precision(args) -> tuple[int, str]:
    if args.precision is None:
        return 53, "default"
    if not 53 <= args.precision <= _MAX_PRECISION_BITS:
        raise DomainError(f"precision must lie between 53 and {_MAX_PRECISION_BITS} "
                          f"bits, got {args.precision}")
    return args.precision, "command line"


def _working_precision(bits: int):
    # every mpf creation, operation and formatting must sit inside this, or
    # mpmath rounds back to its ambient 53 bits; at 53 bits all is float64
    if bits > 53:
        import mpmath
        return mpmath.workprec(bits)
    return contextlib.nullcontext()


def _parse_real(text: str, bits: int):
    # the library refuses a coupling or charge that is not positive and finite
    parse = float
    if bits > 53:
        import mpmath
        parse = mpmath.mpf
    try:
        return parse(text)
    except ValueError as exc:
        raise InvalidQuantumNumber(f"not a number: {text!r}") from exc


def _resolve_zeta(args, bits: int):
    if args.zeta is not None:
        zeta = _parse_real(args.zeta, bits)
        return zeta, {"zeta": _fmt(zeta, bits)}
    z = _parse_real(args.Z, bits)
    zeta = zeta_from_charge(z)
    alpha = _parse_real(repr(precision.FINE_STRUCTURE_ALPHA), bits)
    return zeta, {"Z": _fmt(z, bits), "alpha": _fmt(alpha, bits),
                  "zeta": _fmt(zeta, bits)}


def _digits(bits: int) -> int:
    return max(17, int(bits / 3.3219280948873626) + 2)


def _fmt(x, bits: int = 53) -> str:
    if precision.is_extended(x):
        import mpmath
        return mpmath.nstr(x, _digits(bits))
    return repr(float(x))


def _sweep(table, zeta, args):
    """table(zeta, j_max, k_max) and the supercritical channels it skipped."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", SupercriticalChannelWarning)
        rows = table(zeta, args.j_max, args.k_max)
    skipped = []
    for w in caught:
        if issubclass(w.category, SupercriticalChannelWarning):
            skipped.append(str(w.message))
        else:       # any other warning is shown as it would have been
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if not rows:
        raise Supercritical(
            f"no subcritical channels with j <= {args.j_max} at zeta = {zeta}")
    return rows, skipped


def _cell(value, bits: int) -> str:
    if value is None:
        return ""
    if isinstance(value, list):         # eps labels
        return "|".join(f"{e:+d}" for e in value)
    if isinstance(value, int):
        return str(value)
    return _fmt(value, bits)


def _json_real(val):
    val = float(val)
    return val if math.isfinite(val) else None


def _emit(meta: dict, rows: list[dict], args, bits: int) -> None:
    """Print the rows (dicts of raw values) as CSV or JSON; reals become float in JSON,
    and null where not finite, as strict JSON has no NaN or Infinity."""
    if args.format == "json":
        rows = [{key: val if val is None or isinstance(val, (int, list)) else _json_real(val)
                 for key, val in row.items()} for row in rows]
        print(json.dumps({"meta": meta, "rows": rows}, indent=2, allow_nan=False))
        return
    lines = [f"# {key} = {json.dumps(val) if isinstance(val, (list, dict)) else val}"
             for key, val in meta.items()]
    lines.append(",".join(rows[0]))
    lines.extend(",".join(_cell(val, bits) for val in row.values()) for row in rows)
    print("\n".join(lines))


# ---------------------------------------------------------------------------
# commands

def _cmd_table(args) -> int:
    # args.body(args, zeta, bits, meta) -> (rows, exit code) adds its own keys
    # to meta; the commands without --precision run in float64
    bits, source = _resolve_precision(args) if "precision" in args else _FLOAT64_ONLY
    for name in ("k", "k_max"):     # refused before any work, like the precision
        if getattr(args, name, 0) > _MAX_LEVEL:
            raise DomainError(f"{name} must be at most {_MAX_LEVEL}, got {getattr(args, name)}")
    if args.command in _MAX_STATES:     # and a sweep's table size
        states, cap = (args.j_max + 0.5) * (2 * args.k_max + 1), _MAX_STATES[args.command]
        if states > cap:
            raise DomainError(f"j_max = {args.j_max} and k_max = {args.k_max} give {states:g} "
                              f"states; {args.command} takes at most {cap}")
    with _working_precision(bits):
        zeta, coupling_meta = _resolve_zeta(args, bits)
        meta = {"generator": f"diracladder {__version__}", "command": args.command,
                "precision_bits": bits, "precision_source": source,
                "conventions": list(CONVENTION_FLAGS), **coupling_meta}
        rows, code = args.body(args, zeta, bits, meta)
        _emit(meta, rows, args, bits)
    return code


def _spectrum_rows(args, zeta, bits, meta):
    states, skipped = _sweep(spectrum_table, zeta, args)
    scale = precision.ELECTRON_MASS_MEV if args.si else 1
    # exactly degenerate eps pairs share a (j, k) key unless --no-collapse
    groups = {}
    for st in states:
        key = (st.channel.j, st.k) + ((st.channel.epsilon,) if args.no_collapse else ())
        groups.setdefault(key, (st, []))[1].append(st.channel.epsilon)

    e_name = "E_mev" if args.si else "E_over_m"
    k_name = "kappa_mev" if args.si else "kappa"
    rows = [{"j": st.channel.j, "eps": sorted(eps), "k": st.k, "mu": st.mu,
             e_name: st.energy * scale, k_name: st.wavenumber * scale, "nu": st.nu}
            for st, eps in groups.values()]
    meta.update({
        "j_max": args.j_max,
        "k_max": args.k_max,
        "energy_unit": "MeV" if args.si else "units of mass",
        "degenerate_eps_pairs_collapsed": not args.no_collapse,
        "rows": len(rows),
    })
    if args.si:
        meta["electron_mass_mev"] = precision.ELECTRON_MASS_MEV
    if skipped:
        meta["skipped_channels"] = skipped
    if bits > 53:
        meta["json_values_are_float64"] = True
    return rows, 0


def _wavefunction_rows(args, zeta, bits, meta):
    channel = make_channel(args.j, args.eps, zeta)
    state = bound_energy(channel, args.k)
    solution = build_solution(state)
    if args.normalize == "physical":
        solution = physical_normalize(solution)
    lo, hi, n = args.grid
    grid = np.geomspace(lo, hi, n) if args.log else np.linspace(lo, hi, n)
    F, G = solution.F(grid), solution.G(grid)   # PrecisionLoss where float64 cannot hold them
    meta.update({
        "j": args.j, "eps": args.eps, "k": args.k,
        "lambda": _fmt(channel.lam, bits),
        "mu": _fmt(state.mu, bits),
        "E_over_m": _fmt(state.energy, bits),
        "kappa": _fmt(state.wavenumber, bits),
        "rel_coeff": _fmt(solution.rel_coeff, bits),
        "normalization": solution.normalization,
        "amplitude": _fmt(solution.amplitude, bits),
        "grid": f"{lo},{hi},{n}" + (" (log)" if args.log else ""),
    })
    return [{"rho": r, "F": f, "G": g} for r, f, g in zip(grid, F, G)], 0


def _oracle_compare_rows(args, zeta, bits, meta):
    rows, skipped = _sweep(compare_spectrum, float(zeta), args)
    worst = _sup([r["rel_delta"] for r in rows])
    meta.update({"j_max": args.j_max, "k_max": args.k_max, "worst_rel_delta": f"{worst:.3e}",
                 "agreement_threshold": f"{_AGREEMENT:.0e}",
                 "rel_delta_measure": "|nu_shooting - nu_algebraic|/nu_algebraic"})
    if skipped:
        meta["skipped_channels"] = skipped
    return rows, 0 if worst <= _AGREEMENT else 1


def _demo_divergence_rows(args, zeta, bits, meta):
    channel = make_channel(args.j, args.eps, zeta)
    member = negative_branch_ground(channel.lam)
    cuts = list(args.cutoffs)
    norms = truncated_norms(member, cuts)
    report = divergence_check(member, cuts)
    meta.update({"j": args.j, "eps": args.eps,
                 "lambda": _fmt(channel.lam, bits),
                 "mu": _fmt(-channel.lam, bits),
                 "checks": [c.line() for c in report.checks]})
    rows = [{"R": r, "truncated_norm": n,
             "ratio_to_previous": n / norms[i - 1] if i else None,
             "lower_bound_exp": math.exp(r - cuts[i - 1]) if i else None}
            for i, (r, n) in enumerate(zip(cuts, norms))]
    return rows, 0 if report.all_passed else 1


def _cmd_verify(args) -> int:
    names = args.suite or ["all"]
    if "all" in names:
        names = list(verify.SUITE_NAMES)
    ok = True
    for report in map(verify.run_suite, names):
        print(report)
        ok = ok and report.all_passed
    print("ALL SUITES PASSED" if ok else "SUITE FAILURES PRESENT")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()      # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed the pipe (| head, say): end quietly, with stdout on
        # devnull so that the interpreter's own flush at exit finds no pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (Supercritical, UnphysicalState) as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DiracLadderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
