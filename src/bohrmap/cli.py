"""Command-line front door.

Subcommands: radius, table, verify, sharpness, image-curve,
subordination-campaign, selfcheck.  All float output is fixed at 12
significant digits so identical invocations produce byte-identical output;
exit code is 0 exactly when everything requested passed.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

# Only what radius and table run is imported here, and none of it loads
# numpy; each other command imports numpy and its layers itself, so a cold
# start loads no more than it needs.
from .radii import RadiusProblem
from .rules import DEFAULT_COMPOSE_ORDER, DEFAULT_ORDER, _check_count, _check_param
from .solver import WIDTH_TOL, solve_radius


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _rounded(obj):
    """Floats clipped to 12 significant digits, recursively (JSON output)."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _header(command: str, **params) -> str:
    parts = [f"command={command}"]
    for key, value in params.items():
        if value is None:
            continue
        if isinstance(value, float):
            value = _fmt(value)
        parts.append(f"{key}={value}")
    return "# " + " ".join(parts)


def _value(x) -> str:
    """One field value as printed: lowercase booleans, 12-digit floats."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return _fmt(x)
    return str(x)


def _render(args, head, payload, fields=(), csv=None, plain=None) -> None:
    """Write one command's result in the format ``args.format`` asks for.

    JSON is the payload alone, floats rounded.  Plain and CSV open with the
    ``head`` line; their body is the given line list where the output is a
    table, else one line per (key, value) in ``fields``.
    """
    if args.format == "json":
        _emit(json.dumps(_rounded(payload)), args.out)
        return
    if args.format == "csv":
        body = csv or ["field,value"] + [f"{key},{_value(v)}" for key, v in fields]
    else:
        body = plain or [f"{key} = {_value(v)}" for key, v in fields]
    _emit("\n".join([head, *body]), args.out)


def _emit(text: str, out: str | None) -> None:
    text += "\n"
    if out:
        # an unwritable --out is a usage error; main reports it with exit 2
        try:
            fh = open(out, "w")
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from exc
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(out: str) -> None:
    """Refuse an --out that ``_emit`` could not open, without creating or truncating it.

    The path must be a writable file or a new name in a writable directory;
    the message gives the reason open() would give.
    """
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        reason = errno.EISDIR
    elif not os.path.isdir(parent):
        reason = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        reason = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write --out {out}: {os.strerror(reason)}")


def _problem_from_args(args) -> RadiusProblem:
    return RadiusProblem(args.theorem, K=args.K, k=args.dilatation_k, n=args.n)


def _map_from_args(args) -> NamedMap:
    from .catalog import NamedMap

    return NamedMap(args.map, k=args.k, order=args.order)


def _pairing_params(spec: NamedMap, p: RadiusProblem) -> dict:
    """Header fields shared by the map-against-theorem commands."""
    return dict(map=spec.name, k=spec.k, theorem=p.variant, K=p.K, dilatation_k=p.k, n=p.n)


def cmd_radius(args) -> int:
    p = _problem_from_args(args)
    cert = solve_radius(p, args.tol)
    head = _header("radius", theorem=p.variant, K=p.K, k=p.k, n=p.n, tol=args.tol)
    fields = [
        (key, getattr(cert, key))
        for key in ("root", "lo", "hi", "residual", "iterations", "monotone_checked")
    ]
    # plain output alone also names the variant
    plain = [f"{key} = {_value(v)}" for key, v in [("variant", p.variant), *fields]]
    _render(args, head, cert.to_dict(), fields, plain=plain)
    return 0


def cmd_table(args) -> int:
    _check_count("--max-n", args.max_n, 1)
    rows = []
    for n in range(1, args.max_n + 1):
        cert = solve_radius(RadiusProblem("cor25_monomial", n=n), args.tol)
        rows.append((n, cert.root))
    _render(
        args,
        _header("table", max_n=args.max_n, tol=args.tol),
        [{"n": n, "r0": root, "r0_4dp": float(f"{root:.4f}")} for n, root in rows],
        csv=["n,r0,r0_4dp"] + [f"{n},{_fmt(root)},{root:.4f}" for n, root in rows],
        plain=[f"{'n':>3}  {'r0':<16}  r0_4dp"]
        + [f"{n:>3}  {_fmt(root):<16}  {root:.4f}" for n, root in rows],
    )
    return 0


def cmd_verify(args) -> int:
    import numpy as np

    from .bohr import DEFAULT_GRID_SIZE, DEFAULT_MARGIN, profile_for_named_map

    if args.margin is None:
        args.margin = DEFAULT_MARGIN
    if args.grid_size is None:
        args.grid_size = DEFAULT_GRID_SIZE
    spec = _map_from_args(args)
    p = _problem_from_args(args)
    profile = profile_for_named_map(
        spec, p, bound=args.bound, margin=args.margin, grid_size=args.grid_size
    )
    head = _header(
        "verify", **_pairing_params(spec, p), bound=profile.bound, margin=args.margin,
        grid_size=args.grid_size, order=spec.order,
    )
    fields = [
        ("bound", profile.bound),
        ("r_max", profile.r_grid[-1]),
        ("passes", f"{int(np.sum(profile.verdicts))}/{len(profile.verdicts)}"),
        ("all_pass", profile.all_pass),
    ]
    rows = zip(profile.r_grid, profile.partial_sums, profile.tail_bounds, profile.verdicts)
    csv = ["r,partial_sum,tail_bound,bound,verdict"] + [
        f"{_fmt(r)},{_fmt(s)},{_fmt(t)},{_fmt(profile.bound)},{'pass' if v else 'fail'}"
        for r, s, t, v in rows
    ]
    _render(args, head, profile.to_dict(), fields, csv=csv)
    return 0 if profile.all_pass else 1


def cmd_sharpness(args) -> int:
    from .bohr import check_pairing, sharpness_scan
    from .catalog import make_map

    spec = _map_from_args(args)
    p = _problem_from_args(args)
    kwargs = check_pairing(spec, p, args.bound)
    excess = sharpness_scan(make_map(spec), p, args.epsilon, **kwargs)
    head = _header(
        "sharpness", **_pairing_params(spec, p), epsilon=args.epsilon, order=spec.order
    )
    ok = excess > 0.0
    payload = {"map": spec.name, "variant": p.variant, "epsilon": args.epsilon,
               "excess": excess, "positive": ok}
    _render(args, head, payload, [("excess", excess), ("positive", ok)])
    return 0 if ok else 1


def cmd_image_curve(args) -> int:
    import numpy as np

    from .catalog import NamedMap, closed_form_eval
    from .series import circle_grid

    _check_param("reach r", args.r)
    _check_count("--samples", args.samples, 1)
    spec = NamedMap(args.map, k=args.k)
    values = closed_form_eval(spec, circle_grid(args.r, args.samples))
    max_mod = float(np.max(np.abs(values)))
    lines = [
        f"# map={spec.name} r={_fmt(args.r)} samples={args.samples} "
        f"max_mod={_fmt(max_mod)}",
        "re,im",
    ]
    lines += [f"{_fmt(v.real)},{_fmt(v.imag)}" for v in values]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_campaign(args) -> int:
    from .subordination import CAMPAIGN_MAPS, domination_campaign

    _check_count("--cases", args.cases, 1)
    maps = CAMPAIGN_MAPS if args.maps is None else args.maps.split(",")
    map_names = tuple(name.strip() for name in maps if name.strip())
    report = domination_campaign(
        seeds=range(args.cases), map_names=map_names, order=args.order
    )
    head = _header(
        "subordination-campaign", cases=args.cases, maps=",".join(map_names),
        order=args.order,
    )
    fields = [
        ("cases", report["count"]),
        ("worst_margin", report["worst_margin"]),
        ("all_pass", report["all_pass"]),
    ]
    csv = ["seed,psi,map,margin"] + [
        f"{c['seed']},{c['psi']},{c['map']},{_fmt(c['margin'])}" for c in report["cases"]
    ]
    _render(args, head, report, fields, csv=csv)
    return 0 if report["all_pass"] else 1


def cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck

    results = run_selfcheck(quick=args.quick, perturb=args.perturb)
    passed = sum(1 for r in results if r.ok)
    lines = [_header("selfcheck", quick=args.quick, perturb=args.perturb)]
    for r in results:
        lines.append(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    lines.append(f"passed {passed}/{len(results)}")
    _emit("\n".join(lines), args.out)
    return 0 if passed == len(results) else 1


def _add_common(sub, default_format="plain"):
    sub.add_argument("--format", choices=("plain", "csv", "json"), default=default_format)
    sub.add_argument("--out", default=None, help="write output to this file")


def _add_problem_flags(sub):
    sub.add_argument("--theorem", required=True,
                     help="variant tag (short names like thm12, cor25 accepted)")
    sub.add_argument("--K", type=float, default=None,
                     help="quasiconformality constant, K >= 1")
    sub.add_argument("--dilatation-k", type=float, default=None, dest="dilatation_k",
                     help="dilatation amplitude k in (0, 1] for thm24")
    sub.add_argument("--n", type=int, default=None,
                     help="monomial exponent n >= 1 for thm24/cor25")


def _add_map_flags(sub):
    sub.add_argument("--map", required=True,
                     help="catalog map name (aliases: koebe, half_plane, K, L, f0)")
    sub.add_argument("--k", type=float, default=None,
                     help="map parameter k for p_k/q_k")
    sub.add_argument("--order", type=int, default=DEFAULT_ORDER,
                     help="truncation order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohrmap",
        description="Bohr radii for univalent harmonic maps: certified roots, "
        "extremal maps, inequality verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    radius = subs.add_parser("radius", help="solve one radius problem")
    _add_problem_flags(radius)
    radius.add_argument("--tol", type=float, default=WIDTH_TOL, help="bracket width tolerance")
    _add_common(radius)
    radius.set_defaults(func=cmd_radius)

    table = subs.add_parser("table", help="monomial-dilatation radius table")
    table.add_argument("--max-n", type=int, default=4, dest="max_n")
    table.add_argument("--tol", type=float, default=WIDTH_TOL)
    _add_common(table)
    table.set_defaults(func=cmd_table)

    verify = subs.add_parser("verify", help="Bohr inequality profile below the radius")
    _add_map_flags(verify)
    _add_problem_flags(verify)
    verify.add_argument("--bound", type=float, default=None,
                        help="override the inequality bound")
    # None until cmd_verify fills in bohr's defaults, so parsing loads no bohr
    verify.add_argument("--margin", type=float, default=None)
    verify.add_argument("--grid-size", type=int, default=None, dest="grid_size")
    _add_common(verify, default_format="csv")
    verify.set_defaults(func=cmd_verify)

    sharp = subs.add_parser("sharpness", help="excess above the bound past the radius")
    _add_map_flags(sharp)
    _add_problem_flags(sharp)
    sharp.add_argument("--bound", type=float, default=None)
    sharp.add_argument("--epsilon", type=float, default=0.01)
    _add_common(sharp)
    sharp.set_defaults(func=cmd_sharpness)

    curve = subs.add_parser("image-curve", help="CSV of f(r e^{it}) over a circle")
    curve.add_argument("--map", required=True)
    curve.add_argument("--k", type=float, default=None)
    curve.add_argument("--r", type=float, required=True)
    curve.add_argument("--samples", type=int, default=4096)
    curve.add_argument("--out", default=None)
    curve.set_defaults(func=cmd_image_curve)

    camp = subs.add_parser(
        "subordination-campaign", help="seeded Schwarz-composition domination sweep"
    )
    camp.add_argument("--cases", type=int, default=200)
    # None until cmd_campaign fills in subordination's maps, so parsing loads no subordination
    camp.add_argument("--maps", default=None, help="comma-separated catalog map names")
    camp.add_argument("--order", type=int, default=DEFAULT_COMPOSE_ORDER)
    _add_common(camp, default_format="json")
    camp.set_defaults(func=cmd_campaign)

    check = subs.add_parser("selfcheck", help="run the full invariant suite")
    check.add_argument("--quick", action="store_true", help="subset, < 5 s")
    check.add_argument("--perturb", type=float, default=0.0,
                       help="debug: inject a coefficient error of this size")
    check.add_argument("--out", default=None)
    check.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an unwritable --out is refused before the command does its work
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except ValueError as exc:
        # every invalid input is a usage error: exit 2 after the usage line
        parser.error(str(exc))
    except RuntimeError as exc:
        # solver certification failures: operational, not a usage error
        print(f"bohrmap: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
