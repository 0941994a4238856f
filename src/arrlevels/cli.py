"""Command-line front end for the library.

Every subcommand is a thin wrapper: parse flags, load JSON files,
dispatch to a library call, serialize the result.  No computation
lives in this module.  Each handler imports the library names it calls,
so a process loads only the modules its subcommand runs.

Exit codes: 0 on success, 1 when a requested verification reports a
violation, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import ArrlevelsError, FileFormatError

if TYPE_CHECKING:
    from fractions import Fraction

    from .config import VectorConfig


class _UsageError(Exception):
    pass


def _dump(obj: object) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_config(path: str) -> VectorConfig:
    from .config import config_from_json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}"
        ) from exc
    try:
        return config_from_json(obj)
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _parse_params(text: str) -> list[Fraction]:
    from .exactnum import rat

    try:
        return [rat(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad --params value: {exc}") from exc


def _cmd_gen(args: argparse.Namespace) -> int:
    from .config import config_to_json, gen_cocyclic, gen_cyclic, gen_random

    if args.kind == "random":
        if args.seed is None:
            raise _UsageError("--kind random requires --seed")
        if args.params is not None:
            raise _UsageError("--params only applies to cyclic/cocyclic")
        v = gen_random(args.n, args.r, args.seed, pointed=args.pointed)
    else:
        if args.seed is not None:
            raise _UsageError("--seed only applies to --kind random")
        if args.pointed:
            raise _UsageError("--pointed only applies to --kind random")
        params = _parse_params(args.params) if args.params is not None else None
        maker = gen_cyclic if args.kind == "cyclic" else gen_cocyclic
        v = maker(args.n, args.r, params)
    _emit(_dump(config_to_json(v)), args.output)
    return 0


def _cmd_faces(args: argparse.Namespace) -> int:
    from .faces import dissection_patterns, f_matrix, patterns_to_json

    v = _load_config(args.config)
    fm = f_matrix(v)
    if args.format == "csv":
        text = fm.to_csv()
        if args.patterns:
            text += "\n" + "\n".join(patterns_to_json(dissection_patterns(v))) + "\n"
    else:
        obj = fm.to_json()
        if args.patterns:
            obj["patterns"] = patterns_to_json(dissection_patterns(v))
        text = _dump(obj)
    _emit(text, args.output)
    return 0


def _gale_histogram(v: VectorConfig):
    from .faces import dependency_patterns, fstar_from_patterns

    return fstar_from_patterns(dependency_patterns(v), v.r, v.n)


def _farkas_histogram(v: VectorConfig):
    from .faces import farkas_complement_oracle, fstar_from_patterns

    return fstar_from_patterns(farkas_complement_oracle(v), v.r, v.n)


def _cmd_fstar(args: argparse.Namespace) -> int:
    v = _load_config(args.config)
    if args.oracle != "both":
        from .faces import fstar_matrix

        route = {None: fstar_matrix, "gale": _gale_histogram, "farkas": _farkas_histogram}
        _emit(_dump(route[args.oracle](v).to_json()), None)
        return 0
    gale, farkas = _gale_histogram(v), _farkas_histogram(v)
    agree = gale.rows == farkas.rows
    obj = gale.to_json()
    obj["agreement"] = agree
    _emit(_dump(obj), None)
    if not agree:
        print("fstar: oracle disagreement", file=sys.stderr)
        return 1
    return 0


def _cmd_g(args: argparse.Namespace) -> int:
    from .gmatrix import g_of_pair, small_from_full
    from .motion import g_from_motion

    v = _load_config(args.src)
    w = _load_config(args.dst)
    if args.via == "algebraic":
        g = g_of_pair(v, w)
        agree = None
    elif args.via == "motion":
        g = g_from_motion(v, w)
        agree = None
    else:
        g = g_of_pair(v, w)
        agree = g.rows == g_from_motion(v, w).rows
    obj = g.to_json()
    obj["small_g"] = small_from_full(g).to_json()["small_g"]
    obj["via"] = args.via
    if agree is not None:
        obj["agreement"] = agree
    _emit(_dump(obj), None)
    if agree is False:
        print("g: route disagreement", file=sys.stderr)
        return 1
    return 0


def _cmd_motion(args: argparse.Namespace) -> int:
    from .motion import detect_mutations, events_to_json, perturb

    v = _load_config(args.src)
    w = _load_config(args.dst)
    if args.perturb_seed is not None:
        w = perturb(w, args.perturb_seed)
    path = detect_mutations(v, w)
    _emit(_dump(events_to_json(path)), None)
    return 0


def _one_config(args: argparse.Namespace) -> VectorConfig:
    if len(args.configs) != 1:
        raise _UsageError(f"relation {args.relation!r} takes exactly one CONFIG file")
    return _load_config(args.configs[0])


def _pair_configs(args: argparse.Namespace) -> tuple[VectorConfig, VectorConfig]:
    if args.configs:
        raise _UsageError(f"relation {args.relation!r} uses --from/--to, not positional files")
    if args.src is None or args.dst is None:
        raise _UsageError(f"relation {args.relation!r} requires --from and --to")
    return _load_config(args.src), _load_config(args.dst)


def _shape_args(args: argparse.Namespace) -> tuple[int, int]:
    if args.n is None or args.r is None:
        raise _UsageError(f"relation {args.relation!r} requires --n and --r")
    return args.n, args.r


def _report(relation: str, holds: bool, witness: str) -> dict:
    from .relations import RelationReport

    return RelationReport(relation, holds, None if holds else witness).to_json()


def _duality_reports(v: VectorConfig) -> list[dict]:
    from .faces import dependency_patterns, f_matrix, farkas_complement_oracle, pattern_to_string
    from .relations import exchange

    dep = frozenset(dependency_patterns(v))
    far = frozenset(farkas_complement_oracle(v))
    bad = min((pattern_to_string(p) for p in dep ^ far), default=None)
    # f -> f* and back on integer grids indexed [x-degree][y-degree]; f*'s
    # row s sits at x-degree n-s, and f's rows past d are zero
    n, f = v.n, f_matrix(v).rows
    forward = exchange(f, n, (-1) ** v.r)
    back = exchange(forward, n, (-1) ** (n - v.r))
    return [
        _report("dependency-oracle-agreement", dep == far, f"pattern {bad} found by one oracle only"),
        _report(
            "transform-matches-dual-count",
            forward == [list(row) for row in reversed(_gale_histogram(v).rows)],
            "transformed polynomial differs from enumerated one",
        ),
        _report(
            "transform-round-trip",
            back == [list(row) for row in f] + [[0] * (n + 1) for _ in range(n - v.d)],
            "f -> f* -> f is not the identity",
        ),
    ]


def _cmd_verify(args: argparse.Namespace) -> int:
    rel = args.relation
    reports: list[dict] = []
    if rel in ("ds", "antipodal", "totals"):
        from .relations import check_antipodal, check_dehn_sommerville, check_totals

        v = _one_config(args)
        check = {
            "ds": check_dehn_sommerville,
            "antipodal": check_antipodal,
            "totals": check_totals,
        }[rel]
        reports.append(check(v).to_json())
    elif rel == "duality":
        reports.extend(_duality_reports(_one_config(args)))
    elif rel == "skew":
        from .gmatrix import g_of_pair, satisfies_skew

        v, w = _pair_configs(args)
        ok = satisfies_skew(g_of_pair(v, w))
        reports.append(_report("skew-symmetry", ok, "negation symmetry violated"))
    elif rel in ("contraction", "deletion"):
        from .gmatrix import check_contraction_deletion

        v, w = _pair_configs(args)
        mode = "contract" if rel == "contraction" else "delete"
        reports.append(check_contraction_deletion(v, w, mode).to_json())
    elif rel == "closed-form":
        from .config import gen_cocyclic, gen_cyclic
        from .gmatrix import g_closed_form_neighborly, g_of_pair, small_from_full

        n, r = _shape_args(args)
        got = small_from_full(g_of_pair(gen_cocyclic(n, r), gen_cyclic(n, r)))
        want = g_closed_form_neighborly(n, r)
        witness = f"small g {got.rows} differs from {want.rows}"
        reports.append(_report("closed-form", got.rows == want.rows, witness))
    elif rel == "span-dim":
        from .span import g_span_rank, theoretical_dim

        n, r = _shape_args(args)
        mode = "pointed" if args.pointed else "general"
        samples = args.samples
        if samples is None:
            samples = theoretical_dim(n, r, mode) + 8
        rep = g_span_rank(n, r, mode, samples, args.seed)
        witness = f"rank {rep.achieved_rank} below dimension {rep.theoretical_dim}"
        reports.append(_report("span-dim", rep.full_rank, witness))
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown relation {rel!r}")
    all_hold = all(rep["holds"] for rep in reports)
    _emit(_dump({"reports": reports, "all_hold": all_hold}), None)
    return 0 if all_hold else 1


def _cmd_span(args: argparse.Namespace) -> int:
    from .span import g_span_rank

    mode = "pointed" if args.pointed else "general"
    report = g_span_rank(args.n, args.r, mode, args.samples, args.seed)
    _emit(_dump(report.to_json()), None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrlevels",
        description="Exact enumeration and verification for sphere arrangements of vector configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a configuration and write it as JSON")
    p.add_argument("--kind", required=True, choices=("cyclic", "cocyclic", "random"))
    p.add_argument("--n", type=int, required=True, help="number of vectors")
    p.add_argument("--r", type=int, required=True, help="rank")
    p.add_argument("--seed", type=int, help="RNG seed (random kind only)")
    p.add_argument("--pointed", action="store_true", help="resample until pointed (random kind only)")
    p.add_argument("--params", help="comma-separated rational parameters (cyclic/cocyclic)")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("faces", help="dissection counts of a configuration")
    p.add_argument("config", help="configuration JSON file")
    p.add_argument("--patterns", action="store_true", help="include the pattern list")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("fstar", help="dependency counts of a configuration")
    p.add_argument("config", help="configuration JSON file")
    p.add_argument("--oracle", choices=("farkas", "gale", "both"))
    p.set_defaults(func=_cmd_fstar)

    p = sub.add_parser("g", help="g-matrix of a pair of configurations")
    p.add_argument("--from", dest="src", required=True, metavar="A")
    p.add_argument("--to", dest="dst", required=True, metavar="B")
    p.add_argument("--via", choices=("algebraic", "motion", "both"), default="algebraic")
    p.set_defaults(func=_cmd_g)

    p = sub.add_parser("motion", help="trace mutation events along a straight-line motion")
    p.add_argument("--from", dest="src", required=True, metavar="A")
    p.add_argument("--to", dest="dst", required=True, metavar="B")
    p.add_argument("--trace", action="store_true", required=True)
    p.add_argument("--perturb-seed", type=int, help="perturb the target before tracing")
    p.set_defaults(func=_cmd_motion)

    p = sub.add_parser("verify", help="check an identity; exit 1 when it fails")
    p.add_argument(
        "--relation",
        required=True,
        choices=(
            "ds",
            "antipodal",
            "totals",
            "duality",
            "skew",
            "contraction",
            "deletion",
            "closed-form",
            "span-dim",
        ),
    )
    p.add_argument("configs", nargs="*", help="configuration file (single-configuration relations)")
    p.add_argument("--from", dest="src", metavar="A", help="pair relations")
    p.add_argument("--to", dest="dst", metavar="B", help="pair relations")
    p.add_argument("--n", type=int, help="shape relations")
    p.add_argument("--r", type=int, help="shape relations")
    p.add_argument("--pointed", action="store_true", help="span-dim only")
    p.add_argument("--samples", type=int, help="span-dim only")
    p.add_argument("--seed", type=int, default=0, help="span-dim only")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("span", help="rank of sampled g-matrices inside their ambient space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--pointed", action="store_true")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_span)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, ArrlevelsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
