"""Command-line workbench tying the library together.

Subcommands build the worked examples, validate bundle files, run
suspensions, compute invariants, print class table rows, and apply band
doubling.  Stages compose through bundle JSON files only, so each step of
a pipeline can be inspected or replayed in isolation.

Exit codes: 0 success, 1 validation failure, 2 malformed input, 3 numeric
failure.  Every subcommand accepts ``--config FILE`` holding a JSON object
of option values; explicit flags win over the config file.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from .bundles import (_complex_to_json, deserialize_bundle, double_bundle,
                      serialize_bundle, validate_bundle)
from .errors import InputError, NumericError, ValidationError
from .invariants import (chern_number, chiral_winding, class_d_z2,
                         component_index_ai, fermion_parity, kane_mele_z2)
from .planes import Plane
from .suspension import (SuspensionInput, example_dIII,
                         example_kitaev_chain, example_majorana, suspend)
from .symmetry import class_info, true_symmetries
from .tolerances import ALG_TOL

_INVARIANT_KINDS = ("parity", "class_d_z2", "kane_mele_z2",
                    "chiral_winding", "chern_number", "component_index")


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, or an integer literal past
        # Python's digit limit
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} nests too deeply to decode") from exc


@contextlib.contextmanager
def _writing(path, newline=None):
    """Open ``path`` for writing; any OS failure becomes an InputError."""
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _write_json(path, data):
    # one line: only json.dumps without indent runs the C encoder
    with _writing(path) as fh:
        fh.write(json.dumps(data) + "\n")


def _cells(column):
    """The CSV text of each entry: ``str`` of an int, ``repr`` of a float,
    and "" for NaN.  Each distinct float bit pattern is formatted once, so
    -0.0 and 0.0 stay apart."""
    column = np.asarray(column)
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    bits, inverse = np.unique(
        np.ascontiguousarray(column, np.float64).view(np.int64),
        return_inverse=True)
    text = np.array(["" if math.isnan(v) else repr(v)
                     for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_csv(path, header, columns):
    """Write equal-length numpy columns as CSV rows ending in \\r\\n."""
    lines = [",".join(header), *map(",".join, zip(*map(_cells, columns)))]
    with _writing(path, newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def _load_bundle(path):
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path} does not hold a bundle object")
    return deserialize_bundle(data)


def _jsonable(value):
    """Diagnostics payloads reduced to plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "c":
            return _complex_to_json(value)
        if value.dtype.kind in "biuf":
            return value.tolist()
        return _jsonable(value.tolist())
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def _tolerance(explicit):
    """Resolve the working tolerance: flag, then environment, then default."""
    if explicit is None:
        raw = os.environ.get("FERMIBUNDLE_TOL")
        if raw is None:
            return ALG_TOL
        try:
            explicit = float(raw)
        except ValueError as exc:
            raise InputError(
                f"FERMIBUNDLE_TOL={raw!r} is not a number") from exc
    if not 0.0 < explicit <= 1e-3:
        raise InputError(f"tolerance {explicit} is outside (0, 1e-3]")
    return explicit


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise InputError(f"{flag} is required (flag or config)")


def _apply_config(args):
    defaults = getattr(args, "_defaults", {})
    cfg = {}
    if getattr(args, "config", None) is not None:
        data = _read_json(args.config)
        if not isinstance(data, dict):
            raise InputError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise InputError(f"unknown config keys: {', '.join(unknown)}")
        cfg = data
    for key, hard in defaults.items():
        if getattr(args, key, None) is None:
            value, flag = cfg.get(key), args._flags[key]
            if value is not None and not _fits(value, flag):
                raise InputError(f"config key {key!r}: {value!r} is not a "
                                 f"valid {flag.option_strings[0]} value")
            setattr(args, key, hard if value is None else value)


def _fits(value, flag):
    """Whether a config value is one that the flag's parser could produce."""
    if flag.nargs == 0:             # a store_true switch
        return type(value) is bool
    if flag.type is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is (flag.type or str)


# ------------------------------------------------------------ subcommands


def _cmd_example(args):
    _require(args, "name", "output")
    name = str(args.name).lower().replace("-", "_")
    if name == "majorana":
        bundle = example_majorana(not args.trivial, N=args.N)
    elif name == "diii":
        bundle = example_dIII(N=args.N, rows=args.M)
    elif name == "kitaev_chain":
        bundle = example_kitaev_chain(args.n, args.n_plus, N=args.N)
    else:
        raise InputError(f"unknown example {args.name!r}")
    _write_json(args.output, serialize_bundle(bundle))
    print(f"wrote {args.output} (class {bundle.label}, d={bundle.grid.d}, "
          f"{bundle.grid.size} points)")
    return 0


def _cmd_validate(args):
    _require(args, "input")
    bundle = _load_bundle(args.input)
    report = validate_bundle(bundle, tol=_tolerance(args.tol))
    fermi = ("n/a" if report.fermi_max is None
             else f"{float(np.max(report.fermi_max)):.3e}")
    print(f"pseudo-symmetry max deviation: "
          f"{float(np.max(report.pseudo_max)):.3e}")
    print(f"Fermi pairing max deviation: {fermi}")
    print(f"continuity max jump: {report.continuity_max:.3e}")
    print(f"continuity worst edge: {report.continuity_edge or 'none'}")
    print(f"tolerances: pseudo/Fermi {report.tol!r}, "
          f"continuity {report.continuity_tol!r}")
    for msg in report.messages:
        print(msg)
    if args.csv is not None:
        grid = bundle.grid
        coords = ["k", "t"] if grid.d == 2 else ["k"]
        # NaN cells are written empty: the Fermi check needs rank n
        fermi_max = (np.full(grid.size, np.nan) if report.fermi_max is None
                     else report.fermi_max)
        _write_csv(args.csv, ["index", *coords, "pseudo_max", "fermi_max"],
                   [np.arange(grid.size), *grid.points.T, report.pseudo_max,
                    fermi_max])
    return 0 if report.ok else 1


def _cmd_suspend(args):
    _require(args, "input", "output", "k_index")
    bundle = _load_bundle(args.input)
    inp = SuspensionInput(bundle, args.k_index, args.i_index)
    out = suspend(inp, points=args.points, rows=args.rows)
    _write_json(args.output, serialize_bundle(out))
    print(f"wrote {args.output} (class {out.label}, d={out.grid.d}, "
          f"{out.grid.size} points)")
    return 0


def _pick(items, index, what):
    if not 0 <= index < len(items):
        raise InputError(
            f"{what} index {index} out of range for {len(items)} {what}s")
    return items[index]


def _cmd_invariant(args):
    _require(args, "input", "kind")
    bundle = _load_bundle(args.input)
    kind = str(args.kind)
    if kind == "parity":
        result = fermion_parity(bundle.space, Plane._prechecked(
            bundle.space, _pick(bundle.frames, args.point_index, "point")))
    elif kind == "class_d_z2":
        result = class_d_z2(bundle)
    elif kind == "kane_mele_z2":
        result = kane_mele_z2(bundle, _pick(
            bundle.cset.generators, args.generator_index, "generator"))
    elif kind == "chiral_winding":
        result = chiral_winding(bundle, _pick(
            bundle.cset.generators, args.generator_index, "generator"))
    elif kind == "chern_number":
        result = chern_number(bundle)
    elif kind == "component_index":
        Q = true_symmetries(bundle.space).Q
        result = component_index_ai(Plane._prechecked(
            bundle.space, _pick(bundle.frames, args.point_index, "point")), Q)
    else:
        raise InputError(f"unknown invariant kind {kind!r}")
    print(json.dumps({"kind": result.kind, "value": result.value,
                      "diagnostics": _jsonable(result.diagnostics)},
                     sort_keys=True))
    if args.csv is not None:
        if kind == "kane_mele_z2":
            f = result.diagnostics["field"]
            # np.hypot matches the scalar abs(f) bit for bit; numpy's
            # vectorised complex abs differs in the last bit on some CPUs
            _write_csv(args.csv, ["index", "k", "t", "abs_pf", "arg_pf"],
                       [np.arange(len(f)), *bundle.grid.points.T,
                        np.hypot(f.real, f.imag), np.angle(f)])
        elif kind == "chern_number":
            fluxes = result.diagnostics["fluxes"]
            _write_csv(args.csv, ["plaquette", "flux"],
                       [np.arange(len(fluxes)), fluxes])
        else:
            raise InputError(f"no CSV output is defined for kind {kind!r}")
    return 0


def _cmd_classinfo(args):
    _require(args, "label")
    print(json.dumps(class_info(str(args.label)).to_dict(),
                     indent=2, sort_keys=True))
    return 0


def _cmd_doubling(args):
    _require(args, "input", "output")
    out = double_bundle(_load_bundle(args.input))
    _write_json(args.output, serialize_bundle(out))
    print(f"wrote {args.output} (class {out.label}, n={out.space.n}, "
          f"{len(out.cset)} generators)")
    return 0


# ----------------------------------------------------------- entry point


# parse_args leaves the parser unchanged, so one serves every main() call
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fermibundle",
        description="Workbench for plane bundles over momentum spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, helptext, defaults, build):
        p = sub.add_parser(name, help=helptext, description=helptext)
        p.add_argument("--config", help="JSON object of option values; "
                                        "explicit flags win")
        build(p)
        flags = {action.dest: action for action in p._actions}
        p.set_defaults(func=func, _defaults=defaults,
                       _flags={key: flags[key] for key in defaults})

    def build_example(p):
        p.add_argument("--name",
                       help="majorana, dIII, or kitaev_chain "
                            "(case-insensitive)")
        p.add_argument("--N", type=int, help="circle point count")
        p.add_argument("--M", type=int,
                       help="sphere row count (dIII only; default N/2 "
                            "rounded up to odd)")
        p.add_argument("--n", type=int, help="band count (kitaev_chain)")
        p.add_argument("--n-plus", type=int, dest="n_plus",
                       help="occupied band count (kitaev_chain)")
        p.add_argument("--trivial", action="store_true", default=None,
                       help="build the trivial majorana variant")
        p.add_argument("--output", help="bundle JSON path to write")

    add("example", _cmd_example, "build a worked example bundle",
        {"name": None, "N": 64, "M": None, "n": 1, "n_plus": 0,
         "trivial": False, "output": None}, build_example)

    def build_validate(p):
        p.add_argument("--input", help="bundle JSON path to check")
        p.add_argument("--tol", type=float,
                       help="pseudo/Fermi tolerance in (0, 1e-3]; "
                            "defaults to FERMIBUNDLE_TOL or 1e-10")
        p.add_argument("--csv",
                       help="write per-point report CSV with columns "
                            "index,k[,t],pseudo_max,fermi_max")

    add("validate", _cmd_validate, "validate a bundle file",
        {"input": None, "tol": None, "csv": None}, build_validate)

    def build_suspend(p):
        p.add_argument("--input", help="bundle JSON path to suspend")
        p.add_argument("--k-index", type=int, dest="k_index",
                       help="index of the imaginary generator to consume")
        p.add_argument("--i-index", type=int, dest="i_index",
                       help="index of the real generator to keep last")
        p.add_argument("--points", type=int,
                       help="circle point count for point-pair inputs")
        p.add_argument("--rows", type=int,
                       help="latitude row count for circle inputs (odd)")
        p.add_argument("--output", help="bundle JSON path to write")

    add("suspend", _cmd_suspend, "suspend a bundle one dimension up",
        {"input": None, "k_index": None, "i_index": None, "points": 64,
         "rows": None, "output": None}, build_suspend)

    def build_invariant(p):
        p.add_argument("--input", help="bundle JSON path to read")
        p.add_argument("--kind", choices=_INVARIANT_KINDS,
                       help="invariant to compute")
        p.add_argument("--generator-index", type=int,
                       dest="generator_index",
                       help="Clifford set index for kinds needing a "
                            "generator (default 0)")
        p.add_argument("--point-index", type=int, dest="point_index",
                       help="fiber index for per-point kinds (default 0)")
        p.add_argument("--csv",
                       help="kane_mele_z2: index,k,t,abs_pf,arg_pf; "
                            "chern_number: plaquette,flux")

    add("invariant", _cmd_invariant, "compute a topological invariant",
        {"input": None, "kind": None, "generator_index": 0,
         "point_index": 0, "csv": None}, build_invariant)

    def build_classinfo(p):
        p.add_argument("--label", help="symmetry class label, any case")

    add("classinfo", _cmd_classinfo, "print a symmetry class table row",
        {"label": None}, build_classinfo)

    def build_doubling(p):
        p.add_argument("--input", help="bundle JSON path to double")
        p.add_argument("--output", help="bundle JSON path to write")

    add("doubling", _cmd_doubling, "apply (1,1) band doubling to a bundle",
        {"input": None, "output": None}, build_doubling)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
