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
import sys

import numpy as np

from .bundles import (_write_document, deserialize_bundle, double_bundle,
                      validate_bundle)
from .errors import InputError, NumericError, ValidationError
from .invariants import (chern_number, chiral_winding, class_d_z2,
                         component_index_ai, fermion_parity, kane_mele_z2,
                         pfaffian_field)
from .nambu import _unchecked
from .planes import Plane
from .suspension import (SuspensionInput, example_dIII,
                         example_kitaev_chain, example_majorana, suspend)
from .symmetry import class_info, true_symmetries
from .tolerances import ALG_TOL, MAX_TOL


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


def _write_bundle(path, bundle):
    """Write the bundle's version-2 document to ``path``, streamed."""
    with _writing(path) as fh:
        _write_document(fh, bundle)


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


def _apply_config(args):
    """Fill each option left unset by its flag from the config file, then
    from the table default; name the first required option still unset.
    ``args.given`` lists the flags of the options a flag or the config
    set, in table order."""
    options = _COMMANDS[args.command][2]
    dests = [flag[2:].replace("-", "_") for flag, *_ in options]
    cfg = {}
    if args.config is not None:
        cfg = _read_json(args.config)
        if not isinstance(cfg, dict):
            raise InputError("config file must hold a JSON object")
        unknown = sorted(set(cfg) - set(dests))
        if unknown:
            raise InputError(f"unknown config keys: {', '.join(unknown)}")
    missing = None
    args.given = []
    for key, (flag, kind, default, _) in zip(dests, options):
        if getattr(args, key) is not None:
            args.given.append(flag)
            continue
        value = cfg.get(key)
        if value is None:
            value = default
            if default is REQUIRED:
                missing = missing or flag
        elif not _fits(value, kind):
            raise InputError(f"config key {key!r}: {value!r} is not a "
                             f"valid {flag} value")
        else:
            args.given.append(flag)
        setattr(args, key, value)
    if missing is not None:
        raise InputError(f"{missing} is required (flag or config)")


# the contexts in which an option applies, for the subcommands that ask
_APPLIES = {
    "--M": ("diii",), "--n": ("kitaev_chain",), "--n-plus": ("kitaev_chain",),
    "--trivial": ("majorana",), "--points": (0,), "--rows": (1,),
    "--generator-index": ("kane_mele_z2", "chiral_winding"),
    "--point-index": ("parity", "component_index"),
    "--csv": ("kane_mele_z2", "chern_number")}


def _refuse_inapplicable(args, context, what):
    """InputError naming the first option, given by flag or config, that
    applies only in other contexts (example name, input d, invariant kind)."""
    for flag in args.given:
        if context not in _APPLIES.get(flag, (context,)):
            raise InputError(f"{flag} does not apply to {what}")


def _fits(value, kind):
    """Whether a config value is one that the option's flag could produce."""
    if isinstance(kind, tuple):     # choices
        return value in kind
    if kind is float:
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is kind


# ------------------------------------------------------------ subcommands


def _cmd_example(args):
    name = str(args.name).lower().replace("-", "_")
    if name not in ("majorana", "diii", "kitaev_chain"):
        raise InputError(f"unknown example {args.name!r}")
    _refuse_inapplicable(args, name, f"example {args.name!r}")
    if name == "majorana":
        bundle = example_majorana(not args.trivial, N=args.N)
    elif name == "diii":
        bundle = example_dIII(N=args.N, rows=args.M)
    else:
        bundle = example_kitaev_chain(args.n, args.n_plus, N=args.N)
    _write_bundle(args.output, bundle)
    print(f"wrote {args.output} (class {bundle.label}, d={bundle.grid.d}, "
          f"{bundle.grid.size} points)")
    return 0


def _cmd_validate(args):
    bundle = _load_bundle(args.input)
    if not 0.0 < args.tol <= MAX_TOL:
        raise InputError(f"tolerance {args.tol} is outside (0, 1e-3]")
    report = validate_bundle(bundle, tol=args.tol)
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
    bundle = _load_bundle(args.input)
    _refuse_inapplicable(args, bundle.grid.d, f"a d={bundle.grid.d} input")
    inp = SuspensionInput(bundle, args.k_index, args.i_index)
    out = suspend(inp, points=args.points, rows=args.rows)
    _write_bundle(args.output, out)
    print(f"wrote {args.output} (class {out.label}, d={out.grid.d}, "
          f"{out.grid.size} points)")
    return 0


def _pick(items, index, what):
    if not 0 <= index < len(items):
        raise InputError(
            f"{what} index {index} out of range for {len(items)} {what}s")
    return items[index]


def _cmd_invariant(args):
    kind = args.kind
    _refuse_inapplicable(args, kind, f"kind {kind!r}")
    bundle = _load_bundle(args.input)
    gen = A = None
    if kind in _APPLIES["--generator-index"]:
        gen = _pick(bundle.cset.generators, args.generator_index, "generator")
    if kind in _APPLIES["--point-index"]:
        A = _unchecked(Plane, bundle.space,
                       _pick(bundle.frames, args.point_index, "point"))
    if kind == "parity":
        result = fermion_parity(bundle.space, A)
    elif kind == "class_d_z2":
        result = class_d_z2(bundle)
    elif kind == "kane_mele_z2":
        result = kane_mele_z2(bundle, gen)
    elif kind == "chiral_winding":
        result = chiral_winding(bundle, gen)
    elif kind == "chern_number":
        result = chern_number(bundle)
    else:                               # component_index
        result = component_index_ai(A, true_symmetries(bundle.space).Q)
    # json takes tuples and np.float64 as they are; tolist() the rest
    print(json.dumps({"kind": result.kind, "value": result.value,
                      "diagnostics": result.diagnostics}, sort_keys=True,
                     default=lambda x: x.tolist()))
    if args.csv is not None:
        _write_csv(args.csv, *_invariant_table(kind, bundle, result, gen))
    return 0


def _invariant_table(kind, bundle, result, gen):
    """Header and columns of the ``invariant --csv`` table: the Pfaffian
    field of ``gen`` for ``kane_mele_z2``, the plaquette fluxes of the
    ``result`` for ``chern_number``."""
    if kind == "chern_number":
        fluxes = result.diagnostics["fluxes"]
        return ["plaquette", "flux"], [np.arange(len(fluxes)), fluxes]
    f = pfaffian_field(bundle, gen)
    # np.hypot matches the scalar abs(f) bit for bit; numpy's
    # vectorised complex abs differs in the last bit on some CPUs
    return (["index", "k", "t", "abs_pf", "arg_pf"],
            [np.arange(len(f)), *bundle.grid.points.T,
             np.hypot(f.real, f.imag), np.angle(f)])


def _cmd_classinfo(args):
    print(json.dumps(class_info(str(args.label)).to_dict(),
                     indent=2, sort_keys=True))
    return 0


def _cmd_doubling(args):
    out = double_bundle(_load_bundle(args.input))
    _write_bundle(args.output, out)
    print(f"wrote {args.output} (class {out.label}, n={out.space.n}, "
          f"{len(out.cset)} generators)")
    return 0


# ----------------------------------------------------------- entry point


REQUIRED = object()     # the default of an option that must be given

# subcommand: (handler, help, options); an option row is (flag, type,
# default, help), where type bool is a switch and a tuple lists choices.
# The flag minus its dashes, "-" read as "_", is the option's config key.
_COMMANDS = {
    "example": (_cmd_example, "build a worked example bundle", (
        ("--name", str, REQUIRED,
         "majorana, dIII, or kitaev_chain (case-insensitive)"),
        ("--N", int, 64, "circle point count"),
        ("--M", int, None,
         "sphere row count (dIII only; default N/2 rounded up to odd)"),
        ("--n", int, 1, "band count (kitaev_chain)"),
        ("--n-plus", int, 0, "occupied band count (kitaev_chain)"),
        ("--trivial", bool, False, "build the trivial majorana variant"),
        ("--output", str, REQUIRED, "bundle JSON path to write"))),
    "validate": (_cmd_validate, "validate a bundle file", (
        ("--input", str, REQUIRED, "bundle JSON path to check"),
        ("--tol", float, ALG_TOL, "pseudo/Fermi tolerance in (0, 1e-3] "
                                  f"(default {ALG_TOL!r})"),
        ("--csv", str, None, "write per-point report CSV with columns "
                             "index,k[,t],pseudo_max,fermi_max"))),
    "suspend": (_cmd_suspend, "suspend a bundle one dimension up", (
        ("--input", str, REQUIRED, "bundle JSON path to suspend"),
        ("--k-index", int, REQUIRED,
         "index of the imaginary generator to consume"),
        ("--i-index", int, None, "index of the real generator to keep last"),
        ("--points", int, 64, "circle point count for point-pair inputs"),
        ("--rows", int, None, "latitude row count for circle inputs (odd)"),
        ("--output", str, REQUIRED, "bundle JSON path to write"))),
    "invariant": (_cmd_invariant, "compute a topological invariant", (
        ("--input", str, REQUIRED, "bundle JSON path to read"),
        ("--kind", ("parity", "class_d_z2", "kane_mele_z2", "chiral_winding",
                    "chern_number", "component_index"), REQUIRED,
         "invariant to compute"),
        ("--generator-index", int, 0, "Clifford set index for kinds needing "
                                      "a generator (default 0)"),
        ("--point-index", int, 0,
         "fiber index for per-point kinds (default 0)"),
        ("--csv", str, None, "kane_mele_z2: index,k,t,abs_pf,arg_pf; "
                             "chern_number: plaquette,flux"))),
    "classinfo": (_cmd_classinfo, "print a symmetry class table row", (
        ("--label", str, REQUIRED, "symmetry class label, any case"),)),
    "doubling": (_cmd_doubling, "apply (1,1) band doubling to a bundle", (
        ("--input", str, REQUIRED, "bundle JSON path to double"),
        ("--output", str, REQUIRED, "bundle JSON path to write"))),
}


# parse_args leaves the parser unchanged, so one serves every main() call
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fermibundle",
        description="Workbench for plane bundles over momentum spheres.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext, description=helptext)
        p.add_argument("--config", help="JSON object of option values; "
                                        "explicit flags win")
        for flag, kind, _, text in options:
            # unset options parse as None, so the config can fill them
            how = ({"action": "store_true", "default": None} if kind is bool
                   else {"choices": kind} if isinstance(kind, tuple)
                   else {"type": kind})
            p.add_argument(flag, help=text, **how)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _apply_config(args)
        return _COMMANDS[args.command][0](args)
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
