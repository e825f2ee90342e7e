"""Command-line front end.

Subcommands: analyze, flatten, specseq, maslov, example.  Exit codes are
deterministic: 0 on success, 1 on a domain failure (failed
classification, broken filtration, non-regular crossing, failed
expectation), 2 on usage or I/O errors.  Output JSON is byte-stable for
identical inputs: keys are sorted and no timestamps are emitted.

Every JSON document the CLI writes, on stdout or to an ``--out`` file, is
byte for byte ``json.dumps(payload, indent=2, sort_keys=True)`` plus a
newline: two-space indent, keys sorted, non-ASCII and control characters
written as ``\\uXXXX`` escapes, and nan and infinities as ``NaN``,
``Infinity`` and ``-Infinity``, as Python's json module writes them.
``_dumps`` writes it in one recursive pass, because ``json.dumps`` with an
indent runs the library's pure-Python encoder.  Every key is a str: the
writer raises ``TypeError`` on any other key, where json would coerce an
int, float, bool or None key to a string.

The CLI restates no library rule: a component's box is its
``cubical.mask_runs``, ``--expect`` takes the rung names of
``morse.LADDER``, and ``specseq`` builds one payload for every descriptor.

``main`` builds the argument parser on its first call and reuses it, which
saves in-process callers (scripts, notebooks, the test suite) rebuilding
it on every call; a one-shot ``qmdkit`` process builds it once either way.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Sequence, Tuple

from . import catalog
from .cubical import mask_runs
from .fields import (GridMismatchError, ScalarField, c1_distance,
                     check_difference_range, default_grad_tol)
from .maslov import LagrangianLinePath, NonRegularCrossingError, maslov
from .morse import (LADDER, ChartError, DescentEscapeError, NoCriticalPointsError,
                    RegularValueError, SubmanifoldChart, Tolerances,
                    classify, detect_critical_set, flatten, verify_thickening)
from .specseq import (BoundaryError, CrossTermError, FiltrationError,
                      QMDDescriptor, build_from_qmd, converge, page,
                      truncate_by_action)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


class UsageFailure(Exception):
    pass


class DomainFailure(Exception):
    pass


def _read_input(path: str, what: str, parse):
    """``parse`` applied to the JSON object in the file at ``path``.  A file
    that cannot be read or decoded is a usage error, and so is one whose top
    level is no object, that lacks a key or that ``parse`` rejects; these
    name ``what`` and the path."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    # ValueError: bad JSON or bad UTF-8; RecursionError: arrays nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageFailure(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageFailure(f"bad {what} {path}: expected a JSON object")
    try:
        return parse(data)
    except KeyError as exc:
        raise UsageFailure(f"bad {what} {path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageFailure(f"bad {what} {path}: {exc}") from exc


def _parse_field(data: dict) -> ScalarField:
    field = ScalarField.from_json(data)
    check_difference_range(field)
    return field


def _load_field(path: str) -> ScalarField:
    return _read_input(path, "field file", _parse_field)


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _dumps(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    in one pass that appends to a list and joins once.  ``pad`` is the
    newline and indent of the current depth."""
    out = []
    put = out.append

    def write(o, pad):
        # containers come first, as most of a payload; the order of the tests
        # matters only for bool, an int that is tested before int
        if isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for k, v in sorted(o.items()):
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                put(sep + _quote(k) + ": ")
                sep = "," + inner
                if type(v) is int:
                    put(int.__repr__(v))
                else:
                    write(v, inner)
            put(pad + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            inner = pad + "  "
            sep = "[" + inner
            for item in o:
                put(sep)
                sep = "," + inner
                write(item, inner)
            put(pad + "]")
        elif isinstance(o, str):
            put(_quote(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif isinstance(o, int):
            put(int.__repr__(o))
        elif isinstance(o, float):
            put(_json_float(o))
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    write(payload, "\n")
    put("\n")
    return "".join(out)


def _emit(payload: dict, out: Optional[str]) -> None:
    if out:
        _write_files([(payload, out)])
    else:
        sys.stdout.write(_dumps(payload))


def _write_files(outputs: Sequence[Tuple[dict, str]]) -> None:
    """Write each payload to its path.  Every path is opened before any is
    written, in append mode so that nothing is truncated yet: a path that
    cannot be opened removes the files this call created and leaves the
    others as they were."""
    with contextlib.ExitStack() as stack:
        handles, created = [], []
        for _, out in outputs:
            new = not os.path.lexists(out)
            try:
                handles.append(stack.enter_context(open(out, "a")))
            except OSError as exc:
                stack.close()
                for path in created:
                    os.remove(path)
                raise UsageFailure(f"cannot write {out}: {exc}") from exc
            if new:
                created.append(out)
        for (payload, out), fh in zip(outputs, handles):
            try:
                fh.truncate(0)
                fh.write(_dumps(payload))
                fh.flush()
            except OSError as exc:
                raise UsageFailure(f"cannot write {out}: {exc}") from exc


def _parse_int_list(text: str, what: str) -> tuple:
    if text.strip() == "":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageFailure(f"bad {what}: {text!r}") from exc


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0 (nan, inf and <= 0 exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive: {text!r}")
    return value


def _tolerances(args, field: ScalarField) -> Tolerances:
    # stencil accuracy is O(h^2); by default scale by the field's gradient range
    kw = {"grad_tol": default_grad_tol(field) if args.grad_tol is None else args.grad_tol}
    if args.eig_tol is not None:
        kw["eig_tol"] = args.eig_tol
    if args.value_tol is not None:
        kw["value_tol"] = args.value_tol
    return Tolerances(**kw)


def cmd_analyze(args) -> int:
    if args.tau and args.chart is None:
        raise UsageFailure("--tau needs --chart: the qmd rung is read along a chart")
    f = _load_field(args.field)
    tau = _load_field(args.tau) if args.tau else None
    if tau is not None and not f.same_grid(tau):
        raise UsageFailure(f"{args.tau} lies on another grid than {args.field}")
    tols = _tolerances(args, field=f)
    grad_tol = tols.grad_tol
    chart = None
    if args.chart is not None:
        axes = _parse_int_list(args.chart, "chart axes")
        base = _parse_int_list(args.base, "chart base") if args.base \
            else tuple(0 for _ in f.dims)
        try:
            chart = SubmanifoldChart(axes=axes, base=base)
            chart.runs(f.dims)
        except ChartError as exc:
            raise UsageFailure(str(exc)) from exc
    crit = _critical_set(f, grad_tol, args.component)
    try:
        report = classify(f, crit, chart=chart, tau=tau, tols=tols,
                          strict=args.strict, component=args.component)
    except (ChartError, GridMismatchError) as exc:
        raise DomainFailure(str(exc)) from exc
    payload = report.to_json()
    payload["n_components"] = len(crit.components)
    payload["component_boxes"] = _component_boxes(crit)
    _emit(payload, args.out)
    if args.expect:
        return EXIT_OK if report.details.get(args.expect) else EXIT_DOMAIN
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _critical_set(f: ScalarField, grad_tol: float, component: int):
    """The critical set of f, with `component` checked against it."""
    try:
        crit = detect_critical_set(f, grad_tol)
    except NoCriticalPointsError as exc:
        raise DomainFailure(str(exc)) from exc
    if not (0 <= component < len(crit.components)):
        raise UsageFailure(f"component index out of range "
                           f"(found {len(crit.components)} components)")
    return crit


def _component_boxes(crit) -> list:
    """Each component's extent, its ``mask_runs``: per axis the first slab
    ``lo`` and the last ``hi`` of its run, so ``hi < lo`` on an axis whose
    run crosses a periodic seam."""
    out = []
    for comp in crit.components:
        runs = mask_runs(comp, 0)
        out.append({"lo": [start for start, _ in runs],
                    "hi": [(start + length - 1) % n for n, (start, length) in zip(comp.dims, runs)],
                    "size": comp.count()})
    return out


def cmd_flatten(args) -> int:
    f = _load_field(args.field)
    tols = _tolerances(args, field=f)
    crit = _critical_set(f, tols.grad_tol, args.component)
    try:
        shift = float(f.values[crit.components[args.component].cells].min())
        f0 = f.shift(shift)
        result = flatten(f0, args.delta, crit, tols, component=args.component)
        thick = verify_thickening(f0, crit, result.sigma, tols,
                                  component=args.component)
    except (RegularValueError, DescentEscapeError, ValueError) as exc:
        raise DomainFailure(str(exc)) from exc
    outputs = []
    if args.out:
        outputs.append((result.sigma.to_json(), args.out))
    if args.out_field:
        outputs.append((result.f_check.to_json(), args.out_field))
    _write_files(outputs)
    payload = {
        "delta_used": result.delta_used,
        "shift": shift,
        "betti_c": list(thick.betti_c),
        "betti_sigma": list(thick.betti_sigma),
        "c1_distance": c1_distance(f0, result.f_check),
        "thickening_verified": thick.passed,
    }
    _emit(payload, None)
    return EXIT_OK if thick.passed else EXIT_DOMAIN


def cmd_specseq(args) -> int:
    only = None
    if args.pages != "all":
        try:
            only = int(args.pages)
        except ValueError as exc:
            raise UsageFailure("--pages takes 'all' or a page number") from exc
        if only < 1:
            raise UsageFailure("--pages must be >= 1")
    desc = _read_input(args.descriptor, "descriptor file", QMDDescriptor.from_json)
    if args.cutoff is not None:
        if not math.isfinite(args.cutoff):
            raise UsageFailure("--cutoff must be a finite action")
        desc = truncate_by_action(desc, args.cutoff)
    try:
        fc = build_from_qmd(desc)
    except (FiltrationError, BoundaryError, CrossTermError) as exc:
        raise DomainFailure(str(exc)) from exc
    stable, einf = converge(fc)
    # a complex with no generator lists no page
    ks = [] if fc.is_empty() else [only] if only else list(range(1, fc.max_filtration + 2))
    homology = fc.homology_dims()
    graded = einf.total_dims()
    payload = {
        # the stable page is converge's; it is not built twice
        "pages": [(einf if k == einf.k else page(fc, k)).to_json() for k in ks],
        "stable_page": stable,
        "einf": einf.to_json(),
        "total_homology": {str(n): d for n, d in sorted(homology.items())},
        "graded_sum_matches_homology": all(
            graded.get(n, 0) == d for n, d in homology.items()),
        "grading": _GRADING_NOTE,
    }
    _emit(payload, args.out)
    return EXIT_OK


_GRADING_NOTE = ("p = piece rank in action order; a local degree-m class of "
                 "piece p sits in total degree n = m + iota_p, at (p, q = n - p)")


def cmd_maslov(args) -> int:
    a = _read_input(args.path_a, "--path-a file", LagrangianLinePath.from_json)
    b = _read_input(args.path_b, "--path-b file", LagrangianLinePath.from_json)
    try:
        idx = maslov(a, b, tol=args.tol)
    except NonRegularCrossingError as exc:
        raise DomainFailure(str(exc)) from exc
    except ValueError as exc:  # a tol of 0.5 or more, or lifts beyond the float range
        raise UsageFailure(str(exc)) from exc
    sys.stdout.write(f"{idx}\n")
    return EXIT_OK


def cmd_example(args) -> int:
    if args.list:
        for name in catalog.list_examples():
            sys.stdout.write(name + "\n")
        return EXIT_OK
    if not args.name:
        raise UsageFailure("name an example or pass --list")
    try:
        report = catalog.run_example(args.name)
    except catalog.UnknownExampleError as exc:
        raise UsageFailure(f"unknown example: {exc}") from exc
    _emit(report.to_json(), args.out)
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _add_tol_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grad-tol", dest="grad_tol", type=_positive_float, default=None)
    p.add_argument("--eig-tol", dest="eig_tol", type=_positive_float, default=None)
    p.add_argument("--value-tol", dest="value_tol", type=_positive_float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmdkit",
        description="critical-set degeneracy analysis, cubical GF(2) homology, "
                    "filtered spectral sequences, Maslov indices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a critical set's degeneracy")
    p.add_argument("--field", required=True)
    p.add_argument("--tau", default=None)
    p.add_argument("--chart", default=None,
                   help="comma-separated chart axes ('' for a point chart)")
    p.add_argument("--base", default=None,
                   help="comma-separated node index of the chart origin")
    p.add_argument("--component", type=int, default=0)
    p.add_argument("--strict", action="store_true",
                   help="require a strict minimum away from C")
    p.add_argument("--expect", choices=LADDER, default=None)
    p.add_argument("--out", default=None)
    _add_tol_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("flatten", help="flattening perturbation and thickening")
    p.add_argument("--field", required=True)
    p.add_argument("--delta", type=_positive_float, required=True)
    p.add_argument("--component", type=int, default=0)
    p.add_argument("--out", default=None, help="write the thickening mask here")
    p.add_argument("--out-field", dest="out_field", default=None,
                   help="write the flattened field here")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("specseq", help="pages of a filtered complex descriptor")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--pages", default="all")
    p.add_argument("--cutoff", type=float, default=None,
                   help="keep pieces with action below this value")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_specseq)

    p = sub.add_parser("maslov", help="index of two Lagrangian line paths")
    p.add_argument("--path-a", dest="path_a", required=True)
    p.add_argument("--path-b", dest="path_b", required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.set_defaults(func=cmd_maslov)

    p = sub.add_parser("example", help="run a packaged worked example")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_example)

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    # parse_args leaves the parser as it was (no append actions, no mutable
    # defaults), so one parser can serve every call
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageFailure as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except DomainFailure as exc:
        sys.stderr.write(f"failed: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
