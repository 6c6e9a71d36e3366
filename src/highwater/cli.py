"""Command-line interface: parse element literals, run operations, report.

Every subcommand requires an explicit ``--char`` (0 or a prime other than
2 and 3); there is no default characteristic.  Exit codes: 0 on success,
1 when a verification suite reports a failure, 2 on usage errors, and
141, the shell's code for SIGPIPE, when standard output closes early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import suppress
from functools import cache

from . import elements as el
from .eigen import (eigendecompose, fusion_check, miyamoto_consistency,
                    product_identity_suite, twisted_identity_suite)
from .fields import BadCharacteristicError, Field
from .ideals import IdealArgumentError, ideal_of
from .quotients import (FiniteAlgebra, QuotientError, family_Hn, family_Ln,
                        small_quotient_suite)
from .textio import ParseError, element_to_json, format_element, parse_element


class _UsageError(Exception):
    pass


def _parse(field: Field, text: str) -> el.Element:
    warnings = []
    x = parse_element(field, text, warn=warnings.append)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return x


def _parse_gens(field: Field, text: str) -> list[el.Element]:
    return [_parse(field, part) for part in text.split(";") if part.strip()]


def _emit(args, payload: dict, text: str) -> None:
    out = json.dumps(payload, indent=2) if args.format == "json" else text
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(out + "\n")
        except OSError as e:
            raise _UsageError(f"cannot write {args.out}: {e.strerror}")
    else:
        print(out, flush=True)


def _cmd_mul(args) -> int:
    field = Field(args.char)
    z = _parse(field, args.x) * _parse(field, args.y)
    _emit(args, {"command": "mul", "characteristic": field.characteristic,
                 "result": element_to_json(z), "text": format_element(z)},
          format_element(z))
    return 0


def _cmd_weight(args) -> int:
    field = Field(args.char)
    w = _parse(field, args.x).weight()
    _emit(args, {"command": "weight",
                 "characteristic": field.characteristic,
                 "weight": str(w)}, str(w))
    return 0


def _cmd_eigen(args) -> int:
    field = Field(args.char)
    dec = eigendecompose(_parse(field, args.x), args.axis)
    comps = [{"eigenvalue": str(q), "element": element_to_json(c),
              "text": format_element(c)}
             for q, c in sorted(dec.components.items(),
                                key=lambda t: str(t[0]))]
    lines = [f"axis a({args.axis})"] + [
        f"  eigenvalue {c['eigenvalue']}: {c['text']}" for c in comps]
    if not dec.is_total:
        lines.append(f"  residual: {format_element(dec.residual)}")
    _emit(args, {"command": "eigen", "characteristic": field.characteristic,
                 "axis": args.axis, "total": dec.is_total,
                 "components": comps}, "\n".join(lines))
    return 0


def _cmd_ideal_classify(args) -> int:
    field = Field(args.char)
    ideal = ideal_of(_parse_gens(field, args.gen))
    summary = ideal.summary()
    summary["command"] = "ideal_classify"
    text = "; ".join(f"{k}={v}" for k, v in summary.items()
                     if k != "command")
    _emit(args, summary, text)
    return 0


def _cmd_ideal_member(args) -> int:
    field = Field(args.char)
    ideal = ideal_of(_parse_gens(field, args.gen))
    x = _parse(field, args.elt)
    residue = ideal.reduce(x)
    member = residue.is_zero()
    _emit(args, {"command": "ideal_member",
                 "characteristic": field.characteristic,
                 "member": member, "residue": element_to_json(residue),
                 "residue_text": format_element(residue)},
          f"member={str(member).lower()} residue={format_element(residue)}")
    return 0


def _quotient_payload(q: FiniteAlgebra) -> dict:
    n = q.dim
    table = [[[str(c) for c in q._dense(q.structure[(j, i)])]
              for j in range(i + 1)] for i in range(n)]
    return {"command": "quotient", "field": q.field.characteristic,
            "dim": n,
            "basis_labels": [format_element(b) for b in q.basis_labels],
            "structure_constants": table}


def _cmd_quotient(args) -> int:
    field = Field(args.char)
    gens = _parse_gens(field, args.gen)
    if args.collapse_j:
        gens.append(el.pi(field, 1, 3))
    ideal = ideal_of(gens)
    if ideal.kind == "in_j" and not args.j_relative:
        raise _UsageError("an ideal inside the radical has infinite "
                          "codimension; pass --j-relative")
    if ideal.kind in ("pattern", "full") and args.j_relative:
        raise _UsageError("--j-relative only applies to radical ideals")
    q = FiniteAlgebra(ideal, j_relative=args.j_relative)
    payload = _quotient_payload(q)
    text = (f"dim {q.dim}; basis " +
            ", ".join(payload["basis_labels"])) if q.dim else "dim 0"
    _emit(args, payload, text)
    return 0


def _cmd_families(args) -> int:
    field = Field(args.char)
    if args.max_n < 1:
        raise _UsageError("--max-n must be at least 1")
    rows = []
    lines = [f"{'n':>3} {'H_n':>6} {'Hhat_n':>7} {'L_n':>6} {'Lhat_n':>7}"]
    for n in range(1, args.max_n + 1):
        row = {"n": n,
               "H": family_Hn(n, field, collapse_j=True).dim,
               "H_hat": family_Hn(n, field).dim,
               "L": family_Ln(n, field, collapse_j=True).dim,
               "L_hat": family_Ln(n, field).dim}
        rows.append(row)
        lines.append(f"{n:>3} {row['H']:>6} {row['H_hat']:>7} "
                     f"{row['L']:>6} {row['L_hat']:>7}")
    _emit(args, {"command": "families",
                 "characteristic": field.characteristic,
                 "max_n": args.max_n, "rows": rows}, "\n".join(lines))
    return 0


# each suite returns a report with "ok" or a list of entries, each with "ok"
_SUITES = {
    "fusion": fusion_check,
    "products": product_identity_suite,
    "twisted": twisted_identity_suite,
    "quotients": lambda field, imax: small_quotient_suite(field),
    "miyamoto": lambda field, imax: miyamoto_consistency(field, 0, imax),
}


# the fusion, products and twisted suites make O(imax^2) products: at this
# limit the slowest, products over Q, takes about 6 s on a 2-vCPU host
_IMAX_LIMIT = 64


def _cmd_verify(args) -> int:
    field = Field(args.char)
    if args.imax < 1:
        raise _UsageError("--imax must be at least 1")
    if args.imax > _IMAX_LIMIT:
        raise _UsageError(f"--imax must be at most {_IMAX_LIMIT}")
    suite = args.suite
    detail = _SUITES[suite](field, args.imax)
    if isinstance(detail, list):
        detail = {"entries": detail}
        ok = all(e["ok"] for e in detail["entries"])
    else:
        ok = detail["ok"]
    payload = {"command": "verify", "suite": suite,
               "characteristic": field.characteristic, "ok": ok,
               "detail": detail}
    _emit(args, payload, f"{suite}: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="highwater",
        description="Exact computations in the cover of the Highwater algebra")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--char", type=int, required=True,
                        help="field characteristic: 0 or a prime not 2, 3")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", help="write output to this path")

    sp = sub.add_parser("mul", help="multiply two elements")
    common(sp)
    sp.add_argument("x")
    sp.add_argument("y")
    sp.set_defaults(func=_cmd_mul)

    sp = sub.add_parser("weight", help="weight (sum of axis coefficients)")
    common(sp)
    sp.add_argument("x")
    sp.set_defaults(func=_cmd_weight)

    sp = sub.add_parser("eigen", help="eigendecompose relative to an axis")
    common(sp)
    sp.add_argument("x")
    sp.add_argument("--axis", type=int, default=0)
    sp.set_defaults(func=_cmd_eigen)

    sp_ideal = sub.add_parser("ideal", help="ideal classification/membership")
    isub = sp_ideal.add_subparsers(dest="ideal_cmd", required=True)
    sp = isub.add_parser("classify", help="classify the generated ideal")
    common(sp)
    sp.add_argument("--gen", required=True,
                    help="semicolon-separated generator literals")
    sp.set_defaults(func=_cmd_ideal_classify)
    sp = isub.add_parser("member", help="membership with reduction witness")
    common(sp)
    sp.add_argument("--gen", required=True)
    sp.add_argument("--elt", required=True)
    sp.set_defaults(func=_cmd_ideal_member)

    sp = sub.add_parser("quotient", help="structure constants of a quotient")
    common(sp)
    sp.add_argument("--gen", required=True)
    sp.add_argument("--collapse-j", action="store_true",
                    help="also collapse the p-span")
    sp.add_argument("--j-relative", action="store_true",
                    help="quotient inside the radical for p-span ideals")
    sp.set_defaults(func=_cmd_quotient)

    sp = sub.add_parser("families", help="dimension table of the families")
    common(sp)
    sp.add_argument("--max-n", type=int, required=True)
    sp.set_defaults(func=_cmd_families)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp)
    sp.add_argument("suite", choices=tuple(_SUITES))
    sp.add_argument("--imax", type=int, default=8)
    sp.set_defaults(func=_cmd_verify)
    return parser


_parser = cache(build_parser)  # main's parser: built on first use, kept


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, ParseError, IdealArgumentError,
            BadCharacteristicError, QuotientError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader left (``| head``): exit as SIGPIPE would, with stdout
        # on devnull so that the flush at exit cannot raise again
        with suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
