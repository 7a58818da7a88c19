"""Command-line interface: tables, single verifications, and grid sweeps.

Exit codes are stable across subcommands: 0 = all checks pass, 1 = a
mathematical mismatch was found, 2 = usage or parameter error, 3 = internal
error (a crash, never reported as a mismatch).  Rationals are always
serialized as strings like "p/q", never as floats.

Every run is a fresh process that pays for its imports, so this module
imports only what a check runs: the process pool is imported by
``run_grid`` when it starts more than one worker, and ``traceback`` by the
two internal-error handlers.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from json.encoder import encode_basestring_ascii

from .bernoulli import TwistContext, bernoulli_numbers, powersum_gf_check
from .characters import enumerate_characters
from .padic import convergence_check, padic_context
from .symmetry import (THEOREM_IDS, QuotientSpec, _FAMILY_MAX_I,
                       permutation_invariance_check, verify_theorem)

_MISMATCH = 1
_USAGE_ERROR = 2
_INTERNAL_ERROR = 3


class GridSpec:
    """Cartesian sweep: moduli x characters x twist orders x weight triples;
    char_selector is "all", "primitive" or a comma list of indices."""

    __slots__ = ("d_list", "char_selector", "xi_orders", "w_list", "n_max",
                 "truncation", "jobs")

    def __init__(self, d_list: list[int], char_selector: str,
                 xi_orders: list[int], w_list: list[tuple[int, int, int]],
                 n_max: int = 4, truncation: int = 4, jobs: int = 1):
        if not d_list or not xi_orders or not w_list:
            raise ValueError("grid needs at least one d, xi order, and w triple")
        if any(d < 1 for d in d_list):
            raise ValueError("moduli must be >= 1")
        if any(r < 1 for r in xi_orders):
            raise ValueError("xi orders must be >= 1")
        if any(len(w) != 3 or min(w) < 1 for w in w_list):
            raise ValueError("every w component must be >= 1")
        if n_max < 0:
            raise ValueError("n must be >= 0")
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        self.d_list = d_list
        self.char_selector = char_selector
        self.xi_orders = xi_orders
        self.w_list = w_list
        self.n_max = n_max
        self.truncation = truncation
        self.jobs = jobs

    def char_indices(self, d: int) -> list[int]:
        chars = enumerate_characters(d)
        if self.char_selector == "all":
            return list(range(len(chars)))
        if self.char_selector == "primitive":
            return [i for i, c in enumerate(chars) if c.is_primitive]
        try:
            idx = [int(t) for t in self.char_selector.split(",")]
        except ValueError:
            raise ValueError(
                "--chars must be 'all', 'primitive', or a comma list of "
                f"indices, not {self.char_selector!r}") from None
        for i in idx:
            if not 0 <= i < len(chars):
                raise ValueError(f"character index {i} out of range mod {d}")
        return idx

    def points(self) -> list[tuple]:
        points = sorted({(d, ci, r, 1, tuple(w)) for d in sorted(self.d_list)
                         for ci in self.char_indices(d)
                         for r in self.xi_orders for w in self.w_list})
        if not points:
            raise ValueError(
                f"grid selects no point: --chars {self.char_selector!r} "
                f"matches no character mod {','.join(map(str, self.d_list))}")
        return points


# argparse shows the message of an ArgumentTypeError; for any other error of
# a type function it names the function instead
def _parse_ints(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, not {text!r}") from None


def _parse_w(text: str) -> tuple[int, int, int]:
    parts = _parse_ints(text)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "--w expects three comma-separated integers")
    return tuple(parts)  # type: ignore[return-value]


def _render(args, json_payload, csv_table, text_lines):
    """Write the view that --format asks for to --out, or else to stdout.

    Each view is a zero-argument callable and only the requested one is
    called: json_payload() gives a JSON-able object, csv_table() a
    (header, rows) pair, text_lines() the lines of the text view.
    """
    if args.format == "json":
        text = _json_text(json_payload()) + "\n"
    elif args.format == "csv":
        text = _csv_text(*csv_table())
    else:
        text = "\n".join(text_lines()) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # an unwritable --out is a parameter error
            raise ValueError(f"cannot write --out {args.out}: "
                             f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _json_text(x, indent: str = "\n") -> str:
    """json.dumps(x, indent=2, sort_keys=True) for dicts with str keys,
    lists, tuples and scalars, byte for byte, without the pure-Python
    encoder that an indent selects: strings go through the C
    ``encode_basestring_ascii``, other scalars through ``json.dumps``."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    inner = indent + "  "
    if isinstance(x, dict):
        brackets = "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(x[k], inner)}"
                 for k in sorted(x)]
    elif isinstance(x, (list, tuple)):
        brackets = "[]"  # a string item, the common leaf, is encoded inline
        items = [encode_basestring_ascii(v) if isinstance(v, str)
                 else _json_text(v, inner) for v in x]
    else:
        return json.dumps(x)
    if not items:
        return brackets
    return (brackets[0] + inner + ("," + inner).join(items) + indent
            + brackets[1])


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _build_context(args, xi_order: int) -> TwistContext:
    """The context the flags select, with xi of order xi_order; an
    imprimitive character is noted on stderr."""
    ctx = TwistContext.from_orders(args.d, args.char, xi_order, args.xi_exp)
    chi = ctx.chi
    if not chi.is_primitive:
        print(f"note: character #{args.char} mod {chi.modulus} is imprimitive "
              f"(conductor {chi.conductor})", file=sys.stderr)
    return ctx


def _csv_table(lead: list[str], rows: list[dict]) -> tuple[list, list]:
    """CSV header and cells of verify or grid result rows: the lead
    columns, then the point, n, verdict and detail."""
    return ([*lead, "d", "char", "xi_order", "xi_exp", "w", "n", "verdict",
             "detail"],
            [[*(r[k] for k in lead), r["d"], r["char"], r["xi_order"],
              r["xi_exp"], ":".join(map(str, r["w"])), r["n"], r["verdict"],
              r["detail"] or ""] for r in rows])


# -- subcommands --------------------------------------------------------------

def cmd_chars(args) -> int:
    chars = enumerate_characters(args.d)
    rows = [[i, " ".join(map(str, c.exponents)), c.order, c.conductor,
             "yes" if c.is_primitive else "no"]
            for i, c in enumerate(chars)]
    _render(args,
            lambda: [dict(index=i, **c.to_json_dict(),
                          primitive=c.is_primitive)
                     for i, c in enumerate(chars)],
            lambda: (["index", "exponents", "order", "conductor",
                      "primitive"], rows),
            lambda: [f"characters mod {args.d} ({len(chars)} total)",
                     f"{'index':>5} {'exponents':>12} {'order':>5} "
                     f"{'conductor':>9} {'primitive':>9}",
                     *(f"{r[0]:>5} {r[1]:>12} {r[2]:>5} {r[3]:>9} {r[4]:>9}"
                       for r in rows)])
    return 0


def cmd_bernoulli(args) -> int:
    if args.n < 0:
        raise ValueError("n must be >= 0")
    ctx = _build_context(args, args.xi_order)
    values = bernoulli_numbers(ctx, args.n).values
    _render(args,
            lambda: {"params": ctx.params(),
                     "values": [v.to_json_dict() for v in values]},
            lambda: (["n", "value"],
                     [[n, json.dumps(v.to_json_dict(), sort_keys=True)]
                      for n, v in enumerate(values)]),
            lambda: [f"B_n for d={args.d}, chi #{args.char}, "
                     f"xi = zeta_{args.xi_order}^{args.xi_exp}",
                     *(f"  B_{n} = {v}" for n, v in enumerate(values))])
    return 0


def cmd_verify(args) -> int:
    ctx = _build_context(args, args.xi_order)
    ids = {"all": THEOREM_IDS, **{str(t): (t,) for t in THEOREM_IDS}}
    if args.theorem not in ids:
        raise ValueError("theorem id must be 1..8 or 'all'")
    reports = [verify_theorem(tid, ctx, args.w, args.n)
               for tid in ids[args.theorem]]
    base = _point_fields((args.d, args.char, args.xi_order, args.xi_exp,
                          args.w))
    _render(args,
            lambda: ([r.to_json_dict() for r in reports] if len(reports) > 1
                     else reports[0].to_json_dict()),
            lambda: _csv_table(["theorem"], [
                dict(base, theorem=r.theorem, n=args.n, verdict=r.verdict,
                     detail=r.detail) for r in reports]),
            lambda: [f"theorem {r.theorem}: {r.verdict}"
                     + (f"  [{r.detail}]" if r.detail else "")
                     for r in reports])
    return 0 if all(r.passed for r in reports) else _MISMATCH


def _point_fields(point: tuple) -> dict:
    d, ci, r, e, w = point
    return {"d": d, "char": ci, "xi_order": r, "xi_exp": e, "w": list(w)}


def _grid_point_rows(point: tuple, n_max: int, truncation: int) -> list[dict]:
    d, ci, r, e, w = point
    ctx = TwistContext.from_orders(d, ci, r, e)
    checks = [("theorem", tid, n_max, verify_theorem(tid, ctx, w, n_max))
              for tid in THEOREM_IDS]
    checks += [("powersum_gf", scalar_w, truncation,
                powersum_gf_check(ctx, scalar_w, truncation))
               for scalar_w in sorted(set(w))]
    checks += [(f"invariance-{family}", i, truncation,
                permutation_invariance_check(QuotientSpec(family, i, w, ctx),
                                             truncation))
               for family, max_i in sorted(_FAMILY_MAX_I.items())
               for i in range(max_i + 1)]
    base = _point_fields(point)
    return [dict(base, kind=kind, id=i, n=n, verdict=rep.verdict,
                 detail=rep.detail) for kind, i, n, rep in checks]


def _worker(task):
    """The rows of one grid point; a crash becomes one ``error`` row."""
    point, n_max, truncation = task
    try:
        return _grid_point_rows(point, n_max, truncation)
    except Exception as exc:
        import traceback
        print(f"internal error at grid point {point}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return [dict(_point_fields(point), kind="point", id=None, n=None,
                     verdict="error", detail=f"{type(exc).__name__}: {exc}")]


def effective_jobs(jobs: int, points: int) -> int:
    """Worker processes actually started: min(jobs, points, cpu count), >= 1.

    The pool starts all of its workers at once, so a large --jobs must not
    reach it unclamped.
    """
    return max(1, min(jobs, points, os.cpu_count() or 1))


def run_grid(spec: GridSpec) -> dict:
    """Run all verifiers over the grid; deterministic row order."""
    tasks = [(pt, spec.n_max, spec.truncation) for pt in spec.points()]
    jobs = effective_jobs(spec.jobs, len(tasks))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_worker, tasks))
    else:
        chunks = [_worker(t) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    failed = sum(1 for row in rows if row["verdict"] == "fail")
    errors = sum(1 for row in rows if row["verdict"] == "error")
    summary = {"total": len(rows), "passed": len(rows) - failed - errors,
               "failed": failed}
    if errors:
        summary["errors"] = errors
    return {"summary": summary, "results": rows}


def _grid_text(outcome: dict) -> list[str]:
    s = outcome["summary"]
    lines = [f"grid: {s['total']} checks, {s['passed']} passed, "
             f"{s['failed']} failed"
             + (f", {s['errors']} errored" if "errors" in s else "")]
    for r in outcome["results"]:
        where = (f"d={r['d']} char={r['char']} xi_order={r['xi_order']} "
                 f"w={r['w']}")
        if r["verdict"] == "fail":
            lines.append(f"  {r['kind']}[{r['id']}] {where}: fail")
        elif r["verdict"] == "error":
            lines.append(f"  point {where}: error  [{r['detail']}]")
    return lines


def cmd_grid(args) -> int:
    spec = GridSpec(d_list=args.d, char_selector=args.chars,
                    xi_orders=args.xi_orders,
                    w_list=args.w or [(1, 1, 1)],
                    n_max=args.n, truncation=args.trunc, jobs=args.jobs)
    outcome = run_grid(spec)
    _render(args, lambda: outcome,
            lambda: _csv_table(["kind", "id"], outcome["results"]),
            lambda: _grid_text(outcome))
    if "errors" in outcome["summary"]:
        return _INTERNAL_ERROR
    return 0 if outcome["summary"]["failed"] == 0 else _MISMATCH


def cmd_padic(args) -> int:
    pctx = padic_context(args.p, args.s)
    ctx = _build_context(args, pctx.field.order)
    report = convergence_check(ctx, pctx, args.k, args.n_max)

    def table():
        return ["N", "valuation"], report.to_json_dict()["rows"]
    # the text view is the CSV table (its lines end in \r\n) and a verdict
    _render(args, report.to_json_dict, table,
            lambda: [_csv_text(*table()) + f"verdict: {report.verdict}"])
    return 0 if report.passed else _MISMATCH


# -- argument parsing -----------------------------------------------------------

def _add_context_flags(sub, with_w=False):
    sub.add_argument("--d", type=int, default=1, help="character modulus")
    sub.add_argument("--char", type=int, default=0,
                     help="character index (see the chars subcommand)")
    sub.add_argument("--xi-order", dest="xi_order", type=int, default=1,
                     help="order of the twist root xi")
    sub.add_argument("--xi-exp", dest="xi_exp", type=int, default=1,
                     help="xi = zeta_order^exp (exp coprime to order)")
    if with_w:
        sub.add_argument("--w", type=_parse_w, default=(1, 1, 1),
                         help="weight triple, e.g. 1,2,3")


def _add_output_flags(sub):
    sub.add_argument("--format", choices=("text", "json", "csv"),
                     default="text")
    sub.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistbern",
        description="Exact tables and identity verification for twisted "
                    "Bernoulli polynomials and twisted power sums.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("chars", help="list Dirichlet characters mod d")
    p.add_argument("--d", type=int, required=True)
    _add_output_flags(p)

    p = subs.add_parser("bernoulli",
                        help="table of generalized twisted Bernoulli numbers")
    _add_context_flags(p)
    p.add_argument("--n", type=int, default=8, help="largest index")
    _add_output_flags(p)

    p = subs.add_parser("verify", help="verify one or all symmetry theorems")
    p.add_argument("--theorem", default="all",
                   help="theorem id 1..8, or 'all'")
    _add_context_flags(p, with_w=True)
    p.add_argument("--n", type=int, default=4, help="coefficient index")
    _add_output_flags(p)

    p = subs.add_parser("grid", help="run every verifier over a parameter grid")
    p.add_argument("--d", type=_parse_ints, default=[1],
                   help="comma list of moduli")
    p.add_argument("--chars", default="all",
                   help="'all', 'primitive', or a comma list of indices")
    p.add_argument("--xi-orders", dest="xi_orders", type=_parse_ints,
                   default=[1], help="comma list of twist orders")
    p.add_argument("--w", type=_parse_w, action="append", default=None,
                   help="weight triple (repeatable), e.g. --w 1,2,3 --w 2,3,5")
    p.add_argument("--n", type=int, default=4, help="theorem coefficient index")
    p.add_argument("--trunc", type=int, default=4,
                   help="series truncation for GF and invariance checks")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    _add_output_flags(p)

    p = subs.add_parser("padic",
                        help="valuation table witnessing p-adic convergence")
    p.add_argument("--p", type=int, required=True, help="prime")
    p.add_argument("--s", type=int, default=0,
                   help="xi has order p^s (s=0 means xi=1)")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--char", type=int, default=0)
    p.add_argument("--xi-exp", dest="xi_exp", type=int, default=1)
    p.add_argument("--k", type=int, default=1, help="moment exponent")
    p.add_argument("--n-max", dest="n_max", type=int, default=5,
                   help="largest partial-sum level")
    _add_output_flags(p)

    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else _USAGE_ERROR
    try:
        # looked up per call, not bound into the shared parser
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except Exception as exc:
        import traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return _INTERNAL_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
