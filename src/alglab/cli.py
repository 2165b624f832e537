"""Command-line surface.

Exit codes follow one contract everywhere: 0 = success / all checks pass,
1 = a genuine violation of a certified statement, 2 = input or hypothesis
error.  Query verbs (rdep, rewrite, frobenius validate) exit 0 when the
query itself succeeds; frobenius validate exits 1 on an invalid triple so
scripts can use it as a predicate.  Command bodies raise; the root group's
invoke alone maps what they raise to an exit code (verify.verify does the
same for each check it runs).
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace
from typing import Optional

import click

from . import formats, rewrite, search as search_mod, verify as verify_mod
from .errors import AlgLabError, InputError, InternalInvariantError
from .frobenius import NQRTriple, checked_triple, validate_nqr
from .grading import check_grading, nontrivial_components
from .rdep import d_set, is_r_dependent, rigid_subsequence
from .series import derived_series, lower_central_series

def _echo(message: str, err: bool = False) -> None:
    """click.echo to the current sys.stdout (or sys.stderr).  Naming the stream
    keeps click from caching a wrapper per stream object: that cache keeps every
    stream the CLI ever wrote to alive, with its text, when the CLI runs
    in-process under redirected or captured output."""
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _fail(code: int, message: str):
    _echo(f"error: {message}", err=True)
    sys.exit(code)


def _read(load, path: str):
    """load(path), naming a missing file as it was typed (the filename of a
    FileNotFoundError drops a leading ./)."""
    try:
        return load(path)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None


def _parse_seq(raw: str) -> list[int]:
    try:
        entries = [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputError(f"could not parse integer list {raw!r}") from None
    if not entries:
        raise InputError("empty sequence")
    return entries


class _Main(click.Group):
    """Exit 1 on a failed certified bound, 2 on any other AlgLabError or unreadable input."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except InternalInvariantError as exc:
            _fail(1, str(exc))
        except BrokenPipeError:  # stdout closed early: click's own handling applies
            raise
        except (AlgLabError, OSError, UnicodeDecodeError) as exc:
            _fail(2, str(exc))


@click.group(cls=_Main)
def main():
    """Exact toolkit for graded Lie-type algebras over prime fields."""


@main.command()
@click.argument("file", type=click.Path())
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def check(file: str, as_json: bool):
    """Validate FILE and certify its product identity (and grading if present)."""
    loaded = _read(formats.load, file)
    results = [verify_mod.verify(loaded, name).results[0] for name in ("identity", "grading")]
    _echo_results(results, as_json)
    sys.exit(1 if any(r.status == verify_mod.Status.VIOLATION for r in results) else 0)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--kind", type=click.Choice(["derived", "lcs"]), default="derived")
@click.option("--json", "as_json", is_flag=True)
def series(file: str, kind: str, as_json: bool):
    """Print the derived or lower central series of FILE."""
    loaded = _read(formats.load, file)
    res = derived_series(loaded.algebra) if kind == "derived" else lower_central_series(loaded.algebra)
    metric = "derived_length" if kind == "derived" else "nilpotency_class"
    if as_json:
        _echo(
            json.dumps(
                {
                    "kind": kind,
                    "ranks": [t.rank for t in res.terms],
                    "stabilized": res.stabilized,
                    metric: res.length,
                },
                indent=2,
            )
        )
    else:
        ranks = " > ".join(str(t.rank) for t in res.terms)
        _echo(f"term ranks: {ranks}")
        if res.length is not None:
            _echo(f"{metric}: {res.length}")
        else:
            _echo(f"{metric}: none (series stabilizes at rank {res.terms[-1].rank})")
    sys.exit(0)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--json", "as_json", is_flag=True)
def grade(file: str, as_json: bool):
    """Report the grading of FILE: components, d, and the grading law check."""
    loaded = _read(formats.load, file)
    if loaded.grading is None:
        raise InputError("file has no grading block")
    A, G = loaded.algebra, loaded.grading
    rep = check_grading(A, G)
    nontrivial = sorted(nontrivial_components(A, G))
    if as_json:
        _echo(
            json.dumps(
                {
                    "n": G.n,
                    "degrees": list(G.degrees),
                    "nontrivial": nontrivial,
                    "d": len(nontrivial),
                    "law_ok": rep.ok,
                    "violations": len(rep.violations),
                },
                indent=2,
            )
        )
    else:
        _echo(f"modulus n = {G.n}; degrees {list(G.degrees)}")
        _echo(f"nontrivial components: {nontrivial} (d = {len(nontrivial)})")
        _echo(f"grading law: {'ok' if rep.ok else 'VIOLATED'}")
    sys.exit(0 if rep.ok else 1)


@main.group()
def frobenius():
    """Automorphism-action commands."""


@frobenius.command("validate")
@click.option("--n", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def frobenius_validate(n: int, q: int, r: int, as_json: bool):
    """Check the multiplicative-order condition on (n, q, r)."""
    res = validate_nqr(n, q, r)
    if as_json:
        _echo(json.dumps({"n": n, "q": q, "r": r, "valid": res.valid, "witness": res.witness}))
    elif res.valid:
        _echo(f"(n={n}, q={q}, r={r}) is valid")
    else:
        _echo(f"(n={n}, q={q}, r={r}) is invalid: order of r mod {res.witness} != {q}")
    sys.exit(0 if res.valid else 1)


@frobenius.command("grade")
@click.argument("file", type=click.Path())
@click.option("--json", "as_json", is_flag=True)
def frobenius_grade(file: str, as_json: bool):
    """Report the eigen-grading of FILE's phi and h's permutation of its components."""
    loaded = _read(formats.load, file)
    if loaded.action is None:
        raise InputError("file has no action block")
    report = verify_mod.verify(loaded, "frobenius")
    result = report.results[0]
    if as_json:
        _echo(json.dumps(vars(result), indent=2))
    else:
        _echo(f"frobenius: {result.status.value} - {result.message}")
    sys.exit(report.exit_code)


@main.group()
def rdep():
    """Index-sequence dependence queries."""


def _triple_options(command):
    """--n/--q/--r, passed to command as one NQRTriple that passes the order
    condition."""
    @click.option("--n", type=int, required=True)
    @click.option("--q", type=int, required=True)
    @click.option("--r", type=int, required=True)
    @functools.wraps(command)
    def with_triple(n: int, q: int, r: int, **kwargs):
        return command(checked_triple(n, q, r), **kwargs)
    return with_triple


@rdep.command("dep")
@_triple_options
@click.option("--seq", type=str, required=True, help="comma-separated nonzero residues")
@click.option("--json", "as_json", is_flag=True)
def rdep_dep(nqr: NQRTriple, seq: str, as_json: bool):
    """Decide whether SEQ is r-dependent; prints the first witness if so."""
    res = is_r_dependent(nqr, _parse_seq(seq))
    if as_json:
        _echo(json.dumps({"dependent": res.dependent, "witness": res.witness}))
    elif res.dependent:
        _echo(f"dependent  witness exponents {list(res.witness)}")
    else:
        _echo("independent")
    sys.exit(0)


@rdep.command("dset")
@_triple_options
@click.option("--prefix", type=str, required=True)
@click.option("--json", "as_json", is_flag=True)
def rdep_dset(nqr: NQRTriple, prefix: str, as_json: bool):
    """Members of the dependence set of PREFIX (all j completing it to a
    dependent sequence)."""
    ds = d_set(nqr, _parse_seq(prefix))
    members = sorted(ds.members)
    if as_json:
        _echo(json.dumps({"prefix": list(ds.prefix), "members": members, "size": ds.size}))
    else:
        shown = ",".join(str(a) for a in ds.prefix)
        _echo(f"D({shown}) = {members}  (size {ds.size} <= q^{len(ds.prefix) + 1})")
    sys.exit(0)


@rdep.command("rigid")
@_triple_options
@click.option("--seq", type=str, required=True)
@click.option("--m", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def rdep_rigid(nqr: NQRTriple, seq: str, m: int, as_json: bool):
    """Find an independent subsequence of length M containing the first entry."""
    sub = rigid_subsequence(nqr, _parse_seq(seq), m)
    if as_json:
        _echo(json.dumps({"found": sub is not None, "subsequence": list(sub) if sub else None}))
    elif sub is None:
        _echo("none")
    else:
        _echo(",".join(str(x) for x in sub))
    sys.exit(0)


@main.group(name="rewrite")
def rewrite_group():
    """Bracket-term commands."""


@rewrite_group.command("normalize")
@click.argument("expr", type=str)
@click.option("--alpha", type=int, required=True)
@click.option("--beta", type=int, required=True)
@click.option("--p", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def rewrite_normalize(expr: str, alpha: int, beta: int, p: int, as_json: bool):
    """Left-normalize EXPR into a combination of simple products."""
    combo = rewrite.normalize(rewrite.parse(expr), alpha, beta, p)
    if as_json:
        doc = [
            {"word": [a.name for a in word], "coeff": coeff}
            for word, coeff in combo.terms
        ]
        _echo(json.dumps({"p": p, "terms": doc}, indent=2))
    else:
        _echo(rewrite.format_combo(combo))
    sys.exit(0)


def _echo_results(results, as_json: bool) -> None:
    if as_json:
        _echo(json.dumps([vars(r) for r in results], indent=2))
    else:
        for r in results:
            _echo(f"{r.check}: {r.status.value} - {r.message}")


@main.command(name="verify")
@click.argument("lemma_id", type=str)
@click.argument("file", type=click.Path())
@click.option("--c", type=int, default=None, help="level for selective-nilpotency")
@click.option("--json", "as_json", is_flag=True)
def verify_cmd(lemma_id: str, file: str, c: Optional[int], as_json: bool):
    """Run a named verification (or `all`) against FILE.

    Exit 0: pass.  Exit 1: genuine violation.  Exit 2: input/hypothesis error.
    """
    report = verify_mod.verify(_read(formats.load, file), lemma_id, c)
    _echo_results(report.results, as_json)
    sys.exit(report.exit_code)


@main.command(name="search")
@click.option("--spec", "spec_path", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None, help="override the spec's seed")
@click.option("--json", "as_json", is_flag=True)
def search_cmd(spec_path: str, seed: Optional[int], as_json: bool):
    """Enumerate or sample graded tables per SPEC and report survivors."""
    spec = _read(search_mod.load_spec, spec_path)
    if seed is not None:
        spec = search_mod.validate_spec(replace(spec, seed=seed))
    result = search_mod.search(spec)
    summary_docs = [vars(b) for b in result.summary]
    if as_json:
        _echo(
            json.dumps(
                {
                    "candidates": result.candidates,
                    "survivors": [s.document() for s in result.survivors],
                    "summary": summary_docs,
                },
                indent=2,
            )
        )
    else:
        for s in result.survivors:
            _echo(json.dumps(s.document(), separators=(",", ":")))
        _echo(f"candidates: {result.candidates}  survivors: {len(result.survivors)}")
        for b in result.summary:
            _echo(
                f"bucket n={b.n} q={b.q} r={b.r} c={b.c} d={b.d}: "
                f"count={b.count} max_derived_length={b.max_derived_length} "
                f"max_nilpotency_class={b.max_nilpotency_class} "
                f"nonsolvable={b.nonsolvable} nonnilpotent={b.nonnilpotent}"
            )
    sys.exit(0)


if __name__ == "__main__":
    main()
