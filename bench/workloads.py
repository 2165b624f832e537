"""The four benchmark workloads.

Each builder makes its inputs from the workload seed, writes any files into
a work directory, and returns the items of one pass.  An item is one public
call into alglab (or one in-process CLI invocation) whose latency is
recorded; its output is compared with a known answer after the pass, outside
the timed region.

Known answers come from three places: closed forms (the upper-triangular
ladder), small independent oracles (oracles.py), and digests recorded from
the program into golden.json (record_golden.py).  The seed only changes
things that provably leave the answers alone: a relabelling of each input
file's basis (a permutation plus nonzero rescaling), the order of the items,
the seeds of the random search specs (checked by an oracle), the algebra and
assignment behind each rewrite term, and the prefixes sampled for the
r-dependence oracle.  So one golden file serves every seed, and the work in
a pass, hence its cost, is nearly the same for every seed.

Items call alglab through module attributes (``rdep.d_set``, not a name
imported once), so the traced pass sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import oracles

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
WORKLOADS = ("certify", "corpus", "sweep", "rewrite")
SIZES = ("full", "tiny")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Raised:
    """Output of an item whose call raised instead of returning."""

    error: str


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    answer: Callable[[Any], Any]           # the part of the output that is compared
    expected: Any                          # known answer; a digest when golden
    golden: bool = False                   # expected comes from golden.json
    oracle: Optional[Callable[[Any], bool]] = None
    cli: bool = False                      # the call enters through the CLI

    def check(self, output) -> bool:
        if isinstance(output, Raised):
            return False
        if callable(self.expected):        # oracle answers are computed on first use
            self.expected = self.expected()
        got = self.answer(output)
        if self.golden:
            got = digest(got)
        return got == self.expected and (self.oracle is None or self.oracle(output))


@dataclass
class Workload:
    items: list[Item]
    warmup: list[Item]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def build(name: str, seed: int, size: str, workdir: Path, golden: dict) -> Workload:
    """Make the inputs of workload `name` and return its items (not run yet)."""
    builders = {"certify": _certify, "corpus": _corpus, "sweep": _sweep, "rewrite": _rewrite}
    return builders[name](seed, size == "tiny", workdir, golden.get(name, {}))


def _golden(table: dict, label: str) -> str:
    return table.get(label, "<no golden digest recorded>")


# -- certify: CLI verbs on files ------------------------------------------------

FIXTURES = (
    "heisenberg_f5.json", "leibniz2_f3.json", "leibniz2_f7.json",
    "mat2x2_f2.json", "abelian2_f7_action.json",
)
# (p, m, lie): m x m strictly upper-triangular rungs, dim 3 .. 21; the costly
# m = 6, 7 rungs once each, so that a pass stays near three seconds
LADDER = tuple((p, m, lie) for m in (3, 4, 5) for p in (2, 3, 5) for lie in (False, True)) + (
    (5, 6, True), (5, 7, True))
CHECK_MAX_M = 4                     # `check` repeats `verify all`; keep it to the cheap rungs
# (p, n, q, r, m, lie): q twisted copies of the m x m ladder graded mod n
ACTION_CONFIGS = (
    (7, 3, 2, 2, 3, False), (13, 3, 2, 2, 3, True),
    (11, 5, 2, 4, 4, False), (11, 5, 4, 2, 3, True),
)
SURVIVOR_SPECS = ((3, 4, (0, 1, 1, 1)), (2, 5, (0, 1, 1, 1, 1)))
SURVIVOR_FILES = 8
# ladder rungs (all in LADDER) that get one broken copy of each kind
BROKEN_BASES = ((3, 4, False), (5, 4, True), (3, 5, True), (5, 5, False))


def _ladder_doc(p: int, m: int, lie: bool, n: Optional[int] = None) -> dict:
    """Strictly upper-triangular m x m matrices over F_p with xy (alpha, beta) = (1, 0)
    or xy - yx (1, 1), graded by (j - i) mod n (default n = m)."""
    n = m if n is None else n
    idx = [(i, j) for i in range(m) for j in range(i + 1, m)]
    pos = {e: k for k, e in enumerate(idx)}
    table: dict[tuple[int, int, int], int] = {}
    for a, b in idx:
        for c, e in idx:
            if b == c:
                key = (pos[(a, b)], pos[(c, e)], pos[(a, e)])
                table[key] = table.get(key, 0) + 1
            if lie and e == a:
                key = (pos[(a, b)], pos[(c, e)], pos[(c, b)])
                table[key] = table.get(key, 0) - 1
    quads = [[i + 1, j + 1, k + 1, v % p] for (i, j, k), v in sorted(table.items()) if v % p]
    kind = "lie" if lie else "assoc"
    return {
        "p": p, "dim": len(idx), "alpha": 1, "beta": 1 if lie else 0, "table": quads,
        "grading": {"n": n, "degrees": [(j - i) % n for i, j in idx]},
        "meta": {"name": f"ladder-p{p}-m{m}-{kind}",
                 "expected": {"derived_length": math.ceil(math.log2(m)),
                              "nilpotency_class": m - 1}},
    }


def _root_of_unity(p: int, n: int) -> int:
    return next(g for g in range(2, p) if pow(g, n, p) == 1
                and all(pow(g, n // f, p) != 1 for f in range(2, n + 1) if n % f == 0))


def _action_doc(p, n, q, r, m, lie) -> dict:
    """q copies of a ladder rung, copy s graded by r^s * (j - i) mod n; phi acts
    by omega^degree and h shifts copy s onto copy s + 1, so h^-1 phi h = phi^r."""
    base = _ladder_doc(p, m, lie, n)
    db = base["dim"]
    dim = q * db
    table = [[s * db + i, s * db + j, s * db + k, c]
             for s in range(q) for i, j, k, c in base["table"]]
    degrees = [pow(r, s, n) * d % n for s in range(q) for d in base["grading"]["degrees"]]
    omega = _root_of_unity(p, n)
    phi = [[pow(omega, degrees[a], p) if a == b else 0 for b in range(dim)] for a in range(dim)]
    h = [[0] * dim for _ in range(dim)]
    for s in range(q):
        for b in range(db):
            h[((s + 1) % q) * db + b][s * db + b] = 1
    doc = dict(base, dim=dim, table=table, grading={"n": n, "degrees": degrees})
    doc["action"] = {"n": n, "q": q, "r": r, "phi": phi, "h": h}
    doc["meta"] = dict(base["meta"], name=f"twisted-p{p}-n{n}-q{q}-r{r}-m{m}")
    return doc


def _relabel(doc: dict, rng: random.Random) -> dict:
    """An isomorphic copy: new basis vector k is lam_k times old vector perm[k]."""
    p, dim = doc["p"], doc["dim"]
    perm = list(range(dim))
    rng.shuffle(perm)
    lam = [rng.randrange(1, p) for _ in range(dim)]
    inv = {old: new for new, old in enumerate(perm)}
    table = []
    for i, j, k, c in doc["table"]:
        a, b, t = inv[i - 1], inv[j - 1], inv[k - 1]
        table.append([a + 1, b + 1, t + 1, c * lam[a] * lam[b] * pow(lam[t], p - 2, p) % p])
    out = dict(doc, table=sorted(table))
    if "grading" in doc:
        degs = doc["grading"]["degrees"]
        out["grading"] = {"n": doc["grading"]["n"], "degrees": [degs[perm[k]] for k in range(dim)]}
    if "action" in doc:
        act = dict(doc["action"])
        for key in ("phi", "h"):
            g = act[key]
            act[key] = [[pow(lam[a], p - 2, p) * g[perm[a]][perm[b]] * lam[b] % p
                         for b in range(dim)] for a in range(dim)]
        out["action"] = act
    return out


def _table_array(doc: dict) -> np.ndarray:
    d = doc["dim"]
    T = np.zeros((d, d, d), dtype=np.int64)
    for i, j, k, c in doc["table"]:
        T[i - 1, j - 1, k - 1] = c
    return T


def _with_table(doc: dict, T: np.ndarray) -> dict:
    quads = [[int(i) + 1, int(j) + 1, int(k) + 1, int(T[i, j, k])] for i, j, k in zip(*np.nonzero(T))]
    return dict(doc, table=quads)


def _perturbed_entry(doc: dict, rng: random.Random) -> dict:
    """Change one coefficient on a grading-compatible slot so that the oracle
    says the product identity fails; the grading law still holds."""
    p, T = doc["p"], _table_array(doc)
    slots = oracles.graded_slots(doc["grading"]["degrees"], doc["grading"]["n"])
    options = [(s, v) for s in slots for v in range(p) if v != T[s]]
    rng.shuffle(options)
    for slot, value in options:
        T2 = T.copy()
        T2[slot] = value
        if not oracles.identity_holds(T2, p, doc["alpha"], doc["beta"]):
            return _with_table(doc, T2)
    raise RuntimeError(f"no identity-breaking entry for {doc['meta']['name']}")


def _mislabelled_degree(doc: dict, rng: random.Random) -> dict:
    """Move one basis vector to another degree so that the oracle says the
    grading law fails; the table is unchanged."""
    n, degs = doc["grading"]["n"], doc["grading"]["degrees"]
    options = [(k, d) for k in range(len(degs)) for d in range(n) if d != degs[k]]
    rng.shuffle(options)
    T = _table_array(doc)
    for k, d in options:
        new = list(degs)
        new[k] = d
        if not oracles.grading_holds(T, new, n):
            return dict(doc, grading={"n": n, "degrees": new})
    raise RuntimeError(f"no grading-breaking degree for {doc['meta']['name']}")


def _cli_item(label, args, answer, expected, golden=False) -> Item:
    from alglab import cli

    def run():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                cli.main.main(args=list(args), prog_name="alglab", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    return Item(label, run, answer, expected, golden=golden, cli=True)


def _json_answer(output):
    code, text = output
    return {"exit": code, "output": json.loads(text)}


def _grade_answer(output):
    """grade --json with the degree list sorted: relabelling permutes it."""
    code, text = output
    doc = json.loads(text)
    doc["degrees"] = sorted(doc["degrees"])
    return {"exit": code, "output": doc}


def _text_answer(output):
    code, text = output
    return {"exit": code, "output": text}


def _statuses(output):
    """exit code plus the identity and grading statuses, from --json or text."""
    code, text = output
    if text.lstrip().startswith("["):
        rows = {r["check"]: r["status"] for r in json.loads(text)}
    else:
        rows = dict(line.split(" - ")[0].split(": ") for line in text.splitlines())
    return {"exit": code, "identity": rows.get("identity"), "grading": rows.get("grading")}


def _verify_all_answer(output):
    code, text = output
    rows = json.loads(text)
    statuses = [(r["check"], r["status"]) for r in rows]
    kreknin = next(r["details"] for r in rows if r["check"] == "kreknin")
    return {"exit": code, "statuses": statuses, "kreknin": kreknin}


def _certify(seed, tiny, workdir: Path, golden) -> Workload:
    from alglab import search

    rng = random.Random(seed)
    items: list[Item] = []
    root = Path(__file__).resolve().parent.parent

    def write(label, doc):
        path = workdir / f"{label}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def golden_items(label, path, verbs):
        for verb in verbs:
            args, answer = {
                "verify-all": (["verify", "all", path, "--json"], _json_answer),
                "check": (["check", path], _text_answer),
                "series-lcs": (["series", path, "--kind", "lcs", "--json"], _json_answer),
                "grade": (["grade", path, "--json"], _grade_answer),
                "frobenius-grade": (["frobenius", "grade", path, "--json"], _json_answer),
                "selective-c1": (["verify", "selective-nilpotency", path, "--c", "1", "--json"],
                                 _json_answer),
                "selective-c2": (["verify", "selective-nilpotency", path, "--c", "2", "--json"],
                                 _json_answer),
            }[verb]
            key = f"{label}|{verb}"
            items.append(_cli_item(key, args, answer, _golden(golden, key), golden=True))

    # the shipped fixtures, relabelled
    for name in FIXTURES:
        doc = _relabel(json.loads((root / "fixtures" / name).read_text()), rng)
        label = "fixture-" + name[:-5]
        verbs = ["verify-all", "check", "series-lcs", "grade"]
        if "action" in doc:
            verbs += ["frobenius-grade", "selective-c1", "selective-c2"]
        golden_items(label, write(label, doc), verbs)

    # the ladder, checked against closed forms
    ladder = {}
    for p, m, lie in LADDER if not tiny else LADDER[:2] + LADDER[8:10]:
        doc = _relabel(_ladder_doc(p, m, lie), rng)
        label = doc["meta"]["name"]
        ladder[(p, m, lie)] = doc
        path = write(label, doc)
        dl = math.ceil(math.log2(m))
        statuses = [("identity", "pass"), ("grading", "pass"), ("kreknin", "pass"),
                    ("dset-bound", "skipped"), ("index-split", "pass"),
                    ("frobenius", "skipped"), ("selective-nilpotency", "skipped"),
                    ("expected", "pass")]
        items.append(_cli_item(
            f"{label}|verify-all", ["verify", "all", path, "--json"], _verify_all_answer,
            {"exit": 0, "statuses": statuses,
             "kreknin": {"derived_length": dl, "d": m - 1, "bound": 2 ** (m - 1) - 1}}))
        ranks = [sum(m - g for g in range(k, m)) for k in range(1, m + 1)]
        items.append(_cli_item(
            f"{label}|series-lcs", ["series", path, "--kind", "lcs", "--json"],
            _json_answer,
            {"exit": 0, "output": {"kind": "lcs", "ranks": ranks, "stabilized": False,
                                   "nilpotency_class": m - 1}}))
        items.append(_cli_item(
            f"{label}|grade", ["grade", path, "--json"], _grade_answer,
            {"exit": 0, "output": {"n": m, "degrees": sorted(doc["grading"]["degrees"]),
                                   "nontrivial": list(range(1, m)), "d": m - 1,
                                   "law_ok": True, "violations": 0}}))
        if m <= CHECK_MAX_M:
            items.append(_cli_item(f"{label}|check", ["check", path], _statuses,
                                   {"exit": 0, "identity": "pass", "grading": "pass"}))

    # diagonal actions: the frobenius / eigen-grading / selective path
    for config in ACTION_CONFIGS[: 1 if tiny else None]:
        doc = _relabel(_action_doc(*config), rng)
        label = doc["meta"]["name"]
        golden_items(label, write(label, doc),
                     ["verify-all", "frobenius-grade", "selective-c1", "selective-c2"])

    # search survivors carrying meta.expected
    survivors = []
    for p, n, dims in SURVIVOR_SPECS:
        result = search.search(search.CorpusSpec(p=p, n=n, component_dims=dims))
        survivors += [(p, n, s) for s in result.survivors if s.algebra.table.any()]
    step = max(1, len(survivors) // SURVIVOR_FILES)
    for p, n, s in survivors[::step][: 2 if tiny else SURVIVOR_FILES]:
        label = f"survivor-p{p}-n{n}-{s.index}"
        doc = _relabel(s.document(), rng)
        golden_items(label, write(label, doc), ["verify-all", "check", "series-lcs", "grade"])

    # broken copies: exit 1, with the violated check named by an oracle
    for p, m, lie in BROKEN_BASES[: 1 if tiny else None]:
        base = ladder[(p, m, lie)]
        for kind, make, verdict in (
            ("entry", _perturbed_entry, {"identity": "violation", "grading": "pass"}),
            ("degree", _mislabelled_degree, {"identity": "pass", "grading": "violation"}),
        ):
            label = f"broken-{kind}-{base['meta']['name']}"
            path = write(label, make(base, rng))
            expected = dict(verdict, exit=1)
            items.append(_cli_item(f"{label}|verify-all", ["verify", "all", path, "--json"],
                                   _statuses, expected))
            items.append(_cli_item(f"{label}|check", ["check", path], _statuses, expected))

    rng.shuffle(items)
    warm = next(it for it in items if it.label == "fixture-heisenberg_f5|verify-all")
    return Workload(items, [warm])


# -- corpus: search() on fixed specs ----------------------------------------------

CORPUS_MODULI = (5, 7)
CORPUS_MAX_DIM = 4
# (p, alpha, beta, samples) for random (0, 2, 2) specs mod 3: 16 admissible slots
RANDOM_SPECS = ((5, 1, 1, 16384), (7, 1, 2, 16384))


def _supports_and_dims(n: int, max_total: int):
    """Component-dimension vectors with a trivial zero component and total dim
    <= max_total, in a fixed order (the acceptance-2/7/9 family)."""
    yield (0,) * n
    for size in range(1, max_total + 1):
        for support in itertools.combinations(range(1, n), size):
            for dims in itertools.product(range(1, max_total + 1), repeat=size):
                if sum(dims) <= max_total:
                    comp = [0] * n
                    for s, d in zip(support, dims):
                        comp[s] = d
                    yield tuple(comp)


def _corpus_dims(n: int):
    """The family with total dim <= 3, plus one spec per orbit of the units of
    Z/n (which permute the degrees) among the dim-4 specs of n = 5.  Specs in
    one orbit give isomorphic searches; the dim-4 specs of n = 7 are left out,
    as they would triple the pass."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    for dims in _supports_and_dims(n, CORPUS_MAX_DIM):
        if sum(dims) < CORPUS_MAX_DIM:
            yield dims
        elif n == 5 and dims == min(tuple(dims[u * j % n] for j in range(n)) for u in units):
            yield dims


def _exhaustive_answer(result):
    rows = [(s.index, s.derived_length, s.nilpotency_class) for s in result.survivors]
    return {"candidates": result.candidates, "survivors": len(rows), "rows": digest(rows)}


def _random_answer(result):
    return {"candidates": result.candidates,
            "indices": [s.index for s in result.survivors],
            "tables": digest([s.algebra.table.tolist() for s in result.survivors])}


def _random_expected(spec):
    """What a random spec must return, from the oracle: every sampled table
    that satisfies the identity, at its stream index."""
    def compute():
        slots = oracles.graded_slots(spec.degrees, spec.n)
        tables = oracles.random_tables(spec.p, spec.seed, spec.samples, slots, spec.dim)
        keep = np.flatnonzero(oracles.identity_mask(
            tables, spec.p, spec.alpha % spec.p, spec.beta % spec.p))
        return {"candidates": spec.samples, "indices": keep.tolist(),
                "tables": digest([tables[i].tolist() for i in keep])}
    return compute


def _corpus(seed, tiny, workdir, golden) -> Workload:
    from alglab import search

    rng = random.Random(seed)
    items = []
    for n in CORPUS_MODULI[:1] if tiny else CORPUS_MODULI:
        dims_list = list(_corpus_dims(n))
        for dims in dims_list[:8] if tiny else dims_list:
            spec = search.CorpusSpec(p=2, n=n, component_dims=dims,
                                     selective=search.SelectiveFilter(2, 2, n - 1))
            label = f"exhaustive-n{n}-{''.join(map(str, dims))}"
            items.append(Item(label, lambda spec=spec: search.search(spec),
                              _exhaustive_answer, _golden(golden, label), golden=True))
    for i, (p, alpha, beta, samples) in enumerate(RANDOM_SPECS[:1] if tiny else RANDOM_SPECS):
        samples = 512 if tiny else samples
        spec = search.CorpusSpec(p=p, n=3, component_dims=(0, 2, 2), alpha=alpha, beta=beta,
                                 mode="random", seed=seed * 100 + i, samples=samples)
        label = f"random-p{p}-a{alpha}b{beta}-{samples}"
        items.append(Item(label, lambda spec=spec: search.search(spec),
                          _random_answer, _random_expected(spec)))
    warm = items[1]  # a small exhaustive spec; chosen before the shuffle
    rng.shuffle(items)
    return Workload(items, [warm])


# -- sweep: r-dependence over every valid (n, q, r) --------------------------------

SWEEP_MAX_N = 32
SWEEP_MAX_K = 3
ORACLE_PREFIXES = 3  # prefixes per triple re-checked by the brute-force oracle


def _valid_triples(max_n: int):
    from alglab.frobenius import validate_nqr
    from alglab.modular import multiplicative_order

    for n in range(2, max_n + 1):
        for r in range(1, n):
            q = multiplicative_order(r, n)
            if q is not None and validate_nqr(n, q, r).valid:
                yield n, q, r


def _sweep_prefixes(n: int, q: int) -> list[tuple[int, ...]]:
    """Every length-1 prefix, so each item does some r-dependence work, plus the
    acceptance-3 prefixes: nondecreasing, k = 2..3, where q^(k+1) < n - 1."""
    out = [(a,) for a in range(1, n)]
    for k in range(2, SWEEP_MAX_K + 1):
        if q ** (k + 1) < n - 1:
            out += itertools.combinations_with_replacement(range(1, n), k)
    return out


def _sweep_answer(dsets):
    return {"independent": len(dsets),
            "dsets": digest([[list(ds.prefix), sorted(ds.members)] for ds in dsets])}


def _sweep_oracle(n, q, r, sample):
    def agree(dsets) -> bool:
        found = {ds.prefix: ds.members for ds in dsets}
        for prefix in sample:
            dependent = oracles.is_r_dependent(n, q, r, prefix)
            if dependent == (prefix in found):
                return False
            if not dependent and set(found[prefix]) != oracles.d_set(n, q, r, prefix):
                return False
        return True
    return agree


def _sweep(seed, tiny, workdir, golden) -> Workload:
    from alglab import frobenius, rdep

    rng = random.Random(seed)
    items = []
    for n, q, r in _valid_triples(12 if tiny else SWEEP_MAX_N):
        prefixes = _sweep_prefixes(n, q)

        def run(n=n, q=q, r=r, prefixes=prefixes):
            nqr = frobenius.NQRTriple(n, q, r)
            return [rdep.d_set(nqr, pre) for pre in prefixes if rdep.is_r_independent(nqr, pre)]

        label = f"nqr-{n}-{q}-{r}"
        sample = rng.sample(prefixes, min(ORACLE_PREFIXES, len(prefixes)))
        items.append(Item(label, run, _sweep_answer, _golden(golden, label), golden=True,
                          oracle=_sweep_oracle(n, q, r, sample)))
    warm = next(it for it in items if it.label == "nqr-7-3-2")
    rng.shuffle(items)
    return Workload(items, [warm])


# -- rewrite: parse, normalize, evaluate ---------------------------------------------

REWRITE_TERMS = 128
SHAPE_SEED = 0xACC8  # term shapes are fixed, so the cost of a pass does not depend on the seed
# (p, n, component dims, alpha, beta); terms alternate between beta != 0 and beta = 0
REWRITE_CONFIGS = (
    (5, 3, (0, 1, 1), 1, 2), (5, 4, (0, 1, 2, 0), 1, 0),
    (2, 3, (0, 1, 1), 1, 1), (3, 3, (0, 1, 1), 1, 0),
    (3, 3, (0, 1, 1), 1, 1), (7, 3, (0, 1, 1), 1, 0),
    (7, 3, (0, 1, 1), 1, 3), (2, 4, (0, 2, 1, 1), 1, 0),
    (3, 5, (0, 1, 0, 1, 1), 2, 1), (5, 3, (0, 1, 1), 2, 0),
    (11, 3, (0, 2, 1), 1, 10), (3, 4, (0, 1, 1, 1), 1, 0),
)
POOL_SAMPLES = 64


def _random_term(rng: random.Random, max_atoms: int = 6, max_depth: int = 5) -> str:
    """A random bracketing in the style of acceptance criterion 8: an atom budget
    of 6 and depth at most 5; pending right branches still close with atoms."""
    names = itertools.count()

    def build(depth, budget):
        if budget[0] >= max_atoms or depth >= max_depth or rng.random() < 0.3:
            budget[0] += 1
            return f"t{next(names)}"
        left = build(depth + 1, budget)
        return f"[{left},{build(depth + 1, budget)}]"

    term = build(0, [0])
    if not term.startswith("["):
        term = f"[{term},{build(1, [0])}]"
    return term


def _rewrite(seed, tiny, workdir, golden) -> Workload:
    from alglab import make_algebra, rewrite, search

    shape_rng, rng = random.Random(SHAPE_SEED), random.Random(seed)
    pools = []
    for i, (p, n, dims, alpha, beta) in enumerate(REWRITE_CONFIGS):
        spec = search.CorpusSpec(p=p, n=n, component_dims=dims, alpha=alpha, beta=beta,
                                 mode="random", seed=seed * 100 + i, samples=POOL_SAMPLES)
        pool = [s.algebra for s in search.search(spec).survivors]
        d = sum(dims)
        pools.append(pool or [make_algebra(p, d, np.zeros((d, d, d), dtype=np.int64), alpha, beta)])
    items = []
    for t in range(8 if tiny else REWRITE_TERMS):
        text = _random_term(shape_rng)
        p, _, _, alpha, beta = REWRITE_CONFIGS[t % len(REWRITE_CONFIGS)]
        A = rng.choice(pools[t % len(REWRITE_CONFIGS)])
        names = sorted(set(text.replace("[", " ").replace("]", " ").replace(",", " ").split()))
        assignment = {nm: [rng.randrange(p) for _ in range(A.dim)] for nm in names}

        def run(text=text, alpha=alpha, beta=beta, p=p, assignment=assignment, A=A):
            term = rewrite.parse(text)
            combo = rewrite.normalize(term, alpha, beta, p)
            return combo, rewrite.evaluate(term, assignment, A), rewrite.evaluate(combo, assignment, A)

        label = f"term-{t:03d}"
        items.append(Item(
            label, run, lambda out: rewrite.format_combo(out[0]), _golden(golden, label),
            golden=True, oracle=lambda out: out[1].tolist() == out[2].tolist()))
    warm = items[0]
    rng.shuffle(items)
    return Workload(items, [warm])
