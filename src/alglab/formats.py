"""Algebra files: a small JSON format carrying a structure-constant table
plus optional grading, action, and metadata blocks.

Layout (canonical key order as written by save):

    {
      "p": 3, "dim": 2, "alpha": 1, "beta": 1,
      "table": [[1, 1, 2, 1]],                  # coeff * b_k in [b_i, b_j], 1-based
      "grading": {"n": 3, "degrees": [1, 2]},
      "action": {"n": 3, "q": 2, "r": 2, "phi": [[...]], "h": [[...]]},
      "meta": {"name": "...", "expected": {"derived_length": 2,
                                            "nilpotency_class": 2}}
    }

Omitted products are zero.  Matrices act on column vectors.  When both
grading and action blocks are present the declared components must be the
eigenspace decomposition of phi for the canonical root of unity omega, that
is phi = diag(omega^degree) in the file's basis; anything else is rejected
at load time.  Saving is canonical (sorted table, fixed key order, two-space
indent), so load followed by save is byte-identical on canonical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .algebra import Algebra, make_algebra
from .errors import FormatError, InputError, check_work
from .frobenius import FrobeniusData, frobenius_data
from .grading import Grading
from .modular import element_of_order, is_prime

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ExpectedStats:
    derived_length: Optional[int] = None
    nilpotency_class: Optional[int] = None


@dataclass(frozen=True)
class Meta:
    name: Optional[str] = None
    expected: Optional[ExpectedStats] = None


@dataclass(frozen=True)
class LoadedAlgebra:
    algebra: Algebra
    grading: Optional[Grading] = None
    action: Optional[FrobeniusData] = None
    meta: Optional[Meta] = None


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise FormatError(f"{path}.{key}" if path else key, "missing required field")
    return obj[key]


def _known_fields(obj: dict, known: str, path: str) -> None:
    for key in obj:
        if key not in known.split():
            raise FormatError(f"{path}.{key}" if path else key, "unknown field")


def _block(obj: dict, key: str, known: str, path: str = "") -> dict:
    """obj[key], which must be an object with no field outside known."""
    path = f"{path}.{key}" if path else key
    if not isinstance(obj[key], dict):
        raise FormatError(path, "expected an object")
    _known_fields(obj[key], known, path)
    return obj[key]


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(path, f"expected an integer, got {value!r}")
    return value


def _as_matrix(value, dim: int, p: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        raise FormatError(path, f"expected a {dim}x{dim} matrix")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise FormatError(f"{path}[{i}]", f"expected a row of length {dim}")
        for j, entry in enumerate(row):
            e = _as_int(entry, f"{path}[{i}][{j}]")
            if not (0 <= e < p):
                raise FormatError(f"{path}[{i}][{j}]", f"entry {e} not reduced mod {p}")
        rows.append(row)
    return np.asarray(rows, dtype=np.int64)


def loads(text: str) -> LoadedAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError("<document>", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("<document>", "top level must be an object")

    _known_fields(doc, "p dim alpha beta table grading action meta", "")

    p = _as_int(_need(doc, "p", ""), "p")
    if not is_prime(p) or p >= 2**31:
        raise FormatError("p", f"p must be a prime below 2^31, got {p}")
    dim = _as_int(_need(doc, "dim", ""), "dim")
    if dim < 0:
        raise FormatError("dim", f"dim must be >= 0, got {dim}")
    alpha = _as_int(_need(doc, "alpha", ""), "alpha")
    beta = _as_int(_need(doc, "beta", ""), "beta")
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (0 <= value < p):
            raise FormatError(name, f"{value} not reduced mod {p}")
    if alpha == 0:
        raise FormatError("alpha", "alpha must be nonzero")

    table_doc = _need(doc, "table", "")
    if not isinstance(table_doc, list):
        raise FormatError("table", "expected a list of [i, j, k, coeff] quadruples")
    check_work(dim**3 // 256, f"a table of dim {dim:,}")  # 256 entries a step, as in search
    T = np.zeros((dim, dim, dim), dtype=np.int64)
    seen: set[tuple[int, int, int]] = set()
    for idx, quad in enumerate(table_doc):
        path = f"table[{idx}]"
        if not isinstance(quad, list) or len(quad) != 4:
            raise FormatError(path, "expected [i, j, k, coeff]")
        i, j, k, coeff = (_as_int(x, f"{path}[{pos}]") for pos, x in enumerate(quad))
        for pos, index in enumerate((i, j, k)):
            if not (1 <= index <= dim):
                raise FormatError(f"{path}[{pos}]", f"index {index} out of range 1..{dim}")
        if not (0 <= coeff < p):
            raise FormatError(f"{path}[3]", f"coefficient {coeff} not reduced mod {p}")
        if (i, j, k) in seen:
            raise FormatError(path, f"duplicate entry for ({i}, {j}, {k})")
        seen.add((i, j, k))
        T[i - 1, j - 1, k - 1] = coeff
    A = make_algebra(p, dim, T, alpha, beta)

    G: Optional[Grading] = None
    if "grading" in doc:
        g = _block(doc, "grading", "n degrees")
        n = _as_int(_need(g, "n", "grading"), "grading.n")
        if n < 1:
            raise FormatError("grading.n", f"n must be >= 1, got {n}")
        degrees = _need(g, "degrees", "grading")
        if not isinstance(degrees, list) or len(degrees) != dim:
            raise FormatError("grading.degrees", f"expected a list of length {dim}")
        degs = []
        for i, d in enumerate(degrees):
            d = _as_int(d, f"grading.degrees[{i}]")
            if not (0 <= d < n):
                raise FormatError(f"grading.degrees[{i}]", f"degree {d} not in 0..{n - 1}")
            degs.append(d)
        G = Grading(n, tuple(degs))

    FD: Optional[FrobeniusData] = None
    if "action" in doc:
        a = _block(doc, "action", "n q r phi h")
        n = _as_int(_need(a, "n", "action"), "action.n")
        q = _as_int(_need(a, "q", "action"), "action.q")
        r = _as_int(_need(a, "r", "action"), "action.r")
        phi = _as_matrix(_need(a, "phi", "action"), dim, p, "action.phi")
        h = _as_matrix(_need(a, "h", "action"), dim, p, "action.h")
        try:
            FD = frobenius_data(A, n, q, r, phi, h)
        except InputError as exc:
            raise FormatError("action", str(exc)) from exc
        if G is not None:
            if G.n != n:
                raise FormatError("action.n", f"differs from grading.n = {G.n}")
            _check_grading_matches_eigenspaces(A, G, FD)

    M: Optional[Meta] = None
    if "meta" in doc:
        m = _block(doc, "meta", "name expected")
        name = m.get("name")
        if name is not None and not isinstance(name, str):
            raise FormatError("meta.name", "expected a string")
        expected = None
        if "expected" in m:
            e = _block(m, "expected", "derived_length nilpotency_class", "meta")
            expected = ExpectedStats(**{k: _as_int(e[k], f"meta.expected.{k}") for k in
                                        ("derived_length", "nilpotency_class") if e.get(k) is not None})
        M = Meta(name, expected)

    return LoadedAlgebra(A, G, FD, M)


def _check_grading_matches_eigenspaces(A: Algebra, G: Grading, FD: FrobeniusData):
    """Each declared L_i is ker(phi - omega^i) exactly when phi scales every
    basis vector of degree i by omega^i, as the omega^i are distinct.  A
    mismatch names the least degree with a basis vector phi does not scale so."""
    omega = element_of_order(A.p, G.n)
    scale = np.asarray([pow(omega, i, A.p) for i in G.degrees], dtype=np.int64)
    wrong = (FD.phi != np.diag(scale)).any(axis=0)
    if wrong.any():
        i = min(np.asarray(G.degrees)[wrong].tolist())
        raise FormatError(
            "grading.degrees",
            f"component {i} is not the phi-eigenspace for omega^{i} (omega = {omega})",
        )


def load(path: PathLike) -> LoadedAlgebra:
    return loads(Path(path).read_text())


def to_document(loaded: LoadedAlgebra) -> dict:
    """Canonical plain-dict form (fixed key order, sorted table)."""
    A = loaded.algebra
    quads = [[i + 1, j + 1, k + 1, int(A.table[i, j, k])]
             for i, j, k in np.argwhere(A.table).tolist()]
    doc: dict = {
        "p": A.p,
        "dim": A.dim,
        "alpha": A.alpha,
        "beta": A.beta,
        "table": quads,
    }
    if loaded.grading is not None:
        doc["grading"] = {"n": loaded.grading.n, "degrees": list(loaded.grading.degrees)}
    if loaded.action is not None:
        fd = loaded.action
        doc["action"] = {
            "n": fd.triple.n,
            "q": fd.triple.q,
            "r": fd.triple.r,
            "phi": fd.phi.tolist(),
            "h": fd.h.tolist(),
        }
    if loaded.meta is not None:
        m: dict = {}
        if loaded.meta.name is not None:
            m["name"] = loaded.meta.name
        if loaded.meta.expected is not None:
            m["expected"] = {
                "derived_length": loaded.meta.expected.derived_length,
                "nilpotency_class": loaded.meta.expected.nilpotency_class,
            }
        doc["meta"] = m
    return doc


def _render(value, indent: int) -> str:
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f'{pad}  "{k}": {_render(v, indent + 2)}' for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if all(isinstance(x, (int, str)) or x is None for x in value):
            return "[" + ", ".join(json.dumps(x) for x in value) + "]"
        rows = [f"{pad}  {_render(x, indent + 2)}" for x in value]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    return json.dumps(value)


def dumps(loaded: LoadedAlgebra) -> str:
    """Canonical text: fixed key order, two-space indent, scalar lists inline."""
    return _render(to_document(loaded), 0) + "\n"


def save(loaded: LoadedAlgebra, path: PathLike):
    Path(path).write_text(dumps(loaded))
