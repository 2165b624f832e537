import json

import numpy as np
import pytest

from alglab import FormatError, Grading, InputError, check_identity_uniform, component
from alglab.frobenius import eigen_grading
from alglab.formats import (
    ExpectedStats,
    LoadedAlgebra,
    dumps,
    load,
    loads,
    save,
    to_document,
)
from alglab.linalg import mat_inv, matmul
from alglab.modular import divisors, element_of_order
from conftest import FIXTURES, FIXTURE_FILES, heisenberg


def minimal_doc(**overrides):
    doc = {
        "p": 3,
        "dim": 2,
        "alpha": 1,
        "beta": 1,
        "table": [[1, 1, 2, 1]],
    }
    doc.update(overrides)
    return doc


def test_load_heisenberg_fixture():
    loaded = load(FIXTURES / "heisenberg_f5.json")
    A = loaded.algebra
    assert (A.p, A.dim, A.alpha, A.beta) == (5, 3, 1, 1)
    assert check_identity_uniform(A).ok
    assert loaded.grading == Grading(2, (1, 1, 0))
    assert loaded.meta.name == "heisenberg-f5"
    assert loaded.meta.expected == ExpectedStats(2, 2)


def test_all_fixtures_load_and_roundtrip():
    for name in FIXTURE_FILES:
        path = FIXTURES / name
        text = path.read_text()
        loaded = loads(text)
        assert dumps(loaded) == text  # canonical files round-trip byte-exactly


def test_load_save_load_identity(tmp_path):
    loaded = load(FIXTURES / "leibniz2_f3.json")
    out = tmp_path / "copy.json"
    save(loaded, out)
    again = load(out)
    assert again.algebra == loaded.algebra
    assert again.grading == loaded.grading
    assert dumps(again) == dumps(loaded)


def test_zero_dimensional_algebra_loads():
    loaded = loads(json.dumps(minimal_doc(dim=0, table=[])))
    assert loaded.algebra.dim == 0
    assert check_identity_uniform(loaded.algebra).ok


def test_nonprime_p_rejected():
    with pytest.raises(FormatError) as exc:
        loads(json.dumps(minimal_doc(p=6)))
    assert exc.value.path == "p"
    assert "prime" in str(exc.value)


def test_index_out_of_range_rejected():
    with pytest.raises(FormatError) as exc:
        loads(json.dumps(minimal_doc(table=[[1, 3, 2, 1]])))
    assert "out of range" in str(exc.value)
    assert exc.value.path == "table[0][1]"


def test_unreduced_coefficient_rejected():
    with pytest.raises(FormatError) as exc:
        loads(json.dumps(minimal_doc(table=[[1, 1, 2, 3]])))
    assert exc.value.path == "table[0][3]"


def test_duplicate_table_entry_rejected():
    with pytest.raises(FormatError):
        loads(json.dumps(minimal_doc(table=[[1, 1, 2, 1], [1, 1, 2, 2]])))


def test_zero_alpha_rejected():
    with pytest.raises(FormatError) as exc:
        loads(json.dumps(minimal_doc(alpha=0)))
    assert exc.value.path == "alpha"


def test_grading_length_mismatch_rejected():
    with pytest.raises(FormatError) as exc:
        loads(json.dumps(minimal_doc(grading={"n": 3, "degrees": [1]})))
    assert exc.value.path == "grading.degrees"


def test_grading_degree_out_of_range_rejected():
    with pytest.raises(FormatError) as exc:
        loads(json.dumps(minimal_doc(grading={"n": 3, "degrees": [1, 3]})))
    assert exc.value.path == "grading.degrees[1]"


def test_unknown_top_level_field_rejected():
    with pytest.raises(FormatError) as exc:
        loads(json.dumps(minimal_doc(extra=1)))
    assert str(exc.value) == "extra: unknown field"


@pytest.mark.parametrize("block, path", [
    ("grading", "grading.degree"),
    ("action", "action.omega"),
    ("meta", "meta.nmae"),
    ("expected", "meta.expected.derived_lenght"),
])
def test_unknown_field_in_a_nested_block_rejected(block, path):
    doc = json.loads((FIXTURES / "abelian2_f7_action.json").read_text())
    target = doc["meta"]["expected"] if block == "expected" else doc[block]
    target[path.rsplit(".", 1)[1]] = 1
    with pytest.raises(FormatError) as exc:
        loads(json.dumps(doc))
    assert str(exc.value) == f"{path}: unknown field"


def test_action_block_fully_validated():
    doc = minimal_doc(
        p=7,
        dim=2,
        table=[],
        grading={"n": 3, "degrees": [1, 2]},
        action={
            "n": 3, "q": 2, "r": 2,
            "phi": [[2, 0], [0, 4]],
            "h": [[0, 1], [1, 0]],
        },
    )
    loaded = loads(json.dumps(doc))
    assert loaded.action is not None
    assert loaded.action.triple.n == 3


def test_action_bad_conjugation_rejected():
    doc = minimal_doc(
        p=7, dim=2, table=[],
        action={"n": 3, "q": 2, "r": 2,
                "phi": [[2, 0], [0, 4]],
                "h": [[1, 0], [0, 1]]},
    )
    with pytest.raises(FormatError) as exc:
        loads(json.dumps(doc))
    assert exc.value.path == "action"


def test_a_fault_inside_frobenius_data_is_not_read_as_bad_input(monkeypatch):
    def broken(*args):
        raise RuntimeError("a fault, not a refusal")

    monkeypatch.setattr("alglab.formats.frobenius_data", broken)
    doc = minimal_doc(p=7, dim=2, table=[],
                      action={"n": 3, "q": 2, "r": 2, "phi": [[2, 0], [0, 4]], "h": [[0, 1], [1, 0]]})
    with pytest.raises(RuntimeError, match="^a fault, not a refusal$"):
        loads(json.dumps(doc))


def test_action_grading_modulus_mismatch_rejected():
    doc = minimal_doc(
        p=7, dim=2, table=[],
        grading={"n": 6, "degrees": [1, 2]},
        action={"n": 3, "q": 2, "r": 2,
                "phi": [[2, 0], [0, 4]],
                "h": [[0, 1], [1, 0]]},
    )
    with pytest.raises(FormatError) as exc:
        loads(json.dumps(doc))
    assert exc.value.path == "action.n"


def test_action_grading_eigenspace_mismatch_rejected():
    # declared degrees (2, 1) disagree with phi = diag(2, 4) eigenspaces
    doc = minimal_doc(
        p=7, dim=2, table=[],
        grading={"n": 3, "degrees": [2, 1]},
        action={"n": 3, "q": 2, "r": 2,
                "phi": [[2, 0], [0, 4]],
                "h": [[0, 1], [1, 0]]},
    )
    with pytest.raises(FormatError) as exc:
        loads(json.dumps(doc))
    assert exc.value.path == "grading.degrees"


def eigenspace_mismatch(A, G, fd):
    """The eigenspace comparison the diagonal check replaced: the least i with
    declared L_i != ker(phi - omega^i), and omega; None when all agree."""
    egr = eigen_grading(A, fd.phi, fd.triple.n)
    bad = [i for i in range(G.n) if component(A, G, i) != egr.components[i]]
    return (bad[0], egr.omega) if bad else None


def test_grading_check_matches_the_eigenspace_comparison():
    rng = np.random.default_rng(18)
    outcomes = set()
    for p in (7, 13, 31):
        for n in divisors(p - 1)[1:]:
            dim = int(rng.integers(2, 6))
            degrees = [1, 0] + rng.integers(0, n, size=dim - 2).tolist()  # phi of order n
            rng.shuffle(degrees)
            w = element_of_order(p, n)
            diag = np.diag([pow(w, d, p) for d in degrees]).astype(np.int64)
            while True:
                P = rng.integers(0, p, size=(dim, dim))
                try:
                    Pinv = mat_inv(P, p)
                    break
                except InputError:
                    pass
            swapped = diag.copy()
            k, l = degrees.index(0), degrees.index(1)
            swapped[[k, l], [k, l]] = swapped[[l, k], [l, k]]
            for phi in (diag, matmul(matmul(P, diag, p), Pinv, p), swapped):
                doc = minimal_doc(p=p, dim=dim, table=[],
                                  action={"n": n, "q": 1, "r": 1, "phi": phi.tolist(),
                                          "h": np.eye(dim, dtype=int).tolist()})
                ungraded = loads(json.dumps(doc))
                want = eigenspace_mismatch(ungraded.algebra, Grading(n, tuple(degrees)),
                                           ungraded.action)
                doc["grading"] = {"n": n, "degrees": degrees}
                if want is None:
                    assert loads(json.dumps(doc)).grading.degrees == tuple(degrees)
                    outcomes.add("pass")
                    continue
                with pytest.raises(FormatError) as exc:
                    loads(json.dumps(doc))
                assert exc.value.path == "grading.degrees"
                if want[0] in degrees:
                    i, omega = want
                    assert str(exc.value) == (f"grading.degrees: component {i} is not the "
                                              f"phi-eigenspace for omega^{i} (omega = {omega})")
                outcomes.add("fail")
    assert outcomes == {"pass", "fail"}


def test_not_json_rejected():
    with pytest.raises(FormatError):
        loads("{not json")


def test_to_document_sparse_and_sorted():
    doc = to_document(LoadedAlgebra(heisenberg(5)))
    assert doc["table"] == [[1, 2, 3, 1], [2, 1, 3, 4]]


def test_meta_expected_none_values():
    doc = minimal_doc(meta={"name": "x", "expected": {"derived_length": None,
                                                      "nilpotency_class": None}})
    loaded = loads(json.dumps(doc))
    assert loaded.meta.expected == ExpectedStats(None, None)
