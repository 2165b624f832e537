"""One work budget: every entry point charges its estimate through check_work."""

import json
import re
import time

import numpy as np
import pytest
from click.testing import CliRunner

import alglab.errors as errors
import alglab.search as search_mod
from alglab import (
    Grading,
    check_identity_uniform,
    is_homogeneous,
    lower_central_series,
    make_algebra,
    span,
)
from alglab.cli import main
from alglab.formats import loads
from alglab.frobenius import NQRTriple, check_automorphism, eigen_grading, h_permutation_check
from alglab.rdep import (
    count_active_components,
    d_set,
    index_split_check,
    is_r_dependent,
    rigid_subsequence,
    selective_check,
)
from alglab.rewrite import normalize, parse
from alglab.search import CorpusSpec, search, spec_from_document
from alglab.verify import verify
from conftest import abelian, chain_action_doc, sweep_action_doc


def _right_nested(k):
    term = f"a{k}"
    for i in range(k - 1, 0, -1):
        term = f"[a{i},{term}]"
    return term


DIM_128 = {"p": 5, "dim": 128, "alpha": 1, "beta": 1, "table": []}
DIM_240 = {"p": 5, "dim": 240, "alpha": 1, "beta": 1, "table": []}
DIM_2000 = {"p": 5, "dim": 2000, "alpha": 1, "beta": 1, "table": []}
# a dim-1 file whose action has n = p - 1: eigen_grading would split L by n eigenvalues
ACTION_N_10_6 = {"p": 1000003, "dim": 1, "alpha": 1, "beta": 1, "table": [],
                 "action": {"n": 1000002, "q": 1, "r": 1, "phi": [[2]], "h": [[1]]}}
# the same file with its grading declared: omega = 2 is phi's one entry
GRADED_N_10_6 = {**ACTION_N_10_6, "grading": {"n": 1000002, "degrees": [1]}}
# a zero table with phi = 2I and h = I: the automorphism check alone is some 2 * 200^4
# multiply-adds for each of them
ACTION_DIM_200 = {"p": 3, "dim": 200, "alpha": 1, "beta": 1, "table": [],
                  "action": {"n": 2, "q": 1, "r": 1, "phi": (2 * np.eye(200, dtype=int)).tolist(),
                             "h": np.eye(200, dtype=int).tolist()}}
ACTION_N_2_31 = {"p": 2147483647, "dim": 1, "alpha": 1, "beta": 1, "table": [],
                 "action": {"n": 2147483646, "q": 1, "r": 1, "phi": [[7]], "h": [[1]]}}

# search specs refused only by the running total past row 0 (or by an up-front
# charge that used to come after a d^3 loop)
LATE_STAGES = {
    # [L_3, L_3] lies in L_2, which annihilates L: all 2^18 candidates survive
    "search-all-survive-p2": {"p": 2, "n": 4, "component_dims": [0, 0, 2, 3]},
    # no slots, so no draws: every zero table survives
    "search-zero-tables-100k": {"p": 5, "n": 3, "component_dims": [0, 0, 3], "mode": "random",
                                "seed": 1, "samples": 100000},
    "search-dim-800": {"p": 5, "n": 2, "component_dims": [0, 800], "mode": "random",
                       "seed": 1, "samples": 1},
    # nothing is charged for the identity; the one survivor's series are
    "search-dim-200-no-identity": {"p": 5, "n": 2, "component_dims": [0, 200], "mode": "random",
                                   "seed": 1, "samples": 1, "filters": {"identity": False}},
    # past the old exhaustive p limit: all 5^8 candidates survive
    "search-all-survive-p5": {"p": 5, "n": 4, "component_dims": [0, 0, 2, 2]},
}

HANGING = {
    "normalize-20-atoms": ["rewrite", "normalize", _right_nested(20),
                           "--alpha", "1", "--beta", "1", "--p", "5"],
    "dep-sparse": ["rdep", "dep", "--n", "1048897", "--q", "64", "--r", "52048",
                   "--seq", "1,2,3,4,5,6"],
    "dset-q-2^14": ["rdep", "dset", "--n", "65537", "--q", "16384", "--r", "15",
                    "--prefix", "1"],
    # 2^56 candidates, within the exhaustive dim and p limits
    "search-n9": ["search", "--spec", {"p": 2, "n": 9, "component_dims": [0] + [1] * 8,
                                       "mode": "exhaustive"}],
    # 16,000,000 draws
    "search-random-1M": ["search", "--spec", {"p": 5, "n": 3, "component_dims": [0, 2, 2],
                                              "mode": "random", "seed": 1,
                                              "samples": 1000000}],
    "rigid-q-1024": ["rdep", "rigid", "--n", "12289", "--q", "1024", "--r", "49",
                     "--seq", ",".join(map(str, range(1, 6000))), "--m", "2"],
    # trial division up to sqrt(n) = 10^9 to list the divisors
    "validate-n-10^18": ["frobenius", "validate", "--n", "1000000000000000003",
                         "--q", "2", "--r", "3"],
    "dep-n-10^18": ["rdep", "dep", "--n", "1000000000000000003", "--q", "2", "--r", "3",
                    "--seq", "1"],
    # no admissible slots, so no draws: the zero table passes row 0, and the
    # other 79 rows of the identity are some 80^5 multiply-adds
    "search-dim-80": ["search", "--spec", {"p": 5, "n": 3, "component_dims": [0, 0, 80],
                                           "mode": "random", "seed": 1, "samples": 1}],
    # the identity on all 128 rows of a zero table: some 128^5 multiply-adds
    "check-dim-128": ["check", DIM_128],
    # 200 tables of dim 64, one to a chunk: row 0 alone is 200 * 64^4 multiply-adds
    "search-dim-64": ["search", "--spec", {"p": 5, "n": 3, "component_dims": [0, 1, 63],
                                           "mode": "random", "seed": 1, "samples": 200}],
    # the identity's rate holds at p = 2^31 - 1 too: row 0 fits, rows 1..49 do not
    "search-large-p-dim-50": ["search", "--spec", {"p": 2147483647, "n": 3,
                                                   "component_dims": [0, 0, 50], "mode": "random",
                                                   "seed": 1, "samples": 1}],
    **{name: ["search", "--spec", spec] for name, spec in LATE_STAGES.items()},
    # 27,000 slots: the estimate is shown as a power of two, not as 250,000 digits
    "search-p-2^31-27000-slots": ["search", "--spec", {"p": 2147483647, "n": 1,
                                                       "component_dims": [30]}],
    # 4,999^2 pairs of components to count the slots from
    "search-n-5000": ["search", "--spec", {"p": 2, "n": 5000, "component_dims": [0] + [1] * 4999}],
    # the first step of the series alone is some 240^4 multiply-adds
    "series-dim-240": ["series", DIM_240],
    # the 2000^3 table is charged before it is allocated
    "check-dim-2000": ["check", DIM_2000],
    # phi and h are checked at load, each charged before its two d^4 contractions
    "frobenius-dim-200": ["verify", "frobenius", ACTION_DIM_200],
    "check-action-dim-200": ["check", ACTION_DIM_200],
}


@pytest.mark.parametrize("name", HANGING)
def test_unbounded_inputs_exit_2_within_a_second(name, tmp_path):
    args = list(HANGING[name])
    if isinstance(args[-1], dict):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(args[-1]))
        args[-1] = str(spec)
    start = time.perf_counter()
    result = CliRunner().invoke(main, args)
    elapsed = time.perf_counter() - start
    assert result.exit_code == 2
    assert elapsed < 1.0
    assert "is too large: estimate " in result.output
    assert f"steps, budget {errors.WORK_BUDGET:,}\n" in result.output


def test_every_entry_point_charges_the_one_budget(monkeypatch):
    nqr = NQRTriple(31, 5, 2)
    A = make_algebra(7, 2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    G = Grading(31, (1, 2))
    loaded = loads(json.dumps(sweep_action_doc()))
    # (what each one charges, its estimate): a one-entry dependence test costs 2
    entry_points = {
        ("r-dependence mod 31 at q = 5", 4): lambda: is_r_dependent(nqr, [1, 2]),
        ("r-dependence mod 31 at q = 5", 10): lambda: d_set(nqr, [1]),
        ("a selective check of 2^2 degree tuples at q = 5", 16):
            lambda: selective_check(A, G, 1, nqr),
        ("a rigid search over 4 distinct values for m = 2 at q = 5", 4):
            lambda: rigid_subsequence(nqr, [1, 2, 3, 4], 2),
        ("normalizing a term of 3 atoms", 4): lambda: normalize(parse("[a,[b,c]]"), 1, 1, 5),
        ("an exhaustive search over 2^2 candidates", 4):
            lambda: search(CorpusSpec(p=2, n=3, component_dims=(0, 1, 1))),
        ("a random search of 3 samples over 2 slots", 6):
            lambda: search(CorpusSpec(p=3, n=3, component_dims=(0, 1, 1), mode="random",
                                      seed=1, samples=3)),
        ("an index-split check of 30^2 pairs mod 31", 900): lambda: index_split_check(31),
        # 4 rows of 4^4 multiply-adds, 256 to a step
        ("the identity on rows 0..3 of 1 table(s) of dim 4", 4):
            lambda: check_identity_uniform(make_algebra(5, 4, np.zeros((4, 4, 4)))),
        # two contractions of 5^4 multiply-adds, at the identity's rate
        ("the automorphism check on a table of dim 5", 4):
            lambda: check_automorphism(make_algebra(5, 5, np.zeros((5, 5, 5))), np.eye(5)),
        ("a list of 31 homogeneous slices", 31): lambda: is_homogeneous(A, G, A.zero_space()),
    }
    for run in entry_points.values():  # small inputs pass, and their constants are cached
        run()
    for check in ("dset-bound", "index-split"):
        assert verify(loaded, check).results[0].status.value == "pass"
    # the last walks on the triple: each repeat below must still be charged (d_set's own
    # charge for its pairs would refuse [1] anyway; the dependence test has no other)
    d_set(nqr, [1])
    is_r_dependent(nqr, [1, 2])

    monkeypatch.setattr(errors, "WORK_BUDGET", 2)
    for (what, steps), run in entry_points.items():
        message = f"{what} is too large: estimate {steps} steps, budget 2"
        with pytest.raises(errors.InputError, match=f"^{re.escape(message)}$"):
            run()
    skipped = verify(loaded, "dset-bound").results[0]
    assert skipped.status.value == "skipped"
    assert skipped.message == "the D-set sweep mod 7 at q = 2 is too large: estimate 18 steps, budget 2"
    skipped = verify(loaded, "index-split").results[0]
    assert skipped.status.value == "skipped"
    assert skipped.message == (
        "an index-split check of 6^2 pairs mod 7 is too large: estimate 36 steps, budget 2")


def test_the_identity_certifies_up_to_dim_48_under_the_default_budget():
    # a zero table of dim 48 is 48^5 / 256 = 995,328 steps at every p; dim 49 is
    # refused.  At p = 2^31 - 1 (linalg.matmul's limb split) dim 22 is certified
    # within about 0.05 s; dim 48 would take about 1 s
    assert check_identity_uniform(make_algebra(5, 48, np.zeros((48, 48, 48)))).ok
    assert check_identity_uniform(make_algebra(2147483647, 22, np.zeros((22, 22, 22)))).ok
    for p in (5, 2147483647):
        with pytest.raises(errors.InputError, match="^the identity on rows 1..48 of 1 table"):
            check_identity_uniform(make_algebra(p, 49, np.zeros((49, 49, 49))))


def test_verify_all_on_an_over_budget_file_exits_2_with_one_error_line(tmp_path):
    # the identity is a hypothesis of kreknin and selective-nilpotency, so the
    # refusal ends the run rather than skipping one check
    path = tmp_path / "dim128.json"
    path.write_text(json.dumps(DIM_128))
    result = CliRunner().invoke(main, ["verify", "all", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith("error: the identity on row 0 of 1 table(s) of dim 128 ")
    assert result.output.count("\n") == 1


def test_index_split_on_a_large_modulus_is_skipped_within_a_second(tmp_path):
    path = tmp_path / "n100003.json"
    path.write_text(json.dumps({"p": 5, "dim": 1, "alpha": 1, "beta": 1, "table": [],
                                "grading": {"n": 100003, "degrees": [1]}}))
    message = ("index-split: skipped - an index-split check of 100002^2 pairs mod 100003 "
               "is too large: estimate 10,000,400,004 steps, budget 1,000,000\n")
    # requested alone, a skipped check exits 2; under all it does not count
    for check, code in (("index-split", 2), ("all", 0)):
        start = time.perf_counter()
        result = CliRunner().invoke(main, ["verify", check, str(path)])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == code
        assert message in result.output


def test_a_d_set_over_half_the_residues_answers_within_seconds():
    # r = -1 mod 2^20 - 1 and the entries 2^i: 19 of them fit the budget, and
    # their 2^19 - 1 offset sums are listed one 64-bit word at a time
    n = (1 << 20) - 1
    start = time.perf_counter()
    ds = d_set(NQRTriple(n, 2, n - 1), [1 << i for i in range(19)])
    assert time.perf_counter() - start < 5.0
    assert ds.size == (1 << 19) - 1


def test_random_chunks_keep_the_identity_block_in_budget(monkeypatch):
    seen = []
    mask = search_mod._identity_mask

    def spy(tables, *args, **kwargs):
        seen.append(tables.shape[0])
        return mask(tables, *args, **kwargs)

    monkeypatch.setattr(search_mod, "_identity_mask", spy)
    spec = CorpusSpec(p=5, n=3, component_dims=(0, 6, 6), mode="random", seed=3, samples=100)
    assert search(spec).candidates == 100
    assert sum(seen) == 100
    assert max(seen) * 12 ** 4 <= errors.WORK_BUDGET


@pytest.mark.parametrize("chunk", [7, 1000, 4096])
@pytest.mark.parametrize("name", LATE_STAGES)
def test_late_stage_refusal_does_not_depend_on_chunks(monkeypatch, name, chunk):
    monkeypatch.setattr(search_mod, "CHUNK", chunk)
    # survivors are charged before their series run, so the series cannot change
    # the decision; leaving them out halves the test at CHUNK 7
    monkeypatch.setattr(search_mod, "_stacked_lengths",
                        lambda tables, p: ([None] * len(tables),) * 2)
    with pytest.raises(errors.InputError, match="is too large: estimate "):
        search(spec_from_document(LATE_STAGES[name]))


@pytest.mark.parametrize("doc", [ACTION_N_10_6, ACTION_N_2_31], ids=["n-10^6", "n-2^31"])
def test_check_on_an_action_with_large_n_answers_within_a_second(doc, tmp_path):
    # the exact order of phi takes one mat_pow per prime factor of n
    path = tmp_path / "action.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    result = CliRunner().invoke(main, ["check", str(path)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 0
    assert result.output == ("identity: pass - product identity holds with (alpha, beta) = (1, 1) "
                             "on all 1 basis triples\ngrading: skipped - no grading block\n")


def test_check_on_a_graded_action_with_large_n_answers_within_a_second(tmp_path):
    # the grading is checked as phi = diag(omega^degree), not by n eigenspaces
    path = tmp_path / "graded.json"
    path.write_text(json.dumps(GRADED_N_10_6))
    start = time.perf_counter()
    result = CliRunner().invoke(main, ["check", str(path)])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 0
    assert result.output.endswith("grading: pass - multiplication respects the grading "
                                  "on all 1 basis pairs\n")


@pytest.mark.parametrize("doc", [ACTION_N_10_6, GRADED_N_10_6, ACTION_N_2_31],
                         ids=["n-10^6", "graded-n-10^6", "n-2^31"])
def test_frobenius_on_an_action_with_large_n_answers_within_a_second(doc, tmp_path):
    # the loader has proved the n-fold grading and h's permutation of it; the
    # check computes omega and ker(phi - 1) alone.  omega is phi's one entry
    path = tmp_path / "action.json"
    path.write_text(json.dumps(doc))
    n, (omega,) = doc["action"]["n"], doc["action"]["phi"][0]
    line = (f"frobenius: pass - eigen-grading with omega = {omega}; fixed space rank 0; "
            f"h permutes components by i -> 1*i mod {n}\n")
    for args in (["verify", "frobenius", str(path)], ["frobenius", "grade", str(path)]):
        start = time.perf_counter()
        result = CliRunner().invoke(main, args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0
        assert result.output == line


def test_the_n_fold_action_loops_are_charged_before_they_run():
    # eigen_grading walks Z/n and is refused; h_permutation_check reads the
    # degree vector alone and answers at any n
    loaded = loads(json.dumps(ACTION_N_10_6))
    A, fd = loaded.algebra, loaded.action
    start = time.perf_counter()
    message = "^splitting L by 1,000,002 eigenvalues is too large: estimate 37,000,074 steps"
    with pytest.raises(errors.InputError, match=message):
        eigen_grading(A, fd.phi, 1000002)
    for doc in (ACTION_N_10_6, ACTION_N_2_31):
        loaded = loads(json.dumps(doc))
        n = loaded.action.triple.n
        rep = h_permutation_check(loaded.algebra, Grading(n, (1,)), loaded.action)
        assert rep.ok and rep.checked == n and rep.failures == ()
    assert time.perf_counter() - start < 1.0


def test_count_active_components_walks_the_occurring_degrees_only():
    start = time.perf_counter()
    res = count_active_components(abelian(5, 2), Grading(1000002, (1, 2)), 0,
                                  NQRTriple(1000002, 1, 1), 1)
    assert time.perf_counter() - start < 1.0
    assert res.count == 2 and res.active == (1, 2)


def test_a_selective_witness_is_picked_one_entry_at_a_time(tmp_path):
    # L_1 has 8 basis vectors and only x_8 continues the chain: 8^5 basis
    # tuples of L_1, only the last of them with a nonzero product
    path = tmp_path / "chain24.json"
    path.write_text(json.dumps(chain_action_doc(8)))
    start = time.perf_counter()
    result = CliRunner().invoke(main, ["verify", "selective-nilpotency", str(path), "--c", "4"])
    assert time.perf_counter() - start < 1.0
    assert (result.exit_code, result.stderr) == (2, "")
    assert result.stdout == (
        "selective-nilpotency: hypothesis-error - selective 4-nilpotency fails at degree tuple "
        "(1, 1, 1, 1, 1); the conclusion is not claimed for this algebra\n")


def test_is_homogeneous_intersects_the_occurring_degrees_only():
    A = abelian(5, 2)
    G = Grading(100000, (1, 7))
    H = span([[1, 0]], 5, 2)
    start = time.perf_counter()
    ok, parts = is_homogeneous(A, G, H)
    assert time.perf_counter() - start < 1.0
    assert ok and len(parts) == 100000
    assert parts[1] == H and all(parts[i].is_zero() for i in range(100000) if i != 1)
    # the list itself is charged, a step an entry, before it is built
    with pytest.raises(errors.InputError, match=re.escape(
            "a list of 10,000,000 homogeneous slices is too large: estimate 10,000,000 steps")):
        is_homogeneous(A, Grading(10**7, (1, 7)), H)


def test_the_table_and_each_series_step_are_charged_before_they_run(monkeypatch):
    # a filiform algebra of dim 6: [e_0, e_i] = e_(i+1) for 1 <= i <= 4, so its
    # lower central series falls one rank a step (ranks 6, 4, 3, 2, 1, 0)
    T = np.zeros((6, 6, 6), dtype=np.int64)
    for i in range(1, 5):
        T[0, i, i + 1], T[i, 0, i + 1] = 1, 4
    A = make_algebra(5, 6, T)
    assert [t.rank for t in lower_central_series(A).terms] == [6, 4, 3, 2, 1, 0]
    # each step is 6^4 // 256 = 5 steps on the series' running total
    monkeypatch.setattr(errors, "WORK_BUDGET", 12)
    with pytest.raises(errors.InputError, match=re.escape(
            "the lcs series to step 3 in dim 6 is too large: estimate 15 steps, budget 12")):
        lower_central_series(A)
    # 10^3 // 256 = 3 steps for the table of a file of dim 10, before it is allocated
    monkeypatch.setattr(errors, "WORK_BUDGET", 2)
    with pytest.raises(errors.InputError, match=re.escape(
            "a table of dim 10 is too large: estimate 3 steps, budget 2")):
        loads(json.dumps({"p": 5, "dim": 10, "alpha": 1, "beta": 1, "table": []}))
