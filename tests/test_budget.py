"""One work budget: every entry point charges its estimate through check_work."""

import json
import re
import time

import numpy as np
import pytest
from click.testing import CliRunner

import alglab.errors as errors
import alglab.search as search_mod
from alglab import Grading, check_identity_uniform, make_algebra
from alglab.cli import main
from alglab.formats import loads
from alglab.frobenius import NQRTriple
from alglab.rdep import (
    d_set,
    index_split_check,
    is_r_dependent,
    rigid_subsequence,
    selective_check,
)
from alglab.rewrite import normalize, parse
from alglab.search import CorpusSpec, search
from alglab.verify import verify
from conftest import sweep_action_doc


def _right_nested(k):
    term = f"a{k}"
    for i in range(k - 1, 0, -1):
        term = f"[a{i},{term}]"
    return term


DIM_128 = {"p": 5, "dim": 128, "alpha": 1, "beta": 1, "table": []}

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
    # at p = 2^31 - 1 the identity takes linalg.matmul's exact object path
    "search-large-p-dim-40": ["search", "--spec", {"p": 2147483647, "n": 3,
                                                   "component_dims": [0, 0, 40], "mode": "random",
                                                   "seed": 1, "samples": 1}],
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
    # a zero table of dim 48 is 48^5 / 256 = 995,328 steps; dim 49 is refused
    assert check_identity_uniform(make_algebra(5, 48, np.zeros((48, 48, 48)))).ok
    with pytest.raises(errors.InputError, match="^the identity on rows 1..48 of 1 table"):
        check_identity_uniform(make_algebra(5, 49, np.zeros((49, 49, 49))))


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

    def spy(tables, *args):
        seen.append(tables.shape[0])
        return mask(tables, *args)

    monkeypatch.setattr(search_mod, "_identity_mask", spy)
    spec = CorpusSpec(p=5, n=3, component_dims=(0, 6, 6), mode="random", seed=3, samples=100)
    assert search(spec).candidates == 100
    assert sum(seen) == 100
    assert max(seen) * 12 ** 4 <= errors.WORK_BUDGET
