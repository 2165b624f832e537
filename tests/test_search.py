import json

import numpy as np
import pytest

from alglab import InputError, check_grading, check_identity_uniform
from alglab.search import (
    CorpusSpec,
    SelectiveFilter,
    admissible_slots,
    load_spec,
    search,
    spec_from_document,
    validate_spec,
)


def test_admissible_slots_respect_grading():
    spec = CorpusSpec(p=2, n=3, component_dims=(0, 1, 1))
    slots = admissible_slots(spec)
    # degrees (1, 2): only (e1,e1)->e2 and (e2,e2)->e1 are graded-admissible
    assert slots == [(0, 0, 1), (1, 1, 0)]
    assert search(spec).candidates == 4


def oracle_slots(spec):
    """The triple loop that admissible_slots replaced."""
    degs, d = spec.degrees, spec.dim
    return [(i, j, k) for i in range(d) for j in range(d) for k in range(d)
            if degs[k] == (degs[i] + degs[j]) % spec.n]


@pytest.mark.parametrize("n, dims", [(3, (0, 1, 1)), (5, (0, 2, 0, 1, 1)), (4, (1, 2, 0, 3)),
                                     (7, (0, 0, 3, 0, 2, 0, 0)), (2, (1, 3))])
def test_admissible_slots_match_the_loop_and_the_count_from_dims(monkeypatch, n, dims):
    import alglab.errors as errors

    spec = CorpusSpec(p=2, n=n, component_dims=dims)
    slots = admissible_slots(spec)
    assert slots == oracle_slots(spec)
    # at budget 1 the first refusal is the candidates', counted from the dims alone
    monkeypatch.setattr(errors, "WORK_BUDGET", 1)
    message = rf"^an exhaustive search over 2\^{len(slots)} candidates "
    with pytest.raises(InputError, match=message):
        search(spec)


def test_exhaustive_example_survivors():
    res = search(CorpusSpec(p=2, n=3, component_dims=(0, 1, 1)))
    assert res.candidates == 4
    tables = {s.algebra.table.tobytes() for s in res.survivors}
    leibniz = np.zeros((2, 2, 2), dtype=np.int64)
    leibniz[0, 0, 1] = 1
    assert leibniz.tobytes() in tables       # [e1,e1] = e2 survives
    assert len(res.survivors) == 3           # both-entries table fails the identity
    assert res.summary[0].max_nilpotency_class == 2
    for s in res.survivors:
        assert check_identity_uniform(s.algebra).ok
        assert check_grading(s.algebra, s.grading).ok


def test_all_zero_component_dims_single_survivor():
    res = search(CorpusSpec(p=2, n=3, component_dims=(0, 0, 0)))
    assert res.candidates == 1
    assert len(res.survivors) == 1
    assert res.survivors[0].algebra.dim == 0
    assert res.survivors[0].derived_length == 0


def test_selective_filter_prunes_to_abelian():
    res = search(
        CorpusSpec(p=2, n=3, component_dims=(0, 1, 1),
                   selective=SelectiveFilter(1, 2, 2))
    )
    # (1,1) and (2,2) are independent pairs here, so both table slots must vanish
    assert len(res.survivors) == 1
    assert not res.survivors[0].algebra.table.any()


def test_validate_spec_limits():
    # no shape limit in exhaustive mode: dim 9 and p = 5 are valid, and their
    # one candidate (no slot has degree 1 + 1 = 0 mod 2) is the zero table
    for spec in (CorpusSpec(p=2, n=2, component_dims=(0, 9)),
                 CorpusSpec(p=5, n=2, component_dims=(0, 1))):
        assert validate_spec(spec) is spec
        result = search(spec)
        assert (result.candidates, len(result.survivors)) == (1, 1)
    with pytest.raises(InputError):
        validate_spec(CorpusSpec(p=2, n=2, component_dims=(0, 1), mode="random"))
    with pytest.raises(InputError):
        validate_spec(
            CorpusSpec(p=2, n=3, component_dims=(1, 1, 0),
                       selective=SelectiveFilter(1, 2, 2))
        )  # selective needs zero L_0
    with pytest.raises(InputError, match=r"^\(n=3, q=2, r=1\) fails the order condition at divisor 3$"):
        validate_spec(
            CorpusSpec(p=2, n=3, component_dims=(0, 1, 1),
                       selective=SelectiveFilter(1, 2, 1))
        )  # r = 1 has order 1, not q = 2: NQRTriple's refusal


@pytest.mark.parametrize("p, survivors", [(5, 9), (7, 13)])
def test_exhaustive_search_over_f5_and_f7(p, survivors):
    # n = 3 divides p - 1: the smallest exhaustive corpora with an order-3 root of unity
    result = search(CorpusSpec(p=p, n=3, component_dims=(0, 1, 1)))
    assert (result.candidates, len(result.survivors)) == (p**2, survivors)


def test_random_mode_deterministic():
    spec = CorpusSpec(p=3, n=3, component_dims=(0, 1, 1), mode="random",
                      seed=99, samples=500)
    a = search(spec)
    b = search(spec)
    assert [s.algebra.table.tobytes() for s in a.survivors] == [
        s.algebra.table.tobytes() for s in b.survivors
    ]
    assert a.summary == b.summary
    # a different seed gives a different stream (with overwhelming likelihood)
    c = search(CorpusSpec(p=3, n=3, component_dims=(0, 1, 1), mode="random",
                          seed=100, samples=500))
    assert [s.index for s in a.survivors] != [s.index for s in c.survivors] or [
        s.algebra.table.tobytes() for s in a.survivors
    ] != [s.algebra.table.tobytes() for s in c.survivors]


def test_every_chunk_runs_on_the_calling_thread(monkeypatch):
    import threading

    import alglab.search as search_mod

    idents = []
    chunk = search_mod._survivors_of_chunk

    def spy(*args):
        idents.append(threading.get_ident())
        return chunk(*args)

    monkeypatch.setattr(search_mod, "_survivors_of_chunk", spy)
    monkeypatch.setattr(search_mod, "CHUNK", 7)
    monkeypatch.setenv("ALGLAB_THREADS", "4")  # search reads no thread count
    assert search(CorpusSpec(p=2, n=3, component_dims=(0, 2, 1))).candidates == 2**6
    assert idents == [threading.get_ident()] * 10


@pytest.mark.parametrize("chunk", [1, 7, 63, 64])
def test_exhaustive_stream_independent_of_chunks(monkeypatch, chunk):
    import alglab.search as search_mod

    # 2^6 candidates: one chunk at the default CHUNK, 64 at CHUNK 1, and one
    # short last chunk at CHUNK 7 and 63
    spec = CorpusSpec(p=2, n=3, component_dims=(0, 2, 1))
    want = search(spec)
    monkeypatch.setattr(search_mod, "CHUNK", chunk)
    got = search(spec)
    assert got.candidates == want.candidates == 2**6
    assert len(want.survivors) > 1
    assert [s.index for s in got.survivors] == [s.index for s in want.survivors]
    assert [s.algebra.table.tobytes() for s in got.survivors] == [
        s.algebra.table.tobytes() for s in want.survivors
    ]
    assert got.summary == want.summary


@pytest.mark.parametrize("chunk", [1, 7, 499, 500, 4096])
def test_random_stream_independent_of_chunks(monkeypatch, chunk):
    import alglab.search as search_mod

    spec = CorpusSpec(p=3, n=3, component_dims=(0, 1, 1), mode="random",
                      seed=99, samples=500)
    want = search(spec)
    monkeypatch.setattr(search_mod, "CHUNK", chunk)
    got = search(spec)
    assert len(want.survivors) > 1
    assert [s.index for s in got.survivors] == [s.index for s in want.survivors]
    assert [s.algebra.table.tobytes() for s in got.survivors] == [
        s.algebra.table.tobytes() for s in want.survivors
    ]
    assert got.summary == want.summary


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 2147483647])
@pytest.mark.parametrize("seed", [99, 0, 7001, 2**40 + 3])
def test_random_candidates_follow_the_seeded_draws(p, seed):
    # random.Random is the oracle: the stream replays randrange(p) in numpy,
    # so a change to CPython's randrange makes this fail
    import random

    spec = CorpusSpec(p=p, n=3, component_dims=(0, 1, 1), mode="random",
                      seed=seed, samples=500, identity_filter=False)
    slots = admissible_slots(spec)
    rng = random.Random(spec.seed)
    draws = [rng.randrange(spec.p) for _ in range(spec.samples * len(slots))]
    res = search(spec)
    assert [s.index for s in res.survivors] == list(range(spec.samples))
    for s in res.survivors:
        row = draws[s.index * len(slots):(s.index + 1) * len(slots)]
        assert [int(s.algebra.table[slot]) for slot in slots] == row


def test_spec_from_document_and_file(tmp_path):
    doc = {
        "p": 2, "n": 3, "component_dims": [0, 1, 1],
        "alpha": 1, "beta": 1, "mode": "exhaustive",
        "filters": {"identity": True, "selective": {"c": 1, "q": 2, "r": 2}},
    }
    spec = spec_from_document(doc)
    assert spec.selective == SelectiveFilter(1, 2, 2)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert load_spec(path) == spec


def test_spec_from_document_missing_field():
    from alglab import FormatError

    with pytest.raises(FormatError):
        spec_from_document({"p": 2})


def test_survivor_documents_verify_cleanly():
    from alglab.formats import loads

    res = search(CorpusSpec(p=2, n=3, component_dims=(0, 1, 1)))
    for doc in (s.document() for s in res.survivors):
        loaded = loads(json.dumps(doc))
        assert check_identity_uniform(loaded.algebra).ok
        exp = loaded.meta.expected
        from alglab import derived_length, nilpotency_class

        assert derived_length(loaded.algebra) == exp.derived_length
        assert nilpotency_class(loaded.algebra) == exp.nilpotency_class


def test_selective_filter_above_the_q_cap_is_refused():
    # 3 has order 2^16 mod the prime 65537: a valid triple whose q twists
    # are too many for the dependence tests
    spec = CorpusSpec(p=3, n=65537, component_dims=(0, 1, 1) + (0,) * 65534,
                      mode="random", seed=1, samples=8,
                      selective=SelectiveFilter(1, 65536, 3))
    with pytest.raises(InputError, match="q = 65536 is too large"):
        search(spec)
