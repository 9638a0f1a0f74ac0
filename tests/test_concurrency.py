"""Concurrent use of the shared caches: values stay correct, insertion
happens at most once per key."""

import concurrent.futures
import random
import sys
import threading
import time

from lenswrt import analysis, wrt
from lenswrt.cyclotomic import CyclotomicNumber, root_of_unity
from lenswrt.wrt import LensSpace, f_poly, jeffrey_oracle


def test_order_cache_concurrent_initialization():
    # many threads racing to initialize reduction data for fresh orders
    orders = [101, 102, 103, 104, 105, 106, 107, 108]

    def work(seed):
        rng = random.Random(seed)
        results = []
        for _ in range(20):
            n = rng.choice(orders)
            e = rng.randrange(n)
            value = root_of_unity(n, e) * root_of_unity(n, n - e)
            results.append(value == 1)
        return all(results)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        assert all(pool.map(work, range(16)))


def test_fpoly_cache_single_insertion():
    space = LensSpace(11, 3)
    keys = [(c, k) for c in range(6) for k in range(11)]

    def fetch(_):
        return [f_poly(space, c, k) for c, k in keys]

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        snapshots = list(pool.map(fetch, range(12)))
    first = snapshots[0]
    for snap in snapshots[1:]:
        for a, b in zip(first, snap):
            assert a is b  # every thread sees the same cached object


def test_oracle_threads_at_different_levels_match_a_sequential_run():
    # eight threads, one level each, sweep their colors at once, switching
    # as often as the interpreter allows: the one-level frame of the oracle
    # changes hands between calls, and every value keeps the bits of a
    # sequential run
    space = LensSpace(7, 3)
    levels = [(r, precision) for r in (3, 8, 13, 21) for precision in (53, 256)]

    def sweep(level):
        r, precision = level
        return [jeffrey_oracle(space, c, r, precision) for _ in range(3) for c in range(-1, 5)]

    expected = [sweep(level) for level in levels]
    wrt._oracle_frame.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(sweep, level) for level in levels]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for level, want, values in zip(levels, expected, got):
        assert [(v.real, v.imag) for v in values] == [(v.real, v.imag) for v in want], level
    assert wrt._oracle_frame.cache_info().currsize == 1


def test_f_matrix_memo_single_insertion():
    # eight threads build the same fresh spaces: one object per space, the
    # one the memo holds
    spaces = [(7, 3), (9, 1), (12, 5), (13, 2)]

    def fetch(_):
        return [analysis.build_f_matrix(LensSpace(p, q)) for p, q in spaces]

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        snapshots = list(pool.map(fetch, range(12)))
    assert sorted(analysis._F_MATRICES) == sorted(spaces)
    for snap in snapshots:
        for key, matrix in zip(spaces, snap):
            assert matrix is analysis._F_MATRICES[key]


def test_rank_keeps_the_first_basis(monkeypatch):
    # eight threads rank or read the kernel of one fresh f-matrix at once,
    # switching as often as the interpreter allows.  No image answers
    # before all eight have started theirs, and no proof before every
    # thread that proves has started its own, so that every query images
    # and every proof races: each thread reads back the selection and the
    # basis kept on the matrix right after its own query, and a second one
    # written over the first shows as a second object.  A deficient rank
    # answers from the image, the others from the proof, with rank =
    # ncols - len(basis)
    find, certify = analysis._image_pivot_rows, analysis._certified
    barrier, imaging = threading.Barrier(8), threading.Barrier(8)
    proving = {}

    def overlapping_image(*args):
        selection = find(*args)
        imaging.wait(timeout=60)
        return selection

    def overlapping_proof(matrix):
        basis = certify(matrix)
        proving[matrix._space.p].wait(timeout=60)
        return basis

    monkeypatch.setattr(analysis, "_image_pivot_rows", overlapping_image)
    monkeypatch.setattr(analysis, "_certified", overlapping_proof)

    def work(query):
        matrix, i = query
        barrier.wait(timeout=60)
        if i % 2:
            answer = len(analysis.kernel(matrix._space))
            return answer, vars(matrix)["_image"], vars(matrix)["_basis"]
        return analysis.rank(matrix), vars(matrix)["_image"], None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            for p, q, provers in ((4, 1, 8), (5, 2, 8), (9, 1, 4)):  # at p = 9 only the kernels prove
                proving[p] = threading.Barrier(provers)
                matrix = analysis.build_f_matrix(LensSpace(p, q))
                read = list(pool.map(work, [(matrix, i) for i in range(8)], timeout=60))
                image, basis = vars(matrix)["_image"], vars(matrix)["_basis"]
                assert all(kept is image for _, kept, _ in read), (p, q)
                assert all(kept is basis for _, _, kept in read[1::2]), (p, q)
                assert all(answer == len(basis) for answer, _, _ in read[1::2]), (p, q)
                assert all(answer == matrix.ncols - len(basis) for answer, _, _ in read[::2]), (p, q)
    finally:
        sys.setswitchinterval(interval)


def test_entries_are_built_into_one_tuple(monkeypatch):
    # eight threads read the entries of one fresh f-matrix, and of one
    # fresh [M | -b], at once; every term read from the Gauss table yields
    # the interpreter, so that the builds overlap: each thread gets the
    # tuple that the matrix keeps
    terms = analysis._terms

    def slow_terms(*args):
        time.sleep(0)
        return terms(*args)

    monkeypatch.setattr(analysis, "_terms", slow_terms)
    barrier = threading.Barrier(8)

    def work(matrix):
        barrier.wait(timeout=60)
        return matrix.entries

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            for p, q in ((5, 2), (9, 1), (12, 5)):
                space = LensSpace(p, q)
                rhs = tuple(f_poly(space, 0, k).signed_body for k in range(p))
                for matrix in (analysis._FMatrix(space), analysis._FMatrix(space, rhs)):
                    read = list(pool.map(work, [matrix] * 8, timeout=60))
                    assert all(entries is matrix.entries for entries in read), (p, q, matrix.ncols)
    finally:
        sys.setswitchinterval(interval)

def test_concurrent_arithmetic_is_pure():
    base = CyclotomicNumber(9, [1, 2, 0, -1, 0, 0, 3, 0, 0])

    def work(i):
        x = base * base - base
        return x == base * (base - 1)

    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        assert all(pool.map(work, range(32)))
