import threading

import pytest

from nbsep import parallel

needs_blas_control = pytest.mark.skipif(parallel._OPENBLAS is None,
                                        reason="numpy's OpenBLAS thread control not found")


@needs_blas_control
def test_parallel_map_keeps_order_and_runs_blas_single_threaded():
    get_threads, _ = parallel._OPENBLAS
    before = get_threads()
    seen = []

    def work(i):
        seen.append((threading.get_ident(), get_threads()))
        return i * i

    assert list(parallel.parallel_map(work, range(20), 2)) == [i * i for i in range(20)]
    assert threading.get_ident() not in {ident for ident, _ in seen}
    assert {blas for _, blas in seen} == {1}
    assert get_threads() == before


@needs_blas_control
def test_parallel_map_raises_at_the_failed_item_and_restores_blas():
    get_threads, _ = parallel._OPENBLAS
    before = get_threads()

    def work(i):
        if i == 3:
            raise ValueError("item 3")
        return i

    results = parallel.parallel_map(work, range(6), 2)
    assert [next(results) for _ in range(3)] == [0, 1, 2]
    with pytest.raises(ValueError, match="item 3"):
        next(results)
    assert get_threads() == before


@pytest.mark.parametrize("workers", [1])
def test_parallel_map_serial_cases_stay_on_the_calling_thread(workers):
    idents = list(parallel.parallel_map(lambda _: threading.get_ident(), range(4), workers))
    assert idents == [threading.get_ident()] * 4


def test_work_that_is_not_blas_bound_runs_on_threads_without_blas_control(monkeypatch):
    monkeypatch.setattr(parallel, "_OPENBLAS", None)
    idents = list(parallel.parallel_map(lambda _: threading.get_ident(), range(4), 2))
    assert threading.get_ident() not in idents


def test_generate_dataset_uses_pool_threads_without_blas_control(tmp_path, monkeypatch):
    from nbsep import dataset

    monkeypatch.setattr(parallel, "_OPENBLAS", None)
    idents = []

    def fake_example(index, *args):
        idents.append(threading.get_ident())
        return {"id": f"ex{index}"}

    monkeypatch.setattr(dataset, "_generate_one", fake_example)
    (tmp_path / "a.wav").touch()
    (tmp_path / "b.wav").touch()
    manifest = dataset.generate_dataset([tmp_path / "a.wav", tmp_path / "b.wav"],
                                        tmp_path / "out", n_examples=4, seed=0, workers=2)
    assert len(idents) == 4 and threading.get_ident() not in idents
    assert [line for line in manifest.read_text().splitlines()] == [
        f'{{"id": "ex{i}"}}' for i in range(4)]


def test_usable_cpus_falls_back_to_cpu_count_without_affinity(monkeypatch):
    import os

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert parallel.usable_cpus() == (os.cpu_count() or 1)
