import threading

import numpy as np
import pytest

from nbsep import parallel, stft

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


def test_a_one_worker_map_runs_blas_single_threaded_too(monkeypatch):
    blas = {"threads": 2}  # a fake thread control: the count the process runs at
    monkeypatch.setattr(parallel, "_OPENBLAS", (lambda: blas["threads"],
                                                lambda n: blas.update(threads=n)))
    assert list(parallel.parallel_map(lambda _: blas["threads"], range(3), 1)) == [1, 1, 1]
    assert blas["threads"] == 2


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


def test_parallel_map_nested_in_a_pool_worker_runs_on_that_workers_thread():
    def outer(i):
        inner = list(parallel.parallel_map(lambda _: threading.get_ident(), range(3), 2))
        return threading.get_ident(), inner

    results = list(parallel.parallel_map(outer, range(4), 2))
    for worker, inner in results:
        assert worker != threading.get_ident()
        assert inner == [worker] * 3


def _spy_corpus(tmp_path, monkeypatch, n_examples):
    """generate_dataset at 2 workers on default-order scenes; the threads alive at each
    scatter call, the threads that made them, and the thread count before the run."""
    from nbsep import dataset, roomsim
    from nbsep.audio import WaveBuffer, write_wav

    monkeypatch.setenv("NBC_THREADS", "2")
    monkeypatch.setattr(roomsim, "PAIR_THREADS_MIN_IMAGES", 0)  # every RIR may use threads
    rng = np.random.default_rng(3)
    paths = []
    for i in range(3):
        paths.append(tmp_path / f"s{i}.wav")
        write_wav(paths[-1], WaveBuffer(rng.uniform(-0.5, 0.5, 8000), 8000))
    baseline = threading.active_count()
    alive, threads = [], set()
    real = roomsim._scatter_moments

    def spy(moments, centers, amps):
        alive.append(threading.active_count())
        threads.add(threading.get_ident())
        real(moments, centers, amps)

    monkeypatch.setattr(roomsim, "_scatter_moments", spy)
    dataset.generate_dataset(paths, tmp_path / "out", n_examples, seed=2,
                             stft_cfg=stft.StftConfig(sample_rate=8000), out_len=7936,
                             n_mics=2, workers=2)
    return alive, threads, baseline


def test_generate_dataset_runs_no_more_threads_than_its_workers(tmp_path, monkeypatch):
    # the examples' RIRs run on the 2 example workers: no pool inside a pool
    alive, threads, baseline = _spy_corpus(tmp_path, monkeypatch, 3)
    assert alive and max(alive) <= baseline + 2
    assert threading.get_ident() not in threads


def test_a_lone_example_spreads_its_rir_over_the_workers(tmp_path, monkeypatch):
    if parallel.usable_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    alive, threads, baseline = _spy_corpus(tmp_path, monkeypatch, 1)
    assert max(alive) <= baseline + 2
    assert len(threads) == 2 and threading.get_ident() not in threads
