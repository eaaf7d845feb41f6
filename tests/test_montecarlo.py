import ast
import math
import multiprocessing
import os
import statistics
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from revsle.driving import TimeGrid, raw_normals, sample_brownian
from revsle.loewner import swallowed
import revsle.montecarlo
from revsle.montecarlo import (_STAGE, BATCH_SIZE, MIN_SPAN, McConfig, _one_point_walk,
                               _pool_size, _run_batched, _xi_block, run_composed_stats,
                               run_inverse_consistency, run_martingale_test)


def one_point(y, a, b):
    """McConfig's observable fields: the point y and the pair (a, b)."""
    return dict(y=y, a=a, b=b)


DRIFT_FREE = one_point(1.0, -3.0, 3.0)   # kappa = 4: -3 = 3 - 4*3*2/4
WRONG_PAIR = one_point(1.0, -3.0, 2.0)   # drift coefficient -6


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(kappa=0.0, horizon=0.05, n_steps=10, n_samples=100,
                 master_seed=0, **DRIFT_FREE)
    with pytest.raises(ValueError):
        McConfig(kappa=4.0, horizon=0.05, n_steps=10, n_samples=50,
                 master_seed=0, **DRIFT_FREE)
    for kappa, horizon, n_steps in ((math.inf, 0.05, 10), (4.0, math.inf, 10),
                                    (4.0, 0.0, 10), (4.0, 0.05, 0)):
        with pytest.raises(ValueError):
            McConfig(kappa=kappa, horizon=horizon, n_steps=n_steps, n_samples=100,
                     master_seed=0, **DRIFT_FREE)
    for eps_stop in (math.nan, math.inf, -1.0, 1.0):   # 1.0: y = 1 starts in the band
        with pytest.raises(ValueError):
            McConfig(kappa=4.0, horizon=0.05, n_steps=10, n_samples=100,
                     master_seed=0, **DRIFT_FREE, eps_stop=eps_stop)
    # the engine runs one point with an (a, b) pair, all finite
    # and F_0 = y^b a positive normal float: not past the floats, not
    # subnormal, not zero
    for y, a, b in ((math.inf, 0.0, 1.0), (math.nan, 0.0, 1.0),
                    (2.0, math.nan, 1.0), (2.0, 0.0, -math.inf), (100.0, 0.0, 155.0),
                    (2.0, 0.0, -1023.0), (0.01, 0.0, 200.0)):
        with pytest.raises(ValueError):
            McConfig(kappa=4.0, horizon=0.05, n_steps=10, n_samples=100,
                     master_seed=0, **one_point(y, a, b))
    # the walk's first half step needs q_0 = y^2 - 2 T/n > 0: at T/n = 0.5,
    # y = 1 gives q_0 = 0, where every sample would stop at step 0
    for y in (0.1, 1.0, 0.3, 0.7):
        with pytest.raises(ValueError, match="y\\^2 > 2 T/n"):
            McConfig(kappa=4.0, horizon=1.0, n_steps=2, n_samples=100,
                     master_seed=0, **one_point(y, 0.0, 1.5))
    McConfig(kappa=4.0, horizon=1.0, n_steps=2, n_samples=100,
             master_seed=0, **one_point(math.nextafter(1.0, 2.0), 0.0, 1.5))
    McConfig(kappa=4.0, horizon=0.05, n_steps=10, n_samples=100,
             master_seed=0, **DRIFT_FREE, eps_stop=0.0)   # no stopping band
    for b in (-1022.0, 1023.0):   # F_0 the least and the greatest normal powers of 2
        McConfig(kappa=4.0, horizon=0.05, n_steps=10, n_samples=100,
                 master_seed=0, **one_point(2.0, 0.0, b))


def test_default_checkpoints_end_at_horizon():
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=100, n_samples=100,
                   master_seed=0, **DRIFT_FREE)
    idx = cfg.checkpoint_indices()
    assert len(idx) == 5
    assert idx[-1] == 100


@pytest.mark.parametrize("n_steps,indices", [
    (3, [1, 2, 3]),                           # every step
    (7, [1, 2, 3, 4, 5, 7]),                  # five strides, then the last step
    (12, [2, 4, 6, 8, 10, 12]),
    (500, [100, 200, 300, 400, 500]),
], ids=["3", "7", "12", "500"])
def test_checkpoints_are_five_strides_and_the_last_step(n_steps, indices):
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=n_steps, n_samples=100,
                   master_seed=0, **DRIFT_FREE)
    assert cfg.checkpoint_indices() == indices


def test_engine_imports_only_driving_and_loewner():
    # revsle/__init__ imports every module, so sys.modules cannot show which
    # ones the engine needs; its own import statements can
    tree = ast.parse(Path(revsle.montecarlo.__file__).read_text())
    local = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("revsle")):
            local.add(node.module)
        elif isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.startswith("revsle")]
    assert local == {"driving", "loewner"}


# 1, 2 and 17 steps give running sums of one, two and many terms; spans of
# 1 and _STAGE - 1 samples fill part of one stage, _STAGE one full stage,
# _STAGE + 1 a full and a one-sample stage, and 3 _STAGE + 5 four stages
@pytest.mark.parametrize("n_steps", [1, 2, 17])
@pytest.mark.parametrize("master,lo,hi", [(0, 0, 4), (7, 3, 10), (2**64, 4093, 4099),
                                          (5, 8, 9), (6, 100, 100 + _STAGE - 1),
                                          (6, 100, 100 + _STAGE), (6, 100, 101 + _STAGE),
                                          (6, 100, 105 + 3 * _STAGE)])
def test_xi_block_columns_are_sampled_paths(master, lo, hi, n_steps):
    grid = TimeGrid(0.3, n_steps)
    xi = _xi_block(master, lo, hi, 2.5, grid.dt, grid.n_steps)
    assert xi.shape == (n_steps + 1, hi - lo) and xi.flags.c_contiguous
    for i in range(hi - lo):
        assert np.array_equal(xi[:, i],
                              sample_brownian(grid, 2.5, master, index=lo + i).values)


def test_xi_block_is_the_only_block_of_its_span():
    # no block-sized staging: the samples are staged a few at a time
    tracemalloc.start()
    try:
        xi = _xi_block(3, 0, 512, 4.0, 0.01, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * xi.nbytes


def test_xi_block_legs_are_the_sample_streams():
    # column j of leg L is the scaled running sum of the stream (master, lo + j, L)
    grid, master, lo, hi = TimeGrid(0.25, 9), 5, 2, 9
    scale = np.sqrt(4.0 * grid.dt)
    blocks = [_xi_block(master, lo, hi, 4.0, grid.dt, grid.n_steps, leg=leg) for leg in (0, 1)]
    for leg, xi in enumerate(blocks):
        for j, i in enumerate(range(lo, hi)):
            z = raw_normals(master, grid.n_steps, index=i, leg=leg)
            assert xi[0, j] == 0.0
            assert np.array_equal(xi[1:, j], np.cumsum(scale * z))
    # the two legs of one sample differ, at every step after the first
    assert np.all(blocks[0][1:] != blocks[1][1:])


@pytest.mark.parametrize("shared,legs", [(False, [0, 1]), (True, [0])])
def test_composed_drives_forward_with_leg_0_and_backward_with_leg_1(shared, legs,
                                                                     monkeypatch):
    calls = []
    original = revsle.montecarlo._xi_block

    def spy(master_seed, lo, hi, *args, leg=0):
        calls.append((master_seed, lo, hi, leg))
        return original(master_seed, lo, hi, *args, leg=leg)

    monkeypatch.setattr(revsle.montecarlo, "_xi_block", spy)
    run_composed_stats(4.0, 0.25, 5, 10, shared_driving=shared, master_seed=5)
    assert calls == [(5, 0, 10, leg) for leg in legs]


def test_nearby_master_seeds_share_no_sample_column():
    # a key of master_seed + index would give seed 8's sample i to seed 7
    # as sample i + 1
    grid = TimeGrid(0.05, 20)
    a = _xi_block(7, 0, 300, 4.0, grid.dt, grid.n_steps)
    b = _xi_block(8, 0, 300, 4.0, grid.dt, grid.n_steps)
    last = np.concatenate([a[-1], b[-1]])
    assert np.unique(last).size == last.size


# 4100 samples make two chunks, so four workers (capped at the core count)
# fork a pool of worker processes wherever there are two cores
@pytest.mark.parametrize("engine", [
    lambda: run_martingale_test(McConfig(kappa=4.0, horizon=0.05, n_steps=3, n_samples=4100,
                                         master_seed=1, **DRIFT_FREE), workers=4),
    lambda: run_inverse_consistency(4.0, 0.05, 3, 4100, master_seed=1, workers=4),
    lambda: run_composed_stats(4.0, 0.05, 3, 4100, master_seed=1, workers=4),
], ids=["martingale", "inverse", "composed"])
def test_engine_leaves_no_thread_or_process(engine):
    before = threading.active_count()
    engine()
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


can_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or (os.cpu_count() or 1) < 2,
    reason="the worker pool needs fork and two cores")


def pid_task(lo, hi):
    time.sleep(0.05)   # long enough that each worker process takes a span
    return np.arange(lo, hi), np.full(hi - lo, os.getpid())


@can_fork
@pytest.mark.parametrize("n", [1, 3, 1000, 4097, 9000])
def test_run_batched_forks_and_keeps_batch_order(n):
    # one tuple of per-sample arrays, joined over all spans in sample order
    idx_inline, pids_inline = _run_batched(pid_task, n, 1)
    idx, pids = _run_batched(pid_task, n, 2)
    assert np.array_equal(idx_inline, np.arange(n)) and np.array_equal(idx, np.arange(n))
    assert set(pids_inline.tolist()) == {os.getpid()}
    if n < 2 * MIN_SPAN:
        # two spans would hold fewer than MIN_SPAN samples each: run inline
        assert set(pids.tolist()) == {os.getpid()}
    else:
        # one chunk is cut into two spans, or the run spans two chunks
        assert os.getpid() not in set(pids.tolist()) and len(set(pids.tolist())) == 2


@can_fork
def test_pool_gives_each_process_min_span_samples(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert _pool_size(2 * MIN_SPAN - 1, 2) == 1
    assert _pool_size(2 * MIN_SPAN, 2) == 2
    assert _pool_size(3 * MIN_SPAN - 1, 3) == 2
    assert _pool_size(8 * MIN_SPAN, 16) == 8   # and one per core


@pytest.mark.parametrize("patch", ["no-fork", "one-core", "other-thread"])
def test_run_batched_stays_inline_where_it_cannot_fork_safely(patch, monkeypatch):
    if patch == "no-fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    elif patch == "one-core":
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    if patch == "other-thread":
        other.start()
    try:
        assert _pool_size(5000, 4) == 1
        idx, pids = _run_batched(pid_task, 5000, 4)
    finally:
        release.set()
        if other.is_alive():
            other.join(60)
    assert not other.is_alive()
    assert np.array_equal(idx, np.arange(5000))
    assert set(pids.tolist()) == {os.getpid()}


def failing_task(lo, hi):
    if lo > 0:
        raise ZeroDivisionError(f"span {lo}..{hi}")
    return (np.zeros(hi - lo),)


@can_fork
@pytest.mark.parametrize("n", [1000, 9000], ids=["split", "batches"])
def test_run_batched_reraises_and_leaves_nothing_running(n):
    before = threading.active_count()
    with pytest.raises(ZeroDivisionError):
        _run_batched(failing_task, n, 2)
    assert multiprocessing.active_children() == []
    assert threading.active_count() == before


# 1000 samples are one chunk, cut into spans; 9000 end in a ragged chunk
@pytest.mark.parametrize("n", [1000, 9000])
@pytest.mark.parametrize("engine", [
    lambda n, w: run_martingale_test(McConfig(kappa=4.0, horizon=0.05, n_steps=4, n_samples=n,
                                              master_seed=4, **DRIFT_FREE), workers=w),
    lambda n, w: run_inverse_consistency(4.0, 0.5, 4, n, master_seed=4, workers=w),
    lambda n, w: run_composed_stats(4.0, 0.25, 4, n, master_seed=4, workers=w),
    lambda n, w: run_composed_stats(4.0, 0.25, 4, n, shared_driving=True, master_seed=4,
                                    workers=w),
], ids=["martingale", "inverse", "composed", "composed-shared"])
def test_engine_bytes_identical_across_worker_counts(engine, n):
    # repr covers every field, per-sample errors included, and tells -0.0
    # from 0.0
    assert len({repr(engine(n, w)) for w in (1, 2, 3)}) == 1


@pytest.mark.parametrize("engine", [
    lambda: run_martingale_test(McConfig(kappa=4.0, horizon=0.05, n_steps=50, n_samples=9000,
                                         master_seed=123456789, **DRIFT_FREE),
                                workers=2),
    lambda: run_composed_stats(4.0, 0.25, 100, 9000, master_seed=5, workers=2),
], ids=["martingale", "composed"])
def test_engine_bytes_do_not_depend_on_the_chunk_size(engine, monkeypatch):
    # every sample is reduced in one exactly rounded sum, so moving the chunk
    # boundaries (3 chunks of 4096 against 9 of 1000) keeps every byte
    default = repr(engine())
    monkeypatch.setattr(revsle.montecarlo, "BATCH_SIZE", 1000)
    assert repr(engine()) == default


def test_constant_observable_mean_is_exactly_one():
    # a = b = 0 freezes every sample at 1; the stopping bookkeeping must not
    # disturb the mean even though many samples stop on this horizon
    cfg = McConfig(kappa=4.0, horizon=0.2, n_steps=200, n_samples=500,
                   master_seed=3, **one_point(1.0, 0.0, 0.0))
    rep = run_martingale_test(cfg)
    assert rep.f0 == 1.0
    for row in rep.checkpoints:
        assert row.mean == 1.0
        assert row.z == 0.0
        assert row.n_alive + row.n_stopped == 500
    assert rep.checkpoints[-1].n_stopped > 0   # stopping actually occurred
    assert rep.verdict


# in the first config a sample ends with eps_stop < X_n <= sqrt(2 dt),
# which count as stopped; in the second, scalar math.exp/log would move the
# mean in its last digit
@pytest.mark.parametrize("kappa,horizon,n_steps,eps_stop",
                         [(4.0, 0.2, 40, 1e-3), (6.0, 0.5, 25, 0.05)])
def test_engine_is_eval_one_point_per_sample(kappa, horizon, n_steps, eps_stop, monkeypatch):
    cfg = McConfig(kappa=kappa, horizon=horizon, n_steps=n_steps, n_samples=300,
                   master_seed=9, **DRIFT_FREE, eps_stop=eps_stop)
    grid = TimeGrid(horizon, n_steps)
    # the walk on each sample's own path, a one-column block
    outs = [_one_point_walk(sample_brownian(grid, kappa, 9, index=i).values[:, None],
                            4.0 * grid.dt, 1.0, -3.0, 3.0, eps_stop, range(n_steps + 1))
            for i in range(300)]
    # one chunk, then three chunks of at most 128 samples
    for batch_size in (BATCH_SIZE, 128):
        monkeypatch.setattr(revsle.montecarlo, "BATCH_SIZE", batch_size)
        last = run_martingale_test(cfg).checkpoints[-1]
        assert math.fsum(float(frozen[0, -1]) for frozen, _ in outs) / 300 == last.mean
        assert sum(not alive.all() for _, alive in outs) == last.n_stopped > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_nonfinite_driving_fails_the_verdict(workers, nonfinite_driving):
    # the walk would freeze both samples as if they had stopped, and the
    # verdict would pass
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=100, n_samples=2000,
                   master_seed=11, **DRIFT_FREE)
    clean = run_martingale_test(cfg, workers=workers)
    assert clean.verdict and clean.n_nonfinite == 0
    nonfinite_driving()
    rep = run_martingale_test(cfg, workers=workers)
    assert rep.n_nonfinite == 2
    assert not rep.verdict


def test_drift_free_pair_passes():
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=100, n_samples=2000,
                   master_seed=11, **DRIFT_FREE)
    rep = run_martingale_test(cfg)
    assert rep.verdict
    assert all(abs(row.z) <= 3.0 for row in rep.checkpoints)


def test_wrong_pair_fails_with_negative_drift():
    # residual 2a - 2b + kappa b(b-1)/2 = -6 < 0: the mean decays, roughly
    # linearly in t at small t
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=100, n_samples=20000,
                   master_seed=11, **WRONG_PAIR)
    rep = run_martingale_test(cfg)
    assert not rep.verdict
    dev = [rep.f0 - row.mean for row in rep.checkpoints]
    assert all(d > 0.0 for d in dev)            # sign matches the residual
    assert rep.checkpoints[-1].z < -3.0
    ratio = dev[-1] / dev[1]                    # t = 0.05 vs t = 0.02
    assert 1.5 <= ratio <= 4.0                  # ~2.5 for linear growth


def test_reproducible_across_worker_counts():
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=80, n_samples=9000,
                   master_seed=5, **DRIFT_FREE)
    rep1 = run_martingale_test(cfg, workers=1)
    rep3 = run_martingale_test(cfg, workers=3)
    assert repr(rep1) == repr(rep3)


def test_checkpoint_variance_is_two_pass():
    # far from the seed the values are near 1e6 and spread by about 0.5: a
    # one-pass sum of squares minus n mean^2 loses about three digits here
    n, n_steps, y = 300, 20, 1e6
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=n_steps, n_samples=n,
                   master_seed=2, **one_point(y, 1.0, 1.0))
    rep = run_martingale_test(cfg)
    dt = 0.05 / n_steps
    xi = _xi_block(2, 0, n, 4.0, dt, n_steps)
    frozen, _ = _one_point_walk(xi, 4.0 * dt, y, 1.0, 1.0, 1e-3, cfg.checkpoint_indices())
    for row, f in zip(rep.checkpoints, frozen.T):
        assert row.mean == math.fsum(f) / n
        exact = statistics.variance(f.tolist())   # in exact fractions
        assert row.stderr == pytest.approx(math.sqrt(exact / n), rel=1e-9)


def test_stderr_scales_with_sample_count():
    base = dict(kappa=4.0, horizon=0.05, n_steps=50, master_seed=17,
                **DRIFT_FREE)
    small = run_martingale_test(McConfig(n_samples=1000, **base))
    large = run_martingale_test(McConfig(n_samples=4000, **base))
    for r_small, r_large in zip(small.checkpoints, large.checkpoints):
        ratio = r_small.stderr / r_large.stderr
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


# --- inverse consistency -------------------------------------------------------

@pytest.mark.parametrize("n_samples", [0, -1])
@pytest.mark.parametrize("engine", [run_inverse_consistency, run_composed_stats],
                         ids=["inverse", "composed"])
def test_engines_reject_fewer_than_one_sample(engine, n_samples):
    with pytest.raises(ValueError, match="n_samples >= 1"):
        engine(4.0, 1.0, 10, n_samples)


def test_inverse_consistency_passes_bound():
    rep = run_inverse_consistency(4.0, 1.0, 200, 50, master_seed=7)
    assert rep.passed
    assert rep.max_error <= rep.bound
    assert rep.bound == pytest.approx(10.0 * math.sqrt(1.0 / 200), rel=1e-15)
    assert len(rep.sample_errors) == 50


def test_inverse_error_shrinks_with_resolution():
    coarse = run_inverse_consistency(4.0, 1.0, 200, 50, master_seed=7)
    fine = run_inverse_consistency(4.0, 1.0, 800, 50, master_seed=7)
    assert fine.mean_error < coarse.mean_error
    assert coarse.mean_error / fine.mean_error >= 1.7


def test_inverse_consistency_reproducible_across_workers():
    r1 = run_inverse_consistency(4.0, 0.5, 100, 300, master_seed=9, workers=1)
    r4 = run_inverse_consistency(4.0, 0.5, 100, 300, master_seed=9, workers=4)
    assert repr(r1) == repr(r4)


def test_inverse_nan_in_a_later_sample_fails_closed(nan_in_sample_1):
    nan_in_sample_1()
    rep = run_inverse_consistency(4.0, 1.0, 50, 20, master_seed=7)
    assert math.isfinite(rep.sample_errors[0]) and math.isnan(rep.sample_errors[1])
    assert not math.isfinite(rep.max_error)
    assert not rep.passed


# --- composed flow ---------------------------------------------------------------

def test_composed_containment_and_survival():
    rep = run_composed_stats(4.0, 0.25, 100, 100, master_seed=13)
    assert rep.containment_violations == 0
    assert 0.0 < rep.survival_fraction <= 1.0
    assert rep.mean_image.imag > 0.0


def test_composed_shared_vs_independent_differ():
    shared = run_composed_stats(4.0, 0.25, 100, 100, shared_driving=True,
                                master_seed=13)
    indep = run_composed_stats(4.0, 0.25, 100, 100, shared_driving=False,
                               master_seed=13)
    assert shared.containment_violations == 0
    assert indep.containment_violations == 0
    assert shared.mean_image != indep.mean_image


def test_composed_counts_nan_image_as_violation(nan_in_sample_1):
    nan_in_sample_1()
    rep = run_composed_stats(4.0, 0.1, 20, 100, master_seed=5)
    assert rep.containment_violations == 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shared", [False, True])
def test_composed_skips_swallowed_points(shared, workers, monkeypatch, written_out_root):
    """Samples 0-2 have zero driving, and the grid gains the slit point of
    test_flow_bits_equal_the_listed_loop, which their 11th forward step
    swallows.  The report equals one reduced from a listed loop that freezes
    each swallowed point from that step on, so none of the values a
    swallowed point takes after it reach the report."""
    kappa, horizon, n_steps, n_samples, seed = 4.0, 0.25, 50, 300, 3
    dt = horizon / n_steps
    original = revsle.montecarlo._xi_block

    def zero_driving_0_to_2(master_seed, lo, hi, kappa, dt, n_steps, leg=0):
        xi = original(master_seed, lo, hi, kappa, dt, n_steps, leg)
        xi[:, :max(0, 3 - lo)] = 0.0
        return xi

    grid = (*revsle.montecarlo._DEFAULT_Z_GRID, math.sqrt(4.0 * dt * 10.5) * 1j)
    monkeypatch.setattr(revsle.montecarlo, "_xi_block", zero_driving_0_to_2)
    monkeypatch.setattr(revsle.montecarlo, "_DEFAULT_Z_GRID", grid)
    rep = run_composed_stats(kappa, horizon, n_steps, n_samples, shared_driving=shared,
                             master_seed=seed, workers=workers)

    xi_f = zero_driving_0_to_2(seed, 0, n_samples, kappa, dt, n_steps)
    xi_b = xi_f if shared else zero_driving_0_to_2(seed, 0, n_samples, kappa, dt, n_steps, 1)
    w = np.tile(np.array(grid), (n_samples, 1))
    alive = np.ones(w.shape, bool)
    for rows, c in ((xi_f[:n_steps], 4.0 * dt), (xi_b[:n_steps], -4.0 * dt)):
        for x in rows:
            x = x[:, None]
            v = w - x
            if c > 0.0:
                alive &= ~swallowed(v, c)
            w = np.where(alive, x + written_out_root(v * v + c, v.real), w)
    image = w[alive]
    n = image.size
    mean_im = math.fsum(image.imag) / n
    spread = math.sqrt(max(math.fsum(image.imag * image.imag) / n - mean_im * mean_im, 0.0))
    want = revsle.montecarlo.ComposedReport(
        kappa, horizon, n_steps, n_samples, seed, shared, len(grid), n / w.size,
        int(np.count_nonzero(~np.isfinite(image) | (image.imag < -1e-12))),
        complex(math.fsum(image.real) / n, mean_im), spread)
    assert not alive[:3, -1].any() and rep.survival_fraction < 1.0
    assert rep.containment_violations == 0
    assert repr(rep) == repr(want)


# --- the slit-step loop ------------------------------------------------------------

def listed_flow(w, rows, c, root, alive=None):
    """The flow loop written out with a fresh array per operation and the
    slit root ``root`` written out as well (the ``written_out_root``
    fixture): the half-angle formula off the real axis, and on it numpy's
    principal root negated where Im < 0, or where Im = +-0 and
    Re(w - x) < 0.  A mask is cleared where a step swallows a point, and
    every point steps on."""
    for x in rows:
        x = x[:, None]
        v = w - x
        if alive is not None:
            alive &= ~swallowed(v, c)
        w = x + root(v * v + c, v.real)
    return w


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("leg", ["backward", "forward", "masked forward"])
def test_flow_bits_equal_the_listed_loop(leg, written_out_root):
    n_steps, dt = 200, 1.0 / 200
    xi = _xi_block(11, 0, 300, 4.0, dt, n_steps)
    # sample 0 has zero driving, so its point 0 on the imaginary axis sits on
    # the slit after 10 forward steps; from then on each forward step's roots
    # include a real-axis tie, while the backward leg meets none
    xi[:, 0] = 0.0
    pts = np.array([math.sqrt(4.0 * dt * 10.5) * 1j, 1j, 0.5 + 0.1j, -1.5 + 0.5j])
    w = np.tile(pts, (300, 1))
    kept = w.copy()
    c = -4.0 * dt if leg == "backward" else 4.0 * dt
    rows = xi[n_steps:0:-1] if leg == "backward" else xi[:n_steps]
    if leg == "masked forward":
        alive, listed_alive = np.ones(w.shape, bool), np.ones(w.shape, bool)
        # the forward leg up to step 10 leaves point 0 of sample 0 alive
        listed_flow(w, rows[:10], c, written_out_root, listed_alive)
        assert listed_alive[0, 0]
        listed_alive[:] = True
    else:
        alive = listed_alive = None
    got = revsle.montecarlo._flow(w, rows, c, alive)
    want = listed_flow(w, rows, c, written_out_root, listed_alive)
    assert same_bits(got, want)
    assert same_bits(w, kept)             # the caller's points are not written
    assert got is not w
    if leg == "masked forward":
        assert np.array_equal(alive, listed_alive)
        assert not alive[0, 0] and 0 < np.count_nonzero(~alive) < alive.size
        # the mask only records: the points are those of the unmasked leg
        assert same_bits(got, revsle.montecarlo._flow(w, rows, c))
