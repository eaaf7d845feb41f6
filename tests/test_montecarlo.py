import math
import multiprocessing
import threading

import numpy as np
import pytest

from revsle.driving import TimeGrid, sample_brownian
from revsle.montecarlo import (McConfig, _xi_block, run_composed_stats,
                               run_inverse_consistency, run_martingale_test)
from revsle.observables import ObservableSpec


def one_point(y, a, b):
    return ObservableSpec(points=(y,), weights=(a,), exponents=(a, b))


DRIFT_FREE = one_point(1.0, -3.0, 3.0)   # kappa = 4: -3 = 3 - 4*3*2/4
WRONG_PAIR = one_point(1.0, -3.0, 2.0)   # drift coefficient -6


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(kappa=0.0, horizon=0.05, n_steps=10, n_samples=100,
                 master_seed=0, observable=DRIFT_FREE)
    with pytest.raises(ValueError):
        McConfig(kappa=4.0, horizon=0.05, n_steps=10, n_samples=50,
                 master_seed=0, observable=DRIFT_FREE)
    for kappa, horizon, n_steps in ((math.inf, 0.05, 10), (4.0, math.inf, 10),
                                    (4.0, 0.0, 10), (4.0, 0.05, 0)):
        with pytest.raises(ValueError):
            McConfig(kappa=kappa, horizon=horizon, n_steps=n_steps, n_samples=100,
                     master_seed=0, observable=DRIFT_FREE)
    with pytest.raises(ValueError):
        McConfig(kappa=4.0, horizon=0.05, n_steps=10, n_samples=100,
                 master_seed=0, observable=DRIFT_FREE,
                 checkpoints=(0.013,))   # not a grid time


def test_default_checkpoints_end_at_horizon():
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=100, n_samples=100,
                   master_seed=0, observable=DRIFT_FREE)
    idx = cfg.checkpoint_indices()
    assert len(idx) == 5
    assert idx[-1] == 100


@pytest.mark.parametrize("master,lo,hi", [(0, 0, 4), (7, 3, 10), (2**64, 4093, 4099)])
def test_xi_block_columns_are_sampled_paths(master, lo, hi):
    grid = TimeGrid(0.3, 17)
    xi = _xi_block(master, lo, hi, 2.5, grid.dt, grid.n_steps)
    assert xi.shape == (18, hi - lo) and xi.flags.c_contiguous
    for i in range(hi - lo):
        assert np.array_equal(xi[:, i], sample_brownian(grid, 2.5, master + lo + i).values)


def test_xi_block_composed_layout():
    # run_composed_stats: sample i drives forward with seed 2*master + 2i and
    # backward with 2*master + 2i + 1
    grid, master, lo, hi = TimeGrid(0.25, 9), 5, 2, 9
    xi = _xi_block(2 * master, 2 * lo, 2 * hi, 4.0, grid.dt, grid.n_steps)
    for j, i in enumerate(range(lo, hi)):
        fwd = sample_brownian(grid, 4.0, 2 * master + 2 * i).values
        bwd = sample_brownian(grid, 4.0, 2 * master + 2 * i + 1).values
        assert np.array_equal(xi[:, 0::2][:, j], fwd)
        assert np.array_equal(xi[:, 1::2][:, j], bwd)


# 4100 samples make two batches, so four workers start more than one thread
@pytest.mark.parametrize("engine", [
    lambda: run_martingale_test(McConfig(kappa=4.0, horizon=0.05, n_steps=3, n_samples=4100,
                                         master_seed=1, observable=DRIFT_FREE), workers=4),
    lambda: run_inverse_consistency(4.0, 0.05, 3, 4100, master_seed=1, workers=4),
    lambda: run_composed_stats(4.0, 0.05, 3, 4100, master_seed=1, workers=4),
], ids=["martingale", "inverse", "composed"])
def test_engine_leaves_no_thread_or_process(engine):
    before = threading.active_count()
    engine()
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


def test_constant_observable_mean_is_exactly_one():
    # a = b = 0 freezes every sample at 1; the stopping bookkeeping must not
    # disturb the mean even though many samples stop on this horizon
    cfg = McConfig(kappa=4.0, horizon=0.2, n_steps=200, n_samples=500,
                   master_seed=3, observable=one_point(1.0, 0.0, 0.0))
    rep = run_martingale_test(cfg)
    assert rep.f0 == 1.0
    for row in rep.rows:
        assert row.mean == 1.0
        assert row.z == 0.0
        assert row.n_alive + row.n_stopped == 500
    assert rep.rows[-1].n_stopped > 0   # stopping actually occurred
    assert rep.verdict


def test_constant_callable_observable():
    obs = ObservableSpec(points=(1.0,), weights=(0.0,), form="generic_callable",
                         func=lambda gp, g, xi: np.ones_like(g))
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=50, n_samples=200,
                   master_seed=1, observable=obs)
    rep = run_martingale_test(cfg)
    assert all(row.mean == 1.0 and row.z == 0.0 for row in rep.rows)


def test_drift_free_pair_passes():
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=100, n_samples=2000,
                   master_seed=11, observable=DRIFT_FREE)
    rep = run_martingale_test(cfg)
    assert rep.verdict
    assert all(abs(row.z) <= 3.0 for row in rep.rows)


def test_wrong_pair_fails_with_negative_drift():
    # residual 2a - 2b + kappa b(b-1)/2 = -6 < 0: the mean decays, roughly
    # linearly in t at small t
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=100, n_samples=20000,
                   master_seed=11, observable=WRONG_PAIR)
    rep = run_martingale_test(cfg)
    assert not rep.verdict
    dev = [rep.f0 - row.mean for row in rep.rows]
    assert all(d > 0.0 for d in dev)            # sign matches the residual
    assert rep.rows[-1].z < -3.0
    ratio = dev[-1] / dev[1]                    # t = 0.05 vs t = 0.02
    assert 1.5 <= ratio <= 4.0                  # ~2.5 for linear growth


def test_reproducible_across_worker_counts():
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=80, n_samples=9000,
                   master_seed=5, observable=DRIFT_FREE)
    rep1 = run_martingale_test(cfg, workers=1)
    rep3 = run_martingale_test(cfg, workers=3)
    assert rep1 == rep3
    assert rep1.csv_bytes() == rep3.csv_bytes()


def test_stderr_scales_with_sample_count():
    base = dict(kappa=4.0, horizon=0.05, n_steps=50, master_seed=17,
                observable=DRIFT_FREE)
    small = run_martingale_test(McConfig(n_samples=1000, **base))
    large = run_martingale_test(McConfig(n_samples=4000, **base))
    for r_small, r_large in zip(small.rows, large.rows):
        ratio = r_small.stderr / r_large.stderr
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


def test_report_serialization_round_trip():
    cfg = McConfig(kappa=4.0, horizon=0.05, n_steps=40, n_samples=200,
                   master_seed=2, observable=DRIFT_FREE)
    rep = run_martingale_test(cfg)
    payload = rep.to_json()
    assert payload["n_samples"] == 200
    assert len(payload["checkpoints"]) == len(rep.rows)
    lines = rep.csv_bytes().decode().strip().split("\n")
    assert lines[0] == "t,mean,stderr,z,n_alive,n_stopped"
    assert len(lines) == 1 + len(rep.rows)


# --- inverse consistency -------------------------------------------------------

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
    assert r1 == r4
    assert r1.csv_bytes() == r4.csv_bytes()


def test_inverse_nan_in_a_later_sample_fails_closed(nan_in_sample_1):
    nan_in_sample_1()
    rep = run_inverse_consistency(4.0, 1.0, 50, 20, master_seed=7)
    assert math.isfinite(rep.sample_errors[0]) and math.isnan(rep.sample_errors[1])
    assert not math.isfinite(rep.max_error)
    assert not rep.passed


def test_inverse_rejects_low_points():
    with pytest.raises(ValueError):
        run_inverse_consistency(4.0, 1.0, 100, 10, test_points=[0.5j])


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


def test_composed_rejects_boundary_grid():
    with pytest.raises(ValueError):
        run_composed_stats(4.0, 0.1, 10, 100, z_grid=[1.0 + 0.0j])
