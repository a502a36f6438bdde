"""Golden outputs of the grid oracle: the SHA-256 of the raw bytes of every
per-coordinate and joint grid result on seeded scenario slots.

The oracle is the reference the solver blocks are checked against, so a
rewrite of its search loops must keep each result bit for bit. A change
that means to move a result updates the digest here and says why.
"""

import hashlib

import numpy as np

from jcorm.oracle import grid_joint, grid_sp1, grid_sp2, grid_sp3, grid_sp4

from conftest import random_fixed_decision, scenario_ctx

GRID_DIGEST = "55ee3b77815bd6b9aa78787fea680fa6e5d0fba8c0f8ea74c50854fd31ae3005"
JOINT_DIGEST = "f40b312edc548339709d2fe1df5c8e76955e6f696ef4ececf556abebbf349253"


def _grid_instances():
    """(ctx, decision) pairs over seeds, full and nearly empty buffers, two
    ratio ranges and loose or tight deadlines, with some UAVs offloading
    nothing."""
    rng = np.random.default_rng(2024)
    for seed in range(12):
        for storage_frac in (1.0, 0.02):
            for gamma_hi in (0.9, 1.0):
                for deadline_scale in (1.0, 0.3):
                    ctx, _ = scenario_ctx(seed=seed, slot=seed % 10,
                                          storage_frac=storage_frac)
                    fixed = random_fixed_decision(ctx, rng, gamma_hi=gamma_hi)
                    fixed.gamma[rng.random(ctx.num_uavs) < 0.2] = 0.0
                    fixed.delta_tol *= deadline_scale
                    yield ctx, fixed


def test_per_coordinate_grids_are_bit_identical():
    digest = hashlib.sha256()
    for ctx, fixed in _grid_instances():
        for search in (grid_sp1, grid_sp2, grid_sp3, grid_sp4):
            res = search(ctx, fixed)
            for arr in (res.feasible, res.best, res.best_obj):
                digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == GRID_DIGEST


def test_joint_grid_is_bit_identical():
    digest = hashlib.sha256()
    for num_uavs in (1, 2):
        for seed in range(4):
            # an empty buffer leaves no feasible cell
            storage_frac = 0.0 if seed == 3 else 1.0
            ctx, _ = scenario_ctx(seed=seed, slot=seed, num_uavs=num_uavs,
                                  storage_frac=storage_frac)
            for points in (2, 9):
                res = grid_joint(ctx, points)
                digest.update(bytes([res.feasible]))
                digest.update(np.float64(res.best_obj_mbit).tobytes())
                if res.feasible:
                    d = res.decision
                    for arr in (d.power, d.f_leo, d.delta_tol, d.gamma):
                        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == JOINT_DIGEST
