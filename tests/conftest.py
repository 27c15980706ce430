import numpy as np
import pytest

from nlfb import (KernelSpec, build_grid, checkerboard_kernel, enumerate_lattice,
                  fractional_kernel, modulated_kernel)


@pytest.fixture(scope="session")
def grid_1d_small():
    # 20 nodes, 10 interior; fast enough for exhaustive checks
    return build_grid(1, 0.2, 2.0)


@pytest.fixture(scope="session")
def grid_1d_medium():
    return build_grid(1, 0.05, 2.0)


@pytest.fixture(scope="session")
def coarse_4node_grid():
    # +-0.25 interior, +-0.75 exterior: the minimal grid with both roles
    return enumerate_lattice(1, 0.5, 1.0, 0.5)


@pytest.fixture(scope="session")
def kernel_s05():
    return fractional_kernel(0.5)


def random_field_values(grid, rng, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, grid.n_nodes)


def family_kernel(family, dim, s, block):
    if family == "fractional_laplacian":
        return fractional_kernel(s, lam=1.5, dim=dim)
    if family == "modulated":
        return modulated_kernel(s, 1.0, 2.0, amplitude=1.0 / 3.0, frequency=1.0 / block,
                                multiplier=1.5, dim=dim)
    if family == "checkerboard":
        return checkerboard_kernel(s, 1.0, 3.0, block_size=block,
                                   multipliers=(1.0, 1.5, 3.0), dim=dim)
    return KernelSpec("custom_table", s, 1.0, 2.0, dim,
                      {"block_size": block, "table": {(0, 0): 1.5, (-1, 1): 2.0, (1, 2): 1.25}})
