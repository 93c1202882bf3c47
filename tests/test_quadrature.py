import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kinreduce
from kinreduce import ParameterError, gauss_hermite_rule, integrate, truncated_rule
from kinreduce.quadrature import default_half_width, moments

SQRT_PI = np.sqrt(np.pi)


def test_gauss_hermite_order_one():
    rule = gauss_hermite_rule(1)
    assert rule.nodes == pytest.approx([0.0], abs=0.0)
    assert rule.weights == pytest.approx([1.7724538509055159], rel=1e-15)


def test_gauss_hermite_order_two():
    # roots of H2(x) = 4x^2 - 2; weights by exactness on {1, x^2}
    rule = gauss_hermite_rule(2)
    assert rule.nodes == pytest.approx([-np.sqrt(0.5), np.sqrt(0.5)], rel=1e-14)
    assert rule.weights == pytest.approx([SQRT_PI / 2, SQRT_PI / 2], rel=1e-14)


def test_gauss_hermite_order_three():
    rule = gauss_hermite_rule(3)
    assert rule.nodes == pytest.approx([-np.sqrt(1.5), 0.0, np.sqrt(1.5)], rel=1e-14)
    assert rule.weights == pytest.approx(
        [SQRT_PI / 6, 2 * SQRT_PI / 3, SQRT_PI / 6], rel=1e-13
    )


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_gauss_hermite_polynomial_exactness(n):
    rule = gauss_hermite_rule(n)
    # moments of e^{-x^2}: odd vanish, even are Gamma((k+1)/2)
    from math import gamma

    for k in range(2 * n):
        got = integrate(rule.nodes**k, rule)
        if k % 2:
            # normalize by the cancellation scale of the signed sum
            scale = float(np.abs(rule.weights * rule.nodes**k).sum())
            assert abs(got) <= 1e-12 * max(scale, 1.0)
        else:
            assert got == pytest.approx(gamma((k + 1) / 2), rel=1e-12)


@pytest.mark.parametrize("n", [2, 7, 33, 64])
def test_gauss_hermite_odd_exactness(n):
    rule = gauss_hermite_rule(n)
    vals = rule.nodes ** (2 * n - 1)
    scale = float(np.abs(rule.weights * vals).sum())
    assert abs(integrate(vals, rule)) <= 1e-12 * max(scale, 1.0)


@pytest.mark.parametrize("bad", [0, 65, -3])
def test_gauss_hermite_rejects_bad_order(bad):
    with pytest.raises(ParameterError):
        gauss_hermite_rule(bad)


def test_truncated_rule_single_cell_length():
    rule = truncated_rule(1.0, 1)
    assert integrate(np.ones(len(rule)), rule) == pytest.approx(2.0, rel=1e-14)


def test_truncated_rule_gaussian():
    rule = truncated_rule(8.0, 64)
    got = integrate(np.exp(-rule.nodes**2 / 2), rule)
    assert got == pytest.approx(np.sqrt(2 * np.pi), abs=1e-12)
    assert abs(integrate(rule.nodes * np.exp(-rule.nodes**2 / 2), rule)) < 1e-14


def test_truncated_rule_weights_sum():
    for L, cells in [(3.0, 4), (8.0, 64), (11.5, 37)]:
        rule = truncated_rule(L, cells)
        assert np.add.reduce(rule.weights) == pytest.approx(2 * L, rel=1e-13)


def test_truncated_rule_nodes_inside_domain():
    rule = truncated_rule(5.0, 16)
    assert np.all(np.abs(rule.nodes) <= 5.0)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)


def test_integrate_zeros_and_length_mismatch(grid):
    assert integrate(np.zeros(len(grid)), grid) == 0.0
    with pytest.raises(ParameterError):
        integrate(np.ones(len(grid) - 1), grid)


def test_integrals_of_a_stack_are_its_rows_integrals(grid, rng):
    """A row's integral and moments have the same bits alone, in a stack
    of any shape and in any memory layout."""
    vals = rng.normal(size=(6, len(grid)))
    total, raw = integrate(vals, grid), moments(vals, grid, 4)
    assert total.shape == (6,) and raw.shape == (6, 5)
    assert np.array_equal(raw[:, 0], total)
    for i in range(6):
        assert integrate(vals[i], grid) == total[i]
        assert np.array_equal(moments(vals[i], grid, 4), raw[i])
    assert np.array_equal(integrate(vals.reshape(2, 3, -1), grid), total.reshape(2, 3))
    assert np.array_equal(integrate(np.asfortranarray(vals), grid), total)
    assert np.array_equal(moments(np.repeat(vals, 2, axis=1)[:, ::2], grid, 4), raw)
    want = [integrate(vals * grid.nodes**k, grid) for k in range(5)]
    assert np.allclose(raw, np.stack(want, axis=1), rtol=1e-13, atol=1e-13)
    with pytest.raises(ParameterError):
        moments(vals[:, 1:], grid, 2)


# the bytes of a reference run (snapshots, totals, entropy) and of the
# conservative right-hand side on 200 sampled CM(2) rows, BGK and Shakhov
KERNEL_RUNS = """
import hashlib, numpy as np
from kinreduce import (CollisionModel, ConservativeMoment, DistributionField, MomentState,
                       SpatialMesh, maxwellian, truncated_rule)
from kinreduce.ansatz import _moment_jet
from kinreduce.reduced_solver import _cm_rhs
from kinreduce.reference_solver import run_reference
grid, mesh = truncated_rule(9.0, 64), SpatialMesh(cells=24, length=1.0)
rho = 1.0 + 0.2 * np.sin(2 * np.pi * mesh.centers())
f0 = DistributionField(rho[:, None] * maxwellian(MomentState(1.0, 0.3, 1.0), grid), grid, mesh)
ref = run_reference(CollisionModel(kind="bgk", tau=0.1), f0, 0.02, output_interval=0.01)
digest = hashlib.sha256(ref.snapshots.tobytes() + ref.moment_totals.tobytes()
                        + ref.entropy.tobytes())
cm = ConservativeMoment(2)
omegas = cm.sample_batch(np.random.default_rng(22), grid, 200)
C = _moment_jet(cm, omegas, grid)[0]
for model in (CollisionModel(kind="bgk", tau=0.1),
              CollisionModel(kind="shakhov", tau=0.1, prandtl=2 / 3)):
    rhs = _cm_rhs(cm, model, grid, SpatialMesh(cells=200, length=1.0), C, omegas, np.ones(200))
    digest.update(rhs.tobytes())
print(digest.hexdigest())
"""


def test_runs_do_not_depend_on_the_blas_kernel():
    """A reference run and the conservative right-hand side computed
    under OpenBLAS's Prescott kernels have the bytes of the ones
    computed under the default kernel: their integrals make no BLAS
    call."""
    src = str(Path(kinreduce.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        run = subprocess.run([sys.executable, "-c", KERNEL_RUNS], env={**env, **kernel},
                             capture_output=True, text=True, timeout=300, check=True)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_integrate_on_hermite_nodes_squared():
    rule = gauss_hermite_rule(2)
    assert integrate(rule.nodes**2, rule) == pytest.approx(SQRT_PI / 2, rel=1e-14)


def test_integrate_linearity(grid, rng):
    for _ in range(25):
        a, b = rng.normal(size=2)
        f = rng.normal(size=len(grid))
        g = rng.normal(size=len(grid))
        lhs = integrate(a * f + b * g, grid)
        rhs = a * integrate(f, grid) + b * integrate(g, grid)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        truncated_rule(0.0, 8)
    with pytest.raises(ParameterError):
        truncated_rule(1.0, 0)
    with pytest.raises(ParameterError):
        default_half_width(0.0, -1.0)


def test_default_half_width_formula():
    assert default_half_width(0.5, 1.0) == pytest.approx(8.5)
    assert default_half_width(-0.5, 4.0) == pytest.approx(16.5)
