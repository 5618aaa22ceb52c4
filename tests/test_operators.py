"""Operator contracts: adjoints, circulant convolution, decimation, dense oracles."""

import numpy as np
import pytest

from gsgs import (
    ComposedOperator,
    ConfigurationError,
    DecimationOperator,
    DenseOperator,
    DimensionError,
    IdentityOperator,
    RngState,
    SizeCapError,
    densify,
    make_circulant,
    max_adjoint_defect,
)

ADJOINT_TOL = 1e-10


def circ_conv_direct(grid, kernel, anchor):
    """O(N^2) circular convolution, the oracle for the FFT path."""
    rows, cols = grid.shape
    kr, kc = kernel.shape
    ar, ac = anchor
    out = np.zeros_like(grid)
    for p in range(rows):
        for q in range(cols):
            acc = 0.0
            for i in range(kr):
                for j in range(kc):
                    acc += kernel[i, j] * grid[(p - (i - ar)) % rows, (q - (j - ac)) % cols]
            out[p, q] = acc
    return out


def dense_decimation_oracle(hr_shape, factor, offsets):
    """Build the selection matrix by enumerating which pixel each row reads."""
    rows, cols = hr_shape
    lr, lc = rows // factor, cols // factor
    mat = np.zeros((len(offsets) * lr * lc, rows * cols))
    row = 0
    for dr, dc in offsets:
        for i in range(lr):
            for j in range(lc):
                mat[row, (dr + i * factor) * cols + (dc + j * factor)] = 1.0
                row += 1
    return mat


@pytest.fixture
def rng():
    return RngState(1234)


def test_identity_kernel_is_noop(rng):
    op = make_circulant((4, 4), [[1.0]], anchor=(0, 0))
    x = rng.generator.standard_normal(16)
    np.testing.assert_allclose(op.apply(x), x, atol=1e-13)


def test_mass_preserving_kernel_fixes_constants():
    op = make_circulant((8, 8), np.full((3, 3), 1.0 / 9.0))
    const = np.full(64, 3.7)
    np.testing.assert_allclose(op.apply(const), const, atol=1e-12)


def test_laplacian_annihilates_constants():
    op = make_circulant((6, 6), [[0, -1, 0], [-1, 4, -1], [0, -1, 0]])
    np.testing.assert_allclose(op.apply(np.full(36, 2.5)), np.zeros(36), atol=1e-12)


def test_delta_image_returns_shifted_kernel():
    kernel = np.arange(1.0, 7.0).reshape(2, 3)
    op = make_circulant((5, 5), kernel, anchor=(0, 1))
    delta = np.zeros(25)
    delta[0] = 1.0
    img = op.apply(delta).reshape(5, 5)
    # Tap (i, j) lands at ((i - ar) % rows, (j - ac) % cols).
    expected = np.zeros((5, 5))
    for i in range(2):
        for j in range(3):
            expected[i % 5, (j - 1) % 5] = kernel[i, j]
    np.testing.assert_allclose(img, expected, atol=1e-12)


def test_normal_product_spectrum_is_nonnegative():
    h = make_circulant((8, 8), np.full((5, 5), 1.0 / 25.0))
    hth_spectrum = np.conj(h.kernel_spectrum) * h.kernel_spectrum
    assert np.abs(hth_spectrum.imag).max() < 1e-12
    assert hth_spectrum.real.min() >= -1e-12


@pytest.mark.parametrize("shape,kernel,anchor", [
    ((6, 6), np.array([[0.0, -1, 0], [-1, 4, -1], [0, -1, 0]]), (1, 1)),
    ((16, 16), np.full((5, 5), 0.04), (2, 2)),
    ((5, 7), np.arange(6.0).reshape(2, 3), (0, 2)),
    ((16, 12), np.array([[1.0, 2.0]]), (0, 0)),
])
def test_circulant_matches_direct_convolution(shape, kernel, anchor, rng):
    op = make_circulant(shape, kernel, anchor=anchor)
    for _ in range(5):
        grid = rng.generator.standard_normal(shape)
        expected = circ_conv_direct(grid, np.atleast_2d(kernel), anchor)
        np.testing.assert_allclose(op.apply(grid.ravel()), expected.ravel(), atol=1e-12)


def test_circulant_rejects_oversized_stencil():
    with pytest.raises(DimensionError):
        make_circulant((2, 2), np.ones((3, 3)))


def test_decimation_selects_even_subgrid():
    op = DecimationOperator((4, 4), 2, [(0, 0)])
    grid = np.arange(16.0)
    np.testing.assert_array_equal(op.apply(grid), grid.reshape(4, 4)[::2, ::2].ravel())


def test_decimation_two_frames_out_dim():
    op = DecimationOperator((4, 4), 2, [(0, 0), (1, 1)])
    assert op.out_dim == 8


def test_decimation_matches_enumerated_matrix(rng):
    offsets = [(0, 0), (1, 1), (1, 0)]
    op = DecimationOperator((6, 4), 2, offsets)
    oracle = dense_decimation_oracle((6, 4), 2, offsets)
    np.testing.assert_array_equal(densify(op).matrix, oracle)
    y = rng.generator.standard_normal(op.out_dim)
    # Binary selection: scatter then select returns y exactly.
    np.testing.assert_array_equal(op.apply(op.adjoint_apply(y)), y)


def test_decimation_config_errors():
    with pytest.raises(ConfigurationError):
        DecimationOperator((4, 4), 3, [(0, 0)])
    with pytest.raises(ConfigurationError):
        DecimationOperator((4, 4), 2, [(0, 2)])
    with pytest.raises(ConfigurationError):
        DecimationOperator((4, 4), 2, [])


def test_compose_identity_pair(rng):
    ident = IdentityOperator(9)
    op = ComposedOperator([ident, ident])
    x = rng.generator.standard_normal(9)
    np.testing.assert_array_equal(op.apply(x), x)


def test_compose_matches_dense_product(rng):
    h = make_circulant((8, 8), np.full((3, 3), 1.0 / 9.0))
    s = DecimationOperator((8, 8), 2, [(0, 0), (1, 1)])
    sh = ComposedOperator([s, h])
    product = densify(s).matrix @ densify(h).matrix
    np.testing.assert_allclose(densify(sh).matrix, product, atol=1e-13)


def test_compose_dim_mismatch():
    with pytest.raises(DimensionError):
        ComposedOperator([IdentityOperator(4), IdentityOperator(5)])


def test_densify_identity():
    np.testing.assert_array_equal(densify(IdentityOperator(3)).matrix, np.eye(3))


def test_densify_small_circulant_by_hand():
    # 4x1 grid, taps [1, 2] anchored at the first tap: column j holds 1 on the
    # diagonal and 2 one row below, wrapping around.
    op = make_circulant((4, 1), [[1.0], [2.0]], anchor=(0, 0))
    expected = np.array([
        [1.0, 0.0, 0.0, 2.0],
        [2.0, 1.0, 0.0, 0.0],
        [0.0, 2.0, 1.0, 0.0],
        [0.0, 0.0, 2.0, 1.0],
    ])
    np.testing.assert_allclose(densify(op).matrix, expected, atol=1e-13)


def test_densified_blur_selection_rows_sum_to_kernel_mass():
    kernel = np.full((3, 3), 1.0 / 9.0)
    h = make_circulant((8, 8), kernel)
    s = DecimationOperator((8, 8), 2, [(0, 0)])
    mat = densify(ComposedOperator([s, h])).matrix
    # Periodic boundaries make every selected row an interior row.
    np.testing.assert_allclose(mat.sum(axis=1), np.full(16, kernel.sum()), atol=1e-12)


def test_densify_cap():
    with pytest.raises(SizeCapError):
        densify(IdentityOperator(4000), max_entries=10**6)


def test_densify_agrees_with_apply(rng):
    op = ComposedOperator([
        DecimationOperator((8, 8), 2, [(0, 0), (1, 0)]),
        make_circulant((8, 8), np.full((3, 3), 1.0 / 9.0)),
    ])
    dense = densify(op)
    for _ in range(20):
        x = rng.generator.standard_normal(op.in_dim)
        np.testing.assert_allclose(dense.apply(x), op.apply(x), atol=1e-13)


@pytest.mark.parametrize("build", [
    lambda: IdentityOperator(20),
    lambda: DenseOperator(np.random.default_rng(0).standard_normal((7, 12))),
    lambda: make_circulant((8, 8), np.full((5, 5), 0.04)),
    lambda: make_circulant((6, 9), [[1.0, -2.0, 1.0]], anchor=(0, 1)),
    lambda: DecimationOperator((8, 8), 2, [(0, 0), (1, 1), (0, 1)]),
    lambda: ComposedOperator([
        DecimationOperator((8, 8), 2, [(0, 0), (1, 0)]),
        make_circulant((8, 8), np.full((3, 3), 1.0 / 9.0)),
    ]),
])
def test_adjoint_identity(build, rng):
    assert max_adjoint_defect(build(), rng, trials=100) <= ADJOINT_TOL


def test_apply_is_linear(rng):
    op = make_circulant((8, 8), np.full((3, 3), 1.0 / 9.0))
    u = rng.generator.standard_normal(64)
    w = rng.generator.standard_normal(64)
    lhs = op.apply(2.5 * u + w)
    rhs = 2.5 * op.apply(u) + op.apply(w)
    assert np.abs(lhs - rhs).max() <= 1e-12 * (np.abs(rhs).max() + 1)


def test_operator_rejects_wrong_length():
    op = make_circulant((4, 4), [[1.0]])
    with pytest.raises(DimensionError):
        op.apply(np.zeros(15))
