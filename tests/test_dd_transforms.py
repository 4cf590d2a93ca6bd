"""Tests for the DD <-> time transforms against dense Kronecker oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from otfslink.dd_transforms import (
    dft_matrix,
    otfs_demodulate,
    otfs_modulate,
    stack_chains,
    unstack_chains,
)

GRID_SIZES = [1, 2, 4, 8, 16]


def random_grid(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


class TestDftMatrix:
    @pytest.mark.parametrize("size", GRID_SIZES)
    def test_unitary(self, size):
        f = dft_matrix(size)
        err = np.linalg.norm(f.conj().T @ f - np.eye(size))
        assert err < 1e-12

    @pytest.mark.parametrize("size", GRID_SIZES)
    def test_exactly_symmetric(self, size):
        f = dft_matrix(size)
        assert np.array_equal(f, f.T)

    def test_entry_formula(self):
        f = dft_matrix(4)
        for a in range(4):
            for b in range(4):
                expected = np.exp(-2j * np.pi * a * b / 4) / 2.0
                assert abs(f[a, b] - expected) < 1e-15

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            dft_matrix(0)


class TestOtfsModulate:
    def test_delta_grid(self):
        # single-row inverse DFT of a delta at (0, 0)
        grid = np.zeros((2, 2), dtype=complex)
        grid[0, 0] = 1.0
        out = otfs_modulate(grid)
        expected = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_single_doppler_bin_is_identity(self):
        rng = np.random.default_rng(0)
        grid = random_grid(rng, 5, 1)
        np.testing.assert_allclose(otfs_modulate(grid), grid.ravel(order="F"), atol=1e-15)

    def test_matches_dense_kronecker_oracle(self):
        rng = np.random.default_rng(1)
        grid = random_grid(rng, 4, 4)
        dense = np.kron(dft_matrix(4).conj().T, np.eye(4)) @ grid.ravel(order="F")
        assert np.max(np.abs(otfs_modulate(grid) - dense)) < 1e-12

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            otfs_modulate(np.zeros(4))

    def test_rejects_nonfinite(self):
        grid = np.zeros((2, 2))
        grid[0, 0] = np.nan
        with pytest.raises(ValueError):
            otfs_modulate(grid)


class TestOtfsDemodulate:
    def test_round_trip_8x8(self):
        rng = np.random.default_rng(2)
        grid = random_grid(rng, 8, 8)
        back = otfs_demodulate(otfs_modulate(grid), 8, 8)
        assert np.max(np.abs(back - grid)) < 1e-12

    def test_zero_frame(self):
        np.testing.assert_array_equal(otfs_demodulate(np.zeros(12, complex), 3, 4), np.zeros((3, 4)))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        m, n = 3, 4
        v = rng.standard_normal(m * n) + 1j * rng.standard_normal(m * n)
        frame = np.kron(dft_matrix(n).conj().T, np.eye(m)) @ v
        np.testing.assert_allclose(
            otfs_demodulate(frame, m, n), v.reshape((m, n), order="F"), atol=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            otfs_demodulate(np.zeros(5, complex), 2, 3)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from(GRID_SIZES),
    n=st.sampled_from(GRID_SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_property(m, n, seed):
    grid = random_grid(np.random.default_rng(seed), m, n)
    back = otfs_demodulate(otfs_modulate(grid), m, n)
    assert np.max(np.abs(back - grid)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from(GRID_SIZES),
    n=st.sampled_from(GRID_SIZES),
    seed=st.integers(0, 2**32 - 1),
)
def test_parseval_property(m, n, seed):
    grid = random_grid(np.random.default_rng(seed), m, n)
    frame = otfs_modulate(grid)
    norm = np.linalg.norm(grid)
    assert abs(np.linalg.norm(frame) - norm) < 1e-12 * norm


def test_leading_axes_match_one_call_per_grid():
    rng = np.random.default_rng(5)
    m, n = 4, 8
    grids = rng.standard_normal((3, 2, m, n)) + 1j * rng.standard_normal((3, 2, m, n))
    frames = otfs_modulate(grids)
    assert frames.shape == (3, 2, m * n)
    for f in range(3):
        for c in range(2):
            np.testing.assert_array_equal(frames[f, c], otfs_modulate(grids[f, c]))
    back = otfs_demodulate(frames, m, n)
    assert back.shape == grids.shape
    for f in range(3):
        for c in range(2):
            np.testing.assert_array_equal(back[f, c], otfs_demodulate(frames[f, c], m, n))
    assert np.max(np.abs(back - grids)) < 1e-12


class TestChainStacking:
    def test_two_frames(self):
        out = stack_chains([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0, 4.0])

    def test_single_chain_identity(self):
        frame = np.arange(6.0)
        np.testing.assert_array_equal(stack_chains([frame]), frame)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        signal = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        frames = unstack_chains(signal, 2)
        assert frames.shape == (2, 64)
        np.testing.assert_array_equal(stack_chains(frames), signal)

    def test_leading_frame_axis(self):
        frames = np.arange(12.0).reshape(2, 3, 2)  # 2 frames, 3 chains of length 2
        stacked = stack_chains(frames)
        np.testing.assert_array_equal(stacked, [np.arange(6.0), np.arange(6.0, 12.0)])
        np.testing.assert_array_equal(unstack_chains(stacked, 3), frames)

    def test_inconsistent_lengths(self):
        with pytest.raises(ValueError):
            stack_chains([np.zeros(3), np.zeros(4)])

    def test_unstack_indivisible(self):
        with pytest.raises(ValueError):
            unstack_chains(np.zeros(7), 2)

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            stack_chains([])
