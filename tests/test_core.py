"""Core probability primitives: construction contracts and stated examples."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes
from oracles import mutual_information
from scipy.stats import chisquare

from winavc import core
from winavc.core import (
    Channel,
    ConstraintSet,
    Distribution,
    InfeasibleSetError,
    binary_convolution,
    binary_entropy,
    bitflip_spec,
    channel_sample_rows,
    entropy,
    sample_iid,
)


class TestDistribution:
    def test_normalizes(self):
        d = Distribution([0.5, 0.5])
        assert d.probs.sum() == 1.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution([1.2, -0.2])

    def test_immutable(self):
        d = Distribution.bernoulli(0.3)
        with pytest.raises((ValueError, AttributeError)):
            d.probs[0] = 0.0

    def test_point_mass_and_uniform(self):
        assert Distribution.point_mass(1, 3).probs.tolist() == [0.0, 1.0, 0.0]
        assert entropy(Distribution([0.5, 0.5])) == pytest.approx(1.0)


class TestBinaryConvolution:
    def test_formula(self):
        assert binary_convolution(0.1, 0.2) == pytest.approx(0.26)

    def test_identity(self):
        for p in (0.0, 0.3, 0.51):
            assert binary_convolution(p, 0.0) == pytest.approx(p)

    def test_half_fixed_point(self):
        for w in (0.0, 0.2, 0.49):
            assert binary_convolution(0.5, w) == pytest.approx(0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_convolution(1.2, 0.1)


class TestEntropy:
    def test_uniform_max(self):
        assert entropy(Distribution([0.5, 0.5])) == pytest.approx(1.0)

    def test_point_mass_zero(self):
        assert entropy(Distribution.point_mass(0, 4)) == 0.0

    def test_binary_value(self):
        assert binary_entropy(0.1) == pytest.approx(0.46900, abs=1e-4)

    def test_bounds_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            d = Distribution(rng.dirichlet(np.ones(k)))
            h = entropy(d)
            assert -1e-12 <= h <= np.log2(k) + 1e-12


class TestMutualInformation:
    def test_noiseless_xor(self):
        v = mutual_information(
            Distribution([0.5, 0.5]), Distribution.point_mass(0, 2), Channel.xor()
        )
        assert v == pytest.approx(1.0)

    def test_uniform_state_kills_information(self):
        v = mutual_information(
            Distribution.bernoulli(0.3), Distribution([0.5, 0.5]), Channel.xor()
        )
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_value(self):
        # joint-pmf summation oracle
        p_x, q_s = Distribution.bernoulli(0.2), Distribution.bernoulli(0.1)
        w = Channel.xor()
        joint = np.zeros((2, 2))
        for x in range(2):
            for s in range(2):
                for y in range(2):
                    joint[x, y] += p_x.probs[x] * q_s.probs[s] * w.table[x, s, y]
        px = joint.sum(axis=1)
        py = joint.sum(axis=0)
        expect = sum(
            joint[x, y] * np.log2(joint[x, y] / (px[x] * py[y]))
            for x in range(2)
            for y in range(2)
            if joint[x, y] > 0
        )
        assert expect == pytest.approx(0.3578, abs=1e-4)
        got = mutual_information(p_x, q_s, w)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_matches_convolution_formula(self):
        # exact identity on the XOR channel
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = rng.uniform(0.01, 0.99, size=2)
            got = mutual_information(
                Distribution.bernoulli(a), Distribution.bernoulli(b), Channel.xor()
            )
            want = binary_entropy(binary_convolution(a, b)) - binary_entropy(b)
            assert got == pytest.approx(want, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            nx, ns, ny = rng.integers(2, 4, size=3)
            w = Channel(rng.dirichlet(np.ones(ny), size=(nx, ns)))
            p_x = Distribution(rng.dirichlet(np.ones(nx)))
            q_s = Distribution(rng.dirichlet(np.ones(ns)))
            v = mutual_information(p_x, q_s, w)
            assert -1e-12 <= v <= min(entropy(p_x), np.log2(ny)) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mutual_information(
                Distribution([1 / 3, 1 / 3, 1 / 3]), Distribution([0.5, 0.5]), Channel.xor()
            )


class TestBlockChannel:
    def test_deterministic_xor(self):
        rng = np.random.default_rng(0)
        y = channel_sample_rows([[0, 1, 1, 0]], [[0, 0, 0, 0]], Channel.xor(), [rng])
        assert y.tolist() == [[0, 1, 1, 0]]
        y = channel_sample_rows([[0, 1, 1, 0]], [[1, 1, 1, 1]], Channel.xor(), [rng])
        assert y.tolist() == [[1, 0, 0, 1]]

    def test_identity_in_x(self):
        table = np.zeros((2, 2, 2))
        for x in range(2):
            for s in range(2):
                table[x, s, x] = 1.0
        ch = Channel(table)
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, size=(1, 32))
        s = rng.integers(0, 2, size=(1, 32))
        assert channel_sample_rows(x, s, ch, [rng]).tolist() == x.tolist()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            channel_sample_rows([[0, 1]], [[0]], Channel.xor(), [np.random.default_rng(0)])

    def test_generator_count_mismatch(self):
        rngs = [np.random.default_rng(s) for s in range(3)]
        with pytest.raises(ValueError, match="one generator per row"):
            channel_sample_rows(np.zeros((2, 4), int), np.zeros((2, 4), int), Channel.xor(), rngs)

    def test_one_dimensional_input(self):
        with pytest.raises(ValueError, match=r"\(rows, n\)"):
            channel_sample_rows([0, 1, 1, 0], [0, 0, 0, 0], Channel.xor(),
                                [np.random.default_rng(0)])

    def test_edge_uniforms_follow_xor(self, edge_rng):
        # no uniform may pick an output of probability zero
        x = np.array([[1, 1, 0]])
        s = np.array([[0, 0, 1]])
        y = channel_sample_rows(x, s, Channel.xor(), [edge_rng])
        assert y.tolist() == (x ^ s).tolist()

    def test_empirical_law_converges(self):
        # 1e5 samples of one (x, s) pair within 0.01 TV of the channel row
        rng = np.random.default_rng(42)
        table = np.array([[[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]],
                          [[0.1, 0.1, 0.8], [0.4, 0.4, 0.2]]])
        ch = Channel(table)
        n = 100_000
        y, = channel_sample_rows(np.ones((1, n), int), np.ones((1, n), int), ch, [rng])
        emp = np.bincount(y, minlength=3) / n
        tv = 0.5 * np.abs(emp - table[1, 1]).sum()
        assert tv < 0.01

    def test_block_matches_blocks_of_one(self):
        # each row draws only from its own generator
        rng = np.random.default_rng(43)
        table = rng.dirichlet(np.ones(3), size=(2, 2))
        x = rng.integers(0, 2, size=(8, 50))
        s = rng.integers(0, 2, size=(8, 50))
        block = channel_sample_rows(x, s, Channel(table), [np.random.default_rng(k) for k in range(8)])
        ones = [channel_sample_rows(x[k:k + 1], s[k:k + 1], Channel(table),
                                    [np.random.default_rng(k)])[0] for k in range(8)]
        assert np.array_equal(block, ones)


class TestSampleIid:
    @given(
        weights=st.lists(st.integers(0, 7), min_size=1, max_size=6).filter(any),
        shape=array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=8),
        seed=st.integers(0, 2**32 - 1),
    )
    # (1, 6, 3, 3)/13 has a cdf that ends at 1 - 2e-16
    @example(weights=[1, 6, 3, 3], shape=(64, 64), seed=0)
    @example(weights=[0, 0, 1, 6, 3, 3], shape=(0, 5), seed=1)
    @example(weights=[0, 4, 0], shape=(3, 8), seed=2)
    def test_int8_of_the_shape_on_the_support(self, weights, shape, seed):
        w = np.asarray(weights, dtype=float)
        p = Distribution(w / w.sum())
        got = sample_iid(p, shape, np.random.default_rng(seed))
        assert got.dtype == np.int8 and got.shape == tuple(shape)
        assert (p.probs[got] > 0).all()

    ROWS, COLS = 4096, 512  # a sweep cell's phase-1 codebook: 32 pieces of _SAMPLE_CHUNK

    @pytest.mark.parametrize("probs", [[0.9, 0.1], [0.2, 0.5, 0.3]],
                             ids=["bernoulli-0.1", "three-letters"])
    def test_codebook_law(self, probs):
        # symbol counts, and each column's symbol counts: a piece seam that
        # biased the positions around it would show in its columns
        p = Distribution(probs)
        got = sample_iid(p, (self.ROWS, self.COLS), np.random.default_rng(60))
        counts = np.stack([np.bincount(col, minlength=p.size) for col in got.T])
        assert chisquare(counts.sum(axis=0), got.size * p.probs).pvalue > 1e-3
        # each column's counts sum to ROWS: COLS * (size - 1) degrees of freedom
        expected = np.broadcast_to(self.ROWS * p.probs, counts.shape)
        assert chisquare(counts.ravel(), expected.ravel(), ddof=self.COLS - 1).pvalue > 1e-3

    # both cumulative sums end at 1 - 1e-16, below the largest uniform
    @pytest.mark.parametrize("probs", [[0.1] * 10, [0.1] * 10 + [0.0]],
                             ids=["ten-tenths", "trailing-zero"])
    def test_edge_uniforms_stay_in_support(self, edge_rng, probs):
        p = Distribution(probs)
        got = sample_iid(p, (3,), edge_rng)
        assert got.max() < 10
        assert (p.probs[got] > 0).all()


class TestConstraintSet:
    def test_membership_examples(self):
        lam = ConstraintSet.weight_cap(0.2)
        inside = Distribution.bernoulli(0.1)
        assert lam.contains(inside)
        assert not lam.contains(Distribution.bernoulli(0.3))
        boundary = Distribution.bernoulli(0.2)
        assert lam.contains(boundary)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleSetError):
            ConstraintSet(2, [([1.0, 1.0], 0.5)])  # sum <= 0.5 impossible

    def test_vertices_weight_cap(self):
        g = ConstraintSet.weight_cap(0.2)
        verts = sorted(v.probs[1] for v in g.vertices())
        assert verts == pytest.approx([0.0, 0.2])

    def test_vertices_unaffected_by_caller_mutation(self):
        g = ConstraintSet.weight_cap(0.2)
        first = g.vertices()
        first.clear()
        assert sorted(v.probs[1] for v in g.vertices()) == pytest.approx([0.0, 0.2])

    def test_grid_points_inside(self):
        g = ConstraintSet.weight_cap(0.3, dim=3)
        for p in g.grid_points(11):
            assert g.contains(p)

    @pytest.mark.parametrize("scale", [1e-12, 1e-3, 0.5])
    def test_row_scale_does_not_change_the_set(self, scale):
        # {scale * P0 <= 0} is the single law (0, 1), as {P0 <= 0} is
        small = ConstraintSet(2, [([scale, 0.0], 0.0)])
        unit = ConstraintSet(2, [([1.0, 0.0], 0.0)])
        for g in (small, unit):
            assert [p.probs.tolist() for p in g.grid_points(11)] == [[0.0, 1.0]]
            assert [v.probs.tolist() for v in g.vertices()] == [[0.0, 1.0]]
        for p in map(Distribution, ([1.0, 0.0], [1e-6, 1 - 1e-6], [0.0, 1.0])):
            assert small.contains(p) == unit.contains(p)

    def test_linear_extremes(self):
        g = ConstraintSet.weight_cap(0.25)
        hi, arg = g.max_linear([0.0, 1.0])
        assert hi == pytest.approx(0.25)
        assert arg.probs[1] == pytest.approx(0.25)
        lo, _ = g.min_linear([0.0, 1.0])
        assert lo == pytest.approx(0.0)


class TestWindowedAvcSpec:
    def test_alpha_recorded(self):
        spec = bitflip_spec(0.2, 0.1, 256, 64, 32)
        assert spec.alpha == pytest.approx(0.5)

    def test_window_bounds_validated(self):
        with pytest.raises(ValueError):
            bitflip_spec(0.2, 0.1, 64, 128, 32)
