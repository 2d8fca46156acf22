"""LP symmetrizability vs the closed-form oracle, and the set transform."""

import itertools

import numpy as np
import pytest

from winavc.core import Channel, ConstraintSet, Distribution
from winavc.symmetrize import (
    bitflip_symmetrizable,
    ecn_symmetrizable,
    gamma_prime,
    scan_nonsymmetrizable,
    symmetrization_residual,
)

XOR = Channel.xor()


class TestEcnSymmetrizable:
    def test_feasible_case(self):
        res = ecn_symmetrizable(
            Distribution.bernoulli(0.1), XOR, ConstraintSet.weight_cap(0.2)
        )
        assert res.feasible
        assert res.residual <= 1e-7
        assert ConstraintSet.weight_cap(0.2).contains(res.marginal, tol=1e-7)
        for row in res.witness:
            assert row.probs.sum() == pytest.approx(1.0)

    def test_infeasible_case(self):
        res = ecn_symmetrizable(
            Distribution.bernoulli(0.3), XOR, ConstraintSet.weight_cap(0.1)
        )
        assert not res.feasible
        assert res.witness is None

    def test_full_simplex_always_feasible_for_xor(self):
        # U(s|x) = 1{s = x} symmetrizes the additive channel; with an
        # unconstrained state set every input law is symmetrizable.
        lam = ConstraintSet(2)
        for wt in (0.05, 0.3, 0.5):
            res = ecn_symmetrizable(Distribution.bernoulli(wt), XOR, lam)
            assert res.feasible

    def test_identity_map_is_a_witness_for_xor(self):
        ident = (Distribution.point_mass(0, 2), Distribution.point_mass(1, 2))
        assert symmetrization_residual(ident, XOR) == 0.0

    def test_oracle_agreement_grid(self):
        # closed form: Bern(w) symmetrizable iff w <= p
        for w in np.linspace(0.05, 0.45, 9):
            for p in np.linspace(0.05, 0.45, 9):
                if abs(w - p) < 0.02:
                    continue
                got = ecn_symmetrizable(
                    Distribution.bernoulli(w), XOR, ConstraintSet.weight_cap(p)
                ).feasible
                assert got == bitflip_symmetrizable(w, p), (w, p)

    def test_witness_reverifies(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            nx, ns, ny = rng.integers(2, 4, size=3)
            ch = Channel(rng.dirichlet(np.ones(ny), size=(nx, ns)))
            p_x = Distribution(rng.dirichlet(np.ones(nx)))
            lam = ConstraintSet(ns)
            res = ecn_symmetrizable(p_x, ch, lam)
            if res.feasible:
                assert res.residual <= 1e-7
                u = res.witness_matrix()
                marg = p_x.probs @ u
                assert np.allclose(marg.sum(), 1.0, atol=1e-9)

    def test_enlarging_lambda_preserves_feasibility(self):
        # symmetrizable under a small state set stays symmetrizable under
        # a larger one
        rng = np.random.default_rng(22)
        for _ in range(40):
            w = float(rng.uniform(0.02, 0.45))
            p_small = float(rng.uniform(0.02, 0.45))
            p_big = min(0.49, p_small + float(rng.uniform(0.0, 0.3)))
            small = ecn_symmetrizable(
                Distribution.bernoulli(w), XOR, ConstraintSet.weight_cap(p_small)
            ).feasible
            big = ecn_symmetrizable(
                Distribution.bernoulli(w), XOR, ConstraintSet.weight_cap(p_big)
            ).feasible
            if small:
                assert big


class TestBitflipOracle:
    def test_examples(self):
        assert bitflip_symmetrizable(0.1, 0.2) is True
        assert bitflip_symmetrizable(0.3, 0.1) is False
        assert bitflip_symmetrizable(0.2, 0.2) is True  # non-strict boundary

    def test_domain(self):
        with pytest.raises(ValueError):
            bitflip_symmetrizable(0.5, 0.1)
        with pytest.raises(ValueError):
            bitflip_symmetrizable(0.1, 0.6)


class TestGammaPrime:
    def test_halving_doubles_the_cap(self):
        g = gamma_prime(ConstraintSet.weight_cap(0.2), 0.5)
        hi, _ = g.max_linear([0.0, 1.0])
        assert hi == pytest.approx(0.4, abs=1e-12)

    def test_alpha_one_is_identity(self):
        g0 = ConstraintSet.weight_cap(0.2)
        assert gamma_prime(g0, 1.0) is g0

    def test_small_alpha_caps_at_simplex(self):
        g = gamma_prime(ConstraintSet.weight_cap(0.2), 0.2)
        # bound becomes 1.0: no constraint beyond the simplex
        hi, _ = g.max_linear([0.0, 1.0])
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_contains_original_set(self):
        # T2 = T1 shows gamma is always inside its enlargement
        for alpha in (0.25, 0.5, 0.75, 1.0):
            g0 = ConstraintSet(
                3, [([0.0, 1.0, 1.0], 0.3), ([0.0, 0.0, 1.0], 0.1)]
            )
            g1 = gamma_prime(g0, alpha)
            for v in g0.vertices():
                assert g1.contains(v, tol=1e-9)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            gamma_prime(ConstraintSet.weight_cap(0.2), 0.0)
        with pytest.raises(ValueError):
            gamma_prime(ConstraintSet.weight_cap(0.2), 1.2)


class TestScan:
    def test_nonempty_when_cap_exceeds_state_budget(self):
        found = scan_nonsymmetrizable(
            ConstraintSet.weight_cap(0.3), XOR, ConstraintSet.weight_cap(0.1)
        )
        assert found
        assert any(p.probs[1] > 0.1 for p in found)

    def test_empty_in_symmetrizable_regime(self):
        found = scan_nonsymmetrizable(
            ConstraintSet.weight_cap(0.1), XOR, ConstraintSet.weight_cap(0.2)
        )
        assert found == []

    def test_single_point_set(self):
        point = ConstraintSet(
            2, [([0.0, 1.0], 0.3), ([0.0, -1.0], -0.3)]
        )  # weight exactly 0.3
        found = scan_nonsymmetrizable(point, XOR, ConstraintSet.weight_cap(0.1))
        assert len(found) >= 1
        assert all(abs(p.probs[1] - 0.3) < 1e-6 for p in found)
