"""LP symmetrizability vs the closed-form oracle, and the set transform."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import bitflip_symmetrizable
from scipy.optimize import linprog

from winavc.core import Channel, ConstraintSet, Distribution, InfeasibleSetError
from winavc.lp import SimplexError
from winavc.symmetrize import (
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

    @pytest.mark.parametrize("p0", [0.3, 0.6])
    def test_tiny_state_coefficients(self, p0):
        # Q(2) <= 0 written with a coefficient of 6e-8: pivoting on that row
        # once turned roundoff into a map with a negative entry
        table = np.array([[[0.75, 0.5, 1.0], [0.5, 1.0, 0.5], [1.0, 1.0, 1.0]],
                          [[1.0, 1.0, 1.0], [0.5, 1.0, 1.0], [1.0, 1.0, 1.0]]])
        ch = Channel(table / table.sum(axis=2, keepdims=True))
        lam = ConstraintSet(3, [([0.0, 0.0, 5.960464477539063e-08], 0.0)])
        res = ecn_symmetrizable(Distribution([p0, 1.0 - p0]), ch, lam)
        assert res.feasible
        assert res.residual <= 1e-9
        assert res.witness_matrix()[:, 2].max() <= 1e-9

    def test_verdict_matches_min_state_cost(self):
        # P is symmetrizable exactly when lambda_0(P) <= b, where lambda_0(P) is
        # the least cost sum_x P(x) sum_s U(s|x) c(s) of a symmetrizing U
        # (+inf when none exists), computed here by scipy's linprog.
        verdicts = set()
        for i in range(300):
            rng = np.random.default_rng(i)
            nx, ns, ny = rng.integers(2, 4, size=3)
            table = rng.dirichlet(np.ones(ny), size=(nx, ns))
            if i % 2:
                table = rng.multinomial(10, table) / 10  # rows on 0.1: structural zeros
            channel = Channel(table)
            c = rng.uniform(-1.0, 1.0, ns)
            b = float(c.min() + rng.random() * (c.max() - c.min()))
            p_x = Distribution(rng.dirichlet(np.ones(nx)))

            lam0 = _min_symmetrizing_cost(p_x.probs, table, c)
            if abs(lam0 - b) < 1e-7:
                continue
            res = ecn_symmetrizable(p_x, channel, ConstraintSet(ns, [(c, b)]))
            assert res.feasible == (lam0 <= b), (i, lam0, b)
            verdicts.add(res.feasible)
        assert verdicts == {True, False}


def _min_symmetrizing_cost(p, w, c):
    """min over maps U with sum_s U(s|x') W(y|x,s) = sum_s U(s|x) W(y|x',s) for
    every ordered pair x != x' and y, of sum_x p(x) sum_s U(s|x) c(s)."""
    nx, ns, ny = w.shape
    sym = np.zeros((nx, nx, ny, nx, ns))  # rows (x, x', y) on u[x'', s]
    for x in range(nx):
        for xp in range(nx):
            sym[x, xp, :, xp, :] += w[x].T
            sym[x, xp, :, x, :] -= w[xp].T
    a_eq = np.vstack([sym.reshape(-1, nx * ns), np.kron(np.eye(nx), np.ones(ns))])
    b_eq = np.concatenate([np.zeros(nx * nx * ny), np.ones(nx)])
    res = linprog(np.outer(p, c).ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if res.status == 2:
        return float("inf")
    assert res.status == 0, res.message
    return float(res.fun)


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
        witness = scan_nonsymmetrizable(
            ConstraintSet.weight_cap(0.3), XOR, ConstraintSet.weight_cap(0.1)
        )
        assert witness is not None
        assert witness.probs[1] > 0.1

    def test_empty_in_symmetrizable_regime(self):
        witness = scan_nonsymmetrizable(
            ConstraintSet.weight_cap(0.1), XOR, ConstraintSet.weight_cap(0.2)
        )
        assert witness is None

    def test_single_point_set(self):
        point = ConstraintSet(
            2, [([0.0, 1.0], 0.3), ([0.0, -1.0], -0.3)]
        )  # weight exactly 0.3
        witness = scan_nonsymmetrizable(point, XOR, ConstraintSet.weight_cap(0.1))
        assert witness is not None
        assert abs(witness.probs[1] - 0.3) < 1e-6

    @settings(max_examples=150)
    @given(w=st.integers(2, 48), p=st.integers(2, 48), alpha=st.sampled_from([1.0, 0.5, 0.25]))
    @example(w=20, p=20, alpha=1.0)  # w = p
    @example(w=10, p=20, alpha=0.5)  # w / alpha = p
    @example(w=5, p=20, alpha=0.25)
    def test_bitflip_exact(self, w, p, alpha):
        # Bern(w') is symmetrizable exactly when w' <= p, and the enlarged cap
        # w' = w / alpha is the heaviest law of gamma_prime
        w, p = w / 100, p / 100
        gamma = gamma_prime(ConstraintSet.weight_cap(w), alpha)
        witness = scan_nonsymmetrizable(gamma, XOR, ConstraintSet.weight_cap(p))
        assert (witness is not None) == (w / alpha > p)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_random_channels_agree_with_lattice(self, data):
        nx = data.draw(st.integers(2, 3), label="nx")
        ns = data.draw(st.integers(2, 3), label="ns")
        ny = data.draw(st.integers(2, 3), label="ny")
        weights = st.floats(0.01, 1.0)
        table = np.array(data.draw(
            st.lists(weights, min_size=nx * ns * ny, max_size=nx * ns * ny), label="table"
        )).reshape(nx, ns, ny)
        channel = Channel(table / table.sum(axis=2, keepdims=True))

        def half_space(dim, label):
            c = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim,
                                            max_size=dim), label=label))
            t = data.draw(st.floats(0.0, 1.0), label=label + " bound")
            return c, float(c.min() + t * (c.max() - c.min()))

        k = data.draw(st.integers(1, 2), label="lambda inequalities")
        try:
            gamma = ConstraintSet(nx, [half_space(nx, "gamma")])
            lam = ConstraintSet(ns, [half_space(ns, f"lambda {i}") for i in range(k)])
        except InfeasibleSetError:
            assume(False)

        witness = scan_nonsymmetrizable(gamma, channel, lam)
        if witness is not None:
            assert gamma.contains(witness, tol=1e-7)
            assert not ecn_symmetrizable(witness, channel, lam).feasible
        # grid_points admits points up to an absolute 1e-9 outside gamma, which
        # for tiny coefficients is far outside it; only points inside count
        inside = [p for p in gamma.grid_points(11) if gamma.contains(p, tol=0.0)]
        if any(not ecn_symmetrizable(p, channel, lam).feasible for p in inside):
            assert witness is not None

    def test_state_blind_channel(self):
        # W(y|x, s) = V(y|x) with distinct rows: no map symmetrizes it
        rows = np.array([[0.9, 0.1], [0.2, 0.8]])
        channel = Channel(np.repeat(rows[:, None, :], 2, axis=1))
        assert not ecn_symmetrizable(Distribution([0.5, 0.5]), channel,
                                     ConstraintSet.weight_cap(0.5)).feasible
        gamma = ConstraintSet.weight_cap(0.3)
        witness = scan_nonsymmetrizable(gamma, channel, ConstraintSet.weight_cap(0.5))
        assert witness is not None
        assert gamma.contains(witness)

    def test_infeasible_simplex_point_raises(self):
        # The scan's LP pivots on the 9.4e-7 state coefficient and ends at a
        # "law" summing to 1.047; the solver must refuse it, not return it.
        table = np.array([0.5, 1, 1, 1, 1, 1, 1, 0.25, 1, 1, 1, 1]).reshape(2, 3, 2)
        channel = Channel(table / table.sum(axis=2, keepdims=True))
        lam = ConstraintSet(3, [([-9.37525e-7, 1.0, 0.0], -9.37525e-7)])
        gamma = ConstraintSet(2, [([0.0, 1.0], 1.0)])
        with pytest.raises(SimplexError, match="infeasible point"):
            scan_nonsymmetrizable(gamma, channel, lam)
