"""Max-min solver vs closed form, saddle checks, and verdict logic."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mutual_information

from winavc import capacity
from winavc.capacity import (
    VERDICT_THM1,
    VERDICT_THM2,
    VERDICT_UNKNOWN,
    bitflip_list_capacity,
    list_capacity,
    oblivious_capacity,
    windowed_capacity_verdict,
    worst_case_mi,
)
from winavc.core import (
    Channel,
    ConstraintSet,
    Distribution,
    binary_entropy,
    bitflip_spec,
)

XOR = Channel.xor()

# The ternary benchmark's channel 0 and its sets, and its max-min to 7
# decimals, certified to within 3e-9 by a lattice sweep with golden-section
# refinement.
TERNARY_TABLE = np.random.default_rng(np.random.SeedSequence(8)).dirichlet(
    np.ones(3), size=(8, 3, 3))[0]
TERNARY_GAMMA = ConstraintSet(3, [([0.0, 1.0, 2.0], 0.8)])
TERNARY_LAM = ConstraintSet(3, [([0.0, 1.0, 2.0], 0.6)])
TERNARY_REFERENCE = 0.0924423


def weight_caps(w, p):
    return ConstraintSet.weight_cap(w), ConstraintSet.weight_cap(p)


def random_instances(seed, count):
    """(gamma, lam, channel) for `count` random 2-3 letter weight-cap instances."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nx = ns = int(rng.integers(2, 4))
        ny = int(rng.integers(2, 4))
        ch = Channel(rng.dirichlet(np.ones(ny), size=(nx, ns)))
        wvec = [0.0] + [1.0] * (nx - 1)
        gamma = ConstraintSet(nx, [(wvec, float(rng.uniform(0.2, 0.6)))])
        lam = ConstraintSet(ns, [(wvec[:ns], float(rng.uniform(0.2, 0.6)))])
        yield gamma, lam, ch


def seed7_instance(index):
    """The index-th (counting from 1) instance drawn from default_rng(7)."""
    return list(random_instances(7, index))[-1]


class TestBitflipClosedForm:
    def test_value(self):
        assert bitflip_list_capacity(0.2, 0.1) == pytest.approx(0.3578, abs=1e-4)

    def test_noiseless(self):
        for w in (0.1, 0.3, 0.45):
            assert bitflip_list_capacity(w, 0.0) == pytest.approx(binary_entropy(w))

    def test_zero_input_budget(self):
        assert bitflip_list_capacity(0.0, 0.2) == pytest.approx(0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            bitflip_list_capacity(0.5, 0.1)


class TestListCapacity:
    def test_matches_closed_form_example(self):
        res = list_capacity(*weight_caps(0.2, 0.1), XOR)
        assert res.value == pytest.approx(bitflip_list_capacity(0.2, 0.1), abs=1e-3)
        assert res.argmax_px.probs[1] == pytest.approx(0.2, abs=1e-4)
        assert res.argmin_qs.probs[1] == pytest.approx(0.1, abs=1e-4)

    def test_degenerate_inner(self):
        # point-mass state set: capacity is the constrained input entropy
        lam = ConstraintSet(2, [([0.0, 1.0], 0.0)])
        res = list_capacity(ConstraintSet.weight_cap(0.2), lam, XOR)
        assert res.value == pytest.approx(binary_entropy(0.2), abs=1e-6)

    def test_degenerate_outer(self):
        # point-mass input set: no information flows
        gamma = ConstraintSet(2, [([0.0, 1.0], 0.0)])
        res = list_capacity(gamma, ConstraintSet.weight_cap(0.1), XOR)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_closed_form_grid(self):
        for w in (0.05, 0.15, 0.25, 0.35, 0.45):
            for p in (0.05, 0.15, 0.25, 0.35, 0.45):
                res = list_capacity(*weight_caps(w, p), XOR)
                exact = bitflip_list_capacity(w, p)
                assert res.value == pytest.approx(exact, abs=1e-3), (w, p)
                assert res.lower - 1e-9 <= exact <= res.upper + 1e-9, (w, p)

    def test_result_invariants(self):
        res = list_capacity(*weight_caps(0.3, 0.15), XOR)
        gamma, lam = weight_caps(0.3, 0.15)
        assert res.value >= 0
        assert gamma.contains(res.argmax_px, tol=1e-6)
        assert lam.contains(res.argmin_qs, tol=1e-6)
        direct = mutual_information(res.argmax_px, res.argmin_qs, XOR)
        assert res.lower <= res.value <= res.upper
        assert res.lower - 1e-9 <= direct <= res.upper + 1e-9

    def test_saddle_property(self):
        gamma, lam = weight_caps(0.25, 0.1)
        res = list_capacity(gamma, lam, XOR)
        # perturbing the state law along feasible directions cannot reduce
        # the mutual information below value - tol
        for vtx in lam.vertices():
            for t in (0.05, 0.2):
                q = Distribution(
                    (1 - t) * res.argmin_qs.probs + t * vtx.probs
                )
                assert mutual_information(res.argmax_px, q, XOR) >= res.value - 1e-6
        # perturbing the input law cannot raise the worst-case value
        for vtx in gamma.vertices():
            for t in (0.05, 0.2):
                p = Distribution(
                    (1 - t) * res.argmax_px.probs + t * vtx.probs
                )
                val, _, _ = worst_case_mi(p, lam, XOR)
                assert val <= res.value + 1e-6

    def test_monotone_in_constraint_sets(self):
        base = list_capacity(*weight_caps(0.2, 0.1), XOR).value
        bigger_lam = list_capacity(*weight_caps(0.2, 0.2), XOR).value
        bigger_gamma = list_capacity(*weight_caps(0.3, 0.1), XOR).value
        assert bigger_lam <= base + 1e-9
        assert bigger_gamma >= base - 1e-9

    def test_ternary_channel_sanity(self):
        # ternary symmetric-ish channel: solver bracket must be consistent
        rng = np.random.default_rng(31)
        ch = Channel(rng.dirichlet(np.ones(3) * 5, size=(3, 3)))
        gamma = ConstraintSet(3, [([0.0, 1.0, 1.0], 0.5)])
        lam = ConstraintSet(3, [([0.0, 1.0, 1.0], 0.4)])
        res = list_capacity(gamma, lam, ch)
        assert res.value >= -1e-9
        assert res.lower <= res.value <= res.upper
        assert res.upper - res.lower <= 5e-3

    def test_structural_zeros_give_no_false_lower_bound(self):
        # y = x + s mod 3, so I = H(y) - H(Q) <= log2 3 - H(Q) for every Q; each
        # weight-cap vertex of both sets has a zero letter, where V(y|x) = 0
        table = np.zeros((3, 3, 3))
        for x in range(3):
            for s in range(3):
                table[x, s, (x + s) % 3] = 1.0
        ch = Channel(table)
        res = list_capacity(TERNARY_GAMMA, TERNARY_LAM, ch)
        # lam's max-entropy law is proportional to (1, r, r^2) with <(0, 1, 2), Q> = 0.6
        r = (-0.4 + np.sqrt(0.4**2 + 4 * 1.4 * 0.6)) / 2.8
        q = np.array([1.0, r, r * r]) / (1.0 + r + r * r)
        assert res.value <= np.log2(3) + float(q @ np.log2(q)) + 1e-9  # about 0.1787
        assert res.value <= worst_case_mi(res.argmax_px, TERNARY_LAM, ch)[0] + 1e-9
        assert res.lower <= res.value <= res.upper
        assert res.upper - res.lower <= 1e-6

    @pytest.mark.parametrize("index", [7, 8, 13])
    def test_seeded_instance_is_certified(self, index):
        # a lattice sweep with golden refinement left these 8e-3, 2.9e-3 and 9.3e-3 wide
        res = list_capacity(*seed7_instance(index))
        assert res.upper - res.lower <= 1e-6


class TestWorstCaseMi:
    def test_inner_minimum_at_cap_for_xor(self):
        val, q, _ = worst_case_mi(
            Distribution.bernoulli(0.2), ConstraintSet.weight_cap(0.1), XOR
        )
        assert q.probs[1] == pytest.approx(0.1, abs=1e-6)
        assert val == pytest.approx(bitflip_list_capacity(0.2, 0.1), abs=1e-6)

    def test_ternary_embedding_matches_closed_form(self):
        # ternary state embedding of the binary problem: symbols 1 and 2 act
        # identically, so the minimum must match the binary closed form
        table = np.zeros((2, 3, 2))
        table[:, 0] = XOR.table[:, 0]
        table[:, 1] = XOR.table[:, 1]
        table[:, 2] = XOR.table[:, 1]
        ch = Channel(table)
        lam3 = ConstraintSet(3, [([0.0, 1.0, 1.0], 0.1)])
        val, _, _ = worst_case_mi(Distribution.bernoulli(0.2), lam3, ch, tol=1e-9)
        assert val == pytest.approx(bitflip_list_capacity(0.2, 0.1), abs=1e-5)

    @settings(max_examples=25)
    @given(data=st.data())
    def test_binary_state_matches_dense_scan(self, data):
        # lam is the segment Q(1) <= cap; minimizers in its interior are
        # reached by Frank-Wolfe's line search alone
        nx = data.draw(st.integers(2, 3), label="nx")
        ny = data.draw(st.integers(2, 3), label="ny")
        weights = st.floats(0.01, 1.0)
        table = np.array(data.draw(
            st.lists(weights, min_size=nx * 2 * ny, max_size=nx * 2 * ny), label="table"
        )).reshape(nx, 2, ny)
        ch = Channel(table / table.sum(axis=2, keepdims=True))
        px = np.array(data.draw(st.lists(weights, min_size=nx, max_size=nx), label="px"))
        p_x = Distribution(px / px.sum())
        cap = data.draw(st.floats(0.05, 0.95), label="cap")
        lam = ConstraintSet.weight_cap(cap)

        val, q, _ = worst_case_mi(p_x, lam, ch)
        scan = min(
            mutual_information(p_x, Distribution.bernoulli(t), ch)
            for t in np.linspace(0.0, cap, 2001)
        )
        assert lam.contains(q, tol=1e-9)
        assert abs(val - scan) <= 1e-6
        assert val <= scan + 1e-9


class TestObliviousCapacity:
    def test_equals_list_capacity_when_maximizer_usable(self):
        res = oblivious_capacity(*weight_caps(0.2, 0.1), XOR)
        assert res.value == pytest.approx(bitflip_list_capacity(0.2, 0.1), abs=1e-3)
        assert not res.all_symmetrizable_evidence

    def test_zero_in_symmetrizable_regime(self):
        res = oblivious_capacity(*weight_caps(0.1, 0.2), XOR)
        assert res.value == 0.0
        assert res.all_symmetrizable_evidence
        assert res.argmax_px is None
        assert res.lower == 0.0
        assert np.isnan(res.upper)

    def test_single_nonsym_point(self):
        point = ConstraintSet(2, [([0.0, 1.0], 0.3), ([0.0, -1.0], -0.3)])
        res = oblivious_capacity(point, ConstraintSet.weight_cap(0.1), XOR)
        val, _, _ = worst_case_mi(
            Distribution.bernoulli(0.3), ConstraintSet.weight_cap(0.1), XOR
        )
        assert res.value == pytest.approx(val, abs=1e-6)

    @pytest.mark.parametrize("make_instance", [
        lambda: (*weight_caps(0.2, 0.1), XOR),
        lambda: (*weight_caps(0.1, 0.2), XOR),
        lambda: seed7_instance(8),
    ], ids=["bitflip-nonsym", "bitflip-all-sym", "seed7-8-cut"])
    def test_redundant_state_row_changes_nothing(self, make_instance):
        # a second, looser copy of lam's row sends the solve through every
        # Farkas multiplier of the two-row lattice
        gamma, lam, ch = make_instance()
        (c, b), = lam.inequalities
        one = oblivious_capacity(gamma, lam, ch)
        two = oblivious_capacity(gamma, ConstraintSet(lam.dim, [(c, b), (c, b + 0.3)]), ch)
        assert two.all_symmetrizable_evidence == one.all_symmetrizable_evidence
        assert two.value == pytest.approx(one.value, abs=1e-9)
        if not two.all_symmetrizable_evidence:
            assert two.lower <= two.value <= two.upper

    def test_cut_rounds_are_capped(self, monkeypatch):
        # the seed-7 instance 8 needs one cut, so one round cannot finish
        monkeypatch.setattr(capacity, "_MAX_CUTS", 1)
        with pytest.raises(RuntimeError, match="after 1 cuts"):
            oblivious_capacity(*seed7_instance(8))

    def test_never_exceeds_list_capacity(self):
        for gamma, lam, ch in random_instances(33, 10):
            c_list = list_capacity(gamma, lam, ch)
            c_obl = oblivious_capacity(gamma, lam, ch)
            assert c_obl.value <= c_list.value + 1e-6
            if not c_obl.all_symmetrizable_evidence:
                assert c_obl.lower <= c_obl.value <= c_obl.upper <= c_list.upper + 1e-9

    @pytest.mark.parametrize("index", [7, 8, 13])
    def test_seeded_instance_brackets(self, index):
        # instance 8's list argmax is symmetrizable: one cut moves off it, where
        # a filtered lattice sweep once returned C_obl 0.021992 > C_list 0.021671
        gamma, lam, ch = seed7_instance(index)
        c_list = list_capacity(gamma, lam, ch)
        c_obl = oblivious_capacity(gamma, lam, ch)
        assert c_obl.upper - c_obl.lower <= 1e-6
        assert c_obl.value <= c_list.value + 1e-6
        assert c_obl.lower <= c_obl.value <= c_obl.upper <= c_list.upper + 1e-9


class TestVerdict:
    def test_thm1_case(self):
        spec = bitflip_spec(0.2, 0.1, 512, 64, 64)
        v = windowed_capacity_verdict(spec)
        assert v.status == VERDICT_THM1
        assert v.capacity.value == pytest.approx(bitflip_list_capacity(0.2, 0.1), abs=1e-3)

    def test_thm2_case(self):
        # all of gamma symmetrizable, but the ratio-enlarged set is not
        spec = bitflip_spec(0.1, 0.15, 512, 64, 32)
        v = windowed_capacity_verdict(spec)
        assert v.status == VERDICT_THM2

    def test_unknown_case(self):
        # w' = w/alpha = 0.2 <= p = 0.3: both hypotheses fail
        spec = bitflip_spec(0.1, 0.3, 512, 64, 32)
        v = windowed_capacity_verdict(spec)
        assert v.status == VERDICT_UNKNOWN

    @pytest.mark.parametrize("w_s, alpha, scans", [(64, "1", 1), (32, "0.5", 2)],
                             ids=["alpha-1", "alpha-half"])
    def test_gamma_scanned_once_at_alpha_one(self, monkeypatch, w_s, alpha, scans):
        # w <= w/alpha <= p: every scan comes up empty, so the verdict reaches
        # the enlarged set, which at alpha = 1 is gamma itself
        calls = []
        real = capacity.scan_nonsymmetrizable
        monkeypatch.setattr(capacity, "scan_nonsymmetrizable",
                            lambda *args: calls.append(args) or real(*args))
        v = windowed_capacity_verdict(bitflip_spec(0.1, 0.3, 512, 64, w_s))
        assert v.status == VERDICT_UNKNOWN
        assert len(calls) == scans
        assert v.hypothesis_evidence == (
            "all-symmetrizable on both the admissible set and its ratio-"
            f"enlarged version at alpha={alpha}"
        )

    def test_grid_evidence_only_for_several_state_inequalities(self):
        # the same state set written with a redundant second inequality
        spec = bitflip_spec(0.1, 0.3, 512, 64, 32)
        lam = ConstraintSet(2, [([0.0, 1.0], 0.3), ([0.0, 1.0], 0.9)])
        v = windowed_capacity_verdict(replace(spec, lam=lam))
        assert v.status == VERDICT_UNKNOWN
        assert v.hypothesis_evidence.endswith("alpha=0.5 (grid evidence)")
        assert "grid evidence" not in windowed_capacity_verdict(spec).hypothesis_evidence

    def test_regime_warnings(self):
        spec = bitflip_spec(0.2, 0.1, 512, 8, 8)  # windows below 4 ln n
        v = windowed_capacity_verdict(spec)
        assert v.regime_warnings
        spec_ok = bitflip_spec(0.2, 0.1, 512, 64, 64)
        assert windowed_capacity_verdict(spec_ok).regime_warnings == ()


class TestCertificate:
    def test_best_response_at_cap(self):
        # at the bit-flip saddle no input law beats the cap against Q*, so the
        # tangent at P* certifies the closed form from above
        res = list_capacity(*weight_caps(0.2, 0.1), XOR)
        assert res.argmax_px.probs[1] == pytest.approx(0.2, abs=1e-5)
        assert res.upper == pytest.approx(bitflip_list_capacity(0.2, 0.1), abs=1e-6)

    def test_default_ternary_interval_is_tight(self):
        res = list_capacity(TERNARY_GAMMA, TERNARY_LAM, Channel(TERNARY_TABLE))
        # the reference is rounded to 7 decimals
        assert res.lower - 5e-8 <= TERNARY_REFERENCE <= res.upper + 5e-8
        assert res.upper - res.lower <= 1e-6
