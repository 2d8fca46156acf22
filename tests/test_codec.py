"""Hashing, list codes, interleaved layout, and the three-phase round trip."""

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from winavc import gf2
from winavc.codec import (
    CodecParams,
    CodeConstructionError,
    HashParams,
    JamBudget,
    KeyCode,
    ListCode,
    _random_code,
    _ranked_lists,
    build_interleaved_region,
    build_three_phase_codec,
    chunk_message,
    delta_interior,
    hamming_budget,
    interleave_allocation,
    likelihood_budget,
    make_phase_plan,
    poly_hash,
    type1_window_fractions,
)
from winavc.core import Channel, ConstraintSet, Distribution, WindowedAvcSpec
from winavc.windows import verify_windows

XOR = Channel.xor()


def binary_rows(rows, n):
    return arrays(np.int8, (rows, n), elements=st.integers(0, 1))


def free_skeleton(length):
    """A key segment of key slots only."""
    return np.full(length, -1, dtype=np.int8)


def list_code(words):
    """A code of the given rows, each its own id."""
    return ListCode(codewords=words, ids=np.arange(len(words)))


def ranked(y_rows, code, budget):
    """_ranked_lists's (rows, positions, sizes, overflow) as lists."""
    return tuple(a.tolist() for a in _ranked_lists(y_rows, code, budget))


def key_code(field_bits, law, length, gamma, w_x, rng):
    """Every key pair sampled into a free key segment, as the codec builds it."""
    q = 1 << field_bits
    code, stats = _random_code(free_skeleton(length), q * q, law, gamma, w_x, rng)
    return KeyCode(codewords=code.codewords, ids=code.ids, field_bits=field_bits), stats


def thm1_params(**kw):
    base = dict(
        layout="thm1", n1=256, message_bits=4, field_bits=4,
        p_x=Distribution.bernoulli(0.1), key_len=64,
    )
    base.update(kw)
    return CodecParams(**base)


def noisy_xor(eps):
    """XOR of input and state, then an independent flip with probability eps."""
    table = np.empty((2, 2, 2))
    for x, s in itertools.product(range(2), repeat=2):
        table[x, s, x ^ s] = 1 - eps
        table[x, s, 1 - (x ^ s)] = eps
    return Channel(table)


def windowed(gamma, lam, w_x, w_s, channel=XOR):
    """The channel a code is built for; the build does not read its blocklength n."""
    return WindowedAvcSpec(channel=channel, gamma=gamma, lam=lam, w_x=w_x, w_s=w_s,
                           n=max(w_x, w_s))


class TestPolyHash:
    def setup_method(self):
        self.hp = HashParams(field_bits=3, chunk_count=2)

    def test_r2_zero_gives_r1(self):
        for m in ([0, 0], [3, 5], [7, 7]):
            assert poly_hash(m, 4, 0, self.hp) == 4

    def test_zero_message_gives_r1(self):
        for r2 in range(8):
            assert poly_hash([0, 0], 5, r2, self.hp) == 5

    def test_gf8_worked_example(self):
        # multiplication table oracle for GF(8), x^3 + x + 1
        mul = gf2.mul_table(3)
        m, r1, r2 = [2, 1], 3, 2
        expect = r1 ^ mul[2, r2] ^ mul[1, mul[r2, r2]]
        assert expect == 3
        assert poly_hash(m, r1, r2, self.hp) == 3

    def test_linear_in_r1(self):
        hp = HashParams(field_bits=4, chunk_count=3)
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = [int(x) for x in rng.integers(0, 16, size=3)]
            r1, r2, d = (int(x) for x in rng.integers(0, 16, size=3))
            assert poly_hash(m, r1 ^ d, r2, hp) == poly_hash(m, r1, r2, hp) ^ d

    def test_chunking_roundtrip(self):
        hp = HashParams(field_bits=4, chunk_count=3)
        for m in (0, 1, 0xABC, 0xFFF):
            chunks = chunk_message(m, hp)
            rebuilt = sum(c << (4 * i) for i, c in enumerate(chunks))
            assert rebuilt == m
        with pytest.raises(ValueError):
            chunk_message(1 << 12, hp)
        for bad in ([5, -1], 2.5, np.array([1.0, 2.0])):
            with pytest.raises(ValueError):
                chunk_message(bad, hp)

    def test_arrays_match_one_message_at_a_time(self):
        hp = HashParams(field_bits=5, chunk_count=3)
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 1 << 15, size=40)
        r1, r2 = rng.integers(0, 32, size=(2, 40))
        chunks = chunk_message(ids, hp)
        assert chunks.shape == (40, 3)
        for i in range(40):
            assert np.array_equal(chunks[i], chunk_message(int(ids[i]), hp))
        one = [poly_hash(chunks[i], int(r1[i]), int(r2[i]), hp) for i in range(40)]
        assert all(type(h) is int for h in one)
        assert poly_hash(chunks, r1, r2, hp).tolist() == one
        # leading axes broadcast: every message against every r2
        grid = poly_hash(chunks[:, None, :], 0, np.arange(32), hp)
        assert grid.shape == (40, 32)
        assert grid[7, 9] == poly_hash(chunks[7], 0, 9, hp)

    @pytest.mark.parametrize("field_bits", [3, 4])
    @pytest.mark.parametrize("chunk_count", [2, 3])
    def test_distinct_messages_agree_on_at_most_chunk_count_keys(self, field_bits, chunk_count):
        # at r1 = 0 two hashes differ by a nonzero polynomial in r2 of degree
        # <= K with no constant term, which has at most K roots in GF(q)
        hp = HashParams(field_bits=field_bits, chunk_count=chunk_count)
        q = hp.field_order
        messages = chunk_message(np.arange(q**chunk_count), hp)
        hashes = poly_hash(messages[:, None, :], 0, np.arange(q), hp)  # (messages, r2)
        if len(messages) <= 512:
            a, b = np.triu_indices(len(messages), k=1)  # every distinct pair
        else:
            a, b = np.random.default_rng(7).integers(0, len(messages), size=(2, 20_000))
            a, b = a[a != b], b[a != b]
        agreements = np.count_nonzero(hashes[a] == hashes[b], axis=1)
        assert agreements.max() <= chunk_count

    def test_field_bits_outside_one_to_eight_rejected(self):
        for fb in (0, 9):
            with pytest.raises(ValueError, match="field_bits"):
                HashParams(field_bits=fb, chunk_count=1)
            with pytest.raises(ValueError, match="field_bits"):
                thm1_params(field_bits=fb)
        with pytest.raises(ValueError, match="chunks"):
            poly_hash([1, 2, 3], 0, 1, HashParams(field_bits=3, chunk_count=2))


class TestJamBudget:
    def test_hamming_budget_formula(self):
        lam = ConstraintSet.weight_cap(0.05)
        # k = floor(0.05 * 64) = 3 per window
        assert hamming_budget(512, 64, lam).radius == 8 * 3
        assert hamming_budget(128, 64, lam).radius == 2 * 3
        assert hamming_budget(100, 64, lam).radius == 3 + 3  # remainder 36 >= k

    def test_zero_budget(self):
        lam = ConstraintSet(2, [([0.0, 1.0], 0.0)])
        assert hamming_budget(256, 64, lam).radius == 0

    def test_impossible_transition_scores_no_higher_than_an_unlikely_one(self):
        # input 0 never reaches output 1; input 1 reaches output 0 with
        # probability 1e-310, below LOG_FLOOR; the state does not matter
        row0, row1 = [1.0, 0.0], [1e-310, 1.0]
        channel = Channel([[row0, row0], [row1, row1]])
        budget = likelihood_budget(
            Distribution.bernoulli(0.3), channel, ConstraintSet.weight_cap(0.2),
        )
        assert budget.ll_table[0, 1] <= budget.ll_table[1, 0]


class TestBuildListCode:
    def test_basic_build(self):
        rng = np.random.default_rng(2)
        code, stats = _random_code(
            free_skeleton(256), 500, Distribution.bernoulli(0.25),
            ConstraintSet.weight_cap(0.4), 64, rng,
        )
        assert stats.removed_fraction < 0.15
        assert code.codewords.shape[0] == 500 - stats.removed
        assert np.array_equal(code.ids, stats.kept_indices)
        for row in code.codewords[:20]:
            assert verify_windows(row, 64, ConstraintSet.weight_cap(0.4)).valid

    def test_single_codeword(self):
        rng = np.random.default_rng(3)
        code, _ = _random_code(
            free_skeleton(64), 1, Distribution.bernoulli(0.1), ConstraintSet.weight_cap(0.4),
            16, rng,
        )
        assert code.codewords.shape[0] == 1

    def test_point_mass_input(self):
        rng = np.random.default_rng(4)
        code, stats = _random_code(
            free_skeleton(64), 10, Distribution.point_mass(0, 2), ConstraintSet.weight_cap(0.4),
            16, rng,
        )
        assert stats.removed == 0
        assert not code.codewords.any()

    def test_interior_violation_rejected(self):
        # the codec checks the input law's margin before it samples anything
        rng = np.random.default_rng(5)
        params = thm1_params(n1=64, key_len=32, p_x=Distribution.bernoulli(0.4),
                             key_type=Distribution.bernoulli(0.1))
        spec = windowed(ConstraintSet.weight_cap(0.4), ConstraintSet.weight_cap(0.05), 16, 16)
        with pytest.raises(ValueError, match="input law"):
            build_three_phase_codec(params, spec, rng)

    def test_desk_scale_cap(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="desk-scale"):
            _random_code(
                free_skeleton(512), (1 << 16) + 1, Distribution.bernoulli(0.1),
                ConstraintSet.weight_cap(0.4), 64, rng,
            )


class TestListDecode:
    def _small_code(self):
        words = np.array(
            [[0, 0, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]],
            dtype=np.int8,
        )
        return list_code(words)

    def test_exact_match_zero_budget(self):
        code = self._small_code()
        assert ranked([[1, 1, 1, 0, 0, 0]], code, JamBudget("hamming", 0)) == (
            [0], [1], [1], [False])

    def test_within_radius(self):
        code = self._small_code()
        assert ranked([[1, 1, 0, 0, 0, 0]], code, JamBudget("hamming", 1)) == (
            [0], [1], [1], [False])

    def test_tie_breaks_by_index(self):
        code = self._small_code()
        # equidistant from codewords 1 and 2, and 6 from codeword 0
        assert ranked([[1, 1, 1, 1, 1, 1]], code, JamBudget("hamming", 3)) == (
            [0, 0], [1, 2], [2], [False])

    def test_truncation_flagged(self):
        # the list is capped at 32 entries
        budget = JamBudget("hamming", 4)
        zeros = [[0, 0, 0, 0]]
        assert ranked(zeros, list_code(np.zeros((32, 4), dtype=np.int8)), budget) == (
            [0] * 32, list(range(32)), [32], [False])
        assert ranked(zeros, list_code(np.zeros((40, 4), dtype=np.int8)), budget) == (
            [0] * 32, list(range(32)), [32], [True])

    def test_empty_list(self):
        code = self._small_code()
        assert ranked([[1, 0, 1, 0, 1, 0]], code, JamBudget("hamming", 1)) == (
            [], [], [0], [False])

    def test_likelihood_budget_agrees_on_xor(self):
        # likelihood scoring with a noisy reference, the state set's feasible
        # point Bern(0.2), orders by Hamming distance
        code = self._small_code()
        budget = likelihood_budget(
            Distribution.bernoulli(0.3), XOR, ConstraintSet.weight_cap(0.2),
        )
        _, positions, sizes, _ = ranked([[1, 1, 0, 0, 0, 0]], code, budget)
        assert sizes[0] and positions[0] == 1


class TestHammingScoring:
    @given(data=st.data())
    def test_packed_scores_match_symbol_compare(self, data):
        # lengths 1-200 cross the 8-bit byte and 64-bit word boundaries; each of
        # several outputs is scored on its own, in full and within a radius.  An
        # all-zero code within reach of every output prunes nothing; a code whose
        # other words differ from the output in each of its first 64 symbols
        # keeps only the sent word, the output with some later symbols flipped,
        # after the first packed word, and the scan finishes that pair alone.
        kind = data.draw(st.sampled_from(["random", "all-zero", "far"]), label="kind")
        far = kind == "far"
        rows = data.draw(st.integers(29 if far else 1, 40), label="rows")
        n = data.draw(st.integers(65 if far else 1, 200), label="n")
        outputs = 1 if far else data.draw(st.integers(1, 4), label="outputs")
        ys = data.draw(binary_rows(outputs, n), label="ys")
        words = data.draw(binary_rows(rows, n), label="codewords")
        low = 0
        if kind == "all-zero":
            words[:] = 0
            low = int(ys.sum(axis=1).max())
        elif far:
            words[:, :64] = 1 - ys[0, :64]
            words[0] = ys[0]
            words[0, 64 : 64 + data.draw(st.integers(0, n - 64), label="flips")] ^= 1
        radius = data.draw(st.integers(low, 63 if far else n), label="radius")
        code = list_code(words)
        want = np.count_nonzero(words[None, :, :] != ys[:, None, :], axis=2)
        budget = JamBudget("hamming", radius)
        assert np.array_equal(code._scores(ys, budget), want)
        scores = code._scores(ys, budget, radius)
        ok = scores <= radius
        assert np.array_equal(ok, want <= radius)
        assert np.array_equal(scores[ok], want[ok])

    @given(data=st.data())
    def test_key_decode_breaks_ties_by_key_id(self, data):
        # rows drawn from a small pool of distinct words, so best scores tie
        pool = data.draw(st.integers(1, 4), label="pool")
        rows = data.draw(st.integers(1, 40), label="rows")
        n = data.draw(st.integers(1, 100), label="n")
        distinct = data.draw(binary_rows(pool, n), label="distinct")
        pick = data.draw(st.lists(st.integers(0, pool - 1), min_size=rows, max_size=rows),
                         label="pick")
        key_ids = sorted(data.draw(
            st.lists(st.integers(0, 63), min_size=rows, max_size=rows, unique=True),
            label="key_ids",
        ))
        y = data.draw(binary_rows(1, n), label="y")[0]
        budget = JamBudget("hamming", data.draw(st.integers(0, n), label="radius"))
        code = KeyCode(codewords=distinct[pick], ids=np.array(key_ids, dtype=np.int64),
                       field_bits=3)
        scores = np.count_nonzero(code.codewords != y[None, :], axis=1)
        best = np.lexsort((code.ids, scores))[0]
        kid = int(code.ids[best])
        assert np.array_equal(code.decode_rows(y[None], budget), ([kid // 8], [kid % 8]))

    @pytest.mark.parametrize("bad_word, bad_y", [(2, 0), (-1, 0), (0, 2), (0, -1)],
                             ids=["code-2", "code-minus-1", "y-2", "y-minus-1"])
    def test_non_binary_symbols_refused(self, bad_word, bad_y):
        words = np.zeros((3, 10), dtype=np.int8)
        words[1, 4] = bad_word
        y = np.zeros(10, dtype=np.int8)
        y[7] = bad_y
        budget = JamBudget("hamming", 10)
        with pytest.raises(ValueError, match="binary"):
            _ranked_lists(y[None], list_code(words), budget)
        keys = KeyCode(codewords=words.copy(), ids=np.arange(3), field_bits=2)
        with pytest.raises(ValueError, match="binary"):
            keys.decode_rows(y[None], budget)


class TestBlockDecoding:
    """A block decodes as its rows do one at a time, and its results are pinned.

    Each block mixes clean transmissions, phase-1 flips, another row's keys and
    an all-ones phase 1, so its rows end unique, ambiguous, without a survivor,
    with an empty list, and with lists past _L_MAX.
    """

    @staticmethod
    def _block(codec, rng, rows=40):
        n1 = codec.plan.n1
        m = rng.integers(codec.message_count, size=rows)
        r1, r2 = np.array([codec.key_code.draw_keys(rng) for _ in range(rows)]).T
        x = codec.encode_rows(m, r1, r2)
        y = x.copy()
        kind = np.arange(rows) % 4
        flips = (rng.random((rows, n1)) < 0.04).astype(np.int8)
        y[kind == 1, :n1] ^= flips[kind == 1]
        y[kind == 2, n1:] = np.roll(x[:, n1:], 1, axis=0)[kind == 2]
        y[kind == 3, :n1] = 1
        return y

    @pytest.mark.parametrize("channel, weight, digest", [
        (XOR, 0.06, "96aa4982bfd5e0cecb0998968308720f3e836928c418ca7023fdb04fa884cee4"),
        (noisy_xor(0.03), 0.1, "3547c65be92f7f7d72a03c19be6491d4219c088251e5bd0bd6c060ba367b63de"),
    ], ids=["hamming", "likelihood"])
    def test_block_decodes_as_its_rows(self, channel, weight, digest):
        params = thm1_params(n1=128, field_bits=3, p_x=Distribution.bernoulli(weight),
                             key_type=Distribution.bernoulli(0.2), key_len=None)
        spec = windowed(ConstraintSet.weight_cap(0.3), ConstraintSet.weight_cap(0.1), 32, 32,
                        channel)
        codec, _ = build_three_phase_codec(params, spec, np.random.default_rng(3))
        assert codec.budget1.kind == ("hamming" if channel is XOR else "likelihood")
        y = self._block(codec, np.random.default_rng(4))
        results = codec.decode_rows(y)
        assert {r.status for r in results} == {"unique", "ambiguous", "no-survivor", "empty-list"}
        assert {r.overflow for r in results} == {False, True}
        assert results == [codec.decode_rows(row[None])[0] for row in y]
        # the block's lists are its rows' own lists, one after another
        phase1 = y[:, : codec.plan.n1]
        alone = [ranked(row[None], codec.phase1_flat, codec.budget1) for row in phase1]
        rows, positions, sizes, overflow = ranked(phase1, codec.phase1_flat, codec.budget1)
        assert rows == [i for i, a in enumerate(alone) for _ in a[0]]
        assert positions == [p for a in alone for p in a[1]]
        assert sizes == [a[2][0] for a in alone]
        assert overflow == [a[3][0] for a in alone]
        fields = [dataclasses.astuple(r) for r in results]
        assert hashlib.sha256(json.dumps(fields).encode()).hexdigest() == digest


class TestInterleaveAllocation:
    def test_worked_example_window1(self):
        s1, s2 = interleave_allocation(16, 8, 0.25, 1)
        assert s1[:2].tolist() == [0, 1]
        assert s2[:2].tolist() == [2, 3]
        assert len(s1) == len(s2) == 8

    def test_window0_pure_sequential(self):
        s1, s2 = interleave_allocation(16, 8, 0.25, 0)
        # empty prefix: first position goes to type 2
        assert s2[0] == 0
        assert len(s1) == len(s2) == 8

    def test_phase3_block_rule(self):
        # the key windows' type-1 slots, left as -1 in the skeleton, are the
        # block split
        t1, t2 = Distribution.bernoulli(0.25), Distribution.bernoulli(0.125)
        plan = make_phase_plan(CodecParams(
            layout="thm2", n1=32, message_bits=4, p_x=Distribution.bernoulli(0.1),
            lam_frac=0.25, t1=t1, t2=t2, key_len=24,
        ), 16, 8)
        _, skeleton = build_interleaved_region(plan, t1, t2)
        assert skeleton.shape == (3 * 16,)
        for window in skeleton.reshape(3, 16):
            assert np.flatnonzero(window == -1).tolist() == list(range(8))
            assert np.all(window[8:] >= 0)

    def test_last_phase2_window_equals_block_rule(self):
        # from the last buffer window i = ceil(1/lam) on, i*l >= w_s and the
        # prefix rule degenerates to the block split the key phase repeats
        for w_x, w_s, lam_frac in [(16, 8, 0.25), (40, 10, 0.1), (60, 20, 0.15), (80, 80, 0.5)]:
            last = math.ceil(1 / lam_frac)
            for i in range(last, last + 3):
                s1, s2 = interleave_allocation(w_x, w_s, lam_frac, i)
                assert s1.tolist() == list(range(w_s))
                assert s2.tolist() == list(range(w_s, w_x))

    def test_exact_ratio_various_alphas(self):
        for w_x, w_s, lam_frac in [(40, 10, 0.1), (80, 40, 0.1), (16, 8, 0.25), (60, 20, 0.1)]:
            for i in range(0, 12):
                s1, s2 = interleave_allocation(w_x, w_s, lam_frac, i)
                assert len(s1) == w_s
                assert len(s2) == w_x - w_s
                assert sorted(np.concatenate([s1, s2]).tolist()) == list(range(w_x))

    def test_incompatible_rationals_rejected(self):
        with pytest.raises(ValueError):
            interleave_allocation(16, 8, 0.01, 0)  # l < 1

    def test_sliding_fraction_bounds(self):
        for w_s, w_x in [(8, 16), (10, 40), (40, 80)]:
            alpha = w_s / w_x
            lam_frac = 0.25 if w_x == 16 else 0.1
            plan = make_phase_plan(CodecParams(
                layout="thm2", n1=32, message_bits=4,
                p_x=Distribution.bernoulli(0.1), lam_frac=lam_frac,
                t1=Distribution.bernoulli(0.3), t2=Distribution.bernoulli(0.1),
                key_len=w_s,
            ), w_x, w_s)
            fr = type1_window_fractions(plan)
            assert fr.min() >= alpha - 1e-12
            assert fr.max() <= alpha * (1 + lam_frac) + 1e-12


class TestPhasePlanKeys:
    @pytest.mark.parametrize("layout, key", [("thm1", "t1"), ("thm1", "t2"), ("thm1", "lam_frac"),
                                             ("thm2", "key_type")],
                             ids=["thm1-t1", "thm1-t2", "thm1-lam-frac", "thm2-key-type"])
    def test_law_the_layout_does_not_read_is_refused(self, layout, key):
        laws = {"t1": Distribution.bernoulli(0.3), "t2": Distribution.bernoulli(0.1),
                "lam_frac": 0.25}
        if layout == "thm1":
            laws = {key: laws[key]}
        else:
            laws[key] = Distribution.bernoulli(0.12)
        params = thm1_params(layout=layout, **laws)
        with pytest.raises(ValueError, match=f"layout '{layout}' does not read {key}"):
            make_phase_plan(params, 16, 8)

    def test_thm2_lam_frac_defaults_in_the_planner(self):
        params = thm1_params(layout="thm2", t1=Distribution.bernoulli(0.3),
                             t2=Distribution.bernoulli(0.1))
        assert params.lam_frac is None
        plan = make_phase_plan(params, 80, 40)
        assert plan.lam_frac == 0.1
        assert plan == make_phase_plan(dataclasses.replace(params, lam_frac=0.1), 80, 40)


class TestKeyCode:
    def test_roundtrip_and_expurgation(self):
        rng = np.random.default_rng(8)
        lam = ConstraintSet.weight_cap(0.05)
        code, stats = key_code(
            4, Distribution.bernoulli(0.12), 128, ConstraintSet.weight_cap(0.3), 64, rng,
        )
        assert stats.total == 256
        r1, r2 = code.draw_keys(np.random.default_rng(1))
        word = code.encode_rows([r1], [r2])
        assert np.array_equal(code.decode_rows(word, hamming_budget(128, 64, lam)), ([r1], [r2]))

    def test_expurgated_key_pairs_refused(self):
        # ids 1 and 5 survive in GF(4) x GF(4): (1, 0) = id 4 sits between them,
        # (3, 3) = id 15 past the last
        code = KeyCode(codewords=np.eye(2, 4, dtype=np.int8), ids=np.array([1, 5]), field_bits=2)
        assert code.encode_rows([0, 1], [1, 1]).tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]
        for r1, r2 in ((1, 0), (3, 3)):
            with pytest.raises(KeyError, match=f"key pair \\({r1}, {r2}\\) was expurgated"):
                code.encode_rows([0, r1], [1, r2])

    def test_decode_under_max_jamming(self):
        rng = np.random.default_rng(9)
        lam = ConstraintSet.weight_cap(0.05)
        code, _ = key_code(
            4, Distribution.bernoulli(0.12), 128, ConstraintSet.weight_cap(0.3), 64, rng,
        )
        budget = hamming_budget(128, 64, lam)
        trials = 200
        draw = np.random.default_rng(10)
        keys, flips = [], np.zeros((trials, 128), dtype=np.int8)
        for row in flips:
            keys.append(code.draw_keys(draw))
            row[draw.choice(128, size=6, replace=False)] = 1  # budget is 6
        r1, r2 = np.array(keys).T
        got1, got2 = code.decode_rows(code.encode_rows(r1, r2) ^ flips, budget)
        assert np.count_nonzero((got1 == r1) & (got2 == r2)) / trials >= 0.99

    def test_sixteen_bit_key_reliability_under_iid_jamming(self):
        # 2^16 key pairs, blocklength 128, jammer inside his window budget:
        # success rate at least 0.99
        from winavc.jammers import iid_jammer_rows

        rng = np.random.default_rng(77)
        lam = ConstraintSet.weight_cap(0.05)
        code, _ = key_code(
            8, Distribution.bernoulli(0.12), 128, ConstraintSet.weight_cap(0.3), 64, rng,
        )
        budget = hamming_budget(128, 64, lam)
        assert code.ids.size > 60000
        draw = np.random.default_rng(78)
        hits = 0
        trials = 1000
        for _ in range(trials):
            r1, r2 = code.draw_keys(draw)
            word = code.encode_rows([r1], [r2])
            states, _, _ = iid_jammer_rows(Distribution.bernoulli(0.04), 128, 64, lam, [draw])
            hits += np.array_equal(code.decode_rows(word ^ states, budget), ([r1], [r2]))
        assert hits / trials >= 0.99

    def _build_with_weak_key_law(self, seed, **kw):
        # a weight-0.05 key law is symmetrizable against a 0.1 state cap
        params = thm1_params(field_bits=3, key_type=Distribution.bernoulli(0.05), **kw)
        return build_three_phase_codec(
            params, windowed(ConstraintSet.weight_cap(0.3), ConstraintSet.weight_cap(0.1), 32, 32),
            np.random.default_rng(seed),
        )

    def test_symmetrizable_law_rejected(self):
        with pytest.raises(ValueError, match="symmetrizable"):
            self._build_with_weak_key_law(11)

    def test_symmetrizable_override(self):
        codec, _ = self._build_with_weak_key_law(12, allow_symmetrizable_key_type=True)
        assert codec.key_code.codewords.shape[1] == 64


class TestThreePhase:
    def _build(self, **kw):
        rng = np.random.default_rng(kw.pop("seed", 0))
        gamma = kw.pop("gamma", ConstraintSet.weight_cap(0.3))
        lam = kw.pop("lam", ConstraintSet.weight_cap(0.05))
        spec = windowed(gamma, lam, kw.pop("w_x", 32), kw.pop("w_s", 32))
        return build_three_phase_codec(thm1_params(**kw), spec, rng)

    def test_length_bookkeeping(self):
        codec, _ = self._build()
        assert codec.plan.total_length == 256 + 32 + 64
        assert codec.encode_rows([0], [1], [2]).shape == (1, codec.plan.total_length)

    def test_roundtrip_exhaustive_with_noise(self):
        codec, _ = self._build()
        rng = np.random.default_rng(5)
        budget = codec.budget1.radius
        for pos in range(codec.message_count):
            r1, r2 = codec.key_code.draw_keys(rng)
            x = codec.encode_rows([pos], [r1], [r2])
            s = np.zeros_like(x)
            flips = rng.choice(codec.plan.n1, size=budget // 2, replace=False)
            s[0, flips] = 1
            res, = codec.decode_rows(x ^ s)
            assert res.status == "unique"
            assert res.message_id == int(codec.message_ids[pos])

    def test_every_encode_passes_window_check(self):
        codec, _ = self._build(seed=3)
        rng = np.random.default_rng(7)
        g = ConstraintSet.weight_cap(0.3)
        for _ in range(100):
            pos = codec.draw_message(rng)
            r1, r2 = codec.key_code.draw_keys(rng)
            x, = codec.encode_rows([pos], [r1], [r2])
            assert verify_windows(x, 32, g).valid

    def test_hash_filter_contract(self):
        # hand-built survivor filtering: exactly one list entry matches
        codec, _ = self._build(seed=4)
        r1, r2 = codec.key_code.draw_keys(np.random.default_rng(8))
        res, = codec.decode_rows(codec.encode_rows([2], [r1], [r2]))
        assert res.status == "unique"
        assert res.keys == (r1, r2)
        assert res.message_id == int(codec.message_ids[2])
        assert res.survivors == (int(codec.message_ids[2]),)

    def test_encode_uses_the_message_hash(self):
        # the cached hash table against poly_hash of each message, one at a time
        codec, _ = self._build(seed=4)
        hp = codec.hash_params
        rng = np.random.default_rng(9)
        for pos in range(codec.message_count):
            r1, r2 = codec.key_code.draw_keys(rng)
            h = poly_hash(chunk_message(int(codec.message_ids[pos]), hp), r1, r2, hp)
            x, = codec.encode_rows([pos], [r1], [r2])
            assert np.array_equal(x[: codec.plan.n1], codec.phase1_flat.codewords[pos * codec.q + h])

    def test_encode_refuses_a_window_the_buffer_breaks(self):
        # an all-ones buffer pushes the windows that reach it over gamma's cap
        codec, _ = self._build(seed=4)
        broken = dataclasses.replace(codec, phase2_seq=np.ones_like(codec.phase2_seq))
        r1, r2 = codec.key_code.draw_keys(np.random.default_rng(8))
        x, = codec.encode_rows([0], [r1], [r2])
        x[codec.plan.n1 : codec.plan.phase3_start] = 1
        ones = np.convolve(x, np.ones(32, dtype=int), mode="valid")
        first = int(np.flatnonzero(ones > 0.3 * 32)[0])
        with pytest.raises(CodeConstructionError, match=f"input window at start {first}$"):
            broken.encode_rows([0], [r1], [r2])

    def test_encode_refuses_keys_outside_the_field(self):
        # r2 = q would index another message's hash; (0, q) aliases key id (1, 0)
        codec, _ = self._build(seed=4)
        q = codec.q
        for r1, r2 in ((0, q), (q, 0), (-1, 0), (0, -1), (0, 1.0)):
            with pytest.raises(ValueError, match="keys"):
                codec.encode_rows([0], [r1], [r2])

    def test_thm2_layout_build_and_fractions(self):
        rng = np.random.default_rng(13)
        gamma = ConstraintSet.weight_cap(0.3)
        lam = ConstraintSet.weight_cap(0.05)
        params = CodecParams(
            layout="thm2", n1=256, message_bits=4, field_bits=4,
            p_x=Distribution.bernoulli(0.08), lam_frac=0.1,
            t1=Distribution.bernoulli(0.3), t2=Distribution.bernoulli(0.1),
            key_len=40,
        )
        codec, stats = build_three_phase_codec(params, windowed(gamma, lam, 80, 40), rng)
        fr = type1_window_fractions(codec.plan)
        assert fr.min() >= 0.5 - 1e-12
        assert fr.max() <= 0.55 + 1e-12
        r1, r2 = codec.key_code.draw_keys(np.random.default_rng(0))
        x = codec.encode_rows([0], [r1], [r2])
        assert verify_windows(x[0], 80, gamma).valid
        res, = codec.decode_rows(x)
        assert res.status == "unique"

    def test_thm2_layout_follows_the_window_ratio(self):
        # windows 80/20 give alpha = 1/4: each key-phase window opens with
        # w_s = 20 key slots, and every input window holds 1/4 to 1/4(1+lam) type-1
        lam_frac = 0.1
        params = CodecParams(
            layout="thm2", n1=160, message_bits=3, field_bits=3,
            p_x=Distribution.bernoulli(0.05), lam_frac=lam_frac,
            t1=Distribution.bernoulli(0.4), t2=Distribution.bernoulli(0.1), key_len=40,
        )
        spec = windowed(ConstraintSet.weight_cap(0.25), ConstraintSet.weight_cap(0.05), 80, 20)
        codec, _ = build_three_phase_codec(params, spec, np.random.default_rng(21))
        windows = (codec.phase3_skeleton < 0).reshape(-1, 80)
        assert len(windows) == 2
        assert all(np.flatnonzero(w).tolist() == list(range(20)) for w in windows)
        fr = type1_window_fractions(codec.plan)
        assert fr.min() >= 0.25 - 1e-12
        assert fr.max() <= 0.25 * (1 + lam_frac) + 1e-12

    def test_noisy_channel_uses_likelihood_decoding(self):
        # intrinsic channel noise on top of the adversarial flip: the table
        # is no longer additive, so both decoding stages score by worst-case
        # admissible log-likelihood
        noisy = noisy_xor(0.03)
        assert not noisy.is_binary_additive()

        rng = np.random.default_rng(17)
        gamma = ConstraintSet.weight_cap(0.3)
        lam = ConstraintSet.weight_cap(0.05)
        params = thm1_params(n1=512, p_x=Distribution.bernoulli(0.1),
                             key_type=Distribution.bernoulli(0.12), key_len=128)
        codec, _ = build_three_phase_codec(params, windowed(gamma, lam, 64, 64, noisy), rng)
        assert codec.budget1.kind == "likelihood"

        from winavc.core import channel_sample_rows
        from winavc.jammers import iid_jammer_rows

        draw = np.random.default_rng(18)
        ok = 0
        trials = 60
        for _ in range(trials):
            m = codec.draw_message(draw)
            r1, r2 = codec.key_code.draw_keys(draw)
            x = codec.encode_rows([m], [r1], [r2])
            states, _, _ = iid_jammer_rows(Distribution.bernoulli(0.04), x.shape[1], 64, lam,
                                           [draw])
            y = channel_sample_rows(x, states, noisy, [draw])
            res, = codec.decode_rows(y)
            ok += (res.status == "unique"
                   and res.message_id == int(codec.message_ids[m]))
        assert ok / trials >= 0.9

    def test_thm2_requires_interleave_types(self):
        rng = np.random.default_rng(14)
        params = CodecParams(
            layout="thm2", n1=128, message_bits=2, field_bits=2,
            p_x=Distribution.bernoulli(0.05), lam_frac=0.1,
        )
        with pytest.raises(ValueError):
            build_three_phase_codec(
                params, windowed(ConstraintSet.weight_cap(0.3), ConstraintSet.weight_cap(0.05),
                                 40, 20),
                rng,
            )


class TestNoiselessRoundTrip:
    @settings(max_examples=50)
    @given(
        seed=st.integers(0, 2**32 - 1),
        w_x=st.sampled_from([48, 64]),
        n1=st.integers(192, 320),
        message_bits=st.integers(1, 3),
        field_bits=st.integers(3, 4),
        weight=st.sampled_from([0.1, 0.12]),
    )
    def test_decode_inverts_encode(self, seed, w_x, n1, message_bits, field_bits, weight):
        # at these sizes a wrong codeword inside the budget ball that also
        # matches the hash is rare enough that every drawn code decodes
        # uniquely; shorter, sparser codes with small hash fields need not
        # (n1=128, w_x=40, p_x weight 0.08, 3-bit field: ambiguous)
        params = thm1_params(n1=n1, message_bits=message_bits,
                             field_bits=field_bits, p_x=Distribution.bernoulli(weight),
                             key_len=None)
        try:
            codec, _ = build_three_phase_codec(
                params, windowed(ConstraintSet.weight_cap(0.3), ConstraintSet.weight_cap(0.05),
                                 w_x, w_x),
                np.random.default_rng(seed),
            )
        except CodeConstructionError:
            assume(False)  # a draw whose expurgation emptied every hash fiber
        draw = np.random.default_rng(seed + 1)
        for pos in range(codec.message_count):
            r1, r2 = codec.key_code.draw_keys(draw)
            res, = codec.decode_rows(codec.encode_rows([pos], [r1], [r2]))
            assert (res.status, res.message_id, res.keys) == (
                "unique", int(codec.message_ids[pos]), (r1, r2)
            )


class TestDeltaInterior:
    def test_interior_and_boundary(self):
        g = ConstraintSet.weight_cap(0.3)
        assert delta_interior(Distribution.bernoulli(0.2), g, 0.02)
        assert not delta_interior(Distribution.bernoulli(0.295), g, 0.02)
