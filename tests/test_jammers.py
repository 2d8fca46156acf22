"""Jamming strategies: admissibility contracts and rejection behavior."""

import hashlib
import inspect
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from winavc import jammers
from winavc.core import ConstraintSet, Distribution, _sparse_iid_sampler, sample_iid
from winavc.jammers import (
    fallback_state_sequence,
    iid_jammer_rows,
    spoof_jammer_rows,
    symmetrize_jammer_rows,
)
from winavc.symmetrize import ecn_symmetrizable
from winavc.core import Channel
from winavc.windows import verify_windows, windows_valid_rows


def rejection_rate(p_s, n, w_s, lam, rng, draws):
    """Share of `draws` fresh i.i.d. p_s sequences of length n that violate some state window."""
    cands = sample_iid(p_s, (draws, n), rng)
    return np.count_nonzero(~windows_valid_rows(cands, w_s, lam)) / draws


def uniform_rows(book):
    """Sampler of one uniformly drawn row of book per generator."""
    return lambda rngs: np.stack([book[r.integers(len(book))] for r in rngs])


def fixed_rows(word):
    """Sampler that gives word to every generator."""
    return lambda rngs: np.stack([word] * len(rngs))


def draw_rows(result) -> list:
    """A jammer's (states, rejections, admissible) as one [states, admissible,
    rejections] list of plain Python values per draw."""
    states, rejections, admissible = result
    return [list(row) for row in zip(states.tolist(), admissible.tolist(), rejections.tolist())]


class TestIidJammer:
    def test_point_mass_never_rejects(self):
        lam = ConstraintSet.weight_cap(0.2)
        states, rejections, admissible = iid_jammer_rows(
            Distribution.point_mass(0, 2), 128, 16, lam, [np.random.default_rng(0)]
        )
        assert states.shape == (1, 128) and not states.any()
        assert rejections.tolist() == [0] and admissible.tolist() == [True]

    def test_output_always_admissible(self):
        rng = np.random.default_rng(1)
        lam = ConstraintSet.weight_cap(0.1)
        for _ in range(20):
            (states,), _, (admissible,) = iid_jammer_rows(Distribution.bernoulli(0.05), 256, 64,
                                                          lam, [rng])
            assert admissible
            assert verify_windows(states, 64, lam).valid

    def test_comfortable_margin_accepts_quickly(self):
        # Margin controls the first-try acceptance rate: Bern(0.02) under
        # cap 0.1 at w_s = 64 accepts first try > 95% of the time, while
        # Bern(0.05) (half the cap) still accepts within a couple of draws
        # on average (direct Monte Carlo puts its first-try rate near 0.6).
        rng = np.random.default_rng(2)
        lam = ConstraintSet.weight_cap(0.1)
        first_try = sum(
            iid_jammer_rows(Distribution.bernoulli(0.02), 256, 64, lam, [rng])[1][0] == 0
            for _ in range(200)
        )
        assert first_try / 200 > 0.95
        rejections = np.concatenate([
            iid_jammer_rows(Distribution.bernoulli(0.05), 256, 64, lam, [rng])[1]
            for _ in range(200)
        ])
        assert np.count_nonzero(rejections == 0) / 200 > 0.4
        assert rejections.mean() < 2.0

    def test_boundary_law_rejects_often(self):
        # law exactly at the cap with a small window: high rejection rate
        rng = np.random.default_rng(3)
        rate = rejection_rate(
            Distribution.bernoulli(0.1), 256, 16, ConstraintSet.weight_cap(0.1), rng, 300
        )
        assert rate > 0.5

    def test_cap_exceeded_reads_the_cap(self):
        rng = np.random.default_rng(4)
        assert draw_rows(iid_jammer_rows(
            Distribution.bernoulli(0.45), 256, 16,
            ConstraintSet.weight_cap(0.1), [rng], rejection_cap=50,
        )) == [[[0] * 256, False, 50]]

    def test_rejection_rate_decreases_with_window_length(self):
        rng = np.random.default_rng(5)
        lam = ConstraintSet.weight_cap(0.1)
        rates = []
        for w_s in (16, 32, 64, 128):
            rates.append(rejection_rate(Distribution.bernoulli(0.08), 512, w_s, lam, rng, 400))
        assert all(a >= b - 0.05 for a, b in zip(rates, rates[1:]))


class TestSparseDraw:
    """The sparse i.i.d. sampler behind the jammer's blocks draws i.i.d. symbols of its law.

    Symbol counts over all rows are multinomial.  Cutting each row into
    segments of SEGMENT symbols, the offset of a segment's first symbol off
    the background (the law's most probable symbol) is Geometric(rho) from 0,
    censored at SEGMENT, independently across segments, wherever the
    sampler's gap chunks begin or end.
    """

    ROWS, SIZE, SEGMENT = 40, 8192, 64
    LAWS = {
        "rho-0.04": (Distribution.bernoulli(0.04), 0),
        "rho-0.3": (Distribution.bernoulli(0.3), 0),
        "bernoulli-0.7": (Distribution.bernoulli(0.7), 1),
        "three-letters": (Distribution([0.2, 0.5, 0.3]), 1),
    }

    def rows(self, law, seed):
        """ROWS rows, drawn 8 generators per call as in a block of trials."""
        draw = _sparse_iid_sampler(law, self.SIZE, 8)
        return np.vstack([draw([np.random.default_rng([seed, k, g]) for g in range(8)]).copy()
                          for k in range(self.ROWS // 8)])

    @pytest.mark.parametrize("name", LAWS)
    def test_symbol_counts(self, name):
        law, _ = self.LAWS[name]
        rows = self.rows(law, 50)
        observed = np.bincount(rows.ravel(), minlength=law.size)
        assert chisquare(observed, rows.size * law.probs).pvalue > 1e-3

    @pytest.mark.parametrize("name", LAWS)
    def test_gaps(self, name):
        law, background = self.LAWS[name]
        rho = 1 - law.probs[background]
        segments = self.rows(law, 51).reshape(-1, self.SEGMENT) != background
        # offset of each segment's first success, SEGMENT where it has none
        first = np.where(segments.any(axis=1), segments.argmax(axis=1), self.SEGMENT)
        observed = np.bincount(first, minlength=self.SEGMENT + 1)
        probs = (1 - rho) ** np.arange(self.SEGMENT + 1) * rho
        probs[-1] = (1 - rho) ** self.SEGMENT
        # pool offsets expected fewer than 5 times into one tail cell
        keep = np.flatnonzero(probs * first.size >= 5)
        observed = np.append(observed[keep], first.size - observed[keep].sum())
        expected = np.append(probs[keep], 1 - probs[keep].sum()) * first.size
        if expected[-1] < 1e-9:
            observed, expected = observed[:-1], expected[:-1]
        assert chisquare(observed, expected).pvalue > 1e-3

    def test_point_mass_draws_nothing(self):
        rng = np.random.default_rng(52)
        rows = _sparse_iid_sampler(Distribution.point_mass(2, 3), 100, 1)([rng])
        assert rows.shape == (1, 100) and (rows == 2).all()
        assert rng.random() == np.random.default_rng(52).random()

    def test_constant_uniforms_give_evenly_spaced_successes(self, edge_rng):
        # every gap is 1 + floor(log(1 - u) / log(1 - rho)): 1 at u = 0, so the
        # row is all successes and takes 16 chunks of 66 gaps; 900 at the top u
        rho, size = 0.04, 1000
        gap = 1 + math.floor(math.log1p(-edge_rng.u) / math.log1p(-rho))
        row, = _sparse_iid_sampler(Distribution.bernoulli(rho), size, 1)([edge_rng])
        assert np.array_equal(np.flatnonzero(row), np.arange(gap - 1, size, gap))


class TestSpoofJammer:
    def test_valid_when_codebook_obeys_state_budget(self):
        rng = np.random.default_rng(6)
        codebook = (rng.random((16, 128)) < 0.05).astype(np.int8)
        (states,), rejections, (admissible,) = spoof_jammer_rows(
            uniform_rows(codebook), 128, 32, ConstraintSet.weight_cap(0.2), [rng])
        assert admissible and rejections.tolist() == [0]
        assert any((states == row).all() for row in codebook)

    def test_invalid_status_reported_not_raised(self):
        rng = np.random.default_rng(7)
        codebook = (rng.random((8, 128)) < 0.3).astype(np.int8)
        _, _, admissible = spoof_jammer_rows(uniform_rows(codebook), 128, 32,
                                             ConstraintSet.weight_cap(0.05), [rng])
        assert admissible.tolist() == [False]

    def test_single_codeword_deterministic(self):
        word = np.zeros((1, 64), dtype=np.int8)
        states, _, _ = spoof_jammer_rows(uniform_rows(word), 64, 16, ConstraintSet.weight_cap(0.2),
                                         [np.random.default_rng(8)])
        assert (states == 0).all()

    def test_sampler_callable_supported(self):
        rng = np.random.default_rng(9)
        fixed = (rng.random(64) < 0.05).astype(np.int8)
        states, _, _ = spoof_jammer_rows(fixed_rows(fixed), 64, 16, ConstraintSet.weight_cap(0.2),
                                         [rng])
        assert (states == fixed).all()


class TestSymmetrizeJammer:
    def test_identity_map_reduces_to_spoof(self):
        rng = np.random.default_rng(10)
        codebook = (rng.random((4, 96)) < 0.05).astype(np.int8)
        ident = (Distribution.point_mass(0, 2), Distribution.point_mass(1, 2))
        (states,), _, _ = symmetrize_jammer_rows(
            uniform_rows(codebook), ident, 96, 32, ConstraintSet.weight_cap(0.2), [rng]
        )
        assert any((states == row).all() for row in codebook)

    def test_witness_driven_states_admissible(self):
        rng = np.random.default_rng(11)
        codebook = (rng.random((8, 128)) < 0.05).astype(np.int8)
        lam = ConstraintSet.weight_cap(0.2)
        wit = ecn_symmetrizable(Distribution.bernoulli(0.05), Channel.xor(), lam)
        assert wit.feasible
        (states,), _, (admissible,) = symmetrize_jammer_rows(uniform_rows(codebook), wit.witness,
                                                             128, 32, lam, [rng])
        assert admissible
        assert verify_windows(states, 32, lam).valid

    def test_point_mass_rows_give_constant_state(self):
        rng = np.random.default_rng(12)
        codebook = (rng.random((4, 64)) < 0.05).astype(np.int8)
        zero_map = (Distribution.point_mass(0, 2), Distribution.point_mass(0, 2))
        states, _, _ = symmetrize_jammer_rows(
            uniform_rows(codebook), zero_map, 64, 16, ConstraintSet.weight_cap(0.2), [rng]
        )
        assert not states.any()

    def test_point_mass_on_state_1_at_edge_uniforms(self, edge_rng):
        to_one = (Distribution.point_mass(1, 2), Distribution.point_mass(1, 2))
        states, _, _ = symmetrize_jammer_rows(
            fixed_rows(np.zeros(32, dtype=np.int8)), to_one, 32, 8,
            ConstraintSet.weight_cap(1.0), [edge_rng],
        )
        assert states.tolist() == [[1] * 32]


class TestWindowLongerThanSequence:
    @pytest.mark.parametrize("jam", [
        lambda rng: iid_jammer_rows(Distribution.bernoulli(0.05), 32, 64,
                                    ConstraintSet.weight_cap(0.2), [rng]),
        lambda rng: symmetrize_jammer_rows(
            fixed_rows(np.zeros(32, dtype=np.int8)),
            (Distribution.point_mass(0, 2), Distribution.point_mass(0, 2)),
            32, 64, ConstraintSet.weight_cap(0.2), [rng]),
    ], ids=["iid", "symmetrize"])
    def test_refused_with_the_window_rule(self, jam):
        with pytest.raises(ValueError, match="window length must satisfy 1 <= w <= 32"):
            jam(np.random.default_rng(13))


class TestObliviousContract:
    def test_generators_take_no_message_or_realization(self):
        # interface shape: no parameter could carry the transmitted message
        for fn in (iid_jammer_rows, spoof_jammer_rows, symmetrize_jammer_rows):
            names = set(inspect.signature(fn).parameters)
            assert not names & {"message", "codeword", "transmitted", "x_seq"}


class TestFallback:
    def test_constant_sequence_when_admissible(self):
        seq = fallback_state_sequence(100, 16, ConstraintSet.weight_cap(0.2))
        assert not seq.any()

    def test_interior_point_word_otherwise(self):
        # state set excludes all point masses: weight must sit in [0.25, 0.5]
        lam = ConstraintSet(2, [([0.0, 1.0], 0.5), ([0.0, -1.0], -0.25)])
        seq = fallback_state_sequence(96, 8, lam)
        assert verify_windows(seq, 8, lam).valid
        assert seq.dtype == np.int8
        assert hashlib.sha256(seq.tobytes()).hexdigest() == (
            "cfb37903cb43ee5e384efbadf78527c8957aba51e4b272ff8c2f95452bf20797"
        )

    def test_vertices_off_the_window_lattice(self):
        # weight in [0.03, 0.05]: neither vertex is a multiple of 1/64, yet a
        # word with 3 ones in every 64 symbols is admissible
        lam = ConstraintSet(2, [([0.0, 1.0], 0.05), ([1.0, 0.0], 0.97)])
        seq = fallback_state_sequence(704, 64, lam)
        assert verify_windows(seq, 64, lam).valid
        assert seq.dtype == np.int8
        assert hashlib.sha256(seq.tobytes()).hexdigest() == (
            "e74528426188fa43960c2aded24799130909a57d05ecf2b63c6133d1b71ec49e"
        )


class TestRows:
    """A block of draws gives each generator what its own block of one gives,
    whatever the width of the rejection pool; a capped draw reads
    rejections == cap and admissible == False."""

    LAM = ConstraintSet.weight_cap(0.1)
    BOOK = (np.random.default_rng(34).random((16, 64)) < 0.06).astype(np.int8)

    def _compare(self, jam, seeds=range(8)):
        """jam(rngs) -> one row per generator, run on the seeds at once and one at a time."""
        block = draw_rows(jam([np.random.default_rng(s) for s in seeds]))
        ones = [draw_rows(jam([np.random.default_rng(s)]))[0] for s in seeds]
        assert block == ones
        return ones

    @staticmethod
    def _check_capped(rows, cap):
        """Some rows finished and some hit the cap; those read the cap and are not
        admissible, the others read fewer rejections."""
        assert {admissible for _, admissible, _ in rows} == {True, False}
        assert all((rejections == cap) != admissible for _, admissible, rejections in rows)

    def test_iid(self):
        # a cap of 40 stops about a quarter of the draws, each after several blocks: of
        # 64 seeds, the first 4 whose single draw hits it and the first 4 that finish
        law = Distribution.bernoulli(0.1)

        def jam(rngs):
            return iid_jammer_rows(law, 64, 16, self.LAM, rngs, 40)

        capped = [s for s in range(64) if not jam([np.random.default_rng(s)])[2][0]]
        finished = [s for s in range(64) if s not in capped]
        want = self._compare(jam, sorted(capped[:4] + finished[:4]))
        assert [admissible for _, admissible, _ in want].count(False) == 4
        self._check_capped(want, 40)

    def test_symmetrize(self):
        u = (Distribution.bernoulli(0.05), Distribution.bernoulli(0.6))
        want = self._compare(lambda rngs: symmetrize_jammer_rows(
            uniform_rows(self.BOOK), u, 64, 16, self.LAM, rngs, 8))
        self._check_capped(want, 8)

    def test_spoof(self):
        lam = ConstraintSet.weight_cap(0.08)
        want = self._compare(lambda rngs: spoof_jammer_rows(uniform_rows(self.BOOK), 64, 16, lam,
                                                            rngs))
        assert {w[1] for w in want} == {True, False}
        assert {w[2] for w in want} == {0}

    def _pool(self, jam, jam_rounds, monkeypatch, width=3, seeds=range(20)):
        """jam(rngs) on 20 generators at once in a pool of width: each gets what it
        gets jammed alone and is left where the lone run leaves it, and the
        rejection pool holds width rows each round while generators wait, fewer
        only after."""
        monkeypatch.setattr(jammers, "_POOL_WIDTH", width)
        pooled = [np.random.default_rng(s) for s in seeds]
        got = draw_rows(jam(pooled))
        rounds, spans = list(jam_rounds.rounds), jam_rounds.spans()
        alone = [np.random.default_rng(s) for s in seeds]
        assert got == [draw_rows(jam([rng]))[0] for rng in alone]
        assert [rng.random() for rng in pooled] == [rng.random() for rng in alone]
        assert list(spans) == [id(rng) for rng in pooled]  # entry in the order of rngs
        last_entry = max(first for first, _ in spans.values())
        assert all(len(rows) == width for rows in rounds[:last_entry + 1])
        assert all(len(rows) <= width for rows in rounds)
        # whether each draw left the pool, accepted or capped, while others waited
        return [(g, spans[id(rng)][1] < last_entry) for g, rng in zip(got, pooled)]

    def test_iid_pool(self, jam_rounds, monkeypatch):
        law = Distribution.bernoulli(0.1)
        got = self._pool(lambda rngs: iid_jammer_rows(law, 64, 16, self.LAM, rngs, 40),
                         jam_rounds, monkeypatch)
        # a capped draw and an accepted one each gave up their slot to a waiting draw
        assert {g[1] for g, early in got if early} == {True, False}

    def test_symmetrize_pool(self, jam_rounds, monkeypatch):
        u = (Distribution.bernoulli(0.05), Distribution.bernoulli(0.6))
        sample_rows = jam_rounds.wrap(uniform_rows(self.BOOK))
        got = self._pool(lambda rngs: symmetrize_jammer_rows(
            sample_rows, u, 64, 16, self.LAM, rngs, 8), jam_rounds, monkeypatch)
        assert {g[1] for g, early in got if early} == {True, False}


class TestPinnedStreams:
    """Seeded symmetrize and spoof draws, pinned bit for bit.

    A change to the rejection loop or the sampler may not move them: the
    symmetrize jammer tries one fresh codeword per candidate, so its stream
    has no block length to depend on.
    """

    BOOK = (np.random.default_rng(31).random((16, 48)) < 0.12).astype(np.int8)
    LAM = ConstraintSet.weight_cap(0.25)

    @staticmethod
    def _digest(results) -> str:
        rows = [row for result in results for row in draw_rows(result)]
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

    @pytest.mark.parametrize("u, digest", [
        ((Distribution.point_mass(0, 2), Distribution.point_mass(1, 2)),
         "a3a4b4131b572c07e012bde048d9179c15cbebec4b50695166c073adf245e6b5"),
        ((Distribution.bernoulli(0.1), Distribution.bernoulli(0.7)),
         "a35d349c922fccd7de66424d1e4243a2d96775e17847cf4b7e7b36e66b8b4b62"),
    ], ids=["point-mass", "mixed"])
    def test_symmetrize_jammer(self, u, digest):
        rng = np.random.default_rng(32)
        results = [
            symmetrize_jammer_rows(uniform_rows(self.BOOK), u, 48, 12, self.LAM, [rng])
            for _ in range(20)
        ]
        assert self._digest(results) == digest

    def test_spoof_jammer(self):
        rng = np.random.default_rng(33)
        results = [
            spoof_jammer_rows(uniform_rows(self.BOOK), 48, 12, self.LAM, [rng])
            for _ in range(20)
        ]
        assert self._digest(results) == (
            "04da9c20ee7c65d0d616581ed6e745540df2a9eb0150f2fb24269d043dd28814"
        )


class TestExactConditioning:
    """The accepted states follow the candidate law conditioned on admissibility.

    On n = 8, w_s = 3 under a weight cap of 1/3 (at most one 1 per window)
    every binary sequence is enumerated, so the conditional law and the
    acceptance probability a are exact; rejections before an acceptance are
    geometric with mean (1 - a) / a.
    """

    N, W_S, DRAWS = 8, 3, 20_000
    LAM = ConstraintSet.weight_cap(1 / 3)
    SEQS = np.array(list(itertools.product((0, 1), repeat=8)), dtype=np.int8)
    # brute force: a cap of 1/3 on a 3-window allows at most one 1
    ADMISSIBLE = np.lib.stride_tricks.sliding_window_view(SEQS, 3, axis=1).sum(-1).max(1) <= 1

    def check_law(self, results, probs):
        """results: one jammer result per draw; probs: the candidate law over SEQS,
        before conditioning."""
        a = probs[self.ADMISSIBLE].sum()
        states, rejections, admissible = map(np.concatenate, zip(*results))
        assert admissible.all()
        # SEQS lists the words in binary counting order, first symbol most significant
        rows = states.astype(int) @ (1 << np.arange(self.N)[::-1])
        observed = np.bincount(rows, minlength=self.SEQS.shape[0])
        assert not observed[~self.ADMISSIBLE].any()
        expected = self.DRAWS * probs[self.ADMISSIBLE] / a
        assert chisquare(observed[self.ADMISSIBLE], expected).pvalue > 1e-3
        spread = np.sqrt(1 - a) / a / np.sqrt(self.DRAWS)  # sd of the mean of a geometric
        assert abs(rejections.mean() - (1 - a) / a) < 4 * spread

    def test_iid_jammer(self):
        p = 0.3
        weights = self.SEQS.sum(axis=1)
        probs = p**weights * (1 - p) ** (self.N - weights)
        rng = np.random.default_rng(40)
        results = [
            iid_jammer_rows(Distribution.bernoulli(p), self.N, self.W_S, self.LAM, [rng])
            for _ in range(self.DRAWS)
        ]
        self.check_law(results, probs)

    def test_symmetrize_jammer(self):
        book = np.array([[0, 1, 0, 0, 1, 0, 0, 0], [1, 0, 0, 1, 0, 1, 1, 0]], dtype=np.int8)
        u = (Distribution.bernoulli(0.2), Distribution.bernoulli(0.5))
        u_mat = np.vstack([row.probs for row in u])
        # uniform codeword, then independent states through U(s|x)
        probs = sum(
            0.5 * np.prod(u_mat[x][np.arange(self.N), self.SEQS], axis=1) for x in book
        )
        rng = np.random.default_rng(41)
        results = [
            symmetrize_jammer_rows(uniform_rows(book), u, self.N, self.W_S, self.LAM, [rng])
            for _ in range(self.DRAWS)
        ]
        self.check_law(results, probs)

    @settings(max_examples=60)
    @given(
        n=st.integers(1, 60),
        data=st.data(),
        cap=st.sampled_from([0.1, 0.25, 1 / 3, 0.5, 0.75]),
        margin=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_accepted_states_pass_verify_windows(self, n, data, cap, margin, seed):
        w_s = data.draw(st.integers(1, n), label="w_s")
        lam = ConstraintSet.weight_cap(cap)
        states, (rejections,), (admissible,) = iid_jammer_rows(
            Distribution.bernoulli(cap * margin), n, w_s, lam, [np.random.default_rng(seed)],
            rejection_cap=2000)
        assert states.shape == (1, n)
        if not admissible:
            assert rejections == 2000  # no acceptance within the cap: nothing more to check
            return
        assert verify_windows(states[0], w_s, lam).valid
