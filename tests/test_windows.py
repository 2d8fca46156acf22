"""Window verifier vs brute force, guard words, and expurgation."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from winavc.core import (
    TOLERANCE,
    ConstraintSet,
    Distribution,
    InfeasibleSetError,
)
from winavc.windows import (
    INCLUSIVE_RANGE,
    OPEN_RANGE,
    expurgate,
    guard_word,
    verify_windows,
    violation_flags,
    windows_valid,
    windows_valid_rows,
)


def brute_force_report(seq, w, cset, mode=INCLUSIVE_RANGE, tol=1e-9):
    """Independent re-count oracle: recompute every window type from scratch."""
    seq = np.asarray(seq)
    n = seq.size
    n_starts = n - w + 1 if mode == INCLUSIVE_RANGE else n - w
    violations = []
    for start in range(max(n_starts, 0)):
        window = seq[start : start + w]
        t = np.bincount(window, minlength=cset.dim) / w
        if cset.num_inequalities and np.any(
            cset.coeffs @ t > cset.bounds + tol
        ):
            violations.append(start)
    return violations, max(n_starts, 0)


class TestVerifyWindows:
    def test_valid_example(self):
        rep = verify_windows([1, 0, 0, 0, 1, 0, 0, 0], 4, ConstraintSet.weight_cap(0.25))
        assert rep.valid and rep.windows_checked == 5

    def test_invalid_example(self):
        rep = verify_windows([1, 1, 0, 0, 0, 0, 0, 0], 4, ConstraintSet.weight_cap(0.25))
        assert not rep.valid
        # first violating window is the one containing both ones
        assert rep.first_violation() == 0
        assert rep.violations[0][1].probs.tolist() == [0.5, 0.5]

    def test_windowless_reduction(self):
        seq = [1, 0, 1, 0, 0, 0, 0, 0]
        g = ConstraintSet.weight_cap(0.25)
        rep = verify_windows(seq, len(seq), g)
        overall = Distribution(np.bincount(seq, minlength=2) / len(seq))
        assert rep.valid == g.contains(overall)
        assert rep.windows_checked == 1

    def test_open_range_skips_last_window(self):
        # only the final window violates; the literal index set misses it
        seq = [0, 0, 0, 0, 1, 1]
        g = ConstraintSet.weight_cap(0.3)
        assert verify_windows(seq, 3, g, OPEN_RANGE).valid is False
        seq2 = [0, 0, 0, 0, 0, 1]  # violation only at the very last start
        assert verify_windows(seq2, 1, g, OPEN_RANGE).valid is True
        assert verify_windows(seq2, 1, g, INCLUSIVE_RANGE).valid is False

    def test_non_integer_symbols_rejected(self):
        # [0.6, 1.9] truncated to [0, 1] would pass the cap
        g = ConstraintSet.weight_cap(0.5)
        with pytest.raises(ValueError, match="integers"):
            verify_windows([0.6, 1.9, 0, 0], 2, g)
        assert verify_windows([0.0, 1.0, 0, 0], 2, g).valid

    def test_window_too_long(self):
        with pytest.raises(ValueError):
            verify_windows([0, 1], 3, ConstraintSet.weight_cap(0.5))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_brute_force(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(400):
            n = int(rng.integers(2, 65))
            w = int(rng.integers(1, n + 1))
            seq = rng.integers(0, dim, size=n)
            coeffs = rng.uniform(-1, 1, size=dim)
            bound = float(rng.uniform(coeffs.min(), coeffs.max()))
            try:
                cset = ConstraintSet(dim, [(coeffs, bound)])
            except ValueError:
                continue
            mode = INCLUSIVE_RANGE if rng.random() < 0.5 else OPEN_RANGE
            rep = verify_windows(seq, w, cset, mode)
            want_viol, want_count = brute_force_report(seq, w, cset, mode)
            assert rep.windows_checked == want_count
            assert [s for s, _ in rep.violations] == want_viol
            for s, d in rep.violations:
                assert d == Distribution(np.bincount(seq[s : s + w], minlength=dim) / w)
            if mode == INCLUSIVE_RANGE:
                assert windows_valid(seq, w, cset) == rep.valid


class TestGuardWord:
    def test_exact_example(self):
        word = guard_word([6, 2], 8)  # reduced to the block [3, 1]
        assert word.dtype == np.int8
        assert word.tolist() == [0, 0, 0, 1, 0, 0, 0, 1]

    def test_point_mass(self):
        assert guard_word([8, 0], 12).tolist() == [0] * 12

    def test_truncated_type(self):
        word = guard_word([3, 1], 5)
        assert word.tolist() == [0, 0, 0, 1, 0]
        t = Distribution(np.bincount(word, minlength=2) / word.size)
        assert t.probs.tolist() == [0.8, 0.2]
        tv = 0.5 * np.abs(t.probs - np.array([0.75, 0.25])).sum()
        assert tv == pytest.approx(0.05)
        assert tv <= 4 / 5

    def test_block_longer_than_word_rejected(self):
        with pytest.raises(ValueError):
            guard_word([9, 1], 5)  # needs b = 10 > 5

    @pytest.mark.parametrize("counts", [[0, 0], [3, -1]])
    def test_counts_without_a_block_rejected(self, counts):
        with pytest.raises(ValueError, match="non-negative with a positive sum"):
            guard_word(counts, 8)

    @pytest.mark.parametrize(
        "target,w_x",
        [
            ([3, 1], 64),
            ([1, 1], 37),
            ([4, 1, 1], 48),
            ([7, 1], 256),
        ],
    )
    def test_tv_bound_exhaustive(self, target, w_x):
        # target is the type's reduced symbol counts; every contiguous window
        # of length L >= b stays within b/L in TV
        b = sum(target)
        sym = guard_word(target, w_x)
        for L in range(b, w_x + 1):
            for start in range(w_x - L + 1):
                win = sym[start : start + L]
                emp = np.bincount(win, minlength=len(target)) / L
                tv = 0.5 * np.abs(emp - np.array(target) / b).sum()
                assert tv <= b / L + 1e-12


class TestExpurgate:
    def test_all_zero_retained(self):
        g = ConstraintSet.weight_cap(0.5)
        kept, stats = expurgate(np.zeros((3, 16), dtype=np.int8), 4, g)
        assert kept.shape == (3, 16)
        assert stats.removed == 0

    def test_all_ones_removed(self):
        g = ConstraintSet.weight_cap(0.5)
        kept, stats = expurgate(np.ones((1, 16), dtype=np.int8), 4, g)
        assert kept.shape[0] == 0
        assert stats.removed_fraction == 1.0

    def test_removed_fraction_small_for_interior_law(self):
        # Removal vanishes with the margin.  At Bern(0.2) vs cap 0.4 the
        # union bound 193 * P(Bin(64, 0.2) >= 26) ~ 0.025 certifies < 0.05;
        # at Bern(0.25) direct Monte Carlo puts the truth near 0.08.
        rng = np.random.default_rng(9)
        g = ConstraintSet.weight_cap(0.4)
        words = (rng.random((2000, 256)) < 0.2).astype(np.int8)
        _, stats = expurgate(words, 64, g)
        assert stats.removed_fraction < 0.05
        words = (rng.random((2000, 256)) < 0.25).astype(np.int8)
        _, stats = expurgate(words, 64, g)
        assert stats.removed_fraction < 0.15

    def test_survivors_pass_verifier(self):
        rng = np.random.default_rng(10)
        words = (rng.random((300, 64)) < 0.3).astype(np.int8)
        g = ConstraintSet.weight_cap(0.4)
        kept, _ = expurgate(words, 16, g)
        for row in kept:
            assert verify_windows(row, 16, g).valid

    def test_kept_rows_are_the_input_unless_one_is_dropped(self):
        g = ConstraintSet.weight_cap(0.25)
        words = np.zeros((3, 16), dtype=np.int8)
        kept, _ = expurgate(words, 4, g)
        assert np.shares_memory(kept, words)
        words[1, :2] = 1
        kept, stats = expurgate(words, 4, g)
        assert stats.kept_indices.tolist() == [0, 2]
        assert not np.shares_memory(kept, words)

    def test_suffix_straddle_detected(self):
        # codeword is fine alone; the straddle with the context violates
        g = ConstraintSet.weight_cap(0.25)
        word = np.zeros((1, 12), dtype=np.int8)
        word[0, -1] = 1
        assert expurgate(word, 4, g)[1].removed == 0
        suffix = np.array([1, 0, 0], dtype=np.int8)
        _, stats = expurgate(word, 4, g, suffix_context=suffix)
        assert stats.removed == 1
        # a violating window past the 3 suffix symbols a straddle reaches is not the codeword's
        far = np.array([0, 0, 0, 1, 1], dtype=np.int8)
        assert expurgate(word, 4, g, suffix_context=far)[1].removed == 0

    def test_prefix_straddle_detected(self):
        g = ConstraintSet.weight_cap(0.25)
        word = np.zeros((1, 12), dtype=np.int8)
        word[0, 0] = 1
        prefix = np.array([0, 0, 1], dtype=np.int8)
        _, stats = expurgate(word, 4, g, prefix_context=prefix)
        assert stats.removed == 1
        _, stats2 = expurgate(word, 4, g)
        assert stats2.removed == 0
        far = np.array([1, 1, 0, 0, 0], dtype=np.int8)
        assert expurgate(word, 4, g, prefix_context=far)[1].removed == 0

    def test_matches_single_sequence_verifier(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(8, 40))
            w = int(rng.integers(2, n + 1))
            words = rng.integers(0, 2, size=(20, n)).astype(np.int8)
            g = ConstraintSet.weight_cap(float(rng.uniform(0.2, 0.8)))
            ok_rows = windows_valid_rows(words, w, g)
            for row, ok in zip(words, ok_rows):
                assert verify_windows(row, w, g).valid == ok


def _violates(window, cset, tol=TOLERANCE):
    """Per-window check in plain Python: c @ counts > bound*w + tol*w."""
    w = len(window)
    counts = [sum(1 for s in window if s == k) for k in range(cset.dim)]
    return any(
        sum(float(c[k]) * counts[k] for k in range(cset.dim)) > b * w + tol * w
        for c, b in cset.inequalities
    )


@st.composite
def quarter_sets(draw):
    """A feasible set over 2-4 symbols with 1-3 inequalities in quarters.

    Coefficients and bounds are multiples of 1/4, so window sums are exact
    and windows can sit exactly on a bound.
    """
    dim = draw(st.integers(2, 4), label="dim")
    quarters = st.integers(-4, 4).map(lambda k: k / 4)
    ineqs = draw(st.lists(
        st.tuples(st.lists(quarters, min_size=dim, max_size=dim), quarters),
        min_size=1, max_size=3,
    ), label="inequalities")
    try:
        return ConstraintSet(dim, ineqs)
    except InfeasibleSetError:
        assume(False)


class TestWindowKernelBruteForce:
    @given(data=st.data())
    def test_windows_valid_rows(self, data):
        cset = data.draw(quarter_sets(), label="cset")
        rows = data.draw(st.integers(1, 6), label="rows")
        n = data.draw(st.integers(1, 12), label="n")
        w = data.draw(st.integers(1, n), label="w")
        mat = np.array(data.draw(st.lists(
            st.integers(0, cset.dim - 1), min_size=rows * n, max_size=rows * n,
        ), label="symbols"), dtype=np.int8).reshape(rows, n)
        want = [
            not any(_violates(row[t:t + w], cset) for t in range(n - w + 1))
            for row in mat.tolist()
        ]
        assert windows_valid_rows(mat, w, cset).tolist() == want

    @given(data=st.data())
    def test_expurgate_with_both_contexts(self, data):
        cset = data.draw(quarter_sets(), label="cset")
        symbols = st.integers(0, cset.dim - 1)
        rows = data.draw(st.integers(1, 6), label="rows")
        n = data.draw(st.integers(1, 10), label="n")
        # each context may be absent, or longer than the w - 1 symbols it is trimmed to
        contexts = st.none() | st.lists(symbols, max_size=12)
        pre = data.draw(contexts, label="prefix")
        suf = data.draw(contexts, label="suffix")
        # a window may cover the whole codeword and both contexts
        w = data.draw(st.integers(1, len(pre or []) + n + len(suf or [])), label="w")
        mat = np.array(data.draw(st.lists(
            symbols, min_size=rows * n, max_size=rows * n,
        ), label="symbols"), dtype=np.int8).reshape(rows, n)
        # a codeword is dropped iff some window of prefix+codeword+suffix
        # that overlaps the codeword violates
        want = []
        for r, row in enumerate(mat.tolist()):
            ext = (pre or []) + row + (suf or [])
            lo, hi = len(pre or []), len(pre or []) + n
            bad = any(
                _violates(ext[t:t + w], cset)
                for t in range(len(ext) - w + 1) if t < hi and t + w > lo
            )
            if not bad:
                want.append(r)
        kept, stats = expurgate(
            mat, w, cset,
            suffix_context=None if suf is None else np.array(suf, dtype=np.int8),
            prefix_context=None if pre is None else np.array(pre, dtype=np.int8),
        )
        assert stats.kept_indices.tolist() == want
        assert np.array_equal(kept, mat[want])


def cumsum_window_violations(mat, w, gamma):
    """The earlier int32 cumsum kernel, kept as the reference for the flags."""
    rows, n = mat.shape
    flags = np.zeros((rows, n - w + 1), dtype=bool)
    win_counts = {}
    for sym in np.flatnonzero(np.any(gamma.coeffs != 0.0, axis=0)):
        csum = np.cumsum(mat == sym, axis=1, dtype=np.int32)
        counts = csum[:, w - 1:].copy()
        counts[:, 1:] -= csum[:, : n - w]
        win_counts[sym] = counts
    for c, bound in zip(gamma.coeffs, gamma.bounds):
        terms = (c[sym] * counts for sym, counts in win_counts.items() if c[sym] != 0.0)
        dots = next(terms, 0.0)
        for term in terms:
            dots += term
        flags |= dots > bound * w + TOLERANCE * w
    return flags


def tenth_on_threshold(w, k):
    """The bound b with b*w + TOLERANCE*w == fl(0.1*k): the window test's float
    threshold sits exactly on a count's weighted sum, where only the strict > decides."""
    b = (0.1 * k - TOLERANCE * w) / w
    for _ in range(16):
        t = b * w + TOLERANCE * w
        if t == 0.1 * k:
            return b
        b = np.nextafter(b, np.inf if t < 0.1 * k else -np.inf)
    raise AssertionError(f"no bound puts the threshold on 0.1 * {k} at w = {w}")


KERNEL_N = 600
KERNEL_WINDOWS = [1, 2, 63, 64, 65, 255, 256, 257, KERNEL_N]
KERNEL_SETS = {
    2: {
        "cap": lambda w: ConstraintSet.weight_cap(0.3),
        "floor": lambda w: ConstraintSet(2, [([0.0, -1.0], -0.2)]),
        "negative-pair": lambda w: ConstraintSet(2, [([0.0, -0.7], -0.1), ([-2.5, 0.0], -1.9)]),
        "tenth-on-count": lambda w: ConstraintSet(
            2, [([0.0, 0.1], tenth_on_threshold(w, max(w // 3, 1)))]
        ),
        "both-symbols": lambda w: ConstraintSet(2, [([0.3, 0.7], 0.55)]),
        # an all-zero row whose threshold -TOLERANCE*w + TOLERANCE*w is exactly 0
        "zero-row": lambda w: ConstraintSet(2, [([0.0, 0.0], -TOLERANCE), ([0.0, 1.0], 0.35)]),
    },
    3: {
        "caps": lambda w: ConstraintSet(3, [([0.0, 1.0, 0.0], 0.4), ([0.0, 0.0, 1.0], 0.3)]),
        "floor-and-tenth": lambda w: ConstraintSet(
            3, [([-1.0, 0.0, 0.0], -0.25), ([0.0, 0.1, 0.0], tenth_on_threshold(w, max(w // 3, 1)))]
        ),
        "mixed": lambda w: ConstraintSet(3, [([0.2, -0.5, 1.0], 0.3), ([0.0, 1.0, 1.0], 0.7)]),
    },
}


def kernel_rows(dim, rows, n, seed):
    """Rows of i.i.d. symbols, each under its own law, so windows fall on both sides
    of a bound; the last row repeats the last symbol, so its counts reach w."""
    rng = np.random.default_rng(seed)
    laws = rng.dirichlet(np.ones(dim), size=rows - 1)
    mat = [rng.choice(dim, size=n, p=law) for law in laws] + [np.full(n, dim - 1)]
    return np.array(mat, dtype=np.int8)


class TestKernelMatchesCumsum:
    """The window kernel's flags equal the cumsum reference's, bit for bit."""

    def check(self, mat, w, cset):
        want = cumsum_window_violations(mat, w, cset)
        assert np.array_equal(windows_valid_rows(mat, w, cset), ~want.any(axis=1))
        for row, row_want in zip(mat, want):
            assert np.array_equal(violation_flags(row, w, cset), row_want)
        return want

    @pytest.mark.parametrize("w", KERNEL_WINDOWS)
    @pytest.mark.parametrize(
        "dim,name", [(d, k) for d, sets in KERNEL_SETS.items() for k in sets]
    )
    def test_flags(self, dim, name, w):
        cset = KERNEL_SETS[dim][name](w)
        mat = kernel_rows(dim, 12, KERNEL_N, seed=1000 * dim + w)
        want = self.check(mat, w, cset)
        # contexts of w - 1 symbols: every window of the extended rows overlaps the codeword
        pre = suf = None
        ext = mat
        if w > 1:
            pre, suf = mat[0, : w - 1], mat[1, : w - 1]
            ext = np.hstack([np.tile(pre, (12, 1)), mat, np.tile(suf, (12, 1))])
        keep = ~cumsum_window_violations(ext, w, cset).any(axis=1)
        kept, stats = expurgate(mat, w, cset, suffix_context=suf, prefix_context=pre)
        assert stats.kept_indices.tolist() == np.flatnonzero(keep).tolist()
        assert np.array_equal(kept, mat[keep])
        if name in ("cap", "mixed") and w < KERNEL_N:
            assert 0 < want.sum() < want.size  # windows on both sides of the bound

    @pytest.mark.parametrize("w", [65_535, 65_536, 70_001])
    def test_windows_past_uint16(self, w):
        # counts past 65,535 need a wider type than the uint16 path's
        mat = kernel_rows(2, 2, 70_001, seed=w)
        mat[0, :68_000] = 1
        self.check(mat, w, ConstraintSet.weight_cap(0.6))
        self.check(mat, w, ConstraintSet(2, [([0.0, -1.0], -0.6)]))

    def test_equal_and_fresh_sets_at_one_window(self):
        # tests are kept per set: two equal sets, then sets built and dropped in turn
        mat = kernel_rows(2, 12, KERNEL_N, seed=7)
        a, b = ConstraintSet.weight_cap(0.3), ConstraintSet.weight_cap(0.3)
        self.check(mat, 64, a)
        self.check(mat, 64, b)
        for bound in np.linspace(0.05, 0.95, 19):
            self.check(mat, 64, ConstraintSet.weight_cap(float(bound)))
            self.check(mat, 64, ConstraintSet(2, [([0.0, -1.0], -float(bound))]))


class TestConvexityGlue:
    def test_window_type_mixture_stays_inside(self):
        # If both segment types lie in a half-space set, any window covering
        # parts of both has a type that is a convex mix of sub-window types.
        rng = np.random.default_rng(12)
        g = ConstraintSet.weight_cap(0.4)
        for _ in range(100):
            a = (rng.random(24) < 0.3).astype(int)
            b = (rng.random(24) < 0.35).astype(int)
            seq = np.concatenate([a, b])
            w = 12
            for start in range(24 - w + 1, 24):
                win = seq[start : start + w]
                left = win[: 24 - start]
                right = win[24 - start :]
                tl = np.bincount(left, minlength=2) / left.size
                tr = np.bincount(right, minlength=2) / right.size
                if g.contains(Distribution(tl)) and g.contains(Distribution(tr)):
                    mix = (left.size * tl + right.size * tr) / w
                    assert g.contains(Distribution(mix))
                    full = np.bincount(win, minlength=2) / w
                    assert np.allclose(full, mix)
