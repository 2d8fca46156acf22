"""Trial driver: reproducibility, estimator exactness, sweeps, config."""

import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from winavc import gf2, harness
from winavc.codec import (
    CodecParams,
    CodeConstructionError,
    HashParams,
    build_three_phase_codec,
    poly_hash,
)
from winavc.core import (
    Channel,
    ConstraintSet,
    Distribution,
    WindowedAvcSpec,
    bitflip_spec,
    channel_sample_rows,
)
from winavc.capacity import bitflip_list_capacity
from winavc.cli import EXIT_OK, cli_main
from winavc.harness import (
    ConfigError,
    ExperimentConfig,
    JammerParams,
    build_codec_from_config,
    config_from_dict,
    format_csv,
    load_config,
    run_trials,
    sweep,
    wilson_interval,
)
from winavc.windows import windows_valid_rows


def small_config(jammer_kind="iid", trials=60, seed=1, criterion="average", **code_kw):
    spec = bitflip_spec(0.3, 0.05, 448, 64, 64)
    code = dict(
        layout="thm1", n1=256, message_bits=4, field_bits=4,
        p_x=Distribution.bernoulli(0.1), key_len=128,
    )
    code.update(code_kw)
    return ExperimentConfig(
        spec=spec,
        code=CodecParams(**code),
        jammer=JammerParams(kind=jammer_kind),
        trials=trials,
        master_seed=seed,
        error_criterion=criterion,
    )


def run_with_tight_budget():
    """run_trials on small_config with its phase-1 decoding radius forced to 0."""
    config = small_config(trials=3)
    codec, build_stats = build_codec_from_config(config)
    tight = dataclasses.replace(codec, budget1=dataclasses.replace(codec.budget1, radius=0))
    return run_trials(config, codec=tight, build_stats=build_stats)


class TestWilson:
    def test_basic_interval(self):
        lo, hi = wilson_interval(5, 100)
        assert 0.0 < lo < 0.05 < hi < 0.15

    def test_extremes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.1
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo > 0.9


class TestRunTrials:
    def test_zero_noise_perfect(self):
        config = small_config(jammer_kind="none", trials=40)
        stats = run_trials(config)
        assert stats.err_avg == 0.0
        assert stats.outcome_counts["correct"] == 40

    def test_outcomes_partition(self):
        config = small_config(trials=50)
        stats = run_trials(config)
        assert sum(stats.outcome_counts.values()) == stats.trials
        assert stats.err_avg == 1.0 - stats.outcome_counts["correct"] / stats.trials

    def test_different_seeds_differ(self):
        r1 = run_trials(small_config(trials=30, seed=1))
        r2 = run_trials(small_config(trials=30, seed=2))
        assert [t.keys for t in r1.records] != [t.keys for t in r2.records]

    def test_max_criterion_dominates_average(self):
        for seed in (3, 4, 5):
            stats = run_trials(small_config(trials=64, seed=seed, criterion="max"))
            assert stats.err_max_est >= stats.err_avg - 1e-12

    def test_max_criterion_sweeps_messages(self):
        config = small_config(trials=64, criterion="max")
        stats = run_trials(config)
        seen = {r.message_id for r in stats.records}
        codec, _ = build_three_phase_codec(
            config.code, config.spec,
            np.random.default_rng(np.random.SeedSequence((config.master_seed, 0))),
        )
        assert len(seen) == codec.message_count

    def test_max_criterion_over_a_fixed_subset_of_many_messages(self):
        # 2^11 messages under a 1-bit hash keep 2,047: more than the pool cap of 1024
        doc = json.loads(EXPERIMENT_JSON.read_text())
        doc["code"].update(message_bits=11, field_bits=1)
        doc.update(criterion="max", trials=1024 + 32)
        config = config_from_dict(doc)
        codec, build_stats = build_codec_from_config(config)
        assert codec.message_count > harness.MAX_CRITERION_MESSAGE_CAP == 1024
        runs = [run_trials(config, codec=codec, build_stats=build_stats) for _ in range(2)]
        stats = runs[0]
        assert stats.notes == [
            f"max criterion over a fixed random subset of 1024 of {codec.message_count} messages"
        ]
        pool = np.random.default_rng(np.random.SeedSequence((config.master_seed, 1))).choice(
            codec.message_count, size=1024, replace=False
        )
        sent = [r.message_id for r in stats.records]
        assert sent == [int(codec.message_ids[pool[i % 1024]]) for i in range(config.trials)]
        assert len(set(sent[:1024])) == 1024  # distinct positions
        assert [r.message_id for r in runs[1].records] == sent

    def test_monte_carlo_matches_exact_enumeration(self):
        # Tiny deterministic instance: enumerate every admissible state
        # sequence and every key draw; the exact average error must fall
        # inside the Monte Carlo Wilson interval.
        spec = bitflip_spec(0.5, 0.25, 16, 4, 4)
        code = CodecParams(
            layout="thm1", n1=8, message_bits=2, field_bits=2,
            p_x=Distribution.bernoulli(0.25), key_len=4,
            key_type=Distribution.bernoulli(0.3),
        )
        config = ExperimentConfig(
            spec=spec, code=code,
            jammer=JammerParams(kind="iid", p_s=Distribution.bernoulli(0.15)),
            trials=4000, master_seed=77,
        )
        codec, _ = build_three_phase_codec(
            code, spec, np.random.default_rng(np.random.SeedSequence((77, 0))),
        )

        n = codec.plan.total_length
        p_flip = 0.15
        # exact conditional law of the admissible i.i.d. state sequences
        seq_weight = {}
        total_mass = 0.0
        for bits in itertools.product((0, 1), repeat=n):
            s = np.array(bits, dtype=np.int8)
            if windows_valid_rows(s, spec.w_s, spec.lam)[0]:
                w = p_flip ** s.sum() * (1 - p_flip) ** (n - s.sum())
                seq_weight[bits] = w
                total_mass += w

        exact_err = 0.0
        m_count = codec.message_count
        k_count = codec.key_code.ids.size
        seqs = np.array(list(seq_weight), dtype=np.int8)
        for pos in range(m_count):
            for kid in codec.key_code.ids:
                r1, r2 = int(kid) // codec.q, int(kid) % codec.q
                x = codec.encode_rows([pos], [r1], [r2])
                for res, w in zip(codec.decode_rows(x ^ seqs), seq_weight.values()):
                    wrong = not (
                        res.status == "unique"
                        and res.message_id == int(codec.message_ids[pos])
                    )
                    exact_err += wrong * w / (total_mass * m_count * k_count)

        stats = run_trials(config, keep_records=False)
        assert stats.wilson_lo - 1e-9 <= exact_err <= stats.wilson_hi + 1e-9
        # sanity: the scenario is genuinely error-prone but not hopeless
        assert 0.001 < exact_err < 0.9

    def test_spoof_forfeits_when_inadmissible(self):
        config = small_config(jammer_kind="spoof", trials=30)
        stats = run_trials(config)
        # codeword windows carry weight ~0.1 >> state cap 0.05
        assert stats.jam_forfeits == 30
        assert stats.err_avg == 0.0

    def test_public_codeword_sampler_runs_the_window_check(self):
        # an all-ones buffer pushes the windows that reach it over gamma's cap
        codec, _ = build_codec_from_config(small_config(jammer_kind="spoof"))
        broken = dataclasses.replace(codec, phase2_seq=np.ones_like(codec.phase2_seq))
        sample_rows = harness._public_codeword_sampler(broken)
        with pytest.raises(CodeConstructionError, match="violates an input window"):
            sample_rows([np.random.default_rng(i) for i in range(3)])

    def test_generation_failures_counted_within_budget(self):
        from winavc.jammers import JammerGenerationError

        spec = bitflip_spec(0.3, 0.05, 448, 64, 64)
        code = CodecParams(
            layout="thm1", n1=256, message_bits=3, field_bits=3,
            p_x=Distribution.bernoulli(0.1), key_len=128,
        )
        # a state law far outside its window budget always hits the cap
        hopeless = JammerParams(
            kind="iid", p_s=Distribution.bernoulli(0.4), rejection_cap=16
        )
        # the budget is max(10, trials // 10): 8 failures fit in it, 11 do not
        config = ExperimentConfig(
            spec=spec, code=code, jammer=hopeless, trials=8, master_seed=1,
        )
        stats = run_trials(config)
        assert stats.jam_generation_failures == 8
        assert stats.jam_forfeits == 8
        over = ExperimentConfig(
            spec=spec, code=code, jammer=hopeless, trials=11, master_seed=1,
        )
        with pytest.raises(JammerGenerationError, match="11 trials exceeded"):
            run_trials(over)


EXPERIMENT_JSON = Path(__file__).resolve().parents[1] / "examples_configs" / "experiment.json"
GRID_JSON = EXPERIMENT_JSON.with_name("grid.json")


def experiment_variant(**changes) -> ExperimentConfig:
    """examples_configs/experiment.json at 20 trials, with the given fields replaced."""
    config = load_config(str(EXPERIMENT_JSON))
    return dataclasses.replace(config, trials=20, **changes)


def spoofing_regime_config(jammer_kind: str) -> ExperimentConfig:
    """demos/spoofing_attack.py's symmetrizable regime at 20 trials: codewords are admissible states."""
    code = CodecParams(
        layout="thm1", n1=256, message_bits=4, field_bits=3, key_len=128,
        p_x=Distribution.bernoulli(0.02), key_type=Distribution.bernoulli(0.02),
        allow_symmetrizable_key_type=True,
    )
    return ExperimentConfig(
        spec=bitflip_spec(0.05, 0.1, 640, 128, 128), code=code,
        jammer=JammerParams(kind=jammer_kind), trials=20, master_seed=99,
    )


def _digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


class TestPinnedOutputs:
    """Seeded codec builds and trial outcomes, pinned bit for bit.

    The experiment.json figures were recorded before the sampler and
    window-kernel rewrites, the thm2 figures before the two buffer layouts
    shared one key-segment path, the trial records before Hamming scoring
    moved to bit-packed codewords, the field products and hashes before the
    field became one multiplication table, the CLI stdout before the unused
    knobs became constants, the likelihood-scored build and decodes before
    the two random codes shared one type and one scorer, the spoof,
    symmetrize, none and max-criterion records before trials ran in blocks;
    none may move under a later refactor or speed-up.  The figures that
    follow the i.i.d. jammer's stream (the trial rejections and records, the
    likelihood decodes and the simulate stdout) were re-recorded when its
    rejection loop began restarting each candidate after its first violating
    window.  They were re-recorded again, with every other trial record (the
    spoof, symmetrize, none and max-criterion runs), when the i.i.d. jammer
    began drawing only its sparse states, by geometric gaps, and each trial
    began drawing everything from one Generator; the codec builds held.  The
    codec builds, the likelihood decodes and every trial record were
    re-recorded when codebooks began drawing through the same sparse kernel;
    the trial outcomes and the CLI stdout held.
    """

    def test_codec_build(self):
        codec, _ = build_codec_from_config(load_config(str(EXPERIMENT_JSON)))
        assert _digest(codec.message_ids) == (
            "1a98595a5bb5ed965425dd80efde1849351043d2accc5d2e2890eb125adfba73"
        )
        assert _digest(codec.phase1_flat.codewords) == (
            "aa97f14b95b32d1160bd9e004520048adf5a7cd99f7d262c9dbeb5ede5a80208"
        )
        assert _digest(codec.key_code.codewords) == (
            "660b73b35036922342b5c392272afd5b376c65253b0719b9d6c4c2254e4b0f7f"
        )

    def test_thm2_codec_build(self):
        # the interleaved-layout build of tests/test_codec.py, pinned segment by segment
        params = CodecParams(
            layout="thm2", n1=256, message_bits=4, field_bits=4,
            p_x=Distribution.bernoulli(0.08), lam_frac=0.1,
            t1=Distribution.bernoulli(0.3), t2=Distribution.bernoulli(0.1),
            key_len=40,
        )
        codec, _ = build_three_phase_codec(
            params, bitflip_spec(0.3, 0.05, 1216, 80, 40), np.random.default_rng(13),
        )
        r1, r2 = codec.key_code.draw_keys(np.random.default_rng(0))
        digests = {
            "message_ids": _digest(codec.message_ids),
            "phase1": _digest(codec.phase1_flat.codewords),
            "key_codewords": _digest(codec.key_code.codewords),
            "key_ids": _digest(codec.key_code.ids),
            "phase2": _digest(codec.phase2_seq),
            "phase3_skeleton": _digest(codec.phase3_skeleton),
            "encode": _digest(codec.encode_rows([0], [r1], [r2])[0]),
        }
        assert digests == {
            "message_ids": "3275b8328bbe87edabce5d86b3d477076887fe3fdec4fbb812f40c0489753439",
            "phase1": "f9131461d04a35c2141bd663109148dbe5bfd4909b03c5a2b38af4f3fa4693f8",
            "key_codewords": "9867eba5ca33630406c4217132f6596372279ac72e6a7de3a6155111eead0bc5",
            "key_ids": "ae6ec34a71a4ad40c53b696e652b7eeb68ee3770e8cd7ab10e96bdc5c7aa382e",
            "phase2": "a601151925a76921836e4b338ab015cd676b48eaa932533fabaae1b5f8ac2569",
            "phase3_skeleton": "002a186bc0d71ee6fa56f71cf7b0e10ebdb02b0c7cd671442491e6844af876dc",
            "encode": "1724c28c2dccfda837d13f0fe204c8561851fb84a332bd8d17d739a0e2bb28c4",
        }

    def test_likelihood_codec_build(self):
        # the noisy-XOR build of tests/test_codec.py: the only path that
        # scores by log-likelihood instead of Hamming distance
        from winavc.jammers import iid_jammer_rows

        eps = 0.03
        table = np.empty((2, 2, 2))
        for x, s in itertools.product(range(2), repeat=2):
            table[x, s, x ^ s] = 1 - eps
            table[x, s, 1 - (x ^ s)] = eps
        noisy = Channel(table)
        lam = ConstraintSet.weight_cap(0.05)
        params = CodecParams(
            layout="thm1", n1=512, message_bits=4, field_bits=4,
            p_x=Distribution.bernoulli(0.1), key_type=Distribution.bernoulli(0.12),
            key_len=128,
        )
        spec = WindowedAvcSpec(channel=noisy, gamma=ConstraintSet.weight_cap(0.3), lam=lam,
                               w_x=64, w_s=64, n=704)
        codec, _ = build_three_phase_codec(params, spec, np.random.default_rng(17))
        assert codec.budget1.kind == "likelihood"
        draw = np.random.default_rng(18)
        decodes = []
        for _ in range(30):
            m = codec.draw_message(draw)
            r1, r2 = codec.key_code.draw_keys(draw)
            x = codec.encode_rows([m], [r1], [r2])
            jam, = iid_jammer_rows(Distribution.bernoulli(0.04), x.shape[1], 64, lam, [draw])
            res, = codec.decode_rows(channel_sample_rows(x, [jam.states], noisy, [draw]))
            decodes.append([res.status, res.message_id, list(res.keys), res.list_size])
        digests = {
            "message_ids": _digest(codec.message_ids),
            "phase1": _digest(codec.phase1_flat.codewords),
            "key_codewords": _digest(codec.key_code.codewords),
            "key_ids": _digest(codec.key_code.ids),
            "decodes": hashlib.sha256(json.dumps(decodes).encode()).hexdigest(),
        }
        assert digests == {
            "message_ids": "3275b8328bbe87edabce5d86b3d477076887fe3fdec4fbb812f40c0489753439",
            "phase1": "4a3c63119c1fe266d06f5501c588b84f7474633e4f062c7074e010968f081173",
            "key_codewords": "73ce7f94092fb7a1bcec46013a7e31803fb2157ca257a2b3f9aabcd09a0d1fd3",
            "key_ids": "0aa9cc072f92588884806c73d457ac794834124c4d16f4754e2ad8919492bb66",
            "decodes": "c913a5ce33eb15c6378c4478030fbf6d8616362ad5eb5e24498142cfdfea25a1",
        }

    def test_trial_outcomes(self):
        config = dataclasses.replace(load_config(str(EXPERIMENT_JSON)), trials=20)
        stats = run_trials(config, keep_records=False)
        assert stats.outcome_counts == {
            "correct": 20, "list-failure": 0, "disambiguation-failure": 0,
            "ambiguity": 0, "wrong-message": 0,
        }
        assert stats.jam_rejections_total == 4303

    def test_trial_records(self):
        # every field a decoding change could move, not only the outcome counts
        config = dataclasses.replace(load_config(str(EXPERIMENT_JSON)), trials=20)
        records = [
            [r.index, r.message_id, list(r.keys), r.jam_rejections,
             r.jam_forfeited, r.list_size, r.outcome]
            for r in run_trials(config).records
        ]
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == (
            "a48d4e3c565f50213098e43ef9707e07300e831110bd92cd5e509c8d405684ec"
        )

    @pytest.mark.parametrize("make_config, digest", [
        (lambda: experiment_variant(jammer=JammerParams(kind="spoof")),
         "9ccf5a2ef826d5e0fd0e23301cdcee93a0c04ed13738521995fd06fc129f36f9"),
        (lambda: spoofing_regime_config("spoof"),
         "83c5433e483692333eb45a1d1e50a1669e6382de7c86ca3f32df8680afca5090"),
        (lambda: spoofing_regime_config("symmetrize"),
         "6365fbe6384beb4d1fe7a137ef2ac6932bb6bb57d98adb35bb0ffe24feb41b93"),
        (lambda: experiment_variant(jammer=JammerParams(kind="none")),
         "7c0a4254d85d9b5449db0de8be63d1aef2d4ca0841a707bb15b70dfb949bd1ac"),
        (lambda: experiment_variant(error_criterion="max"),
         "3ab30e86fb91e5fda7fcbe34acfa8f44e01a0d1ec5ce91a7de57adbc4e9fc71c"),
    ], ids=["spoof-forfeits", "spoof-admissible", "symmetrize", "none", "max-criterion"])
    def test_other_jammer_records(self, make_config, digest):
        # the trial paths test_trial_records leaves out: every TrialRecord field
        records = [dataclasses.astuple(r) for r in run_trials(make_config()).records]
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == digest

    def test_field_products_and_hashes(self):
        # every GF(2^k) product for k = 1..8, and the hash on seeded draws
        products = hashlib.sha256()
        for k in range(1, 9):
            products.update(gf2.mul_table(k).tobytes())
        rng = np.random.default_rng(2718)
        hashes = []
        for field_bits in (3, 6, 8):
            q = 1 << field_bits
            for chunk_count in (1, 3, 8):
                hp = HashParams(field_bits=field_bits, chunk_count=chunk_count)
                chunks = rng.integers(0, q, size=(200, chunk_count))
                r1 = rng.integers(0, q, size=200)
                r2 = rng.integers(0, q, size=200)
                hashes += poly_hash(chunks, r1, r2, hp).tolist()
        assert products.hexdigest() == (
            "d32ed583cc7265f1934b08fd225b0c4d88341a5b3f7fead4db65c7c694e60506"
        )
        assert _digest(np.array(hashes, dtype=np.uint8)) == (
            "b8a18b9dd5c8cdc3d82bf23faa1efbe7bd2243bbbebe1e9bb835df2c95899ed0"
        )

    @pytest.mark.parametrize("argv, digest", [
        (["simulate", "--config", str(EXPERIMENT_JSON), "--format", "json"],
         "112e4a7ee0480ee592e5f55822a74abe2830b2fbfb5d90d6f263daffe26674ba"),
        (["sweep", "--config", str(GRID_JSON)],
         "3c462300f2009598c5310828188a4d2cb8e53da22239ced3369656abf418ec3b"),
    ], ids=["simulate-experiment-json", "sweep-grid"])
    def test_cli_stdout(self, argv, digest, capsys):
        assert cli_main(argv) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def hopeless_iid_config(trials: int) -> ExperimentConfig:
    """An iid state law far outside its window budget: every trial hits the rejection cap."""
    spec = bitflip_spec(0.3, 0.05, 448, 64, 64)
    code = CodecParams(
        layout="thm1", n1=256, message_bits=3, field_bits=3,
        p_x=Distribution.bernoulli(0.1), key_len=128,
    )
    hopeless = JammerParams(kind="iid", p_s=Distribution.bernoulli(0.4), rejection_cap=16)
    return ExperimentConfig(spec=spec, code=code, jammer=hopeless, trials=trials, master_seed=1)


class TestTrialBlocks:
    """run_trials' records do not depend on how many trials run as one block,
    which is also the width of the jammer's rejection pool."""

    @pytest.mark.parametrize("make_config", [
        lambda: small_config(trials=20),
        lambda: small_config(trials=20, criterion="max"),
        lambda: small_config(jammer_kind="spoof", trials=20),
        lambda: spoofing_regime_config("spoof"),
        lambda: spoofing_regime_config("symmetrize"),
        lambda: small_config(jammer_kind="none", trials=20),
        lambda: hopeless_iid_config(8),
    ], ids=["iid", "iid-max-criterion", "spoof-forfeits", "spoof-admissible", "symmetrize",
            "none", "iid-hopeless"])
    def test_records_do_not_depend_on_block_size(self, make_config, monkeypatch):
        config = make_config()
        codec, build_stats = build_codec_from_config(config)
        runs = {}
        for block in (1, 3, harness._TRIAL_BLOCK, config.trials):
            monkeypatch.setattr(harness, "_TRIAL_BLOCK", block)
            runs[block] = run_trials(config, codec=codec, build_stats=build_stats).records
        first = runs[1]
        assert len(first) == config.trials
        assert all(records == first for records in runs.values())

    def test_trial_generators_are_not_the_build_or_pool_streams(self):
        # the build draws from (seed, 0) and the max criterion's message pool from
        # (seed, 1); a trial keyed (seed, i) would replay them at trials 0 and 1
        seed = 42
        shared = [np.random.default_rng(np.random.SeedSequence((seed, k))).random(4).tolist()
                  for k in (0, 1)]
        for i in (0, 1):
            assert harness._trial_rng(seed, i).random(4).tolist() not in shared

    @pytest.mark.parametrize("width", [1, 3])
    def test_capped_trials_leave_the_rejection_pool(self, width, monkeypatch, jam_rounds):
        # each trial leaves the pool once it hits the cap and the next trial takes
        # its slot the round after, so a round holds width rows while as many are
        # unfinished
        monkeypatch.setattr(harness, "_TRIAL_BLOCK", width)
        stats = run_trials(hopeless_iid_config(8))
        assert all(r.jam_generation_failed for r in stats.records)
        spans = jam_rounds.spans().values()
        assert len(spans) == 8
        for k, rows in enumerate(jam_rounds.rounds):
            assert len(rows) == min(width, sum(last >= k for _, last in spans))

    def test_a_run_jams_in_one_pool(self, jam_rounds):
        # experiment.json's 100 trials at its seed took 98 rounds when each block
        # of 32 trials jammed on its own; one pool for the run takes 50
        config = dataclasses.replace(load_config(str(EXPERIMENT_JSON)), trials=100)
        run_trials(config, keep_records=False)
        assert len(jam_rounds.rounds) <= 50

    @pytest.mark.parametrize("block", [1, 3, 11])
    def test_capped_trials_forfeit_alone_and_fail_the_run_at_its_end(self, block, monkeypatch):
        from winavc.jammers import JammerGenerationError

        monkeypatch.setattr(harness, "_TRIAL_BLOCK", block)
        stats = run_trials(hopeless_iid_config(8))
        assert [r.jam_generation_failed for r in stats.records] == [True] * 8
        assert all(r.jam_forfeited and r.jam_rejections == 16 for r in stats.records)
        # every trial still runs: the budget is checked once the run is done
        with pytest.raises(JammerGenerationError, match="11 trials exceeded"):
            run_trials(hopeless_iid_config(11))


class TestSweep:
    def test_capacity_only_grid(self):
        rows = sweep({"w": [0.1, 0.2, 0.3], "p": [0.05, 0.15, 0.25], "trials": 0})
        assert len(rows) == 9
        for row in rows:
            assert row["status"] == "ok"
            assert row["c_list"] == pytest.approx(
                bitflip_list_capacity(row["w"], row["p"]), abs=1e-3
            )
            # at alpha = 1 the verdict follows the closed-form condition
            expect = "equals_Clist_thm1" if row["w"] > row["p"] else "unknown"
            assert row["verdict"] == expect

    def test_empty_dimension_gives_header_only(self):
        rows = sweep({"w": [], "p": [0.1], "trials": 0})
        csv = format_csv(rows)
        assert csv.count("\n") == 1  # header only

    def test_cell_error_lands_in_status(self):
        rows = sweep({"w": [0.2], "p": [0.1], "alpha": [0.3], "trials": 0, "w_x": 64})
        assert rows[0]["status"].startswith("error: ConfigError: alpha=0.3")

    def test_simulation_cells(self):
        rows = sweep({
            "w": [0.3], "p": [0.05], "trials": 30, "seed": 5,
            "w_x": 64, "n": [256], "message_bits": 3, "field_bits": 3,
            "p_x_weight": 0.1,
        })
        assert len(rows) == 1
        assert rows[0]["err_avg"] <= 0.2
        assert rows[0]["ci_hi"] >= rows[0]["err_avg"] >= rows[0]["ci_lo"] - 1e-9

    def test_csv_formatting(self):
        rows = sweep({"w": [0.2], "p": [0.1], "trials": 0})
        text = format_csv(rows)
        header, line = text.strip().split("\n")
        assert header.startswith("w,p,alpha,n,R,c_list,verdict")
        assert "0.357751" in line

    def test_phase_one_shorter_than_the_window_runs(self):
        # the spec's n is the planned 32 + 3*64 symbols, not n1 = 32
        rows = sweep({"w": [0.3], "p": [0.05], "n": [32], "w_x": 64, "trials": 0})
        assert rows[0]["status"] == "ok"

    def test_verdict_sees_the_planned_length(self, monkeypatch):
        lengths = []
        verdict = harness.windowed_capacity_verdict

        def recording(spec):
            lengths.append(spec.n)
            return verdict(spec)

        monkeypatch.setattr(harness, "windowed_capacity_verdict", recording)
        rows = sweep({"w": [0.2], "p": [0.1], "n": [256], "trials": 0})
        assert rows[0]["n"] == 256
        assert lengths == [448]

    def test_capacity_only_cell_builds_no_code(self, monkeypatch):
        def refuse(config):
            raise AssertionError("a capacity-only cell built a code")

        monkeypatch.setattr(harness, "build_codec_from_config", refuse)
        rows = sweep({"w": [0.2], "p": [0.1], "trials": 0})
        assert rows[0]["status"] == "ok"

    def test_unsymmetrizable_cell_keeps_its_verdict(self):
        rows = sweep({"w": [0.3], "p": [0.05], "jammer": ["symmetrize"], "trials": 2})
        assert rows[0]["status"].startswith("error: ConfigError: symmetrize jammer")
        assert rows[0]["c_list"] == pytest.approx(bitflip_list_capacity(0.3, 0.05), abs=1e-3)
        assert rows[0]["verdict"] == "equals_Clist_thm1"


class TestBudgetInvariant:
    """Admissible states never exceed the phase-1 radius; a run that does is refused."""

    MESSAGE = "trial 0: admissible corruption 6 exceeds the phase-1 decoding budget radius 0"

    def test_too_small_radius_raises(self):
        with pytest.raises(RuntimeError, match=self.MESSAGE):
            run_with_tight_budget()

    def test_check_survives_optimized_python(self):
        # python -O strips assert statements; this check must still run
        tests = Path(__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tests.parent / "src"), str(tests)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             "import test_harness; test_harness.run_with_tight_budget()"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode != 0
        assert self.MESSAGE in proc.stderr


class TestConfigParsing:
    def doc(self):
        return {
            "alphabets": {"x": 2, "s": 2, "y": 2},
            "channel": [[1, 0], [0, 1], [0, 1], [1, 0]],
            "gamma": [{"coeffs": [0, 1], "bound": 0.3}],
            "lambda": [{"coeffs": [0, 1], "bound": 0.05}],
            "windows": {"w_x": 64, "w_s": 64},
            "code": {
                "layout": "thm1", "n1": 256, "message_bits": 3,
                "field_bits": 3, "p_x": {"weight": 0.1}, "key_len": 64,
            },
            "jammer": {"kind": "iid"},
            "trials": 25,
            "seed": 11,
        }

    def test_roundtrip(self):
        config = config_from_dict(self.doc())
        assert config.spec.channel.is_binary_additive()
        assert config.spec.n == 256 + 64 + 64
        stats = run_trials(config)
        assert sum(stats.outcome_counts.values()) == 25

    def thm2_doc(self):
        # the interleaved-layout code of tests/test_codec.py as a JSON document
        doc = self.doc()
        doc.update(windows={"w_x": 80, "w_s": 40}, jammer={"kind": "none"}, trials=10)
        doc["code"] = {
            "layout": "thm2", "n1": 256, "message_bits": 4, "field_bits": 4,
            "p_x": {"weight": 0.08}, "lam_frac": 0.1,
            "t1": {"weight": 0.3}, "t2": {"weight": 0.1}, "key_len": 40,
        }
        return doc

    def test_thm2_roundtrip(self):
        config = config_from_dict(self.thm2_doc())
        codec, _ = build_codec_from_config(config)
        assert config.spec.n == codec.plan.total_length == 1216
        stats = run_trials(config)
        assert stats.outcome_counts["correct"] == 10

    @pytest.mark.parametrize("layout, drop, n, named", [
        ("thm3", (), None, "'thm3'"),
        ("thm3", (), 1216, "'thm3'"),
        ("thm2", ("t1", "t2"), 1216, "missing t1, t2"),
    ], ids=["unknown", "unknown-with-n", "thm2-no-types-with-n"])
    def test_bad_layout_rejected_at_load(self, layout, drop, n, named):
        doc = self.thm2_doc()
        doc["code"]["layout"] = layout
        for key in drop:
            del doc["code"][key]
        if n is not None:
            doc["n"] = n
        with pytest.raises(ConfigError, match=named):
            config_from_dict(doc)

    def test_thm2_ramp_step_off_the_integers_rejected_at_load(self):
        # l = lam_frac*w_s = 0.13*40 = 5.2 symbols cannot start a buffer window
        doc = self.thm2_doc()
        doc["code"]["lam_frac"] = 0.13
        with pytest.raises(ConfigError, match="must be an integer >= 1"):
            config_from_dict(doc)

    @pytest.mark.parametrize("key, value", [("w_x", 80), ("alpha", 0.5)],
                             ids=["removed-w-x", "removed-alpha"])
    def test_removed_code_key_rejected_at_load(self, key, value):
        # the windows, and so alpha = w_s/w_x, come from windows alone
        doc = self.thm2_doc()
        doc["code"][key] = value
        with pytest.raises(ConfigError, match=f"'{key}'"):
            config_from_dict(doc)

    @pytest.mark.parametrize("content", [None, "{\"alphabets\": "], ids=["missing", "malformed"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, content):
        path = tmp_path / "experiment.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(path))

    def test_thm2_state_windows_longer_than_input_windows_rejected_at_load(self):
        doc = self.thm2_doc()
        doc["windows"] = {"w_x": 40, "w_s": 80}
        with pytest.raises(ConfigError, match="w_s <= w_x"):
            config_from_dict(doc)

    @pytest.mark.parametrize("edit, named", [
        ({"jammer": {"kind": "burst"}}, "unknown jammer kind 'burst'"),
        ({"jammer": {"kind": "custom"}}, "unknown jammer kind 'custom'"),
        ({"alphabets": {"x": 2, "s": 3, "y": 2},
          "channel": [[1, 0], [0, 1], [0, 1], [0, 1], [1, 0], [1, 0]],
          "lambda": [{"coeffs": [0, 1, 1], "bound": 0.05}]}, "needs binary states"),
        ({"jammer": {"kind": "iid", "p_s": [0.9, 0.05, 0.05]}}, "jammer.p_s has 3 entries"),
        ({"jammer": {"kind": "symmetrize"}}, "the input law is not symmetrizable"),
        # y = x + s mod 3 on binary states: a spoof jammer's codeword symbol 2 names no state
        ({"alphabets": {"x": 3, "s": 2, "y": 3},
          "channel": [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1], [1, 0, 0]],
          "gamma": [{"coeffs": [0, 1, 1], "bound": 0.3}],
          "code": {"layout": "thm1", "n1": 256, "message_bits": 3, "field_bits": 3,
                   "p_x": [0.9, 0.05, 0.05], "key_len": 64},
          "jammer": {"kind": "spoof"}}, "alphabets.x = 3 is larger than alphabets.s = 2"),
    ], ids=["unknown-kind", "custom-kind", "iid-without-p-s-on-ternary-states", "p-s-size",
            "nonsymmetrizable-symmetrize", "spoof-with-more-inputs-than-states"])
    def test_bad_jammer_rejected_at_load(self, edit, named):
        doc = self.doc()
        doc.update(edit)
        with pytest.raises(ConfigError, match=named):
            config_from_dict(doc)

    def test_missing_key_is_config_error(self):
        doc = self.doc()
        del doc["channel"]
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_bad_criterion_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                spec=bitflip_spec(0.2, 0.1, 128, 32, 32),
                code=CodecParams(
                    layout="thm1", n1=64, message_bits=2, field_bits=2,
                    p_x=Distribution.bernoulli(0.05),
                ),
                jammer=JammerParams(kind="none"),
                trials=5, master_seed=0, error_criterion="median",
            )
