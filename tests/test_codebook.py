"""Dispersion-matrix codebooks, their worst-pair eigenvalue and generation guard."""

from collections import OrderedDict

import numpy as np
import pytest

from relaypower import codebook
from relaypower.codebook import (
    LdCodebook,
    codeword_signs,
    generate_codebook,
    is_full_diversity,
    load_codebook,
    min_pairwise_eigenvalue,
    save_codebook,
)
from relaypower.experiments import load_spec, run_experiment
from relaypower.rng import STREAM_CODEBOOK, derive_rng


def _all_pairs_lambda_min(matrices: np.ndarray) -> float:
    """Literal scan over every codeword pair, no difference-pattern trick."""
    t = matrices.shape[1]
    signs = codeword_signs(t)
    words = np.stack([(matrices @ s).T for s in signs])  # (2^T, T, T)
    out = np.inf
    for k in range(len(words)):
        for l in range(k + 1, len(words)):
            d = words[k] - words[l]
            eig = np.linalg.eigvalsh(d.conj().T @ d)[0]
            out = min(out, float(eig))
    return out


class TestCodewordSigns:
    def test_enumeration_order(self):
        s = codeword_signs(2)
        np.testing.assert_array_equal(s, [[1, 1], [1, -1], [-1, 1], [-1, -1]])

    def test_first_row_is_all_plus(self):
        for t in (1, 3, 5):
            s = codeword_signs(t)
            assert s.shape == (2**t, t)
            np.testing.assert_array_equal(s[0], np.ones(t))

    def test_block_length_bounds(self):
        with pytest.raises(ValueError):
            codeword_signs(0)
        with pytest.raises(ValueError):
            codeword_signs(13)


class TestLambdaMin:
    def test_single_symbol_block_is_exactly_four(self):
        # T=1: the one dispersion matrix is a unit phase, the only
        # difference is 2, and the Gram eigenvalue is |2|^2 = 4
        code = generate_codebook(1, seed=0)
        assert code.lambda_min == 4.0

    @pytest.mark.parametrize("t", [2, 3])
    def test_matches_all_pairs_scan(self, t):
        # the module factors A(s_k - s_l) through difference patterns; the
        # literal pair scan differs only by float rounding of As_k - As_l
        for seed in range(4):
            code = generate_codebook(t, seed=seed)
            assert code.lambda_min == pytest.approx(
                _all_pairs_lambda_min(code.matrices), rel=1e-12)

    def test_positive_for_generated_codebooks(self):
        for t in (2, 4, 6):
            assert generate_codebook(t, seed=1).lambda_min > 1e-9

    def test_identity_stack_is_rank_deficient(self):
        # identical dispersion matrices collapse the codeword pairs
        mats = np.stack([np.eye(2, dtype=complex)] * 2)
        assert min_pairwise_eigenvalue(mats) == pytest.approx(0.0, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            min_pairwise_eigenvalue(np.zeros((2, 3, 3), dtype=complex))


class TestGenerate:
    def test_deterministic(self):
        a = generate_codebook(4, seed=11)
        b = generate_codebook(4, seed=11)
        np.testing.assert_array_equal(a.matrices, b.matrices)

    def test_seed_changes_draw(self):
        a = generate_codebook(4, seed=11)
        b = generate_codebook(4, seed=12)
        assert np.max(np.abs(a.matrices - b.matrices)) > 1e-3

    def test_matrices_are_unitary(self):
        code = generate_codebook(5, seed=3)
        eye = np.eye(5)
        for mat in code.matrices:
            np.testing.assert_allclose(mat.conj().T @ mat, eye, atol=1e-12)

    def test_haar_phase_convention(self):
        # dividing out the R diagonal phases makes the draw basis-invariant;
        # spot-check that the matrices are not real orthogonal
        code = generate_codebook(3, seed=5)
        assert np.max(np.abs(code.matrices.imag)) > 1e-3

    def test_block_length_bounds(self):
        with pytest.raises(ValueError):
            generate_codebook(0, seed=0)
        with pytest.raises(ValueError):
            generate_codebook(13, seed=0)

    def test_eta_scale(self):
        code = generate_codebook(2, seed=0)
        assert code.eta(10.0, 2.0) == pytest.approx(code.lambda_min * 10 / 8, rel=1e-15)

    def test_non_unitary_stack_rejected(self):
        mats = np.stack([np.eye(2, dtype=complex), 2 * np.eye(2, dtype=complex)])
        with pytest.raises(ValueError, match="unitary"):
            LdCodebook(matrices=mats)


@pytest.fixture
def empty_cache(monkeypatch):
    """A fresh codebook cache, so every generate_codebook call below draws anew."""
    monkeypatch.setattr(codebook, "_CACHE", OrderedDict())


class TestDifferencePatterns:
    @pytest.mark.parametrize("t", [1, 2, 3, 6])
    def test_lexicographic_rows_with_positive_lead(self, t):
        grid = np.stack(np.meshgrid(*([[-1, 0, 1]] * t), indexing="ij"), axis=-1).reshape(-1, t)
        nonzero = grid[np.any(grid != 0, axis=1)]
        lead = nonzero[np.arange(nonzero.shape[0]), np.argmax(nonzero != 0, axis=1)]
        expected = nonzero[lead > 0]
        got = codebook._difference_patterns(t)
        assert got.shape == ((3**t - 1) // 2, t)
        np.testing.assert_array_equal(got, expected)


class TestDiversityGuard:
    def test_agrees_with_eigenvalue_floor(self):
        # Haar stacks plus degenerate ones: a repeated matrix, and one
        # matrix reused with a global phase, which also collapses a pair
        rng = np.random.default_rng(0)
        stacks = []
        for t in range(1, 7):
            for seed in range(12):
                mats = codebook._haar_stack(t, derive_rng(seed, STREAM_CODEBOOK, 0))
                stacks.append(mats)
                if t >= 2:
                    bad = mats.copy()
                    i, j = rng.choice(t, size=2, replace=False)
                    bad[j] = bad[i] * np.exp(1j * rng.uniform(0, 2 * np.pi))
                    stacks.append(bad)
        verdicts = [is_full_diversity(m) for m in stacks]
        assert verdicts == [min_pairwise_eigenvalue(m) > 1e-9 for m in stacks]
        assert True in verdicts and False in verdicts

    def test_agrees_near_the_floor(self):
        # perturbing a repeated matrix by delta puts lambda_min near delta^2,
        # so the sweep straddles the 1e-9 floor from both sides
        rng = np.random.default_rng(1)
        base = codebook._haar_stack(3, rng)
        noise = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        stacks = []
        for delta in np.logspace(-7, -2, 21):
            mats = base.copy()
            mats[1] = mats[0] + delta * noise
            stacks.append(mats)
        lams = np.array([min_pairwise_eigenvalue(m) for m in stacks])
        assert np.any((lams > 1e-11) & (lams < 1e-9)) and np.any((lams > 1e-9) & (lams < 1e-7))
        assert [is_full_diversity(m) for m in stacks] == list(lams > 1e-9)

    def test_rejects_a_stack_singular_on_one_pattern(self):
        # A_1 = A_0 R with R a reflection that fixes one pattern d, so G(d)
        # has two equal columns; T = 7 has more patterns than one guard chunk
        t = 7
        patterns = codebook._difference_patterns(t)
        n, chunk = patterns.shape[0], codebook._GUARD_CHUNK
        rng = np.random.default_rng(2)
        for index in sorted({0, min(chunk, n) - 1, min(chunk, n - 1), n - 1}):
            d = patterns[index].astype(np.float64)
            v = rng.standard_normal(t)
            v -= (v @ d) / (d @ d) * d
            v /= np.linalg.norm(v)
            mats = codebook._haar_stack(t, rng)
            assert is_full_diversity(mats)
            mats[1] = mats[0] @ (np.eye(t) - 2.0 * np.outer(v, v))
            assert not is_full_diversity(mats), index

    def test_equal_dispersion_matrices_rejected(self):
        mats = codebook._haar_stack(3, np.random.default_rng(4))
        mats[2] = mats[0]
        assert not is_full_diversity(mats)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            is_full_diversity(np.zeros((2, 3, 3), dtype=complex))

    def test_failed_guard_redraws_from_next_attempt(self, monkeypatch, empty_cache):
        verdicts = iter([False, True])
        monkeypatch.setattr(codebook, "is_full_diversity", lambda m: next(verdicts))
        code = generate_codebook(3, seed=5)
        first = codebook._haar_stack(3, derive_rng(5, STREAM_CODEBOOK, 0))
        second = codebook._haar_stack(3, derive_rng(5, STREAM_CODEBOOK, 1))
        np.testing.assert_array_equal(code.matrices, second)
        assert np.max(np.abs(code.matrices - first)) > 1e-3

    def test_eight_failures_raise(self, monkeypatch, empty_cache):
        calls = []
        monkeypatch.setattr(codebook, "is_full_diversity", lambda m: calls.append(m) or False)
        with pytest.raises(RuntimeError, match="full-diversity"):
            generate_codebook(3, seed=5)
        assert len(calls) == 8


class TestCache:
    def test_same_key_shares_one_instance(self, empty_cache):
        a = generate_codebook(4, seed=11)
        assert generate_codebook(4, seed=11) is a
        assert generate_codebook(4, seed=12) is not a
        assert generate_codebook(3, seed=11) is not a

    def test_cache_is_bounded(self, empty_cache):
        for seed in range(codebook._CACHE_SIZE + 5):
            generate_codebook(1, seed=seed)
        assert len(codebook._CACHE) == codebook._CACHE_SIZE
        assert (1, 0) not in codebook._CACHE

    def test_two_schemes_build_each_codebook_once(self, tmp_path, monkeypatch, empty_cache):
        builds = []
        draw = codebook._draw_codebook

        def counting_draw(T, seed):
            builds.append((T, seed))
            return draw(T, seed)

        monkeypatch.setattr(codebook, "_draw_codebook", counting_draw)
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "kind: ber_vs_network_power\n"
            "schemes: [onoff, waterfill_statistical]\n"
            "m_grid: [2, 3]\n"
            "snr_db: [10.0]\n"
            "frames: 1000\n"
            "network: {}\n"
        )
        run_experiment(load_spec(path), tmp_path / "out")
        assert sorted(t for t, _ in builds) == [2, 3]
        assert len(set(builds)) == 2

    def test_lambda_min_is_lazy(self, monkeypatch, empty_cache):
        calls = []
        scan = codebook.min_pairwise_eigenvalue

        def counting_scan(matrices):
            calls.append(matrices.shape)
            return scan(matrices)

        monkeypatch.setattr(codebook, "min_pairwise_eigenvalue", counting_scan)
        code = generate_codebook(4, seed=2)
        assert calls == []
        value = code.lambda_min
        assert code.lambda_min == value
        assert calls == [(4, 4, 4)]


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        code = generate_codebook(4, seed=9)
        path = tmp_path / "code.txt"
        save_codebook(path, code)
        loaded = load_codebook(path)
        np.testing.assert_array_equal(loaded.matrices, code.matrices)
        assert loaded.lambda_min == code.lambda_min

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_codebook(tmp_path / "absent.txt")
