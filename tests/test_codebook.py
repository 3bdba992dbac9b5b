"""Dispersion-matrix codebooks, their worst-pair eigenvalue and generation guard."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaypower import codebook
from relaypower.codebook import (
    LdCodebook,
    codeword_signs,
    generate_codebook,
    is_full_diversity,
    min_pairwise_eigenvalue,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        # a NaN passes a "deviation above the tolerance" test, since every comparison with it is false
        with pytest.raises(ValueError, match="finite"):
            LdCodebook(matrices=np.full((2, 2, 2), bad, dtype=complex))
        mats = generate_codebook(3, seed=1).matrices.copy()
        mats[2, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            LdCodebook(matrices=mats)


@pytest.fixture
def empty_cache():
    """A fresh codebook cache, so every generate_codebook call below draws anew.

    It is emptied again afterwards: a test that patches the guard must not
    leave its codebooks behind for the tests that follow.
    """
    codebook._draw_codebook.cache_clear()
    yield codebook._draw_codebook
    codebook._draw_codebook.cache_clear()


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

    @staticmethod
    def _singular_at(t, head, rng, tail=None):
        """A Haar stack whose Gram is singular at one pattern d, and the index of d's piece.

        head is an index into the head patterns, or None for the h = 0 block;
        tail is an index into the tail sign grid, drawn at random when None.
        A_1 = A_0 R with R unitary, R d = d and random phases on the complement
        of d, so G(d) has two equal columns while no other pattern is an
        eigenvector of R.
        """
        k = codebook._TAIL
        if head is None:
            tails = codebook._difference_patterns(k)
            d, piece = np.concatenate([np.zeros(t - k), tails[rng.integers(len(tails))]]), 0
        else:
            if tail is None:
                tail = rng.integers(3**k)
            h = codebook._difference_patterns(t - k)[head]
            d = np.concatenate([h, codebook._sign_grid(k)[tail]])
            pieces_per_block = -(-3**k // codebook._TAIL_PIECE)
            piece = 1 + head // codebook._HEAD_BLOCK * pieces_per_block + tail // codebook._TAIL_PIECE
        mats = codebook._haar_stack(t, rng)
        assert is_full_diversity(mats)
        basis, _ = np.linalg.qr(np.column_stack([d, rng.standard_normal((t, t - 1))]) + 0j)
        phases = np.exp(1j * rng.uniform(0.5, 2 * np.pi - 0.5, t - 1))
        mats[1] = mats[0] @ (basis * np.concatenate([[1.0], phases])) @ basis.conj().T
        return mats, piece

    @pytest.mark.parametrize("t", [7, 9])
    def test_rejects_a_stack_singular_on_one_pattern(self, t):
        # the h = 0 block; the first and last head blocks and both sides of the
        # first head-block boundary, at random tails; both sides of the first
        # piece boundary, and the last piece of a block
        n_heads = (3 ** (t - codebook._TAIL) - 1) // 2
        hb, tp = codebook._HEAD_BLOCK, codebook._TAIL_PIECE
        last_tail = 3**codebook._TAIL - 1
        rng = np.random.default_rng(2)
        cases = [(None, None), (0, None), (hb - 1, None), (hb, None), (n_heads - 1, None),
                 (0, tp - 1), (0, tp), (hb, last_tail), (n_heads - 1, last_tail)]
        for head, tail in cases:
            mats, piece = self._singular_at(t, head, rng, tail)
            assert not is_full_diversity(mats), (head, tail)
            failing = []
            for i, grams in enumerate(codebook._pattern_grams(mats, 1e-9)):
                try:
                    np.linalg.cholesky(grams)
                except np.linalg.LinAlgError:
                    failing.append(i)
            assert failing == [piece], (head, tail)

    @pytest.mark.parametrize("tail_piece", [1, 3, 81])
    @pytest.mark.parametrize("head_block", [1, 5, 13, 1000])
    def test_verdict_does_not_depend_on_the_head_block(self, monkeypatch, head_block, tail_piece):
        rng = np.random.default_rng(3)
        stacks = [self._singular_at(t, head, rng)[0] for t in (7, 9) for head in (None, 0, 12, 40)
                  if head is None or head < (3 ** (t - codebook._TAIL) - 1) // 2]
        stacks += [codebook._haar_stack(t, rng) for t in (5, 7, 9)]
        expected = [is_full_diversity(m) for m in stacks]
        monkeypatch.setattr(codebook, "_HEAD_BLOCK", head_block)
        monkeypatch.setattr(codebook, "_TAIL_PIECE", tail_piece)
        assert [is_full_diversity(m) for m in stacks] == expected
        assert True in expected and False in expected

    @staticmethod
    def _whole_block_grams(matrices, shift):
        """Every pattern Gram, each head block from one GEMM over all tails at once."""
        t = matrices.shape[0]
        k = min(t, codebook._TAIL)
        n_head = t - k
        b = np.einsum("itu,jtv->uvij", matrices.conj(), matrices)
        tails = 2.0 * codebook._sign_grid(k)
        q_tail = codebook._quadratic_form(b[n_head:, n_head:])(tails)
        q_tail.reshape(-1, t * t)[:, ::t + 1] -= shift
        out = [q_tail[(3**k + 1) // 2:]]
        if n_head:
            cross = b[:n_head, n_head:] + b[n_head:, :n_head].transpose(1, 0, 2, 3)
            rhs = np.concatenate([np.einsum("nv,uvij->unij", tails, cross), q_tail[None]])
            rhs = rhs.reshape(n_head + 1, -1).view(np.float64)
            q_head = codebook._quadratic_form(b[:n_head, :n_head])
            heads = np.ones(((3**n_head - 1) // 2, n_head + 1))
            heads[:, :n_head] = 2.0 * codebook._difference_patterns(n_head)
            for lo in range(0, heads.shape[0], codebook._HEAD_BLOCK):
                block = heads[lo:lo + codebook._HEAD_BLOCK]
                grams = (block @ rhs).view(np.complex128).reshape(block.shape[0], -1, t, t)
                grams += q_head(block[:, :n_head])[:, None]
                out.append(grams.reshape(-1, t, t))
        return np.concatenate(out)

    @pytest.mark.parametrize("tail_piece", [None, 2])
    @pytest.mark.parametrize("t", range(1, 10))
    def test_pieces_yield_every_pattern_once(self, monkeypatch, t, tail_piece):
        # the pieces share one buffer, so each is copied before the next is
        # drawn; the 81 tails end in a one-tail piece at both piece sizes
        if tail_piece is not None:
            monkeypatch.setattr(codebook, "_TAIL_PIECE", tail_piece)
        mats = codebook._haar_stack(t, np.random.default_rng(t))
        expected = self._whole_block_grams(mats, 1e-9)
        assert expected.shape[0] == (3**t - 1) // 2
        yielded = np.concatenate([g.copy() for g in codebook._pattern_grams(mats, 1e-9)])
        expected_bytes = sorted(g.tobytes() for g in expected)
        assert len(set(expected_bytes)) == len(expected_bytes)
        assert sorted(g.tobytes() for g in yielded) == expected_bytes

    @settings(max_examples=60)
    @given(t=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           perturb=st.none() | st.tuples(st.integers(0, 7), st.integers(0, 6), st.floats(-6.0, -3.0)))
    def test_verdict_is_the_eigenvalue_floor(self, t, seed, perturb):
        # perturbing one matrix into another's neighbourhood by delta puts
        # lambda_min near delta^2, around the 1e-9 floor
        rng = np.random.default_rng(seed)
        mats = codebook._haar_stack(t, rng)
        if perturb is not None and t >= 2:
            i, shift, log_delta = perturb
            noise = rng.standard_normal((t, t)) + 1j * rng.standard_normal((t, t))
            i %= t
            mats[(i + 1 + shift % (t - 1)) % t] = mats[i] + 10.0**log_delta * noise
        lam = min_pairwise_eigenvalue(mats)
        if abs(lam / 1e-9 - 1.0) > 1e-6:
            assert is_full_diversity(mats) == (lam > 1e-9)

    def test_equal_dispersion_matrices_rejected(self):
        mats = codebook._haar_stack(3, np.random.default_rng(4))
        mats[2] = mats[0]
        assert not is_full_diversity(mats)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        # a NaN Gram entry used to pass every Cholesky call of the guard
        mats = codebook._haar_stack(3, np.random.default_rng(5))
        mats[1, 2, 0] = bad
        for scan in (is_full_diversity, min_pairwise_eigenvalue):
            with pytest.raises(ValueError, match="finite"):
                scan(mats)

    def test_real_stack_read_as_complex(self):
        real = np.stack([np.eye(3), np.eye(3)[::-1], np.eye(3)[[1, 2, 0]]])
        for scan in (is_full_diversity, min_pairwise_eigenvalue):
            assert scan(real) == scan(real.astype(complex))
        assert not is_full_diversity(np.stack([np.eye(3)] * 3))

    def test_shape_validation(self):
        for shape in ((2, 3, 3), (0, 0, 0)):
            with pytest.raises(ValueError, match="shape"):
                is_full_diversity(np.zeros(shape, dtype=complex))
            with pytest.raises(ValueError, match="shape"):
                LdCodebook(matrices=np.zeros(shape, dtype=complex))

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
        for seed in range(69):
            generate_codebook(1, seed=seed)
        info = empty_cache.cache_info()
        assert info.maxsize == info.currsize == 64 and info.misses == 69
        # the least recently used key was evicted and is drawn again
        generate_codebook(1, seed=68)
        generate_codebook(1, seed=0)
        assert empty_cache.cache_info().misses == 70

    def test_two_schemes_build_each_codebook_once(self, tmp_path, empty_cache):
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
        info = empty_cache.cache_info()
        # the relay schemes of a cell run in one call, which looks the codebook up once
        assert info.misses == 2 and info.hits == 0

    def test_a_sweep_past_the_cache_bound_draws_each_codebook_once(self, tmp_path, empty_cache):
        # 72 cells, more than the cache holds: the schemes of a cell run in
        # one call, which draws the cell's codebook once
        grid = [round(0.01 * k, 2) for k in range(5, 77)]
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "kind: ber_vs_distance\n"
            "schemes: [onoff, waterfill_partial, maxpower]\n"
            "m_grid: [1]\n"
            f"r_grid: {grid}\n"
            "network_power_db: 10.0\n"
            "frames: 1000\n"
            "network: {}\n"
        )
        run_experiment(load_spec(path), tmp_path / "out")
        info = empty_cache.cache_info()
        assert info.misses == len(grid) and info.hits == 0

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
