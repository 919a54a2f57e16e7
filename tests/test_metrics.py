import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dckm
from dckm.core import SampleWeights
from dckm.metrics import ari, contingency_table, correlation_amount, nmi

from util import ari_pair_oracle

# Prints correlation_amount of the data `dckm gen --n 2000 --d 100 --k 5
# --seed 7` writes, unweighted and under fixed random weights, in full.
CORRELATION_PROBE = """
import numpy as np
from dckm.data import BiasSpec, generate_biased
from dckm.metrics import correlation_amount
X = generate_biased(BiasSpec(n=2000, d=100, n_clusters=5, seed=7)).X
w = np.random.default_rng(0).random(X.shape[0])
print(repr(correlation_amount(X)), repr(correlation_amount(X, w)))
"""

labelings = st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=30)


class TestContingency:
    def test_counts(self):
        counts = contingency_table([0, 0, 1, 1], [0, 1, 0, 1])
        assert np.array_equal(counts, [[1, 1], [1, 1]])
        assert counts.sum() == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            contingency_table([0, 1], [0, 1, 2])


class TestNmi:
    def test_identical(self):
        assert nmi([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_relabeling_invariance(self):
        assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_independent_alternation_is_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_both_single_cluster(self):
        assert nmi([0, 0, 0], [0, 0, 0]) == 1.0

    def test_one_single_cluster(self):
        assert nmi([0, 0, 0, 0], [0, 1, 0, 1]) == 0.0

    @given(labelings, labelings)
    @settings(max_examples=60)
    def test_symmetric_and_bounded(self, a, b):
        m = min(len(a), len(b))
        a, b = a[:m], b[:m]
        value = nmi(a, b)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(nmi(b, a), abs=1e-12)

    @given(labelings, st.permutations(range(4)))
    @settings(max_examples=40)
    def test_relabel_invariance_property(self, a, perm):
        b = [perm[x] for x in a]
        assert nmi(a, b) == pytest.approx(1.0)


class TestAri:
    def test_identical(self):
        assert ari([0, 1, 0, 2], [0, 1, 0, 2]) == 1.0

    def test_alternating_hand_value(self):
        assert ari([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)

    def test_matches_pair_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(4, 15))
            a = rng.integers(0, 3, n)
            b = rng.integers(0, 3, n)
            assert ari(a, b) == pytest.approx(ari_pair_oracle(a, b), abs=1e-12)

    def test_random_labelings_centered_near_zero(self):
        rng = np.random.default_rng(0)
        values = []
        for _ in range(100):
            a = rng.integers(0, 4, 1000)
            b = rng.integers(0, 4, 1000)
            values.append(ari(a, b))
        assert abs(float(np.mean(values))) < 0.02

    def test_degenerate_all_singletons(self):
        assert ari([0, 1, 2], [2, 0, 1]) == 1.0

    def test_degenerate_both_single_cluster(self):
        assert ari([0, 0, 0], [1, 1, 1]) == 1.0

    def test_singletons_vs_one_cluster(self):
        assert ari([0, 1, 2], [0, 0, 0]) == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            ari([0], [0])

    @given(labelings, labelings)
    @settings(max_examples=60)
    def test_symmetry(self, a, b):
        m = min(len(a), len(b))
        a, b = a[:m], b[:m]
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)


class TestCorrelationAmount:
    def test_zero_for_empirically_independent_columns(self):
        X = np.array([[1, 1], [1, 0], [0, 1], [0, 0]], dtype=float)
        assert correlation_amount(X) == pytest.approx(0.0, abs=1e-15)

    def test_identical_bernoulli_half_columns(self):
        X = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert correlation_amount(X) == pytest.approx(np.sqrt(2) * 0.25)

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(1)
        X = (rng.random((30, 5)) < 0.4).astype(float)
        w = rng.uniform(0.1, 2.0, 30)
        base = correlation_amount(X, w)
        for c in (0.2, 5.0, 300.0):
            assert correlation_amount(X, c * w) == pytest.approx(base, rel=1e-12)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(2)
        X = (rng.random((25, 6)) < 0.5).astype(float)
        perm = rng.permutation(6)
        assert correlation_amount(X[:, perm]) == pytest.approx(correlation_amount(X), rel=1e-12)

    def test_accepts_sample_weights(self):
        X = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert correlation_amount(X, SampleWeights.uniform(2)) == pytest.approx(
            correlation_amount(X)
        )

    def test_invalid_weights(self):
        X = np.eye(3)
        with pytest.raises(ValueError):
            correlation_amount(X, np.array([1.0, -1.0, 0.0]))
        with pytest.raises(ValueError):
            correlation_amount(X, np.zeros(3))
        with pytest.raises(ValueError):
            correlation_amount(X, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            correlation_amount(np.eye(3), np.array([1.0, bad, 1.0]))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_columns_far_from_zero(self, weighted):
        """The covariance is taken of the centered data: shifting every entry
        by 1e8 leaves the value as it is, where ``Gram - mean mean^T`` loses
        all of its digits (it gives 17.0 here unweighted, against 0.293)."""
        rng = np.random.default_rng(12)
        X = (rng.random((200, 4)) < 0.5).astype(float)
        X[:, 1] = np.where(rng.random(200) < 0.8, X[:, 0], X[:, 1])  # correlated pair
        w = rng.uniform(0.1, 2.0, 200) if weighted else None
        base = correlation_amount(X, w)
        assert base > 0.05
        assert correlation_amount(1e8 + X, w) == pytest.approx(base, rel=1e-9)

    def test_same_bits_at_one_and_two_blas_threads(self):
        """Result files carry this value to 17 digits, so it must not depend
        on how many threads OpenBLAS splits its product over. Each count runs
        in its own interpreter, since OpenBLAS reads it at import."""
        src = str(Path(dckm.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", CORRELATION_PROBE], env=env,
                                 capture_output=True, text=True, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
