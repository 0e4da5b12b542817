import numpy as np
import numpy.testing as npt
import pytest

from chansounder import pn


def brute_force_correlation(reference, observed):
    """O(N^2) oracle, written independently of the library paths."""
    reference = np.asarray(reference).tolist()  # plain Python arithmetic
    observed = np.asarray(observed).tolist()
    n = len(reference)
    out = np.empty(n, dtype=np.complex128)
    for lag in range(n):
        acc = 0.0 + 0.0j
        for m in range(n):
            acc += reference[m] * observed[(m + lag) % n]
        out[lag] = acc / n
    return out


def galois_step(state, polynomial, degree):
    """Independent re-statement of the register update for state tracking."""
    out = state & 1
    state >>= 1
    if out:
        state ^= polynomial >> 1
    return state, out


def test_degree2_hand_enumeration():
    # poly x^2 + x + 1, from state 01: states 01 -> 11 -> 10 -> 01,
    # outputs 1,1,0
    seq = pn.generate_glfsr(2, polynomial=0b111)
    npt.assert_array_equal(seq.chips, [-1.0, -1.0, 1.0])
    assert seq.period_length == 3


def test_degree10_defaults(chips10):
    assert chips10.period_length == 1023
    assert set(np.unique(chips10.chips)) == {-1.0, 1.0}
    positives = int(np.sum(chips10.chips > 0))
    assert abs(positives - (1023 - positives)) == 1
    # bit 1 maps to -1, so the minus count is the larger one
    assert positives == 511


@pytest.mark.parametrize("degree", sorted(pn.DEFAULT_POLYNOMIALS))
def test_default_polynomials_are_primitive(degree):
    seq = pn.generate_glfsr(degree)
    assert seq.period_length == 2**degree - 1


@pytest.mark.parametrize("degree", [2, 5, 8, 10])
def test_state_walk_visits_every_nonzero_state(degree):
    polynomial = pn.DEFAULT_POLYNOMIALS[degree]
    state = 1
    visited = set()
    for _ in range(2**degree - 1):
        visited.add(state)
        state, _ = galois_step(state, polynomial, degree)
    assert state == 1
    assert visited == set(range(1, 2**degree))


def test_autocorrelation_integer_exact(chips10):
    chips = chips10.chips.astype(np.int64)
    assert int(np.dot(chips, chips)) == 1023
    for lag in range(1, 1023):
        assert int(np.dot(chips, np.roll(chips, -lag))) == -1


def test_autocorrelation_normalized(chips10):
    profile = pn.circular_correlate(chips10, chips10.chips)
    assert profile[0].real == pytest.approx(1.0, abs=1e-12)
    npt.assert_allclose(profile[1:], -1.0 / 1023, atol=1e-12)


def test_non_primitive_polynomial_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 has period 6, not 15
    with pytest.raises(ValueError, match="not primitive"):
        pn.generate_glfsr(4, polynomial=0b10101)


def test_bad_inputs_rejected():
    # a seed state outside [1, 2**degree) and a degree outside
    # [2, MAX_DEGREE] are the callers' to reject (SounderConfig checks the
    # degree and gen-pn its seed state first); these degrees have no
    # default polynomial
    with pytest.raises(ValueError, match="no default polynomial for degree 1;"):
        pn.generate_glfsr(1)
    with pytest.raises(ValueError, match="no default polynomial for degree 30;"):
        pn.generate_glfsr(30)
    with pytest.raises(ValueError, match="degree"):
        pn.generate_glfsr(10, polynomial=0b111)
    with pytest.raises(ValueError, match="constant term"):
        pn.generate_glfsr(4, polynomial=0b10110)


def test_correlate_against_self(chips10):
    profile = pn.circular_correlate(chips10, chips10.chips)
    assert abs(profile[0] - 1.0) < 1e-12
    assert np.max(np.abs(profile[1:] + 1.0 / 1023)) < 1e-12


def test_correlate_zeros(chips10):
    profile = pn.circular_correlate(chips10, np.zeros(1023))
    npt.assert_array_equal(profile, np.zeros(1023))


def test_correlate_scaled_shift_against_oracle():
    seq = pn.generate_glfsr(5)  # small enough for the O(N^2) python oracle
    observed = 0.5 * np.roll(seq.chips, 7).astype(np.complex128)
    expected = brute_force_correlation(seq.chips, observed)
    got = pn.circular_correlate(seq, observed)
    npt.assert_allclose(got, expected, atol=1e-12)
    assert got[7] == pytest.approx(0.5, abs=1e-12)
    mask = np.ones(31, dtype=bool)
    mask[7] = False
    npt.assert_allclose(got[mask], -0.5 / 31, atol=1e-12)


def test_correlate_random_against_oracle(rng):
    seq = pn.generate_glfsr(6)
    observed = rng.normal(size=63) + 1j * rng.normal(size=63)
    expected = brute_force_correlation(seq.chips, observed)
    npt.assert_allclose(pn.circular_correlate(seq, observed),
                        expected, atol=1e-12)


def test_correlate_a_stack_row_by_row(chips10, rng):
    # one multi-row FFT gives each row the bits of its own 1-D
    # correlation, also for a stack that is not C-contiguous
    stack = rng.normal(size=(4, 1023)) + 1j * rng.normal(size=(4, 1023))
    rows = [pn.circular_correlate(chips10, row) for row in stack]
    for observed in (stack, np.asfortranarray(stack)):
        got = pn.circular_correlate(chips10, observed)
        assert got.shape == (4, 1023)
        assert all(g.tobytes() == r.tobytes() for g, r in zip(got, rows))


def test_correlate_linearity(chips10, rng):
    y1 = rng.normal(size=1023) + 1j * rng.normal(size=1023)
    y2 = rng.normal(size=1023) + 1j * rng.normal(size=1023)
    a, b = 2.5 - 1.0j, -0.25 + 3.0j
    combined = pn.circular_correlate(chips10, a * y1 + b * y2)
    separate = (a * pn.circular_correlate(chips10, y1)
                + b * pn.circular_correlate(chips10, y2))
    npt.assert_allclose(combined, separate, rtol=1e-12, atol=1e-12)


def test_shift_covariance(chips10, rng):
    y = rng.normal(size=1023) + 1j * rng.normal(size=1023)
    base_direct = brute_force_correlation(chips10.chips, y)
    base_fft = pn.circular_correlate(chips10, y)
    for shift in (1, 17, 512):
        shifted = np.roll(y, shift)
        # the direct sum adds the same products in the same order
        npt.assert_array_equal(
            brute_force_correlation(chips10.chips, shifted),
            np.roll(base_direct, shift))
        npt.assert_allclose(pn.circular_correlate(chips10, shifted),
                            np.roll(base_fft, shift), atol=1e-12)


def test_fft_path_matches_direct_path(chips10, rng):
    y = rng.normal(size=1023) + 1j * rng.normal(size=1023)
    npt.assert_allclose(pn.circular_correlate(chips10, y),
                        brute_force_correlation(chips10.chips, y),
                        atol=1e-10)


def test_chip_file_roundtrip(tmp_path, chips10):
    target = tmp_path / "chips.txt"
    pn.save_chips(chips10, target)
    lines = target.read_text().splitlines()
    assert len(lines) == 1023
    assert set(lines) <= {"1", "-1"}
    npt.assert_array_equal([int(line) for line in lines], chips10.chips)


def assert_balanced_and_two_valued(seq, degree):
    """Exact integer checks: 2^degree - 1 chips of +-1, one more -1 than
    +1, and a periodic autocorrelation of N at lag 0 and -1 elsewhere."""
    n = 2**degree - 1
    chips = seq.chips.astype(np.int64)
    assert seq.period_length == len(chips) == n
    assert set(chips.tolist()) <= {-1, 1}
    assert int(chips.sum()) == -1
    rotations = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([chips, chips]), n)[:n]
    autocorrelation = rotations @ chips  # lag k: sum_m c[m] * c[m + k]
    assert autocorrelation[0] == n
    assert (autocorrelation[1:] == -1).all()


# primitive polynomials of each degree: phi(2^degree - 1) / degree
PRIMITIVE_COUNTS = {2: 1, 3: 2, 4: 2, 5: 6, 6: 6, 7: 18, 8: 16, 9: 48, 10: 60}


@pytest.mark.parametrize("degree", sorted(PRIMITIVE_COUNTS))
def test_every_accepted_polynomial_gives_a_balanced_two_valued_sequence(
        degree):
    # the guarantee that the timing search's closed form and the
    # correlator's -1/N floor rest on, proved where the sequences are made:
    # generate_glfsr accepts exactly the primitive polynomials of the
    # degree, and each gives an m-sequence
    accepted = 0
    for polynomial in range(2**degree + 1, 2**(degree + 1), 2):
        try:
            seq = pn.generate_glfsr(degree, polynomial)
        except ValueError as exc:
            assert "is not primitive" in str(exc)
            continue
        accepted += 1
        assert_balanced_and_two_valued(seq, degree)
    assert accepted == PRIMITIVE_COUNTS[degree]


def test_chip_sequence_invariants():
    # every default polynomial, up to degree 12, gives an m-sequence
    for degree in sorted(pn.DEFAULT_POLYNOMIALS):
        assert_balanced_and_two_valued(pn.generate_glfsr(degree), degree)


def test_reference_spectrum_is_cached_and_read_only(chips10):
    spectrum = chips10.conj_spectrum
    assert spectrum is chips10.conj_spectrum
    assert np.array_equal(spectrum, np.conj(np.fft.fft(chips10.chips)))
    assert not spectrum.flags.writeable
