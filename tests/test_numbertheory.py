import pytest

from dualpair import numbertheory
from dualpair.numbertheory import factorize, is_prime


@pytest.mark.parametrize(
    "n, expected",
    [
        (999_983 * 1_000_003, {999_983: 1, 1_000_003: 1}),  # two distinct primes near 10^6
        (1_000_003**2, {1_000_003: 2}),  # a prime square
        (53 * 59 * 61, {53: 1, 59: 1, 61: 1}),
    ],
)
def test_factorize_beyond_trial_division(n, expected, monkeypatch):
    # every prime factor exceeds the trial-division primes (<= 47), so the
    # factors must come from Pollard's rho
    real_rho = numbertheory._pollard_rho
    calls = []

    def counting_rho(m):
        calls.append(m)
        return real_rho(m)

    monkeypatch.setattr(numbertheory, "_pollard_rho", counting_rho)
    assert all(is_prime(q) and q > 47 for q in expected)
    assert factorize(n) == expected
    assert calls
