import pytest

from quivpush.fields import QQ, Field, FieldError, _is_prime, field_from_name


def _trial_division(n):
    """Slow reference oracle for the Miller-Rabin test."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_1e5():
    assert all(_is_prime(n) == _trial_division(n) for n in range(10**5))


@pytest.mark.parametrize("n", [2047, 1373653, 25326001])
def test_strong_pseudoprimes_are_composite(n):
    # strong pseudoprimes to 2, to 2 and 3, and to 2, 3 and 5
    assert not _trial_division(n)
    assert not _is_prime(n)


def test_prime_field_of_largest_accepted_prime():
    assert _is_prime(2**31 - 1)
    assert field_from_name("fp:2147483647").characteristic == 2**31 - 1


def test_product_of_primes_near_sqrt_of_max_prime_is_rejected():
    p, q = 46271, 46411
    assert _trial_division(p) and _trial_division(q) and p * q < 2**31
    assert not _is_prime(p * q)
    with pytest.raises(FieldError, match="not prime"):
        Field(p * q)


def test_primality_outside_the_exact_range_is_refused():
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    with pytest.raises(FieldError):
        _is_prime(3215031751)


def test_characteristic():
    assert QQ.characteristic == 0
    assert field_from_name("fp:7").characteristic == 7


@pytest.mark.parametrize("name, p", [("fp:2", 2), ("fp:7", 7), ("fp:2147483647", 2**31 - 1)])
def test_canonical_prime_field_specs(name, p):
    field = field_from_name(name)
    assert field.characteristic == p and field == Field(p) != QQ


# int() reads every one of these as 7 (or as a huge or non-prime number),
# so each would give Z/7 a second spelling, and a second certificate
@pytest.mark.parametrize("name", ["fp:+7", "fp: 7", "fp:7 ", "fp:7\n", "fp:0_7", "fp:007",
                                  "fp:07", "fp:٧", "fp:７", "fp:-7", "fp:7.0", "fp:",
                                  "fp:0", "FP:7", "fp :7", "fp:" + "9" * 5000])
def test_non_canonical_prime_field_specs_are_refused(name):
    with pytest.raises(FieldError):
        field_from_name(name)
