"""Channel construction, validation, and the closed-form spectrum."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from diracladder import (
    InvalidQuantumNumber,
    Supercritical,
    SupercriticalChannelWarning,
    UnphysicalState,
    bound_energy,
    compare_spectrum,
    ground_ladder_function,
    make_channel,
    matrix_representation,
    raise_to_rank,
    spectrum_table,
    state_from_nu,
    zeta_from_charge,
)
from diracladder.errors import DomainError, PrecisionLoss

# reference channel: zeta = 0.5, j = 1/2, eps = -1 (40-digit recomputation)
S_REF = 0.86602540378443864676
LAM_REF = 1.3660254037844386468
E_REF = {
    0: 0.86602540378443864676,
    1: 0.96592582628906828675,
    2: 0.98512105479418262854,
}


def ref_channel():
    return make_channel(0.5, -1, 0.5)


def test_reference_channel_numbers():
    ch = ref_channel()
    assert ch.tau == -1.0
    assert ch.s == pytest.approx(S_REF, abs=1e-15)
    assert ch.lam == pytest.approx(LAM_REF, abs=1e-15)
    assert ch.omega == pytest.approx(0.5, abs=1e-15)


def test_omega_equals_angular_invariant_minus_coupling_squared():
    for j in (0.5, 1.5, 2.5):
        for eps in (-1, 1):
            for zeta in (0.1, 0.5, 0.9):
                ch = make_channel(j, eps, zeta)
                assert ch.omega == pytest.approx(j * (j + 1) - zeta**2, abs=1e-14)
                assert ch.omega == pytest.approx(ch.lam * (ch.lam - 1), abs=1e-14)


def test_j_must_be_half_odd_integer():
    # 2j must be exactly odd: 0.5000000004 used to pass and run unsnapped
    for bad in (0.6, 1.0, 0.0, -0.5, 2, 0.5000000004, float("nan"), float("inf"),
                -float("inf"), mpmath.mpf("nan"), mpmath.inf):
        with pytest.raises(InvalidQuantumNumber):
            make_channel(bad, -1, 0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidQuantumNumber):
            spectrum_table(0.5, bad, 2)


def test_epsilon_and_zeta_validation():
    with pytest.raises(InvalidQuantumNumber):
        make_channel(0.5, 0, 0.5)
    with pytest.raises(InvalidQuantumNumber):
        make_channel(0.5, 2, 0.5)
    with pytest.raises(InvalidQuantumNumber):
        make_channel(0.5, -1, 0.0)
    with pytest.raises(InvalidQuantumNumber):
        make_channel(0.5, -1, -0.3)
    # a bool, nan or inf coupling is rejected as zeta_from_charge rejects them,
    # not read as zeta = 1 or reported as supercritical
    for j in (0.5, 1.5):
        for zeta in (True, math.nan, math.inf):
            with pytest.raises(InvalidQuantumNumber):
                make_channel(j, -1, zeta)
    with mpmath.workprec(113):
        assert make_channel(0.5, -1, mpmath.mpf("0.5")).zeta == mpmath.mpf("0.5")


def test_infinite_coupling_is_refused_not_skipped_as_supercritical():
    # inf >= j + 1/2 read as supercritical: both returned [] after warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidQuantumNumber):
            spectrum_table(math.inf, 1.5, 2)
        with pytest.raises(InvalidQuantumNumber):
            compare_spectrum(math.inf, 0.5, 1)


def test_supercritical_coupling_rejected():
    # s turns imaginary at zeta = j + 1/2
    with pytest.raises(Supercritical):
        make_channel(0.5, -1, 1.0)
    with pytest.raises(Supercritical):
        make_channel(0.5, -1, 1.2)
    with pytest.raises(Supercritical) as err:
        make_channel(1.5, 1, 2.0)
    assert "j=1.5" in str(err.value)
    # just below critical is fine
    make_channel(0.5, -1, 0.999)


def test_frozen_energies():
    ch = ref_channel()
    for k, e in E_REF.items():
        assert bound_energy(ch, k).energy == pytest.approx(e, abs=1e-15)


def test_k_validation():
    ch = ref_channel()
    for bad in (-1, 1.5, "2", True):
        with pytest.raises(InvalidQuantumNumber):
            bound_energy(ch, bad)
        with pytest.raises(InvalidQuantumNumber):
            spectrum_table(0.5, 0.5, bad)


def test_nodeless_level_excluded_for_positive_epsilon():
    ch = make_channel(0.5, 1, 0.5)
    with pytest.raises(UnphysicalState) as err:
        bound_energy(ch, 0)
    assert "k=0" in str(err.value)
    # eps = -1 allows it, eps = +1 starts at k = 1
    assert bound_energy(make_channel(0.5, -1, 0.5), 0).k == 0
    assert bound_energy(ch, 1).k == 1


def test_epsilon_pairs_are_exactly_degenerate_above_ground():
    for k in (1, 2, 5):
        e_minus = bound_energy(make_channel(0.5, -1, 0.5), k).energy
        e_plus = bound_energy(make_channel(0.5, 1, 0.5), k).energy
        assert e_minus == e_plus


def test_kinematic_relations():
    st = bound_energy(ref_channel(), 3)
    assert st.wavenumber**2 + st.energy**2 == pytest.approx(1.0, abs=1e-14)
    assert st.nu == pytest.approx(
        ((1 - st.energy) / (1 + st.energy)) ** 0.5, abs=1e-15)
    assert st.mu == pytest.approx(LAM_REF + 3, abs=1e-14)
    # stable inversion: kappa = zeta*E/(mu - 1/2)
    assert st.wavenumber == pytest.approx(0.5 * st.energy / (st.mu - 0.5), abs=1e-15)


@pytest.mark.parametrize("j", [0.5, 2.5])
def test_exponent_keeps_its_precision_near_critical_coupling(j):
    # tau^2 - zeta^2 cancels as zeta -> j + 1/2; the factored form does not.
    # The ground energy comes from zeta/s itself, not from nu ~ 1 - E.
    zeta = (j + 0.5) * (1 - 1e-9)
    ch = make_channel(j, -1, zeta)
    energy = bound_energy(ch, 0).energy
    with mpmath.workdps(50):
        z, t = mpmath.mpf(zeta), mpmath.mpf(j) + mpmath.mpf(1) / 2
        s = mpmath.sqrt(t * t - z * z)
        want = 1 / mpmath.sqrt(1 + (z / s) ** 2)
        assert abs(ch.s - s) <= 1e-15 * s, j
        assert abs(energy - want) <= 1e-15 * want, j


def from_energy(ch, k, energy):
    # the state at an energy E in (0, 1), through nu formed from 1 - E: lossy
    # at small zeta, so the package offers no such constructor
    return state_from_nu(ch, k, math.sqrt((1.0 - energy) / (1.0 + energy)))


def test_state_from_energy_inverts_spectrum():
    ch = ref_channel()
    for k in range(6):
        st = bound_energy(ch, k)
        assert from_energy(ch, k, st.energy).mu == pytest.approx(st.mu, abs=1e-12)


def test_state_from_nu_is_exact_where_energy_rounds():
    # zeta = 1e-6: 1 - E ~ 1e-13, so nu formed from E is off by 4e-4, and
    # from k = 67 on E rounds to 1; the state built from nu keeps mu = lam + k
    ch = make_channel(0.5, -1, 1e-6)
    st = bound_energy(ch, 2)
    assert state_from_nu(ch, 2, st.nu) == st
    assert st.mu == pytest.approx(ch.lam + 2, abs=1e-13)
    assert abs(from_energy(ch, 2, st.energy).mu - st.mu) > 1e-4
    top = bound_energy(ch, 67)
    assert top.energy == 1.0
    assert top.mu == pytest.approx(ch.lam + 67, abs=1e-12)
    with pytest.raises(DomainError):
        from_energy(ch, 67, top.energy)
    for bad in (0.0, 1.0, -0.1, float("nan")):
        with pytest.raises(DomainError):
            state_from_nu(ch, 2, bad)
    # the one constructor checks k too; k=True used to die in build_solution
    # with a bare ValueError
    for bad_k in (-1, 1.5, True):
        with pytest.raises(DomainError):
            state_from_nu(ch, bad_k, 0.3)


def test_subnormal_float_nu_raises():
    # zeta = 1e-320 makes every nu subnormal; its few bits put mu at
    # 3.4940828402366866 for k = 2 (exact: 3.5), so float64 refuses it
    ch = make_channel(0.5, -1, 1e-320)
    with pytest.raises(PrecisionLoss, match="subnormal"):
        bound_energy(ch, 2)
    with pytest.raises(PrecisionLoss, match="subnormal"):
        state_from_nu(ch, 2, 1e-321)
    assert state_from_nu(ch, 2, 2.2250738585072014e-308).nu == 2.2250738585072014e-308
    with mpmath.workprec(113):
        st = bound_energy(make_channel(mpmath.mpf(1) / 2, -1, mpmath.mpf("1e-320")), 2)
        assert abs(st.mu - (st.channel.lam + 2)) < mpmath.mpf("1e-30")


def test_state_from_energy_carries_detuning():
    ch = ref_channel()
    st = bound_energy(ch, 2)
    detuned = from_energy(ch, 2, st.energy * (1 + 1e-3))
    assert detuned.energy == pytest.approx(st.energy * (1 + 1e-3), rel=1e-15)
    assert abs(detuned.mu - st.mu) > 1e-4


def test_zeta_from_charge():
    assert zeta_from_charge(1) == pytest.approx(0.0072973525693, abs=1e-16)
    for bad in (0.0, -1.0, float("nan"), float("inf"), True):
        with pytest.raises(InvalidQuantumNumber):
            zeta_from_charge(bad)


def test_zeta_from_charge_default_alpha_at_extended_precision():
    # an mpmath Z takes alpha from its digits at the working
    # precision, not from the float64-rounded constant (off by 3.8e-19)
    with mpmath.workprec(113):
        zeta = zeta_from_charge(mpmath.mpf(1))
        assert isinstance(zeta, mpmath.mpf)
        assert abs(zeta - mpmath.mpf("0.0072973525693")) < mpmath.mpf("1e-33")


def test_spectrum_table_sorted_and_complete():
    states = spectrum_table(0.5, 1.5, 2)
    energies = [st.energy for st in states]
    assert energies == sorted(energies)
    # j=1/2 and j=3/2, k <= 2: (eps=-1, k=0,1,2) + (eps=+1, k=1,2) per j
    assert len(states) == 10


def test_spectrum_table_skips_supercritical_channels_with_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        states = spectrum_table(1.2, 2.5, 1)
    assert any(issubclass(w.category, SupercriticalChannelWarning) for w in caught)
    assert states
    assert all(st.channel.j >= 1.5 for st in states)


def test_spectrum_table_keeps_a_channel_subcritical_at_its_own_precision():
    # float(zeta) rounds to j + 1/2 = 1.0: the j = 1/2 channels were skipped
    # as supercritical, although make_channel builds them at 113 bits
    with mpmath.workprec(113), warnings.catch_warnings():
        warnings.simplefilter("error")
        zeta = mpmath.mpf("0.99999999999999999999")
        states = spectrum_table(zeta, 0.5, 1)
        assert [(st.channel.epsilon, st.k) for st in states] == [(-1, 0), (-1, 1), (1, 1)]
        assert states[0].channel == make_channel(0.5, -1, zeta)
        assert 0 < states[0].channel.s < mpmath.mpf("2e-10")


def test_spectrum_table_sorts_by_energy_at_its_own_precision():
    # float64 keys tie below 1.1e-16: j = 1/2, k = 2 came before j = 3/2, k = 0
    with mpmath.workprec(113):
        states = spectrum_table(mpmath.mpf("1e-8"), 1.5, 2)
        energies = [st.energy for st in states]
        assert energies == sorted(energies)
        assert (states[3].channel.j, states[3].k) == (1.5, 0)
        assert float(states[3].energy) == float(states[4].energy)


def test_k_min_is_the_one_statement_of_the_lowest_level():
    for j in (0.5, 2.5):
        assert make_channel(j, -1, 0.5).k_min == 0
        plus = make_channel(j, 1, 0.5)
        assert plus.k_min == 1
        with pytest.raises(UnphysicalState, match="k=0 is excluded"):
            bound_energy(plus, plus.k_min - 1)
        assert bound_energy(plus, plus.k_min).k == 1


def test_a_bad_level_is_one_error_type_that_is_also_a_domain_error():
    assert issubclass(InvalidQuantumNumber, DomainError)
    ch = ref_channel()
    ground = ground_ladder_function(ch.lam)
    for bad in (-1, True, 3.0, np.int64(-1), np.bool_(True)):
        for call in (lambda: bound_energy(ch, bad), lambda: state_from_nu(ch, bad, 0.3),
                     lambda: raise_to_rank(ground, bad)):
            with pytest.raises(InvalidQuantumNumber, match="^k must be a nonnegative integer"):
                call()
        with pytest.raises(InvalidQuantumNumber, match="^k_max must be a nonnegative integer"):
            spectrum_table(0.5, 0.5, bad)
    # the matrix truncation K is a level too, with its own bound K >= 1
    for bad in (0, -1, True, 3.0, np.int64(0)):
        with pytest.raises(InvalidQuantumNumber, match="^K must be a"):
            matrix_representation("omega1", ch.lam, bad)
    # any integer type is a level, and a state keeps it as a Python int
    state = bound_energy(ch, np.int64(3))
    assert type(state.k) is int and state == bound_energy(ch, 3)
    assert type(state_from_nu(ch, np.int64(3), state.nu).k) is int
    assert spectrum_table(0.5, 1.5, np.int64(2)) == spectrum_table(0.5, 1.5, 2)
    assert raise_to_rank(ground, np.int64(3)) == raise_to_rank(ground, 3)
    matrix = matrix_representation("omega1", ch.lam, np.int64(3))
    assert np.array_equal(matrix.entries, matrix_representation("omega1", ch.lam, 3).entries)


def test_extended_precision_channel():
    with mpmath.workdps(40):
        ch = make_channel(0.5, -1, mpmath.mpf(1) / 2)
        want = mpmath.mpf("1.366025403784438646763723170752936183471")
        assert abs(ch.lam - want) < mpmath.mpf("1e-38")
        st = bound_energy(ch, 1)
        want_e = mpmath.mpf("0.9659258262890682867497431997288973676339")
        assert abs(st.energy - want_e) < mpmath.mpf("1e-38")
