"""Named/anon reclaim scanning."""

import pytest

from repro.errors import MemoryError_
from repro.mem.reclaim import ReclaimScanner
from repro.sim.rng import DeterministicRng


def make_scanner(accessed=None, **kwargs):
    return ReclaimScanner(accessed or bytearray(64), **kwargs)


def test_resident_counting():
    scanner = make_scanner()
    scanner.note_resident(1, named=True)
    scanner.note_resident(2, named=False)
    assert scanner.resident == 2
    assert scanner.is_named(1)
    assert not scanner.is_named(2)


def test_note_evicted_clears_both_lists():
    scanner = make_scanner()
    scanner.note_resident(1, named=True)
    scanner.note_evicted(1)
    assert scanner.resident == 0


def test_change_kind_moves_lists():
    scanner = make_scanner()
    scanner.note_resident(1, named=True)
    scanner.change_kind(1, named=False)
    assert not scanner.is_named(1)
    assert scanner.resident == 1


def test_named_preference():
    scanner = make_scanner(named_fraction=0.75)
    for key in range(4):
        scanner.note_resident(("named", key), named=True)
    for key in range(20):
        scanner.note_resident(("anon", key), named=False)
    result = scanner.pick_victims(4)
    named_victims = [k for k, was_named in result.victims if was_named]
    assert len(named_victims) == 3  # 0.75 * 4


def test_all_from_named_when_anon_empty():
    scanner = make_scanner()
    for key in range(8):
        scanner.note_resident(key, named=True)
    result = scanner.pick_victims(4)
    assert len(result.victims) == 4
    assert all(was_named for _k, was_named in result.victims)


def test_shortfall_escalates_to_named():
    # Anon nearly empty: the named list must cover the shortfall even
    # beyond its fraction.
    scanner = make_scanner()
    for key in range(10):
        scanner.note_resident(("named", key), named=True)
    scanner.note_resident(("anon", 0), named=False)
    result = scanner.pick_victims(6)
    assert len(result.victims) == 6


def test_examined_counts_rotations():
    accessed = bytearray(8)
    accessed[1] = accessed[2] = 1
    scanner = make_scanner(accessed)
    for key in (1, 2, 3, 4):
        scanner.note_resident(key, named=False)
    result = scanner.pick_victims(1)
    assert result.victims == [(3, False)]
    assert result.examined == 3
    assert not any(accessed)  # the rotations cleared both bits


def test_unevictable_pages_survive_even_escalation():
    scanner = make_scanner(pinned={("named", 0)})
    for key in range(3):
        scanner.note_resident(("named", key), named=True)
    result = scanner.pick_victims(3)
    victims = [k for k, _ in result.victims]
    assert ("named", 0) not in victims
    assert len(victims) == 2


def test_noise_requires_rng():
    with pytest.raises(MemoryError_):
        make_scanner(noise=0.5)


def test_noise_perturbs_eviction_order():
    def build(noise):
        rng = DeterministicRng(3)
        scanner = make_scanner(noise=noise, noise_rng=rng)
        for key in range(64):
            scanner.note_resident(key, named=False)
        result = scanner.pick_victims(32)
        return [k for k, _ in result.victims]

    assert build(0.0) == list(range(32))
    assert build(0.5) != list(range(32))


def test_bad_fraction_rejected():
    with pytest.raises(MemoryError_):
        make_scanner(named_fraction=1.5)


def test_want_zero_returns_empty():
    scanner = make_scanner()
    scanner.note_resident(1, named=False)
    result = scanner.pick_victims(0)
    assert result.victims == []
    assert result.examined == 0


def test_cold_insertion_evicted_first():
    scanner = make_scanner()
    scanner.note_resident(1, named=False)
    scanner.note_resident(2, named=False, cold=True)
    result = scanner.pick_victims(1)
    assert result.victims == [(2, False)]
