"""Clock list semantics and the clock hand that sweeps it."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.lru import ClockList
from repro.mem.reclaim import ReclaimScanner


def test_add_and_contains():
    clock = ClockList()
    clock.add("a")
    assert "a" in clock
    assert len(clock) == 1


def test_re_add_refreshes_position():
    clock = ClockList()
    clock.add("a")
    clock.add("b")
    clock.add("a")  # now 'b' is coldest
    assert clock.keys_in_order() == ["b", "a"]


def test_add_front_is_first_victim():
    clock = ClockList()
    clock.add("warm")
    clock.add_front("cold")
    assert clock.keys_in_order() == ["cold", "warm"]


def test_remove_missing_is_noop():
    clock = ClockList()
    clock.remove("ghost")
    assert len(clock) == 0


def _hand(size=32, **config):
    """A clock hand over ``size`` gpas; returns (scanner, list, bits)."""
    accessed = bytearray(size)
    scanner = ReclaimScanner(accessed, **config)
    return scanner, ClockList(), accessed


def test_scan_evicts_unreferenced_in_order():
    scanner, clock, _ = _hand()
    for key in range(4):
        clock.add(key)
    victims, examined = scanner.scan(clock, 2)
    assert victims == [0, 1]
    assert examined == 2
    assert 0 not in clock


def test_scan_gives_second_chance():
    scanner, clock, accessed = _hand()
    for key in range(3):
        clock.add(key)
    accessed[0] = 1
    victims, examined = scanner.scan(clock, 1)
    # 0 was referenced: bit cleared, rotated to tail; 1 evicted.
    assert victims == [1]
    assert examined == 2
    assert clock.keys_in_order() == [2, 0]
    assert accessed[0] == 0


def test_scan_gives_up_after_max_examined():
    # Nothing evictable: the hand stops after two full passes.
    scanner, clock, _ = _hand(pinned={0, 1, 2})
    for key in range(3):
        clock.add(key)
    victims, examined = scanner.scan(clock, 1)
    assert victims == []
    assert examined == 6
    assert len(clock) == 3


def test_scan_empty_list():
    scanner, clock, _ = _hand()
    victims, examined = scanner.scan(clock, 5)
    assert victims == []
    assert examined == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=20),
                min_size=1, max_size=50))
def test_property_scan_preserves_membership_invariant(keys):
    scanner, clock, accessed = _hand()
    for key in keys:
        clock.add(key)
        accessed[key] = key % 2 == 0
    unique = list(dict.fromkeys(keys))
    victims, _ = scanner.scan(clock, 3)
    # victims + remaining == original membership, no duplication
    assert sorted(victims + clock.keys_in_order()) == sorted(unique)
