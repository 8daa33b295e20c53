"""The one clock hand, checked against a plain model of the same rules.

:meth:`ReclaimScanner.scan` is the only clock-hand loop in the program:
host reclaim (EPT bitmaps, QEMU code pages, DMA pins, noise) and guest
reclaim (its own accessed bits) both run it.  The model below restates
its rules one step at a time; the property drives both over random
lists, bits, pins and noise, and demands the same victims, the same
examined count, the same list order, the same bits, and the same RNG
state afterwards -- the draw sequence is what keeps figures bit-stable.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.lru import ClockList
from repro.mem.reclaim import ReclaimScanner
from repro.sim.rng import DeterministicRng

#: Bitmap size; int keys range past it to cover gpas beyond the EPT.
SIZE = 24


def model_scan(order, want, second_chance, *, pinned, noise, rng,
               present, accessed, code_accessed):
    victims, examined, limit = [], 0, 2 * len(order)
    while len(victims) < want and order and examined < limit:
        key = order.pop(0)
        examined += 1
        rotate = key in pinned
        if not rotate and second_chance:
            if noise > 0 and rng.chance(noise):
                rotate = True
            elif isinstance(key, tuple):
                rotate = key[1] in code_accessed
                code_accessed.discard(key[1])
            elif key < len(present) and present[key]:
                rotate = accessed[key] == 1
                accessed[key] = 0
        if rotate:
            order.append(key)
        else:
            victims.append(key)
    return victims, examined


keys = st.one_of(st.integers(min_value=0, max_value=SIZE + 7),
                 st.tuples(st.just("code"), st.integers(0, 7)))


@settings(max_examples=300, deadline=None)
@given(order=st.lists(keys, unique=True, max_size=30),
       present=st.lists(st.booleans(), min_size=SIZE, max_size=SIZE),
       accessed=st.lists(st.booleans(), min_size=SIZE, max_size=SIZE),
       code_accessed=st.sets(st.integers(0, 7)),
       pinned=st.sets(keys),
       noise=st.sampled_from([0.0, 0.3, 1.0]),
       seed=st.integers(0, 2**16),
       want=st.integers(0, 40),
       second_chance=st.booleans())
def test_scan_matches_model(order, present, accessed, code_accessed,
                            pinned, noise, seed, want, second_chance):
    present = bytearray(present)
    bits = bytearray(accessed)
    model_bits = bytearray(accessed)
    scanner_rng = DeterministicRng(seed)
    model_rng = DeterministicRng(seed)
    scanner_code = set(code_accessed)
    model_code = set(code_accessed)
    scanner = ReclaimScanner(
        bits, present=present, code_accessed=scanner_code,
        pinned=pinned, noise=noise, noise_rng=scanner_rng)
    clock = ClockList()
    for key in order:
        clock.add(key)

    got = scanner.scan(clock, want, second_chance)
    model_order = list(order)
    expected = model_scan(
        model_order, want, second_chance, pinned=pinned, noise=noise,
        rng=model_rng, present=present, accessed=model_bits,
        code_accessed=model_code)

    assert got == expected
    assert clock.keys_in_order() == model_order
    assert bits == model_bits
    assert scanner_code == model_code
    assert scanner_rng._random.getstate() == model_rng._random.getstate()


def test_guest_form_treats_every_key_as_present():
    # The guest passes only its accessed bits: no present map, no code
    # pages, no pins, no noise.
    accessed = bytearray(8)
    accessed[2] = 1
    scanner = ReclaimScanner(accessed)
    clock = ClockList()
    for key in range(4):
        clock.add(key)
    assert scanner.scan(clock, 4) == ([0, 1, 3, 2], 5)
    assert not any(accessed)

