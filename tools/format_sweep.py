"""Check the scan writer's ``%.16e`` kernel against Python's ``%`` on a seeded sweep.

    PYTHONPATH=src python tools/format_sweep.py [COUNT [SEED]]

Draws COUNT doubles (default 5,000,000; seed 0) in blocks of 100,000 and
compares the text ``entcert.dmfile._format_e16`` writes for each with
``'%.16e' % v``. Each block mixes four kinds of value, in equal shares:

- a random mantissa in [1, 10) times 10**k, k uniform over -31..17, so every
  decade the kernel formats, and one on each side, is hit;
- each power of ten 10**k (k in -31..17) moved by up to 3 ulp either way;
- small odd multiples of 2**-j, whose short exact expansions give ties;
- raw 64-bit patterns: every exponent, subnormals, NaN payloads, infinities.

Signs are random. Prints the count, the mismatches (the first five in
full) and the time; exits 1 on any mismatch, else 0.
"""

from __future__ import annotations

import sys
import time

import numpy as np

BLOCK = 100_000


def draw(rng: np.random.Generator, n: int) -> np.ndarray:
    q = n // 4
    decades = rng.uniform(1.0, 10.0, q) * 10.0 ** rng.integers(-31, 18, q)
    powers = np.array([float(f"1e{k}") for k in rng.integers(-31, 18, q)])
    for _ in range(3):
        step = rng.integers(-1, 2, q)  # -1, 0 or +1 ulp, three times
        powers = np.where(step < 0, np.nextafter(powers, 0.0), np.where(step > 0, np.nextafter(powers, np.inf), powers))
    dyadic = (2 * rng.integers(0, 2**20, q) + 1) * 2.0 ** -rng.integers(0, 90, q)
    bits = rng.integers(0, 2**64, n - 3 * q, dtype=np.uint64).view(np.float64)
    values = np.concatenate([decades, powers, dyadic, bits]).view(np.uint64)
    # flip sign bits: arithmetic on a signalling NaN would warn
    return (values ^ (rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))).view(np.float64)


def kernel_lines(values: np.ndarray) -> list[str]:
    from entcert import dmfile

    cells = np.zeros((len(values), 25), np.uint8)
    cells[:, 24] = ord("\n")
    dmfile._format_e16(values, cells[:, :24])
    return cells.tobytes().replace(b"\0", b"").decode("ascii").splitlines()


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 5_000_000
    seed = int(argv[1]) if len(argv) > 1 else 0
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    mismatches = 0
    for done in range(0, count, BLOCK):
        values = draw(rng, min(BLOCK, count - done))
        got = kernel_lines(values)
        want = ("%.16e\n" * len(values) % tuple(values.tolist())).splitlines()
        if got != want:
            for v, g, w in zip(values.tolist(), got, want):
                if g != w:
                    if mismatches < 5:
                        print(f"mismatch: {v!r}: kernel {g!r}, % {w!r}")
                    mismatches += 1
    print(f"{count} values (seed {seed}): {mismatches} mismatches in {time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
