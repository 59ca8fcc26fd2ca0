"""The ``rng.choice``/``rng.randint`` samplers, kept as stream oracles.

The package draws every random int as ``scalars.randbelow`` draws it on
``rng.getrandbits`` (the scalar draw loop ``_random_scalars`` writes it out
inline).  The functions below are the samplers it replaced,
written with ``Random.choice`` and ``Random.randint``; the tests require the
same values and the same generator state after every draw, so every seeded
report stays byte-identical.
"""

from operator import lshift

from bvdouble.scalars import (
    _BOUND,
    _ZERO,
    FourierScalar,
    _canon,
    _gauss,
    _scalar,
)

_PARTS = range(-2, 3)


def random_coefficient(rng):
    choice = rng.choice
    while True:
        a = choice(_PARTS)
        b = choice(_PARTS)
        if a or b:
            return _gauss(*_canon(a, b, choice((1, 2))))


def random_scalar(rng, dim, cutoff, max_modes=2):
    if cutoff >= _BOUND:
        raise ValueError(f"mode cutoff {cutoff} is outside the packed range")
    choice = rng.choice
    axes = (range(-cutoff, cutoff + 1),) * dim
    shifts = range(0, 32 * dim, 32)
    coeffs = {}
    for _ in range(choice(range(1, max_modes + 1))):
        mode = sum(map(lshift, map(choice, axes), shifts))
        c = random_coefficient(rng)
        coeffs[mode] = coeffs.get(mode, _ZERO) + c
    return _scalar(dim, {m: (c._a, c._b, c._d) for m, c in coeffs.items() if c}, cutoff)


def null_family_field(rng, eta, direction, cutoff, aligned=True):
    n = eta.dim
    const = [random_coefficient(rng) for _ in range(n)]
    if direction is None:
        return tuple(FourierScalar.const(n, c) for c in const)
    sharp = eta.raise_index(direction)
    profiles = []
    for _ in range(rng.randint(1, 2)):
        m = rng.choice([s for s in range(-cutoff, cutoff + 1) if s])
        mode = tuple(m * d for d in direction)
        if aligned:
            pol = sharp
        else:
            pol = tuple(random_coefficient(rng) for _ in range(n))
        profiles.append((mode, random_coefficient(rng), pol))
    out = []
    for k in range(n):
        coeffs = {(0,) * n: const[k]}
        for mode, c, pol in profiles:
            if not pol[k]:
                continue
            prev = coeffs.get(mode)
            term = c * pol[k]
            coeffs[mode] = term if prev is None else prev + term
        out.append(FourierScalar(n, coeffs))
    return tuple(out)


def random_doubled_scalar(rng, halfdim, cutoff, sector="both"):
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        k = tuple(rng.randint(-cutoff, cutoff) for _ in range(halfdim))
        kt = tuple(rng.randint(-cutoff, cutoff) for _ in range(halfdim))
        if sector == "x":
            kt = (0,) * halfdim
        elif sector == "xt":
            k = (0,) * halfdim
        mode = k + kt
        c = random_coefficient(rng)
        prev = coeffs.get(mode)
        coeffs[mode] = c if prev is None else prev + c
    return FourierScalar(2 * halfdim, coeffs)


def any_degree(random_fn, rng, dim, cutoff):
    """``suites._any_degree``: one element at a random degree 0..3."""
    return random_fn(rng, dim, cutoff, rng.randint(0, 3))


def same_sector_pair(rng, halfdim, cutoff):
    """One draw of the doublecopy suite's same-sector sampler."""
    sector = rng.choice(["x", "xt"])
    f = random_doubled_scalar(rng, halfdim, cutoff, sector=sector)
    return f, random_doubled_scalar(rng, halfdim, cutoff, sector=sector)
