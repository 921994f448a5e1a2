"""Seeded input generation shared by every workload.

Everything a workload feeds the program comes from here, derived from the
``--seed`` argument alone: the same seed gives the same vocabulary, bodies,
key choices and fault seeds. The program never sees the seed, only these
inputs.

The Zipf sampler precomputes the cumulative distribution once and draws
with a binary search, O(log n) per draw. The library's own
``repro.sim.workload.zipf_choice`` rebuilds the weights on every call
(O(n)), which would make set-up time measure this generator instead of the
program once the vocabulary reaches a few thousand words.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate

from repro.fulltext import tokenize

_ONSETS = ("b", "br", "c", "d", "dr", "f", "g", "gr", "k", "l", "m", "n",
           "p", "pl", "r", "s", "st", "t", "tr", "v", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("b", "d", "k", "m", "n", "p", "r", "t", "x", "z")


class Zipf:
    """Draws ranks 0..n-1 with P(k) proportional to 1 / (k + 1) ** s."""

    def __init__(self, n: int, s: float = 1.0) -> None:
        if n < 1:
            raise ValueError("Zipf needs at least one rank")
        self._cdf = list(accumulate(1.0 / (k + 1) ** s for k in range(n)))
        self._total = self._cdf[-1]
        self.n = n

    def draw(self, rng: random.Random) -> int:
        return min(bisect_right(self._cdf, rng.random() * self._total),
                   self.n - 1)


def vocabulary(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct pseudo-words that the full-text tokenizer keeps
    unchanged (no stopwords, stem-invariant), so the generator knows
    exactly which index terms each body contains."""
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS)
            for _ in range(rng.randint(1, 3))
        ) + rng.choice(_CODAS)
        if word not in seen and tokenize(word) == [word]:
            seen.add(word)
            words.append(word)
    return words


def body(rng: random.Random, words: list[str], zipf: Zipf,
         target_bytes: int) -> str:
    """Zipf-distributed words up to about ``target_bytes`` characters."""
    out: list[str] = []
    length = 0
    while length < target_bytes:
        word = words[zipf.draw(rng)]
        out.append(word)
        length += len(word) + 1
    return " ".join(out)


def log_uniform(rng: random.Random, low: int, high: int) -> int:
    """A size between ``low`` and ``high``, uniform in log space, so small
    and large records are both common (the mixed-size input shape)."""
    return int(round(low * (high / low) ** rng.random()))


def log_uniform_sizes(rng: random.Random, low: int, high: int,
                      count: int) -> list[int]:
    """``count`` sizes, uniform in log space and stratified: one draw from
    each of ``count`` equal slices, shuffled. Every seed then gets nearly
    the same size distribution, so a small pool of bodies does not make
    one seed's records larger on average than another's."""
    sizes = [int(round(low * (high / low) ** ((index + rng.random()) / count)))
             for index in range(count)]
    rng.shuffle(sizes)
    return sizes
