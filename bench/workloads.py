"""Workload definitions, seeded input draws and package-independent oracles.

Nothing here imports wordbalance: the ops, their expected outcomes and the
oracles stay fixed while the package changes underneath them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

SERVED = "served"
REFUSED = "refused"


@dataclass(frozen=True)
class Op:
    """One CLI invocation with its expected outcome and optional oracle."""

    argv: Tuple[str, ...]
    expect: str
    oracle: Optional[str] = None

    @property
    def key(self) -> str:
        """Names the op in the pinned-digest table."""
        return " ".join(self.argv)


def _reach(images: Dict[str, str], start: str) -> set:
    """Letters reachable from `start` in >= 1 substitution steps."""
    seen: set = set()
    frontier = list(images[start])
    while frontier:
        b = frontier.pop()
        if b not in seen:
            seen.add(b)
            frontier.extend(images[b])
    return seen


def _exact_admissible(images: Dict[str, str]) -> bool:
    """Some letter a occurs in tau(a) and every letter is reachable from a."""
    letters = set(images)
    return any(a in images[a] and _reach(images, a) >= letters for a in images)


def _everywhere_growing(images: Dict[str, str]) -> bool:
    """|tau^k(a)| -> infinity for every letter a.

    A letter grows iff it reaches (in >= 0 steps) a letter c that lies on a
    cycle of the occurrence graph and has |tau(c)| >= 2: then some tau^m(c)
    contains c and at least one more letter, so |tau^(jm)(c)| > j.
    Otherwise every letter on a reachable cycle has a one-letter image, and
    the image lengths stay bounded.
    """
    expanding = {c for c in images if len(images[c]) >= 2 and c in _reach(images, c)}
    return all(expanding & (_reach(images, a) | {a}) for a in images)


def draw_substitution(rng: random.Random) -> str:
    """A 3-letter substitution spec for `--register`, image lengths 1-3."""
    letters = "012"
    while True:
        images = {
            a: "".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            for a in letters
        }
        if _exact_admissible(images) and _everywhere_growing(images):
            return ";".join(f"{a}->{images[a]}" for a in letters)


def draw_lmr_directive(rng: random.Random) -> str:
    """An {L,M,R} directive: prefix of 0-3 letters, period of 2-3 letters
    with at least 2 distinct letters."""
    prefix = "".join(rng.choice("LMR") for _ in range(rng.randint(0, 3)))
    while True:
        period = "".join(rng.choice("LMR") for _ in range(rng.randint(2, 3)))
        if len(set(period)) >= 2:
            return f"{prefix}|{period}"


def _analyze(directive: str, max_length: int, *extra: str) -> Tuple[str, ...]:
    return ("analyze", "--directive", directive, "--max-length", str(max_length), *extra)


def build_ops(workload: str, seed: int) -> List[Op]:
    """The ops of one pass, in the order they run."""
    if workload == "analyze-exact":
        spec = draw_substitution(random.Random(f"substitution/{seed}"))
        return [
            Op(_analyze("|M", 40), SERVED, oracle="tm-complexity"),
            # 16, not 32: with these draws a cap of 32 costs 0.5-11 s per
            # seed, which would swamp the pass time with seed-to-seed spread.
            Op(_analyze("|S", 16, "--register", f"S={spec}"), SERVED),
        ]
    if workload == "long-texts":
        directive = draw_lmr_directive(random.Random(f"directive/{seed}"))
        return [
            Op(_analyze("LMR|ML", 48, "--nmax", "6"), SERVED),
            # 32/4, not 48/6: keeps the seed-to-seed cost spread at ~0.2 s.
            Op(_analyze(directive, 32, "--nmax", "4"), SERVED),
            Op(_analyze("LMR|ML", 20000, "--nmax", "3"), SERVED),
            # Known defect: refused today (level_scan_texts jumps from depth
            # 27 to 40 and overshoots the text budget). Expected served.
            Op(_analyze("|RLR", 20000, "--nmax", "3"), SERVED),
            Op(("witness", "--n", "10"), SERVED, oracle="witness-10"),
            Op(("witness", "--n", "11"), REFUSED),
        ]
    if workload == "verify":
        return [Op(("verify",), SERVED, oracle="verify-all")]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("analyze-exact", "long-texts", "verify")


# ---- oracles that share no code with the package ----------------------------

def thue_morse_complexity(n: int) -> int:
    """Number of length-n Thue-Morse factors (Brlek 1989 closed form).

    For n >= 3 write n = 2^r + q + 1 with 0 < q <= 2^r; then p(n) is
    6*2^(r-1) + 4q when q <= 2^(r-1), and 8*2^(r-1) + 2q otherwise.
    """
    if n <= 2:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1
    q = n - (1 << r) - 1
    if 2 * q <= (1 << r):
        return 3 * (1 << r) + 4 * q
    return 4 * (1 << r) + 2 * q


def _block_counts(word: str) -> Tuple[int, int, int, int]:
    counts = dict.fromkeys(("00", "01", "10", "11"), 0)
    for a, b in zip(word, word[1:]):
        counts[a + b] += 1
    return tuple(counts.values())


def _thue_morse_slice(start: int, length: int) -> str:
    """t(i) = parity of the binary digit sum of i, for i in [start, start+length)."""
    return "".join("01"[i.bit_count() & 1] for i in range(start, start + length))


def check_oracle(name: str, report: dict) -> Optional[str]:
    """None when the report agrees with the oracle, else the disagreement."""
    results = report["results"]
    if name == "tm-complexity":
        cap = report["config"]["exhaustive_cap"]
        want = sum(thue_morse_complexity(n) for n in range(cap + 1))
        got = results["sample"]["words"]
        return None if got == want else f"|M words {got} != Brlek count {want}"
    if name == "witness-10":
        w, wp = results["word"], results["word_prime"]
        if not len(w) == len(wp) == results["length"] == (4**10 + 2) // 3:
            return "witness length differs from (4^10 + 2) / 3"
        diff = [a - b for a, b in zip(_block_counts(w), _block_counts(wp))]
        if diff != [5, -5, -5, 5] or diff != results["block_difference"]:
            return f"block difference {diff} is not 5*(1,-1,-1,1) as reported"
        cert = results["certificate"]
        if w != _thue_morse_slice(cert["position"], len(w)):
            return "word is not the Thue-Morse factor at its certified position"
        if wp != _thue_morse_slice(cert["position_prime"], len(wp)):
            return "word_prime is not the Thue-Morse factor at its certified position"
        return None
    if name == "verify-all":
        ok = (
            results["checks_run"] == results["checks_passed"] == 21
            and results["failed"] == []
            and len(report["checks"]) == 21
            and all(c["passed"] is True for c in report["checks"])
        )
        return None if ok else "verify did not pass 21 of 21 checks"
    raise ValueError(f"unknown oracle {name!r}")
