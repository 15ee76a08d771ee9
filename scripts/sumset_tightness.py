#!/usr/bin/env python3
"""Survey how often the sumset lower bounds are attained with equality.

For each prime p the script samples random pairs of subsets of Z_p, runs the
Cauchy-Davenport and Erdos-Heilbronn checks, and tabulates how often
|A + B| (resp. |A +' A|) lands exactly on the guaranteed lower bound versus
strictly above it.  It also reports how often the binomial certificate that
powers the proof is available (the bound must stay below p for the coefficient
argument to apply).

Usage:
    python3 scripts/sumset_tightness.py --primes 5 7 11 13 --trials 2000
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field

from combnull import PrimeField, cauchy_davenport_check, erdos_heilbronn_check


@dataclass(frozen=True)
class SurveyConfig:
    primes: tuple[int, ...] = (3, 5, 7, 11, 13)
    trials: int = 1000
    seed: int = 2024


@dataclass
class Tally:
    tight: int = 0
    slack: int = 0
    certified: int = 0
    slack_sizes: list[int] = field(default_factory=list)

    def record(self, result_size: int, bound: int, has_cert: bool) -> None:
        if result_size == bound:
            self.tight += 1
        else:
            self.slack += 1
            self.slack_sizes.append(result_size - bound)
        if has_cert:
            self.certified += 1

    def row(self, label: str, total: int) -> str:
        mean_slack = (
            sum(self.slack_sizes) / len(self.slack_sizes) if self.slack_sizes else 0.0
        )
        return (
            f"  {label:<18} tight {self.tight:>6}/{total}"
            f"  certified {self.certified:>6}"
            f"  mean slack when slack {mean_slack:6.2f}"
        )


def random_subset(rng: random.Random, p: int) -> list[int]:
    return rng.sample(range(p), rng.randint(1, p))


def survey_prime(p: int, cfg: SurveyConfig, rng: random.Random) -> None:
    fld = PrimeField(p)
    cd = Tally()
    eh_self = Tally()
    eh_pair = Tally()
    for _ in range(cfg.trials):
        a = random_subset(rng, p)
        b = random_subset(rng, p)
        rep = cauchy_davenport_check(fld, a, b)
        cd.record(len(rep.result), rep.bound, rep.certificate is not None)
        rep = erdos_heilbronn_check(fld, a)
        eh_self.record(len(rep.result), rep.bound, rep.certificate is not None)
        if sorted(a) != sorted(b):
            rep = erdos_heilbronn_check(fld, a, b)
            eh_pair.record(len(rep.result), rep.bound, rep.certificate is not None)
    print(f"p = {p} ({cfg.trials} trials per row)")
    print(cd.row("A + B", cfg.trials))
    print(eh_self.row("A +' A", cfg.trials))
    print(eh_pair.row("A +' B, A != B", eh_pair.tight + eh_pair.slack))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    defaults = SurveyConfig()
    parser.add_argument(
        "--primes", type=int, nargs="+", default=list(defaults.primes)
    )
    parser.add_argument("--trials", type=int, default=defaults.trials)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    args = parser.parse_args()
    cfg = SurveyConfig(tuple(args.primes), args.trials, args.seed)

    rng = random.Random(cfg.seed)
    for p in cfg.primes:
        survey_prime(p, cfg, rng)
        print()


if __name__ == "__main__":
    main()
