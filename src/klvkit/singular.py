"""Support for singular infinitesimal characters: translation data to a
nonsingular character, and the commutativity check for the translation
square."""

from __future__ import annotations

from dataclasses import dataclass

from .gaussian import GVec, ScaledVec, gvec, vec_add
from .rootdata import LeviSelection, RootDatum

__all__ = [
    "TranslationDatum", "validate_translation_datum", "check_translation_square",
]


@dataclass(frozen=True)
class TranslationDatum:
    xi: GVec
    mu: tuple[int, ...]

    def xi_prime(self) -> GVec:
        return vec_add(self.xi, gvec(self.mu))


def validate_translation_datum(d: RootDatum, lv: LeviSelection,
                               t: TranslationDatum) -> list[str]:
    """xi + mu must be nonsingular on the Levi and preserve every
    positive-integer pairing of xi."""
    out = []
    xi, xip = ScaledVec(t.xi), ScaledVec(t.xi_prime())
    for alpha in lv.levi:
        if xip.is_zero(d.coroot(alpha)):
            out.append(f"shifted character still singular at Levi root {list(alpha)}")
    for alpha in d.roots:
        cr = d.coroot(alpha)
        if xi.is_positive_integer(cr) and not xip.is_positive_integer(cr):
            out.append(f"positive-integer pairing broken at root {list(alpha)}")
    return out


def check_translation_square(iota_xi: dict[str, str],
                             iota_xi_prime: dict[str, str],
                             tL: dict[str, str],
                             tG: dict[str, str]):
    """Commutativity: mapping across then up must equal up then across.
    Returns (True, None) or (False, witness label)."""
    for gamma, gamma_prime in sorted(tL.items()):
        if gamma not in iota_xi:
            raise ValueError(f"domain mismatch: {gamma!r} has no image")
        if gamma_prime not in iota_xi_prime:
            raise ValueError(f"domain mismatch: {gamma_prime!r} has no image")
        if iota_xi[gamma] not in tG:
            raise ValueError(f"domain mismatch: {iota_xi[gamma]!r} not translatable")
        if iota_xi_prime[gamma_prime] != tG[iota_xi[gamma]]:
            return False, gamma
    return True, None
