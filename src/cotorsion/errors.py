"""Domain errors shared by every module.

All library failures derive from CotorsionError so callers (and the CLI)
can separate domain errors from programming errors.
"""


class CotorsionError(Exception):
    """Base class for all domain errors raised by this package."""


class DegenerateInput(CotorsionError):
    """Input outside the mathematical domain of the operation (e.g. xgcd(0, 0))."""


class OutOfRange(CotorsionError):
    """Input exceeds a configured exact-computation bound."""


class NotUnimodular(CotorsionError):
    """Pair is not unimodular modulo the given modulus/ideal."""


class BadModuli(CotorsionError):
    """Moduli are not pairwise coprime or do not multiply to the expected modulus."""


class NotFullRank(CotorsionError):
    """Generators do not span a finite-index sublattice."""


class BadInvariants(CotorsionError):
    """Invariant data is inconsistent (e.g. d1 does not divide d2, or K != L*I)."""


class BadLength(CotorsionError):
    """Dirichlet series truncation lengths do not match."""


class ZeroIdeal(CotorsionError):
    """All generators vanish; the zero ideal is outside the supported domain."""


class NonComaximal(CotorsionError):
    """Ideals expected to be pairwise comaximal are not."""


class BadProduct(CotorsionError):
    """A list of ideal factors does not multiply to the expected modulus."""


class InternalInconsistency(CotorsionError):
    """An internal consistency check failed: the computation contradicts a theorem.

    Raised instead of ``assert`` so that the check survives ``python -O``.
    """
