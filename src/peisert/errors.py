"""Exception types shared across the package.

Errors fall into three groups, which the command line maps to exit codes:
bad input (InputError: the request itself is malformed), exhausted budgets,
and failed verifications (the input was well formed but a certified
property did not hold).
"""


class PeisertError(Exception):
    """Base class for all library errors."""


# ----- bad input -------------------------------------------------------

class InputError(PeisertError):
    """The request itself is malformed; the command line exits 3."""


class NonPrimeCharacteristic(InputError):
    """The characteristic must be an odd prime."""


class ReducibleModulus(InputError):
    """The supplied modulus polynomial is not irreducible (or not monic)."""


class OverflowingOrder(InputError):
    """Field order above the 2**20 table cap."""


class LogOfZero(InputError):
    """Discrete log of the zero element requested."""


class OddDegreeField(InputError):
    """A quadratic-extension operation was applied to an odd-degree field."""


class NotProperSubfield(InputError):
    """Requested subfield order does not give a proper subfield of F_q."""


class MissingBaseCoset(InputError):
    """Connection sets must contain coset index 0 (the subfield line)."""


class TooManyCosets(InputError):
    """More than q coset indices requested."""


class IndexOutOfRange(InputError):
    """Coset index outside [0, q], or vertex outside [0, n)."""


class BadDivisor(InputError):
    """Family parameter d fails its divisibility requirement."""


class WrongCharacteristicResidue(InputError):
    """Residue condition on q for the requested family fails."""


class NoFreeCoset(InputError):
    """No coset left over for alpha; impossible when m <= q."""


class LengthMismatch(InputError):
    """A vector or coloring has the wrong length."""


class NotMaximumClique(InputError):
    """The supplied vertex set is not a maximum clique."""


class NotSquare(InputError):
    """A square matrix was required."""


class BadEntries(InputError):
    """Matrix entries outside {-1, 0, 1}."""


class MalformedFile(InputError):
    """An input file is empty, lacks its header or data rows, or holds
    an edge that is a self-loop or leaves the vertex range."""


# ----- exhausted budget -------------------------------------------------

class SearchTimeout(PeisertError):
    """A search exceeded its time budget; partial output is never returned."""


# ----- failed verification ----------------------------------------------

class VerificationFailed(PeisertError):
    """An element-by-element check of a constructed set failed."""


class NotRegular(PeisertError):
    """Graph is not regular; witness vertex pair attached."""


class NotStronglyRegular(PeisertError):
    """Common-neighbor counts are not constant; witness pair attached."""


class OAVerificationFailed(PeisertError):
    """Some pair of rows misses or repeats an ordered symbol pair."""


class NotIsomorphicUnderF(PeisertError):
    """The planar correspondence is not an isomorphism; witness attached."""


class CorrespondenceFailed(PeisertError):
    """A line clique and its coset clique disagree under the correspondence."""


class CanonicalAfterAll(PeisertError):
    """A clique constructed to be non-canonical matched a coset clique."""


class CertificationFailed(PeisertError):
    """A multi-part certificate failed at the attached stage."""


class ReproductionMismatch(PeisertError):
    """A pinned reproduction value disagreed with the recomputation."""
