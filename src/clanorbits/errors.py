"""Exception types shared across the package."""


class ClanError(ValueError):
    """Malformed clan data or an operation applied outside its domain."""


class MalformedToken(ClanError):
    pass


class PairCountNotTwo(ClanError):
    pass


class OddLength(ClanError):
    pass


class SignatureMismatch(ClanError):
    pass


class NotSymmetric(ClanError):
    pass


class NotAntisymmetric(ClanError):
    pass


class NotClosed(ClanError):
    pass


class NotBelow(ClanError):
    pass


class InvalidRoot(ClanError):
    pass


class RankTooLarge(ClanError):
    pass


class UnknownOrbit(ClanError):
    pass


class ConsistencyError(RuntimeError):
    """An internal invariant that is checked rather than assumed has failed.

    These guards back the claims the move rules rely on (mirrored moves
    succeed together, raised orbits stay in their family one dimension up,
    graded completion).  Seeing one means a rule is wrong, not the input.
    """


class NotGraded(ConsistencyError):
    """A cover edge violates the dimension-plus-one grading."""


class CacheError(ValueError):
    pass


class VersionMismatch(CacheError):
    pass


class CorruptCache(CacheError):
    pass
