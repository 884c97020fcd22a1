"""Exception hierarchy shared by all modules, plus the work :class:`Budget`.

Every failure that a caller can act on gets its own class; generic
``ValueError``/``TypeError`` are reserved for plain programming mistakes.
"""


class GaldescentError(Exception):
    """Base class for all library errors."""


# -- field construction / arithmetic ---------------------------------------

class NotMonic(GaldescentError):
    pass


class NotSquarefree(GaldescentError):
    pass


class NotIrreducible(GaldescentError):
    pass


class NotSeparable(GaldescentError):
    pass


class InvalidFieldParameter(GaldescentError):
    """A field constructor's parameter names no supported field: a prime
    field of non-prime order, a cyclotomic field of index below 3."""


class FieldMismatch(GaldescentError):
    """Operands or declarations belong to different fields."""


class DivisionByZero(GaldescentError):
    pass


class NotFiniteBase(GaldescentError):
    pass


# -- linear algebra ---------------------------------------------------------

class ShapeMismatch(GaldescentError):
    pass


class SingularMatrix(GaldescentError):
    pass


class RankDeficient(GaldescentError):
    pass


# -- Galois groups ----------------------------------------------------------

class NotARoot(GaldescentError):
    pass


class NotInvertible(GaldescentError):
    pass


class NotClosed(GaldescentError):
    """A user-supplied automorphism list is not closed under composition."""


# -- semilinear actions and descent data ------------------------------------

class IdentityNotTrivial(GaldescentError):
    pass


class CocycleViolation(GaldescentError):
    def __init__(self, sigma, tau, detail=""):
        super().__init__(f"cocycle law fails at pair ({sigma}, {tau}){': ' + detail if detail else ''}")
        self.sigma = sigma
        self.tau = tau


class NotStable(GaldescentError):
    def __init__(self, sigma, witness):
        super().__init__(f"subobject is not stable under {sigma}; witness {witness}")
        self.sigma = sigma
        self.witness = witness


class InternalContradiction(GaldescentError):
    """A theorem-guaranteed postcondition failed; invalid input slipped through."""


class NotWellDefined(GaldescentError):
    def __init__(self, sigma, generator):
        super().__init__(f"map for {sigma} does not preserve the relation ideal; generator {generator}")
        self.sigma = sigma
        self.generator = generator


class SplittingCheckFailed(InternalContradiction):
    pass


class NotEquivariant(GaldescentError):
    def __init__(self, sigma, variable):
        super().__init__(f"morphism does not commute with the action at {sigma} on {variable}")
        self.sigma = sigma
        self.variable = variable


class TransportNotRational(InternalContradiction):
    pass


class ConditionAViolated(GaldescentError):
    def __init__(self, rho, sigma, tau):
        super().__init__(f"composition condition fails for ({rho}, {sigma}, {tau})")
        self.rho, self.sigma, self.tau = rho, sigma, tau


class ConditionBViolated(GaldescentError):
    def __init__(self, sigma, tau, omega):
        super().__init__(f"conjugation condition fails for ({sigma}, {tau}) under {omega}")
        self.sigma, self.tau, self.omega = sigma, tau, omega


# -- work limits -----------------------------------------------------------

class BudgetExceeded(GaldescentError):
    pass


class Budget:
    """The work one command may do.  Groebner reduction steps are counted
    across every call sharing the object; each exhaustive scan, each
    coordinate expansion of a Weil restriction and each realized tensor
    power is checked on its own, before anything is built."""

    __slots__ = ("steps", "points", "spent")
    TENSOR_DIM = 4096

    def __init__(self, steps=10 ** 6, points=2_000_000):
        self.steps = steps
        self.points = points
        self.spent = 0

    def spend(self, n=1):
        self.spent += n
        if self.spent > self.steps:
            raise BudgetExceeded(f"exceeded {self.steps} reduction steps")

    def check_scan(self, candidates, table_entries=0):
        """Raise unless the candidates and field-table entries of one scan fit."""
        for count, what in ((candidates, "candidate points"),
                            (table_entries, "field table entries")):
            if count > self.points:
                raise BudgetExceeded(f"{count} {what} exceed budget {self.points}")

    def check_expansion(self, monomials):
        """Raise unless a coordinate expansion of at most ``monomials``
        monomials fits."""
        if monomials > self.points:
            raise BudgetExceeded(
                f"coordinate expansion of up to {monomials} monomials exceeds "
                f"budget {self.points}")

    def check_tensor_power(self, dim, power):
        """Raise unless B^(x)power fits, for B of dimension dim.  The powers
        of dim are multiplied out only up to the first one past the cap, so
        a huge ``power`` costs a few steps and its dimension is never built."""
        if dim <= 1:
            return
        size = 1
        for k in range(1, power + 1):
            size *= dim
            if size > self.TENSOR_DIM:
                if k == power:
                    raise BudgetExceeded(
                        f"dim B^(x){power} = {size} exceeds cap {self.TENSOR_DIM}")
                raise BudgetExceeded(
                    f"dim B^(x){power} exceeds cap {self.TENSOR_DIM}: "
                    f"dim B^(x){k} = {size} already does")


# -- Weil restriction ---------------------------------------------------------

class MismatchFound(InternalContradiction):
    pass


class CountMismatch(InternalContradiction):
    pass


# -- flat descent -------------------------------------------------------------

class ZeroTarget(GaldescentError):
    pass


class BasisNotIndependent(GaldescentError):
    pass


class BasisNotSpanning(GaldescentError):
    pass


class UnsupportedBase(GaldescentError):
    """Tensor constructions require the map source to be the base field."""


class NotExact(GaldescentError):
    def __init__(self, degree, detail=""):
        super().__init__(f"complex is not exact at degree {degree}{': ' + detail if detail else ''}")
        self.degree = degree


class NotBilinearCompatible(GaldescentError):
    pass


class CocycleFailed(GaldescentError):
    def __init__(self, witness):
        super().__init__(f"descent-datum cocycle identity fails on basis element {witness}")
        self.witness = witness


class ReconstructionFailed(InternalContradiction):
    pass
