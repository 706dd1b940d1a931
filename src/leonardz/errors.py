"""Exception taxonomy shared across the package.

Every error raised by this package derives from LeonardError, so callers
can catch one base class.  A few classes also derive from the matching
builtin (ZeroDivisionError, IndexError) so generic handlers keep working.
"""


class LeonardError(Exception):
    """Base class for all errors raised by this package."""


# -- field arithmetic ------------------------------------------------------

class ContextMismatch(LeonardError):
    """Two elements from different field contexts were combined."""


class DivisionByZero(LeonardError, ZeroDivisionError):
    """Division by the zero element of a field."""


class ParseError(LeonardError, ValueError):
    """Text does not match the element grammar."""


class ZeroDenominator(ParseError):
    """A rational literal with denominator zero."""


class InvalidField(LeonardError, ValueError):
    """A field label or its parameters name no supported field."""


class ReducibleModulus(InvalidField):
    """Extension field modulus is not irreducible over its prime field."""


# -- type specs and parameter arrays ---------------------------------------

class InvalidSpec(LeonardError):
    """A type spec violates one or more constraint clauses."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"{v.clause}: {v.detail}" for v in self.violations))


class UnsupportedCharacteristic(InvalidSpec):
    """The field characteristic conflicts with the type's characteristic clause."""


class DegenerateArray(LeonardError):
    """Computed sequences violate parameter array invariants.

    Signals a gap in the constraint checks, not bad user input.  Also
    raised for a split pair (realization.Realization) built with a list of
    the wrong length for its array's d, naming the list: "sub has 2
    entries, not 3 (d = 3)".
    """


class ZeroScale(LeonardError, ValueError):
    """Affine transformation with a zero scale factor."""


# -- realizations ----------------------------------------------------------

class RepeatedEigenvalue(LeonardError, ValueError):
    """Eigenvalue list passed to the idempotent construction is not distinct."""


class IdempotentCheckFailed(LeonardError):
    """A computed projection fails its check; the input matrix was bad.

    Raised when E*E != E (the product formula, primitive_idempotents) and
    when the closed form of an eigenvector family fails a residual of its
    certificate M v_i = theta_i v_i, in verify_axioms: "rank-one E* of
    A*: M v_i != theta_i v_i in row r" for A*, and "rank-one E of A^T:
    ..." for A^T, whose v_i is the left factor w_i of E_i: a diagonal or
    an off-diagonal of the split pair that does not fit the array's
    eigenvalues.
    """


class SingularBasis(LeonardError):
    """The candidate standard-basis vectors are linearly dependent.

    Raised by the change to the standard basis when the certificate
    A V* = V* T, run on the closed form of V*, finds
    T = W* A V* not tridiagonal: "A not tridiagonal at (i,j): S_ij"
    names an entry off the band and its value.  Then the intersection
    numbers are read off the band by the row sums
    c_(i-1) + a_i + b_i = theta_0, and the scale D of E*_i u = D_i v*_i,
    the theta_0-eigenvector of T, must be nonzero:
    "off-diagonal intersection numbers must be nonzero: T at (i,j) is 0"
    names a zero next to the diagonal, "E*_i u vanishes: D_i = 0" a zero
    b_(i-1), which vanishes exactly when D_i does, and
    "(T - theta_0 I) D != 0 in row d: r" a last row that does not sum to
    theta_0, with r = D_d (a_d + c_(d-1) - theta_0).
    """


class SingularMatrix(LeonardError):
    """Exact linear solve hit a singular coefficient matrix."""


class AxiomViolation(LeonardError):
    """A tridiagonal-vanishing axiom check failed.

    verify_axioms names the entry (i, j) of E A* E: "E A* E at (i,j)
    expected zero, got x" with x the entry of W A* V, the w_i of E's
    closed form, each with w_i[i] = 1, as the rows of W and V = W^-1; or
    "E A* E at (i,j) expected nonzero" for the first zero next to the
    diagonal, in row-major order.
    """

    def __init__(self, which, i, j, message):
        self.which = which
        self.i = i
        self.j = j
        super().__init__(f"{which} at ({i},{j}) {message}")


# -- zero diagonal space ----------------------------------------------------

class ZeroDiagCheckFailed(LeonardError):
    """A kernel element failed the zero-diagonal verification."""


class DependenceDetected(LeonardError):
    """The five canonical generators came out linearly dependent."""


class IndexOutOfRange(LeonardError, IndexError):
    """Index outside the admissible interior range."""


# -- analysis / verification -----------------------------------------------

class IdentityFailure(LeonardError):
    """An exact identity that must hold on every valid instance failed."""

    def __init__(self, i, j, lhs, rhs):
        self.i = i
        self.j = j
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"identity failed at ({i},{j}): {lhs} != {rhs}")


class TableInconsistency(LeonardError):
    """Two routes that must agree on the spin predicate disagreed."""


class MismatchAtEntry(LeonardError):
    """A golden-value comparison failed at a specific matrix entry."""

    def __init__(self, label, entry, got, expected):
        self.label = label
        self.entry = entry
        self.got = got
        self.expected = expected
        super().__init__(f"{label} mismatch at {entry}: got {got}, expected {expected}")


class SamplingExhausted(LeonardError):
    """Could not draw a constraint-satisfying sample within the retry budget."""


class InvalidMode(LeonardError, ValueError):
    """A sampling mode that the family does not have at the given diameter."""
